"""Byte identity of the classify, metrize and oracle reports of every fixture.

`data/cli_digests_seed7.json` holds the SHA-256 of each report at seed 7,
keyed by "command name".  The `classify` and `metrize` values are those
`perfbench/record_digests.py` writes; the `oracle` values were recorded the
same way, from `spraylab oracle NAME --seed 7 --out PATH`.
`data/oracle_digests_seed3.json` holds the `oracle` digests at seed 3, a
second set of sample points for the finite-difference oracle.  A change
that alters a report on purpose re-records the files and says why.

The benchmark gates the same 28 `classify`/`metrize` digests from its own
copy, `perfbench/digests.json`; the two copies must not drift apart.
"""

import hashlib
import json
from pathlib import Path

import pytest

from spraylab import cli

DATA = Path(__file__).parent / "data"
RECORD = json.loads((DATA / "cli_digests_seed7.json").read_text())
ORACLE_RECORD = json.loads((DATA / "oracle_digests_seed3.json").read_text())
BENCHMARK_RECORD = Path(__file__).parents[1] / "perfbench" / "digests.json"


def report_digest(label: str, seed: int, tmp_path) -> str:
    command, name = label.split(" ", 1)
    out = tmp_path / "report.json"
    code = cli.main([command, name, "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("label", sorted(RECORD["digests"]))
def test_report_digest_matches_record(label, tmp_path):
    assert report_digest(label, RECORD["seed"], tmp_path) == RECORD["digests"][label]


@pytest.mark.parametrize("label", sorted(ORACLE_RECORD["digests"]))
def test_oracle_digest_at_seed_3_matches_record(label, tmp_path):
    assert (report_digest(label, ORACLE_RECORD["seed"], tmp_path)
            == ORACLE_RECORD["digests"][label])


def test_benchmark_gates_the_same_digests() -> None:
    bench = json.loads(BENCHMARK_RECORD.read_text())
    ours = {label: digest for label, digest in RECORD["digests"].items()
            if label.split(" ", 1)[0] in ("classify", "metrize")}
    assert len(ours) == 28
    assert bench["seed"] == RECORD["seed"]
    assert bench["digests"] == ours
