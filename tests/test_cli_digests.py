"""Byte identity of the classify, metrize and oracle reports of every fixture.

`data/cli_digests_seed7.json` holds the SHA-256 of each report at seed 7,
keyed by "command name".  The `classify` and `metrize` values are those
`perfbench/record_digests.py` writes; the `oracle` values were recorded the
same way, from `spraylab oracle NAME --seed 7 --out PATH`.  A change that
alters a report on purpose re-records the file and says why.

The benchmark gates the same 28 `classify`/`metrize` digests from its own
copy, `perfbench/digests.json`; the two copies must not drift apart.
"""

import hashlib
import json
from pathlib import Path

import pytest

from spraylab import cli

RECORD = json.loads(
    (Path(__file__).parent / "data" / "cli_digests_seed7.json").read_text())
BENCHMARK_RECORD = Path(__file__).parents[1] / "perfbench" / "digests.json"


@pytest.mark.parametrize("label", sorted(RECORD["digests"]))
def test_report_digest_matches_record(label, tmp_path):
    command, name = label.split(" ", 1)
    out = tmp_path / "report.json"
    code = cli.main([command, name, "--seed", str(RECORD["seed"]),
                     "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORD["digests"][label]


def test_benchmark_gates_the_same_digests() -> None:
    bench = json.loads(BENCHMARK_RECORD.read_text())
    ours = {label: digest for label, digest in RECORD["digests"].items()
            if label.split(" ", 1)[0] in ("classify", "metrize")}
    assert len(ours) == 28
    assert bench["seed"] == RECORD["seed"]
    assert bench["digests"] == ours
