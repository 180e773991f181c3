"""Byte identity of the classify and metrize reports of every fixture.

`data/cli_digests_seed7.json` holds the SHA-256 of each report at seed 7.
A change that alters a report on purpose re-records the file (the values
are those `perfbench/record_digests.py` writes) and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from spraylab import cli

RECORD = json.loads(
    (Path(__file__).parent / "data" / "cli_digests_seed7.json").read_text())


@pytest.mark.parametrize("label", sorted(RECORD["digests"]))
def test_report_digest_matches_record(label, tmp_path):
    command, name = label.split(" ", 1)
    out = tmp_path / "report.json"
    code = cli.main([command, name, "--seed", str(RECORD["seed"]),
                     "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORD["digests"][label]
