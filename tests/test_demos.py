"""The demos print, byte for byte, what they printed when recorded.

`data/demo_<name>.txt` holds the stdout of `demos/<name>.py`.  Each demo
runs in its own process, as a user runs it.  A change that alters a demo's
output on purpose re-records its file and says why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_record() -> None:
    assert DEMOS
    assert ({p.stem for p in DEMOS}
            == {p.stem[len("demo_"):] for p in DATA.glob("demo_*.txt")})


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_record(demo) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (DATA / f"demo_{demo.stem}.txt").read_bytes()
