"""Record the SHA-256 of `classify` and `metrize` JSON for every fixture.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, which the corpus workload checks every run at
the recorded seed against.  Re-record only in a change that alters the report
on purpose.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spraylab import corpus  # noqa: E402
from workloads import DIGESTS, run_cli  # noqa: E402

SEED = 7  # the CLI's default seed


def main() -> int:
    digests = {}
    for name in corpus.fixture_names():
        for command in ("classify", "metrize"):
            code, payload = run_cli([command, name, "--seed", str(SEED)])
            if code != 0:
                print(f"{command} {name} exited with {code}", file=sys.stderr)
                return 1
            digests[f"{command} {name}"] = hashlib.sha256(payload).hexdigest()
    DIGESTS.write_text(json.dumps({"seed": SEED, "digests": digests},
                                  indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
