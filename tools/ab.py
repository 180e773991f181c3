"""A/B runs of the benchmark: a commit against the working tree.

    python3 tools/ab.py --parent COMMIT --workload W [--workload W ...]
        --pairs N --seed S [--seconds 20] [--trace-seed 7]
        [--change TEXT] [--claim TEXT] [--out BENCH_<n>.json]

Run from the root of a checkout.  The parent side is a `git archive` of
COMMIT and the change side a copy of the working tree (the files git
tracks or would track), both unpacked into one temporary directory, so
that edits made while it runs do not reach it.  For each workload it runs
`perfbench/run.py --trace 0` on both sides in N pairs, pair i at seed S + i,
the parent first in even pairs and the change first in odd ones.  It then
prints, for each end-to-end metric of `BENCHMARK.json`, the median and
quartiles of each side, the parent's interquartile range and the pairs the
change won.  With --trace-seed it also runs one traced pass of each
workload on each side at that seed, for the per-layer counters.  With
--out it writes the runs and the summary as JSON, in the layout of the
committed `BENCH_*.json` files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parent_tree(commit: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def working_tree(dest: Path) -> None:
    files = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True).stdout
    for name in files.decode().split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def source_sha256(root: Path) -> str:
    """SHA-256 of the src/spraylab/*.py files concatenated in name order."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "spraylab").glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one `perfbench/run.py` run in the checkout `root`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list, metrics: list) -> dict:
    """Per workload and end-to-end metric: both medians, the parent's
    interquartile range and the pairs the change won."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        out[workload] = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            values = {side: [p[side][name]["value"] for p in pairs] for side in SIDES}
            q1, _, q3 = quartiles(values["parent"])
            won = sum((c < p) if lower else (c > p)
                      for p, c in zip(values["parent"], values["change"]))
            out[workload][name] = {
                "parent_median": statistics.median(values["parent"]),
                "change_median": statistics.median(values["change"]),
                "change_better_pairs": won,
                "pairs": len(pairs),
                "parent_iqr": q3 - q1,
            }
    return out


def report(summary: dict, runs: list) -> None:
    for workload, table in summary.items():
        print(f"== {workload}")
        print(f"  {'metric':<14} {'parent q1/med/q3':>36}   {'change q1/med/q3':>36}"
              f"   {'parent IQR':>10}  won")
        for name, s in table.items():
            cells = []
            for side in SIDES:
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == workload and r["side"] == side]
                cells.append("/".join(f"{v:.5g}" for v in quartiles(vals)))
            print(f"  {name:<14} {cells[0]:>36}   {cells[1]:>36}   "
                  f"{s['parent_iqr']:>10.3g}  {s['change_better_pairs']}/{s['pairs']}")


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": f"{cpu}, {os.cpu_count()} vCPUs", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="the seed of the first pair")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--change", default="", help="what the change does")
    parser.add_argument("--claim", default="", help="the metric the change claims to move")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        parent_tree(commit, trees["parent"])
        working_tree(trees["change"])
        runs, traced = [], {}
        for workload in args.workload:
            for i in range(args.pairs):
                seed = args.seed + i
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = bench(trees[side], workload, seed, args.seconds, 0)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "trace": 0, "result": result})
                    print(f"{workload} seed {seed} {side}: "
                          f"points_per_s {result['metrics']['points_per_s']['value']:.5g}",
                          flush=True)
            if args.trace_seed is not None:
                traced[f"traced_seed{args.trace_seed}_{workload}"] = {
                    side: bench(trees[side], workload, args.trace_seed, args.seconds, 1)
                    for side in SIDES}
        sums = {side: source_sha256(tree) for side, tree in trees.items()}

    summary = summarize(runs, metrics)
    report(summary, runs)
    if args.out:
        record = {
            "benchmark": "python3 perfbench/run.py --workload W --seed S --seconds "
                         f"{args.seconds:g} --trace 0, run from the root of each checkout",
            "change": args.change,
            "claim": args.claim,
            "parent": {"commit": commit, "source_sha256": sums["parent"]},
            "change_source_sha256": sums["change"],
            "source_sha256_of": "the src/spraylab/*.py files concatenated in name order",
            "machine": machine(),
            "pairing": (f"untraced runs in pairs at one seed each, seeds {args.seed} to "
                        f"{args.seed + args.pairs - 1}; the parent ran first in "
                        "even-indexed pairs and the change first in the others; "
                        f"{args.pairs} pairs of each of {', '.join(args.workload)}; "
                        "the parent is a git archive of its commit, the change a copy "
                        "of the working tree"),
            "summary": summary,
            "runs": runs,
            **traced,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
