"""spraylab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The jobs run in a single-threaded worker
process (worker.py) with BLAS pinned to one thread.  With --trace 0 the last
line of stdout carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of one traced pass.  See perfbench/README.md.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "recover", "highdim", "oracle")
SETUP_PROBES = 5  # extra worker start-ups whose set-up time joins the median
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    # set iteration order must not vary between runs, or counters would
    env["PYTHONHASHSEED"] = "0"
    env.pop("SPRAYLAB_SEED", None)
    return env


def run_worker(mode: str, args, workdir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds), str(workdir)]
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) did not finish in {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spraylab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".spray", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git clone (the source
    digest still identifies the code)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(numpy_version: str) -> dict:
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {name: "1" for name in THREAD_VARS},
    }


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups: list, result: dict, quiet: bool) -> dict:
    """The end-to-end metrics; with `quiet`, every time is divided by the
    machine's slowdown measured around it (calibrate.py)."""
    passes = result["passes"]
    jobs = [job for p in passes for job in p["jobs"]]

    def scale(job) -> float:
        return job["slowdown"] if quiet else 1.0

    walls = [job["wall"] / scale(job) for job in jobs]
    return {
        "setup_s": (statistics.median(s / (f if quiet else 1.0) for s, f in setups), "s"),
        "points_per_s": (sum(job["points"] for job in jobs) / sum(walls), "1/s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.p90": (percentile(walls, 90), "s"),
        "cpu_s": (statistics.median(sum(job["cpu"] / scale(job) for job in p["jobs"])
                                    for p in passes), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "spraylab" / "__init__.py").is_file():
        print(f"error: no spraylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_build" / "perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = run_worker("setup", args, workdir)
                setups.append((probe["setup_s"], probe["setup_slowdown"]))
                shutil.rmtree(workdir, ignore_errors=True)
        result = run_worker("trace" if args.trace else "measure", args, workdir)
        setups.append((result["setup_s"], result["setup_slowdown"]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [job for p in result["passes"] for job in p["jobs"]]
    errors = [f"{job['label']}: {job['error']}" for job in jobs if job["error"]]
    attempted, failed = len(jobs), len(errors)
    if args.trace:
        errors += result["probe_errors"]
        attempted += len(result["probe"])
        failed += len(result["probe_errors"])
        metrics = {**result["layers"], **result["probe"]}
        raw = {}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(setups, result, True).items()}
        raw = {name: {"value": value, "unit": unit}
               for name, (value, unit) in end_to_end(setups, result, False).items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(result["numpy"]),
        "passes": len(result["passes"]), "jobs": attempted,
        "error_rate": failed / attempted, "errors": errors, "metrics": metrics,
        "raw_wall_clock": raw,
        "job_records": [[job["label"], job["wall"], job["cpu"], job["slowdown"]]
                        for job in jobs],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {len(result['passes'])} passes, "
          f"{attempted} jobs, error_rate {failed / attempted:.4g} "
          f"({failed}/{attempted})")
    for line in errors:
        print(f"  FAILED {line}")
    for key, m in metrics.items():
        line = f"  {key:<40} {m['value']:.6g} {m['unit']}"
        if key in raw and raw[key] != m:
            line += f"   (raw wall clock {raw[key]['value']:.6g})"
        print(line)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
