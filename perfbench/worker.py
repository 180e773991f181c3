"""The benchmark's worker process: set up one workload and run its jobs.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is one of
  setup    set up and exit; reports setup time only,
  measure  set up, then run whole passes over the job list, at least two,
           until the next pass would end after SECONDS,
  trace    set up and run one pass with the tracer installed, then one pass
           without it, then the jet kernel probe.
The worker prints one JSON object on stdout.  run.py starts it and turns
what it reports into metrics.
"""

from time import perf_counter, process_time

STARTED = perf_counter()  # set-up time counts from here, before any import

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402

import probe  # noqa: E402
import workloads  # noqa: E402
from calibrate import Sampler, settled_slowdown  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_PASSES = 2  # pass-to-pass byte identity needs two passes


class Runner:
    """Times jobs and checks each outcome, and that every job's digest
    repeats from pass to pass and matches any recorded digest.  Each job
    also records the machine's slowdown while it ran (calibrate.py); the
    wall and CPU times exclude the samples taken during the job."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.seen: dict = {}

    def run_pass(self, jobs, tracer=None, tag: str = "") -> dict:
        sampler = Sampler()
        records = []
        for job in jobs:
            if tracer is not None:
                tracer.job = f"{tag}{job.label}"
            sampler.start()
            cpu0 = process_time()
            t0 = perf_counter()
            try:
                outcome = job.call()
                error = None
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            finally:
                slowdown, stolen = sampler.stop()
            wall = perf_counter() - t0 - stolen
            cpu = process_time() - cpu0 - stolen
            if error is None:
                error = self.verify(job, outcome)
            records.append({"label": job.label, "points": job.points,
                            "wall": wall, "cpu": cpu, "slowdown": slowdown,
                            "error": error})
        return {"jobs": records}

    def verify(self, job, outcome):
        try:
            payload = job.check(outcome)
        except workloads.JobError as exc:
            return f"check failed: {exc}"
        digest = hashlib.sha256(payload).hexdigest()
        want = self.expected.get(job.label) or self.seen.setdefault(job.label, digest)
        if digest != want:
            return f"digest {digest[:12]} differs from {want[:12]}"
        return None


def _quiet_s(run: dict) -> float:
    return sum(job["wall"] / job["slowdown"] for job in run["jobs"])


def main(argv) -> int:
    mode, workload, seed, seconds, workdir = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    out: dict = {}

    build = workloads.WORKLOADS[workload]
    runner = Runner(workloads.expected_digests(workload, seed))
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        jobs = build(seed, workdir)
        out["setup_s"] = perf_counter() - STARTED
        out["setup_slowdown"] = settled_slowdown()
        traced = runner.run_pass(jobs, tracer, "traced:")
        tracer.uninstall()
        plain = runner.run_pass(jobs)
        out["passes"] = [traced, plain]
        out["layers"] = tracer.layer_metrics()
        out["layers"]["trace.overhead_ratio"] = {
            "value": _quiet_s(traced) / _quiet_s(plain), "unit": "ratio"}
        out["probe"], out["probe_errors"] = probe.run(seed)
        tracer.dump(workdir.parent / f"trace-{workload}.json")
    else:
        jobs = build(seed, workdir)
        out["setup_s"] = perf_counter() - STARTED
        out["setup_slowdown"] = settled_slowdown()
        if mode == "measure":
            passes = []
            t0 = perf_counter()
            while True:
                passes.append(runner.run_pass(jobs))
                elapsed = perf_counter() - t0
                per_pass = elapsed / len(passes)
                if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
                    break
            out["passes"] = passes

    out["numpy"] = numpy.__version__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
