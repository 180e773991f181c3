"""Capture the outputs that a change meant to keep every answer must keep.

    python3 tools/capture_identity.py OUT.json

Run from the root of a checkout; the package is imported from `src/`, and
the `recover` and `highdim` jobs from `perfbench/workloads.py`.  Run it on
two checkouts and compare the two files (`diff` or `cmp`): they are equal
iff every captured output is.  It writes, as one JSON object:

- `cli`: the SHA-256 and exit code of the `classify`, `metrize` and
  `oracle` JSON of every fixture at seeds 3 and 11, and the SHA-256 of the
  lines each command prints;
- `run_fixture`: the corpus report of every fixture at seeds 3 and 11
  (passed, diffs, flags, residuals, checks and every verdict field);
- `samples`: per sample of the `classify` command of every fixture at
  seeds 3 and 11, in the order the command computed them, its scalar
  split (R, tau, residual, holds), its isotropy and constancy checks, and
  its identity dict with the keys in their order; the report keeps only
  the maximum over the samples;
- `recover` and `highdim`: the outcome of every job of those benchmark
  workloads at seed 7 (verdicts, metric reads, CLI JSON).

Floats are written as `float.hex`, so equal files mean equal bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spraylab import classify, cli, corpus, geometry, metrize  # noqa: E402

SEEDS = (3, 11)
JOB_SEED = 7


def enc(obj):
    """JSON terms with floats as float.hex; other objects by type name."""
    if isinstance(obj, dict):
        return {str(k): enc(v) for k, v in sorted(obj.items())}
    if isinstance(obj, np.ndarray):
        return enc(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [enc(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, metrize.Verdict):
        return verdict(obj)
    return f"<{type(obj).__name__}>"


def verdict(v: metrize.Verdict) -> dict:
    metric = None
    if v.recovered_metric is not None:
        # the recovered metric's value at the first base, y = (1, ..., 1)
        pt = np.concatenate([v.bases[0], np.ones(len(v.bases[0]))])
        metric = v.recovered_metric.value(pt)
    return enc({"outcome": v.outcome, "rule": v.rule, "residual": v.residual,
                "omega": v.omega, "bases": v.bases, "evidence": v.evidence,
                "recovered_metric_value": metric})


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_outputs(workdir: Path) -> dict:
    out = {}
    report = workdir / "report.json"
    for seed in SEEDS:
        for name in corpus.fixture_names():
            for command in ("classify", "metrize", "oracle"):
                if report.exists():
                    report.unlink()
                lines = io.StringIO()
                with contextlib.redirect_stdout(lines), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([command, name, "--seed", str(seed),
                                     "--out", str(report)])
                out[f"{command} {name} seed {seed}"] = {
                    "exit": code,
                    "json": sha(report.read_bytes()) if report.exists() else None,
                    "lines": sha(lines.getvalue().encode()),
                }
    return out


def fixture_reports() -> dict:
    out = {}
    for seed in SEEDS:
        for name in corpus.fixture_names():
            rep = corpus.run_fixture(name, seed=seed)
            out[f"{name} seed {seed}"] = enc({
                "passed": rep.passed, "diffs": rep.diffs, "flags": rep.flags,
                "residuals": rep.residuals, "checks": rep.checks,
                "verdict": rep.verdict, "count": rep.count})
    return out


@contextlib.contextmanager
def recording(module, name: str, results: list):
    """Append each result of module.name to `results` while the block runs."""
    fn = getattr(module, name)

    def record(*args, **kw):
        out = fn(*args, **kw)
        results.append(out)
        return out

    setattr(module, name, record)
    try:
        yield
    finally:
        setattr(module, name, fn)


def sample_records() -> dict:
    out = {}
    for seed in SEEDS:
        for name in corpus.fixture_names():
            splits, iso, con, idents = [], [], [], []
            with recording(classify, "decompose_scalar", splits), \
                    recording(classify, "is_isotropic", iso), \
                    recording(classify, "is_constant", con), \
                    recording(geometry, "identity_residuals", idents):
                cli.cmd_classify(cli.RunConfig(input=name, seed=seed))
            # a call at a block bundle gives one dict per row
            rows = [d for res in idents
                    for d in (res if isinstance(res, list) else [res])]
            out[f"{name} seed {seed}"] = {
                "split": [enc([d.R, d.tau, d.residual, d.holds]) for d in splits],
                "isotropic": [enc([c.holds, c.residual]) for c in iso],
                "constant": [enc([c.holds, c.residual, c.ric_residual])
                             for c in con],
                "identities": [enc(list(d.items())) for d in rows],
            }
    return out


def job_outcomes(make_jobs, workdir: Path) -> dict:
    out = {}
    for job in make_jobs(JOB_SEED, workdir):
        try:
            result = job.call()
        except Exception as exc:  # an error is an outcome too
            out[job.label] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        if isinstance(result, tuple):  # a CLI job: (exit code, JSON bytes)
            code, payload = result
            out[job.label] = {"exit": code, "json": sha(payload)}
        else:
            out[job.label] = enc(result)
    return out


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    target = Path(argv[0]).resolve()
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        record["cli"] = cli_outputs(workdir)
        record["run_fixture"] = fixture_reports()
        record["samples"] = sample_records()
        record["recover"] = job_outcomes(workloads.recover_jobs, workdir)
        highdim = workdir / "highdim"
        highdim.mkdir()
        here = os.getcwd()
        os.chdir(highdim)  # gen-pflat writes relative paths into its report
        try:
            record["highdim"] = job_outcomes(workloads.highdim_jobs, highdim)
        finally:
            os.chdir(here)
    target.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
