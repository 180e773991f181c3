"""Capture the outputs that a change meant to keep every answer must keep.

    python3 tools/capture_identity.py OUT.json

Run from the root of a checkout; the package is imported from `src/`, and
the `recover` and `highdim` jobs from `perfbench/workloads.py`.  Run it on
two checkouts and compare the two files (`diff` or `cmp`): they are equal
iff every captured output is.  It writes, as one JSON object:

- `cli`: the SHA-256 and exit code of the `classify`, `metrize` and
  `oracle` JSON of every fixture at seeds 3 and 11, and the SHA-256 of the
  lines each command prints;
- `points_256`: the same for the `classify`, `metrize` and `oracle`
  commands at `--points 256`, seed 3, on nonscalar3, ex7.1 and elliptic2,
  whose samples span more than one block;
- `run_fixture`: the corpus report of every fixture at seeds 3 and 11
  (passed, diffs, flags, residuals, checks and every verdict field);
- `samples`: per sample of the `classify` command of every fixture at
  seeds 3 and 11, in the order the command computed them, its scalar
  split (R, tau, residual, holds), its isotropy and constancy checks, and
  its identity dict with the keys in their order, whether a call gave one
  sample's or a block's; the report keeps only the maximum over the
  samples;
- `recover` and `highdim`: the outcome of every job of those benchmark
  workloads at seed 7 (verdicts, metric reads, CLI JSON);
- `metric_sprays`: every coefficient of `spray_from_metric` at orders 0
  and 2, at 16 sample points one at a time and then at the block of all
  16, for the elliptic2 metric and for the metrics that `decide` recovers
  on ex7.1 and ex7.3, each at seeds 3 and 11;
- `errors`: what `point_bundles`, `finsler_check`, `metric_spray_residuals`,
  `LambdaField`, `agreement_report` and the `oracle` command give on
  inputs where a block of samples, nodes or points fails: the rows
  yielded before the error, and the error's type and text.  A block that
  raises must end in the error of its first row that fails alone.

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
from spraylab import (classify, cli, corpus, dsl, geometry, metrize,  # noqa: E402
                      oracle, sampling)

SEEDS = (3, 11)
JOB_SEED = 7
# sample sets larger than one block of `classify.BLOCK_ROWS` samples
POINTS_256_SEEDS = (3,)
POINTS_256_NAMES = ("nonscalar3", "ex7.1", "elliptic2")


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


def cli_outputs(workdir: Path, seeds=SEEDS, names=None, extra=()) -> dict:
    out = {}
    report = workdir / "report.json"
    for seed in seeds:
        for name in names or corpus.fixture_names():
            for command in ("classify", "metrize", "oracle"):
                if report.exists():
                    report.unlink()
                lines = io.StringIO()
                with contextlib.redirect_stdout(lines), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([command, name, "--seed", str(seed),
                                     *extra, "--out", str(report)])
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


def per_row(results: list) -> list:
    """The results of calls at point and at block bundles, one per row: a
    call at a block bundle gives a list of one result per row."""
    return [r for res in results for r in (res if isinstance(res, list) else [res])]


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
            out[f"{name} seed {seed}"] = {
                "split": [enc([d.R, d.tau, d.residual, d.holds]) for d in splits],
                "isotropic": [enc([c.holds, c.residual]) for c in per_row(iso)],
                "constant": [enc([c.holds, c.residual, c.ric_residual])
                             for c in per_row(con)],
                "identities": [enc(list(d.items())) for d in per_row(idents)],
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


METRIC_SPRAY_ORDERS = (0, 2)
METRIC_SPRAY_POINTS = 16


def metric_sprays() -> dict:
    out = {}
    for seed in SEEDS:
        for name in ("elliptic2", "ex7.1", "ex7.3"):
            fixture = corpus.load_fixture(name)
            spray_obj = fixture.build()
            if name == "elliptic2":
                metric = fixture.metric()
            else:
                metric = metrize.decide(spray_obj, count=fixture.count, seed=seed,
                                        box=fixture.box).recovered_metric
            pts = sampling.sample_points(
                spray_obj.dim, count=METRIC_SPRAY_POINTS, seed=seed, box=fixture.box,
                accept=lambda pt: all(g > 1e-6 for g in spray_obj.guard_values(pt))
            ).points()
            for order in METRIC_SPRAY_ORDERS:
                # the points first: a candidate keeps a block's jet row by
                # row, and the point reads would take those rows
                points = [[g.coeffs for g in geometry.spray_from_metric(metric, pt, order)]
                          for pt in pts]
                block = [g.coeffs for g in geometry.spray_from_metric(metric, pts, order)]
                out[f"{name} seed {seed} order {order}"] = enc(
                    {"points": points, "block": block})
    return out


# G1 is evaluated before G2, so a block fails first in G1, at whichever row
# that is, while one sample at a time the earliest failing one fails first
TWO_DOMAINS = """
dim 2
spray G1 = ln(x1) * y1^2
spray G2 = sqrt(x2) * y2^2
"""

# singular where x1 = 0; the square root fails where x2 < 0
DEGENERATE_ROW = """
dim 2
metric L = x1 * (y1^2 + y2^2) + sqrt(x2) * y1^2
"""

# its finite-difference stencils leave the domain x1 > -0.5 near the guard
EDGE = """
dim 2
spray G1 = y1^2 * sqrt(x1 + 0.5)
spray G2 = y2^2 * sqrt(x1 + 0.5)
guard = x1 + 0.45
"""

# the oracle's Taylor arithmetic raises for a whole batch near x1 = -0.5 or
# x2 = 0, and exp overflows closer to x1 = -0.5
ISLAND = """
dim 2
metric L = (y1^2 + y2^2) * exp(1/(x1 + 0.5)) * sqrt(x2)
"""
ISLAND_POINTS = {
    "ok": (0.2, 0.5, 0.6, 0.8),
    "sqrt": (0.2, 0.03, 0.6, 0.8),
    "reciprocal": (-0.45, 0.5, 0.6, 0.8),
    "leaves": (-0.3993, 0.5, 0.6, 0.8),
}

# a flat spray whose guard raises in floats past x1 = 1.5
SQRT_GUARD = """
dim 2
spray G1 = 0
spray G2 = 0
guard = sqrt(1.5 - x1) + 1
"""

# along the x1 axis, G2 fails past x1 = 0.3 and G1, evaluated first, past 0.6
TWO_WALLS = """
dim 2
spray G1 = ln(0.6 - x1) * y1^2
spray G2 = sqrt(0.3 - x1) * y2^2
"""

FLAT = """
dim 2
spray G1 = 0
spray G2 = 0
"""


def spray(src: str):
    return geometry.spray_of(dsl.parse(src))


def at_bases(bases) -> sampling.SampleSet:
    """One sample per base, all with the tangent (0.7, 0.7)."""
    bases = np.array(bases, dtype=float)
    return sampling.SampleSet(bases, np.full((len(bases), 1, 2), 0.7))


def outcome(rows) -> dict:
    """The rows an iterable yields, and the error that ends it, if any."""
    got = []
    try:
        for row in rows:
            got.append(row)
    except Exception as exc:
        return {"rows": enc(got), "error": f"{type(exc).__name__}: {exc}"}
    return {"rows": enc(got), "error": None}


def splits(spray_obj, samples):
    for _, b, dec in classify.point_bundles(spray_obj, samples):
        yield [dec.R, dec.tau, dec.residual, dec.holds, b.point is None]


def finsler(field_obj, samples):
    fc = metrize.finsler_check(field_obj, samples)
    yield [fc.holds, fc.euler_residual, fc.rank_ratio]


def residuals(metric, spray_obj, samples, parallel: bool):
    triples = tuple(classify.point_bundles(spray_obj, samples))
    for _, _, value, semi, match in metrize.metric_spray_residuals(
            metric, triples, parallel=parallel):
        yield [value, semi, match]


def lambdas(src: str, form, targets):
    lam = metrize.lambda_field(spray(src), at_bases([[0.25, 0.25]]), 3, form)
    for target in targets:
        yield lam(np.array(target))


def agreement(spray_obj, points, h: float, block: bool):
    pts = np.array(points, dtype=float)
    bundles = (geometry.CurvatureBundle(spray_obj, pts).rows() if block
               else [geometry.CurvatureBundle(spray_obj, p) for p in pts])
    table = oracle.agreement_report(iter(bundles), h=h)
    yield [table[key] for key in sorted(table)]


def oracle_command(args: list, workdir: Path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["oracle", *args, "--out", str(workdir / "o.json")])
    yield [code, err.getvalue()]


def failure_paths(workdir: Path) -> dict:
    two = spray(TWO_DOMAINS)
    degenerate = geometry.ExprMetric(dsl.parse(DEGENERATE_ROW))
    fine = [[0.5 + 0.01 * k, 0.5] for k in range(17)]
    edge_file = workdir / "edge.spray"
    edge_file.write_text(EDGE)
    island = spray(ISLAND)
    cases = {
        "point_bundles two domains: ok, G2, G1": lambda: splits(
            two, at_bases([[0.5, 0.5], [0.5, -0.2], [-0.3, 0.5]])),
        "point_bundles two domains: G1, G2": lambda: splits(
            two, at_bases([[-0.3, 0.5], [0.5, -0.2]])),
        "point_bundles two domains: 17 ok, G2, G1": lambda: splits(
            two, at_bases(fine + [[0.5, -0.2], [-0.3, 0.5]])),
        "point_bundles degenerate row: singular, sqrt": lambda: splits(
            geometry.MetricSpray(degenerate), at_bases([[0.0, 0.25], [1.0, -0.2]])),
        "point_bundles degenerate row: ok, singular": lambda: splits(
            geometry.MetricSpray(degenerate), at_bases([[1.0, 0.25], [0.0, 0.25]])),
        "point_bundles split past the reciprocal floor": lambda: splits(
            two, sampling.SampleSet(np.array(fine[:5]), np.array(
                [[[0.7, 0.7]]] * 3 + [[[1e-13, 0.0]]] + [[[0.7, 0.7]]]))),
        "finsler_check degenerate row: ok, singular": lambda: finsler(
            degenerate, at_bases([[1.0, 0.25], [0.0, 0.25]])),
        "finsler_check degenerate row: ok, singular, sqrt": lambda: finsler(
            degenerate, at_bases([[1.0, 0.25], [0.0, 0.25], [1.0, -0.2]])),
        "finsler_check curvature of two domains: ok, G2, G1": lambda: finsler(
            metrize.CurvatureMetric(two),
            at_bases([[0.5, 0.5], [0.5, -0.2], [-0.3, 0.5]])),
        "metric_spray_residuals degenerate row: ok, singular, sqrt": lambda: residuals(
            degenerate, spray(FLAT), at_bases([[1.0, 0.25], [0.0, 0.25], [1.0, -0.2]]),
            True),
        "metric_spray_residuals degenerate row, not parallel": lambda: residuals(
            degenerate, spray(FLAT), at_bases([[1.0, 0.25], [0.0, 0.25], [1.0, -0.2]]),
            False),
        "metric_spray_residuals degenerate row: 17 ok, sqrt, singular": lambda: residuals(
            degenerate, spray(FLAT), at_bases(fine + [[1.0, -0.2], [0.0, 0.25]]),
            True),
        "LambdaField sqrt guard": lambda: lambdas(
            SQRT_GUARD, lambda b: b.G_values, [(1.2, 0.5), (2.0, 0.0)]),
        "LambdaField guard failing mid segment": lambda: lambdas(
            SQRT_GUARD.replace("sqrt(1.5 - x1) + 1", "0.5 - x1"),
            lambda b: b.G_values, [(0.4, -0.3), (1.0, 0.2)]),
        "LambdaField guard failing at zero": lambda: lambdas(
            SQRT_GUARD.replace("sqrt(1.5 - x1) + 1", "x1^0.5 + 1"),
            lambda b: b.G_values, [(0.0, 0.5)]),
        "LambdaField two walls": lambda: lambdas(
            TWO_WALLS, lambda b: b.G_values, [(0.2, 0.1), (1.0, 0.0)]),
        "agreement_report edge": lambda: agreement(
            spray(EDGE), [(0.2, 0.1, 0.6, 0.8), (-0.44, 0.1, 0.6, 0.8)], 0.05,
            False),
        "agreement_report edge, rows": lambda: agreement(
            spray(EDGE), [(0.2, 0.1, 0.6, 0.8), (-0.44, 0.1, 0.6, 0.8)], 0.05,
            True),
        "oracle edge --fd-step 0.1": lambda: oracle_command(
            [str(edge_file), "--fd-step", "0.1"], workdir),
        "oracle cms20 --fd-step 0.3": lambda: oracle_command(
            ["cms20", "--fd-step", "0.3"], workdir),
    }
    for order in (("ok", "sqrt", "reciprocal"), ("ok", "reciprocal", "sqrt"),
                  ("leaves", "sqrt"), ("ok",)):
        pts = [ISLAND_POINTS[k] for k in order]
        for block in (False, True):
            label = f"agreement_report island: {', '.join(order)}"
            cases[label + (", rows" if block else "")] = (
                lambda pts=pts, block=block: agreement(island, pts, 0.05, block))
    with np.errstate(all="ignore"):
        return {label: outcome(make()) for label, make in cases.items()}


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    target = Path(argv[0]).resolve()
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        record["cli"] = cli_outputs(workdir)
        record["points_256"] = cli_outputs(workdir, POINTS_256_SEEDS,
                                           POINTS_256_NAMES, ("--points", "256"))
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
        record["metric_sprays"] = metric_sprays()
        record["errors"] = failure_paths(workdir)
    target.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
