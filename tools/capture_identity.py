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
  its identity dict with the keys in their order; the report keeps only
  the maximum over the samples;
- `recover` and `highdim`: the outcome of every job of those benchmark
  workloads at seed 7 (verdicts, metric reads, CLI JSON);
- `point_bundles`: per fixture at seeds 3 and 11, at 8 fresh points
  taken one at a time, the point bundle of orders 2, 3 and 4: every
  coefficient of G, N, Gamma, R and Ric, the scalar split (R, tau,
  residual) and `split_holds`; and, on ex7.1, elliptic2 and ex7.3, the
  value of the metric `decide` recovers at each of those points, read
  one point at a time;
- `metric_sprays`: every coefficient of `spray_from_metric` at orders 0
  and 2, at 16 sample points one at a time and then at the block of all
  16, for the elliptic2 metric and for the metrics that `decide` recovers
  on ex7.1 and ex7.3, each at seeds 3 and 11;
- `decision_stages`: per fixture at seeds 3 and 11, at each sample of its
  classification at the command's default count, omega = delta R / R
  (each component's value and first-order coefficients), and t = tau / R
  (its values, `cov_h` of t and the y-derivatives of t), each quotient
  one `Jet` division at the bundle built at the sample alone; and at each
  block bundle of the classification, every coefficient of
  `delta_scalar` of its curvature scalar;
- `dim2`: per sample of cms19, cms20 and cms21 at seeds 3 and 11, in
  classifications of 8 and 24 samples, the main scalar of its Berwald
  frame and its flag-ODE residual, or the error's type and text.  A
  checkout whose `dim2` takes blocks gives them one frame per block and
  one residual per row of the report's block bundle; one whose `dim2`
  takes one point at a time gives them at each sample alone, so the two
  compare;
- `fd`: every `fd_curvature` tensor (N, R, Ric, chi and B) at h = 1e-3,
  at each block of the `classify` samples of cms19, cms20, cms21 and
  elliptic2 and of elliptic2 shifted by 0.5, at seeds 3 and 11, or the
  error's type and text: blocks of 64 points, whose stencil rows span
  several `oracle.FD_STENCIL_ROWS` chunks;
- `shift`: the verdict of `projective_shift` at c = 0, 0.7 and 1 (every
  field, the recovered metric's value among them), or the error's type
  and text, on elliptic2's metric and on the metrics `decide` recovers on
  elliptic2, ex7.3 and ex7.1 (the last two negative, so the shift refuses
  them; ex7.1's is L = R/lambda), at seeds 3 and 11;
- `draws`: `sample_points` at every dim from 1 to 4, at counts 1, 7 and
  40, at seeds 3 and 11, in three boxes (one whose tangents fall below
  Y_FLOOR most of the time), with no `accept` and with `accept`
  functions that reject (40 % or 90 %) or raise by a hash of the point, veto whole
  bases by a hash of x, or veto every point: the bases and tangents,
  `candidates` and `rejected`, or the error's type and text, and the
  SHA-256 of the points `accept` saw, in order;
- `tapes`: every coefficient of the jets `dsl.evaluate` gives for the
  tape of every fixture and of the sources of the `highdim` jobs at seed 7
  (the random sprays, and the spray and metric `gen-pflat` writes, in dims
  3 and 4): at each block of the `classify` samples at seeds 3 and 11, at
  the first 8 of the seed-3 samples one at a time, and at the first seed-3
  block with its first row set to nan, and to inf; at orders 2 and 4, and
  6 in dim 2; each jet as the `float.hex` of its coefficients, one string
  per row, or the error's type and text;
- `parse`: the repr of the `ProblemDef` of every fixture and of the
  `highdim` sources at seeds 3, 7 and 11, and of its tape and guard tape
  the consts, loads and outputs and each op as its function's name, its
  slots and the slots it frees; and the source and the error's type and
  text of each of a fixed list of malformed sources, one or more per error
  `dsl.parse` raises (a const named like a chart variable, or declared
  twice, which older checkouts took, is left out);
- `reads`: the value of the metric `decide` recovers on ex7.1, elliptic2
  and ex7.3, at seeds 3, 7 and 11, read one point at a time at 64 fresh
  points of a seed stream the verdicts never sample, as the `recover`
  jobs read it; and the seed-7 metrics' errors at three failing fresh
  points: tangents (1e-13, 0) and (1e-300, 1e-301) under the reciprocal
  floor, and (nan, 1);
- `sweeps`: every coefficient of `reciprocal`, the seven series (exp,
  ln, sqrt, sin, cos, atan and a real power) and `jet_matrix_inverse`,
  on spaces (4, 4), (4, 6) and (6, 4), at a point and at blocks of 1, 17
  and 64 rows, with operands in bound, with a first-order coefficient of
  1e150 (over the bound of `jets._sweep_finite`), of inf and of nan; the
  series of a block also with a column mask over the columns that are
  nonzero in some row, the others zeroed; each as the `float.hex` of
  its coefficients, one string per row, or the error's type and text;
- `reports`: the SHA-256 and exit code of the `gen-pflat` JSON on
  quadratic data that `highdim`'s regular-A jobs never give: a singular A
  (empirical admissibility, with and without a round trip) and a regular
  A whose metric is degenerate (`roundtrip: null`);
- `lambda`: the lambda fields that `decide` makes on ex7.1 and on a
  guarded ex7.1 whose chart has a hole, which vetoes the segments behind
  it, and that `pflat.quadratic_structure_check` makes on elliptic2, each
  at seeds 3, 7 and 11: the outcome, every value a field keeps, in the
  order it kept them, and its value, or error, at 8 fixed targets asked
  one at a time;
- `errors`: what `block_bundles`, `finsler_check`, `metric_spray_residuals`,
  `LambdaField`, `agreement_report` and the `oracle` command give on
  inputs where a block of samples, nodes or points fails: the rows
  yielded before the error, and the error's type and text.  A block that
  raises must end in the error of its first row that fails alone.

Floats are written as `float.hex`, so equal files mean equal bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
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
from spraylab import (classify, cli, corpus, dim2, dsl, geometry,  # noqa: E402
                      jets, metrize, oracle, pflat, sampling)

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
    """The results of the recorded calls, one per row: each call gives a
    list of one result per row of its bundle."""
    return [r for res in results for r in res]


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
                "split": [enc([d.R, d.tau, d.residual, d.holds])
                          for d in per_row(splits)],
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


POINT_BUNDLE_ORDERS = (2, 3, 4)
POINT_BUNDLE_POINTS = 8
RECOVERED = ("ex7.1", "elliptic2", "ex7.3")


def attempt(fn):
    """fn() encoded, or the type and text of the error it raises."""
    try:
        return enc(fn())
    except Exception as exc:  # an error is an outcome too
        return {"error": f"{type(exc).__name__}: {exc}"}


def coefficients(tensor):
    """The coefficients of a jet or of nested lists of jets."""
    if isinstance(tensor, list):
        return [coefficients(u) for u in tensor]
    return tensor.coeffs


def point_bundles() -> dict:
    out = {}
    for seed in SEEDS:
        for name in corpus.fixture_names():
            fixture = corpus.load_fixture(name)
            spray_obj = fixture.build()
            # a seed stream the classification never samples from
            pts = sampling.sample_points(
                spray_obj.dim, count=POINT_BUNDLE_POINTS, seed=seed + 500,
                box=fixture.box,
                accept=lambda pt: all(g > 1e-6 for g in spray_obj.guard_values(pt))
            ).points()
            for order in POINT_BUNDLE_ORDERS:
                rows = []
                for pt in pts:
                    b = geometry.CurvatureBundle(spray_obj, pt, order)
                    rows.append({
                        key: attempt(lambda key=key: coefficients(getattr(b, key)))
                        for key in ("G", "N", "Gamma", "R", "Ric")})
                    rows[-1]["split"] = attempt(lambda: [
                        b.splits[0].coeffs, coefficients(b.splits[1]), b.splits[2],
                        geometry.split_holds(b)[0]])
                out[f"{name} seed {seed} order {order}"] = rows
            if name in RECOVERED:
                v = metrize.decide(spray_obj, count=fixture.count, seed=seed,
                                   box=fixture.box)
                out[f"{name} seed {seed} reads"] = [
                    attempt(lambda pt=pt: v.recovered_metric.value(pt)) for pt in pts]
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


DIM2_NAMES = ("cms19", "cms20", "cms21")
DIM2_COUNTS = (8, 24)
# a checkout whose flag-ODE residual takes a point, and builds its own bundle
DIM2_AT_POINTS = "p" in inspect.signature(dim2.flag_ode_residual).parameters


def dim2_samples() -> dict:
    out = {}
    for seed in SEEDS:
        for count in DIM2_COUNTS:
            for name in DIM2_NAMES:
                fixture = corpus.load_fixture(name)
                metric = fixture.metric()
                rep = classify.classify_spray(fixture.build(), count=count, seed=seed,
                                              box=fixture.box)
                rows = []
                for points, b, _ in rep.blocks:
                    if DIM2_AT_POINTS:
                        rows += [[attempt(lambda pt=pt: dim2.frame(metric, pt).main_scalar),
                                  attempt(lambda pt=pt: dim2.flag_ode_residual(metric, pt))]
                                 for pt in points]
                        continue
                    try:
                        main = [fr.main_scalar for fr in dim2.frame(metric, points)]
                        rows += enc([list(r) for r in zip(main, dim2.flag_ode_residual(metric, b))])
                    except Exception:  # each row alone, as a one-row block
                        rows += [[attempt(lambda r=r: dim2.frame(metric, points[r:r + 1])[0]
                                          .main_scalar),
                                  attempt(lambda r=r: dim2.flag_ode_residual(
                                      metric, geometry.CurvatureBundle(
                                          b.spray, points[r:r + 1], b.order))[0])]
                                 for r in range(len(points))]
                out[f"{name} seed {seed} count {count}"] = rows
    return out


FD_NAMES = ("cms19", "cms20", "cms21", "elliptic2")
FD_SHIFTED = "elliptic2"
FD_STEP = 1e-3


def fd_blocks() -> dict:
    out = {}
    for seed in SEEDS:
        for name in FD_NAMES + (FD_SHIFTED + " shifted by 0.5",):
            fixture = corpus.load_fixture(name.split()[0])
            spray_obj = fixture.build()
            if name != fixture.name:
                spray_obj = geometry.ShiftedSpray(spray_obj, fixture.metric(), 0.5)
            rep = classify.classify_spray(spray_obj, count=cli.RunConfig.points,
                                          seed=seed, box=fixture.box)
            out[f"{name} seed {seed}"] = [
                attempt(lambda points=points: oracle.fd_curvature(spray_obj, points,
                                                                  h=FD_STEP))
                for points, _, _ in rep.blocks]
    return out


DRAW_BOXES = {"default": None,
              "tangents below the floor": sampling.SampleBox(-0.5, 0.5, -0.012, 0.012),
              "shifted": sampling.SampleBox(0.1, 2.0, -0.3, 1.7)}


SHIFT_CS = (0.0, 0.7, 1.0)


def shifts() -> dict:
    out = {}
    for seed in SEEDS:
        for name, recovered in (("elliptic2", False), ("elliptic2", True), ("ex7.3", True),
                                ("ex7.1", True)):
            fixture = corpus.load_fixture(name)
            for c in SHIFT_CS:
                # a metric of its own per shift: a recovered metric keeps
                # the jets asked of it
                metric = (metrize.decide(fixture.build(), count=fixture.count, seed=seed,
                                         box=fixture.box).recovered_metric
                          if recovered else fixture.metric())
                label = f"{name}{' recovered' if recovered else ''} seed {seed} c {c}"
                out[label] = attempt(
                    lambda: metrize.projective_shift(metric, c, seed=seed, box=fixture.box)[1])
    return out


def point_hash(a: np.ndarray) -> int:
    return int.from_bytes(hashlib.sha256(a.tobytes()).digest()[:4], "little")


def raising(pt: np.ndarray) -> bool:
    h = point_hash(pt) % 5
    if h == 0:
        raise ValueError("vetoed by raising")
    return h != 1


DRAW_ACCEPTS = {
    "none": None,
    "reject 40%": lambda pt: point_hash(pt) % 10 >= 4,
    "reject 90%": lambda pt: point_hash(pt) % 10 == 0,
    "raise 20%, reject 20%": raising,
    "veto a third of the bases": lambda pt: point_hash(pt[:len(pt) // 2]) % 3 != 0,
    "never": lambda pt: False,
}


def drawn(*args) -> dict:
    s = sampling.sample_points(*args)
    return {"bases": s.bases, "ys": s.ys, "candidates": s.candidates,
            "rejected": s.rejected}


def draws() -> dict:
    out = {}
    for dim in (1, 2, 3, 4):
        for count in (1, 7, 40):
            for seed in SEEDS:
                for box_name, box in DRAW_BOXES.items():
                    for accept_name, accept in DRAW_ACCEPTS.items():
                        seen = hashlib.sha256()

                        def watched(pt, accept=accept, seen=seen):
                            seen.update(pt.tobytes())
                            return accept(pt)

                        rec = attempt(lambda: drawn(dim, count, seed, box,
                                                    accept and watched))
                        rec["accept_calls"] = seen.hexdigest()
                        out[f"dim {dim} count {count} seed {seed} {box_name}, "
                            f"accept {accept_name}"] = rec
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


def first_orders(u) -> list:
    return [u.value] + [u.diff(v).value for v in range(u.space.nvars)]


def decision_stages() -> dict:
    out = {}
    for seed in SEEDS:
        for name in corpus.fixture_names():
            fixture = corpus.load_fixture(name)
            spray_obj = fixture.build()
            rep = classify.classify_spray(spray_obj, count=cli.RunConfig.points,
                                          seed=seed, box=fixture.box)
            rows = []
            for points, _, _ in rep.blocks:
                for pt in points:
                    b = geometry.CurvatureBundle(spray_obj, pt, cli.RunConfig.order)
                    R_jet, tau, _ = b.splits

                    def t_parts(b=b, R_jet=R_jet, tau=tau):
                        t = [u / R_jet for u in tau]
                        n = len(t)
                        return [[u.value for u in t],
                                b.cov_h(np.array(t, dtype=object), ("d",)),
                                [[u.dy(j).value for j in range(n)] for u in t]]
                    rows.append({
                        "omega": attempt(lambda b=b, R_jet=R_jet: [
                            first_orders(d / R_jet) for d in b.delta_scalar(R_jet)]),
                        "t": attempt(t_parts)})
            out[f"{name} seed {seed}"] = {"samples": rows, "blocks": [
                attempt(lambda blk=blk: coefficients(
                    blk.delta_scalar(blk.curvature_scalar)))
                for _, blk, _ in rep.blocks]}
    return out


def spray(src: str):
    return geometry.spray_of(dsl.parse(src))


LAMBDA_SEEDS = (3, 7, 11)
# ex7.1 outside a disc about (0.5, 0.3): the segments from the chart origin
# to the samples behind the disc leave the chart (at seed 3, the fifth)
HOLED_WHIRL = """
dim 2
spray G1 = x1 * (y1^2 - y2^2)
spray G2 = 2 * x1 * y1 * y2
guard = (x1 - 0.5)^2 + (x2 - 0.3)^2 - 0.1
"""
LAMBDA_TARGETS = ((-0.6, -0.4), (-0.3, 0.5), (0.0, 0.0), (0.2, -0.7),
                  (0.45, 0.1), (0.7, 0.6), (0.9, 0.3), (-0.8, 0.8))


def structure_check(spray_obj, seed: int, box):
    report = classify.classify_spray(spray_obj, count=64, seed=seed, box=box)
    check = pflat.quadratic_structure_check(spray_obj, report)
    return [check.holds, check.residual]


def lambda_values() -> dict:
    whirl = corpus.load_fixture("ex7.1")
    sphere = corpus.load_fixture("elliptic2")
    holed = spray(HOLED_WHIRL)
    out = {}
    for seed in LAMBDA_SEEDS:
        runs = {
            "ex7.1 decide": lambda: metrize.decide(
                whirl.build(), count=64, seed=seed, box=whirl.box),
            "elliptic2 structure check": lambda: structure_check(
                sphere.build(), seed, sphere.box),
            "holed ex7.1 decide": lambda: metrize.decide(holed, count=64, seed=seed),
        }
        for label, run in runs.items():
            fields = []
            with recording(metrize, "lambda_field", fields):
                result = attempt(run)
            out[f"{label} seed {seed}"] = {
                "result": result,
                "kept": [enc(list(f._cache.values())) for f in fields],
                "targets": [[attempt(lambda: f(np.array(x))) for x in LAMBDA_TARGETS]
                            for f in fields],
            }
    return out


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
    for points, b, decs in classify.block_bundles(spray_obj, samples):
        for pt, row, dec in zip(points, b._pa, decs):
            # the last entry is False while each row's bundle holds it
            yield [dec.R, dec.tau, dec.residual, dec.holds, not np.array_equal(pt, row)]


def finsler(field_obj, samples):
    fc = metrize.finsler_check(field_obj, samples)
    yield [fc.holds, fc.euler_residual, fc.rank_ratio]


def residuals(metric, spray_obj, samples, parallel: bool):
    blocks = tuple(classify.block_bundles(spray_obj, samples))
    for _, _, value, semi, match in metrize.metric_spray_residuals(
            metric, blocks, parallel=parallel):
        yield [value, semi, match]


def lambdas(src: str, form, targets):
    lam = metrize.lambda_field(spray(src), at_bases([[0.25, 0.25]]), 3, form)
    for target in targets:
        yield lam(np.array(target))


def agreement(spray_obj, points, h: float, block: bool):
    pts = np.array(points, dtype=float)
    bundles = ([geometry.CurvatureBundle(spray_obj, pts)] if block
               else [geometry.CurvatureBundle(spray_obj, p) for p in pts])
    table = oracle.agreement_report(iter(bundles), h=h)
    yield [table[key] for key in sorted(table)]


def oracle_command(args: list, workdir: Path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["oracle", *args, "--out", str(workdir / "o.json")])
    yield [code, err.getvalue()]


# (label, A, B, C): empirical and admissible, empirical and flat (A = 0,
# not admissible), exact and not admissible (4C = B'A^{-1}B)
GEN_PFLAT_CASES = (
    ("singular A", "1,0,0,0", "0,1", "1"),
    ("flat", "0,0,0,0", "1,0", "1"),
    ("degenerate metric", "1,0,0,1", "2,0", "1"),
)


TAPE_POINTS = 8


def tape_jets(problem, pa: np.ndarray, order: int) -> list:
    """The coefficients of the tape's jets at the point or block pa, each
    row (a point's one) a string of `float.hex`es."""
    env = geometry._var_jets(problem.dim, pa, order)
    outs = dsl.evaluate(problem.tape, env, dim=problem.dim)
    return [[" ".join(map(float.hex, row))
             for row in np.atleast_2d(geometry._as_jet(u, env[0]).coeffs).tolist()]
            for u in outs]


def tape_sources(highdim: Path) -> dict:
    """Name -> (problem, box, count) of every fixture and of the highdim
    sources written under `highdim` by its jobs."""
    out = {}
    for name in corpus.fixture_names():
        fixture = corpus.load_fixture(name)
        out[name] = fixture.problem, fixture.box, fixture.count
    for n in workloads.HIGHDIM_DIMS:
        for path in (f"sprays/random{n}.spray", f"gen/pflat{n}_spray.spray",
                     f"gen/pflat{n}_metric.spray"):
            out[path] = (dsl.parse((highdim / path).read_text(), name=path),
                         None, workloads.POINTS)
    return out


def tapes(highdim: Path) -> dict:
    out = {}
    for name, (problem, box, count) in tape_sources(highdim).items():
        field = geometry.spray_of(problem)
        samples = {seed: sampling.draw(field, count=count, seed=seed, box=box).points()
                   for seed in SEEDS}
        orders = (2, 4, 6) if problem.dim == 2 else (2, 4)
        first = classify.blocks(samples[SEEDS[0]])[0]
        for order in orders:
            for seed in SEEDS:
                for k, block in enumerate(classify.blocks(samples[seed])):
                    out[f"{name} order {order} seed {seed} block {k}"] = attempt(
                        lambda: tape_jets(problem, block, order))
            out[f"{name} order {order} points"] = [
                attempt(lambda pt=pt: tape_jets(problem, pt, order))
                for pt in samples[SEEDS[0]][:TAPE_POINTS]]
            for bad in (np.nan, np.inf):
                block = first.copy()
                block[0] = bad
                with np.errstate(all="ignore"):
                    out[f"{name} order {order} {bad} row"] = attempt(
                        lambda: tape_jets(problem, block, order))
    return out


PARSE_SEEDS = (3, 7, 11)
MALFORMED = (
    ("", None), ("\n  # a comment\n", None), ("spray G1 = y1^2\n", None),
    ("dim\n", None), ("dim 0\n", None), ("dim 2.5\n", None), ("dim 1e999\n", None),
    ("dim 2 3\n", None), ("dim x\n", None), ("dim 1\ndim 1\n", None),
    ("dim 1\nfrob L = 2\n", None), ("dim 1\nspray G1 = y1 @ 2\n", None),
    ("dim 1\nspray G1 = ) + \u00e9\n", None), ("dim 1\nmetric L = 1e999*y1^2\n", None),
    ("dim 1\nmetric L = (y1 + 2\n", None), ("dim 1\nmetric L = y1 + 2)\n", None),
    ("dim 1\nmetric L = ((y1)\n", None), ("dim 1\nmetric L = (y1, 2)\n", None),
    ("dim 2\nspray G1 = y3^2\nspray G2 = 0\n", None), ("dim 2\nmetric L = x0*y1\n", None),
    ("dim 1\nmetric L = bogus*y1\n", None), ("dim 1\nmetric L = sqrt(y1, y1)\n", None),
    ("dim 1\nmetric L = sqrt()\n", None), ("dim 1\nmetric L = foo(y1)\n", None),
    ("dim 1\nmetric L = x1(2)\n", None), ("dim 1\nmetric L = 2(y1)\n", None),
    ("dim 1\nmetric L = y1 y1\n", None), ("dim 1\nmetric L = +y1\n", None),
    ("dim 1\nmetric L = y1^\n", None), ("dim 1\r\nmetric L = y1 +\r\n", None),
    ("dim 1\nmetric L = sqrt(y1, y1 @)\n", None), ("dim 1\nmetric L = x5 + $\n", None),
    ("dim 1\nmetric L = y1 . 2\n", None), ("dim 1\nmetric L = \u0663 * y1 ^ 1e400\n", None),
    ("dim 2\nspray G1 = y1\n", None), ("dim 1\nspray G1 = y1\nspray G01 = y1\n", None),
    ("dim 1\nspray G2 = y1\n", None), ("dim 1\nspray 2 = y1\n", None),
    ("dim 1\nspray G1 y1\n", None), ("dim 1\nmetric L = y1^2\nspray G1 = y1\n", None),
    ("dim 1\n  spray G1 = y1 # a note\n  metric L = y1^2\n", None),
    ("dim 1\nmetric L = y1^2\nmetric M = y1^2\n", None), ("dim 1\nguard y1\n", None),
    ("dim 1\nconst = 2\n", None), ("dim 1\nconst c 2\n", None),
    ("dim 1\nconst c = x1\n", None), ("dim 1\nconst c = -\n", None),
    ("dim 1\nconst c = 2 3\n", None), ("dim 1\nconst c = -1e999\n", None),
    ("dim 1\nmetric L = c*y1^2\nconst c = 1\n", None),
    ("dim 1\nconst c = 1\nmetric L = c*y1^2\n", {"d": 2.0}),
    ("dim 1\nconst c = 1\nmetric L = c*y1^2\n", {"c": float("nan")}),
)


def tape_record(tape) -> dict:
    return {"consts": enc(tape.consts), "loads": tape.loads, "outputs": tape.outputs,
            "ops": [[fn.__name__, out, a, b, list(dead)] for out, fn, a, b, dead in tape.ops]}


def problem_record(problem) -> dict:
    return {"repr": repr(problem), "tape": tape_record(problem.tape),
            "guard_tape": tape_record(problem.guard_tape)}


def parses(workdir: Path) -> dict:
    out = {name: problem_record(corpus.load_fixture(name).problem)
           for name in corpus.fixture_names()}
    for seed in PARSE_SEEDS:
        here = workdir / f"parse seed {seed}"
        here.mkdir()
        cwd = os.getcwd()
        os.chdir(here)  # gen-pflat writes its sources under the current directory
        try:
            for job in workloads.highdim_jobs(seed, here):
                if job.label.startswith("gen-pflat"):
                    job.call()
        finally:
            os.chdir(cwd)
        for n in workloads.HIGHDIM_DIMS:
            for path in (f"sprays/random{n}.spray", f"gen/pflat{n}_spray.spray",
                         f"gen/pflat{n}_metric.spray"):
                out[f"{path} seed {seed}"] = problem_record(
                    dsl.parse((here / path).read_text(), name=path))
    for k, (src, consts) in enumerate(MALFORMED):
        out[f"malformed {k}"] = [src, consts and enc(consts),
                                 attempt(lambda: dsl.parse(src, consts))]
    return out


READ_SEEDS = (3, 7, 11)
READ_FAILING = ((1e-13, 0.0), (1e-300, 1e-301), (float("nan"), 1.0))


def fresh_reads() -> dict:
    out = {}
    for name in RECOVERED:
        fixture = corpus.load_fixture(name)
        spray_obj = fixture.build()
        for seed in READ_SEEDS:
            metric = metrize.decide(spray_obj, count=fixture.count, seed=seed,
                                    box=fixture.box).recovered_metric
            # a seed stream the verdicts never sample from
            pts = workloads._fresh_points(spray_obj, fixture.box, seed + 500)
            out[f"{name} seed {seed}"] = [attempt(lambda pt=pt: metric.value(pt))
                                          for pt in pts]
            if seed == JOB_SEED:
                out[f"{name} failing"] = [
                    attempt(lambda y=y: metric.value(np.concatenate([pts[0][:2], y])))
                    for y in READ_FAILING]
    return out


SWEEP_SPACES = ((4, 4), (4, 6), (6, 4))
SWEEP_ROWS = (0, 1, 17, 64)  # 0: a point
SWEEP_SPOILS = {"in bound": 0.0, "1e150": 1e150, "inf": np.inf, "nan": np.nan}
SWEEP_SERIES = {"reciprocal": jets.Jet.reciprocal, "exp": jets.exp, "ln": jets.ln,
                "sqrt": jets.sqrt, "sin": jets.sin, "cos": jets.cos, "atan": jets.atan,
                "pow_real": lambda u: jets.pow_real(u, -1.35)}


def sweep_operand(sp, rows: int, seed: list, spoil: float) -> np.ndarray:
    """(rows, T) coefficients, or (T,) at rows 0: value parts of magnitude
    0.5 to 2 and derivative coefficients 0.3 times standard normals, a
    third of them +0.0 or -0.0; `spoil`, if nonzero, at a first-order
    coefficient of the last row."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((max(rows, 1), sp.T)) * 0.3
    zero = rng.random(x.shape) < 0.33
    x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
    x[:, 0] = rng.uniform(0.5, 2.0, len(x)) * rng.choice([-1.0, 1.0], len(x))
    if spoil:
        x[-1, 1] = spoil
    return x if rows else x[0]


def hex_rows(c: np.ndarray) -> list:
    return [" ".join(map(float.hex, row)) for row in c.reshape(-1, c.shape[-1]).tolist()]


def sweeps() -> dict:
    out = {}
    for nvars, order in SWEEP_SPACES:
        sp, n = jets.space(nvars, order), nvars // 2
        for rows in SWEEP_ROWS:
            center = np.linspace(-1.0, 1.0, max(rows, 1) * nvars).reshape(-1, nvars)
            center = center if rows else tuple(center[0])
            for k, (label, spoil) in enumerate(SWEEP_SPOILS.items()):
                key = f"{nvars},{order} rows {rows} {label}"
                x = sweep_operand(sp, rows, [nvars, order, rows, k], spoil)
                # half the columns but the value's empty, and their mask
                empty = np.random.default_rng([nvars, order, rows, k, 1]).random(sp.T) < 0.5
                empty[0] = False
                masked = np.where(empty, 0.0, x)
                mask = jets._mask(~empty)
                for name, fn in SWEEP_SERIES.items():
                    sign = np.abs if name in ("ln", "sqrt", "pow_real") else np.asarray
                    for tag, coeffs, jet_mask in ((key, x, None), (f"{key} masked", masked, mask)):
                        if jet_mask is not None and not rows:
                            continue
                        c = coeffs.copy()
                        c[..., 0] = sign(c[..., 0])
                        u = jets.Jet(sp, center, c, jet_mask)
                        with np.errstate(all="ignore"):
                            out[f"{name} {tag}"] = attempt(lambda: hex_rows(fn(u).coeffs))
                m = np.array([[sweep_operand(sp, rows, [nvars, order, rows, k, i, j],
                                             spoil if (i, j) == (0, n - 1) else 0.0)
                               for j in range(n)] for i in range(n)])
                for i, j in np.ndindex(n, n):
                    m[i, j][..., 0] = np.abs(m[i, j][..., 0]) * (2.0 * n if i == j else 0.25)
                with np.errstate(all="ignore"):
                    out[f"inverse {key}"] = attempt(
                        lambda: hex_rows(jets.jet_matrix_inverse(sp, m)))
    return out


def gen_pflat_reports() -> dict:
    """Runs in a scratch directory as the current one, so the paths that
    gen-pflat writes into its report are relative and repeat."""
    out = {}
    for label, A, B, C in GEN_PFLAT_CASES:
        report = Path("report.json")
        if report.exists():
            report.unlink()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["gen-pflat", f"--A={A}", f"--B={B}", f"--C={C}",
                             "--dir=gen", "--seed", str(JOB_SEED), "--out", str(report)])
        out[f"gen-pflat {label}"] = {
            "exit": code,
            "json": sha(report.read_bytes()) if report.exists() else None,
        }
    return out


def failure_paths(workdir: Path) -> dict:
    two = spray(TWO_DOMAINS)
    degenerate = geometry.ExprMetric(dsl.parse(DEGENERATE_ROW))
    fine = [[0.5 + 0.01 * k, 0.5] for k in range(17)]
    edge_file = workdir / "edge.spray"
    edge_file.write_text(EDGE)
    island = spray(ISLAND)
    # the labels are the record's keys: they keep the names they were first
    # recorded under (`point_bundles` is now `block_bundles`), so that the
    # records of older checkouts compare
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
            record["reports"] = gen_pflat_reports()
        finally:
            os.chdir(here)
        record["tapes"] = tapes(highdim)
        record["parse"] = parses(workdir)
        record["reads"] = fresh_reads()
        record["sweeps"] = sweeps()
        record["point_bundles"] = point_bundles()
        record["metric_sprays"] = metric_sprays()
        record["decision_stages"] = decision_stages()
        record["dim2"] = dim2_samples()
        record["fd"] = fd_blocks()
        record["shift"] = shifts()
        record["draws"] = draws()
        record["lambda"] = lambda_values()
        record["errors"] = failure_paths(workdir)
    target.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
