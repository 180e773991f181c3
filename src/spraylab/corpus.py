"""Named example problems with machine-checked expectations.

Every fixture is a pair of files under ``fixtures/``: a ``.spray`` source and
a JSON record holding what the engine is expected to say about it (the
classification flags, the decision outcome with its rule string, and a list
of closed-form checks pinning scalars to expressions).  ``run_fixture``
replays the whole pipeline on fresh samples and diffs the result against the
record, so the corpus doubles as an end-to-end regression suite.

Expectations pin only what they list: a record may leave a flag or the rule
string out, and then nothing is asserted about it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import classify, dim2, dsl, geometry, metrize, pflat
from .errors import PreconditionError, SprayLabError, UnknownFixture
from .sampling import TOL, SampleBox, Tolerances

__all__ = [
    "Fixture",
    "FixtureReport",
    "fixture_names",
    "load_fixture",
    "run_fixture",
]

_DIR = Path(__file__).resolve().parent / "fixtures"


@dataclass(frozen=True)
class Fixture:
    """A named problem plus everything the suite expects of it."""

    name: str
    aliases: tuple
    source: str
    problem: dsl.ProblemDef
    flags: dict
    verdict: dict
    checks: tuple
    count: int
    seed: int
    box: SampleBox | None
    note: str

    @property
    def kind(self) -> str:
        return self.problem.kind

    def build(self):
        """The spray the classifiers run on; metrics contribute their
        induced spray."""
        if self.problem.kind == "metric":
            return geometry.MetricSpray(geometry.ExprMetric(self.problem))
        return geometry.ExprSpray(self.problem)

    def metric(self) -> geometry.ExprMetric:
        if self.problem.kind != "metric":
            raise PreconditionError(
                f"fixture {self.name!r} is a spray; it has no metric side")
        return geometry.ExprMetric(self.problem)


@dataclass(frozen=True)
class FixtureReport:
    """Outcome of replaying one fixture: `passed` iff `diffs` is empty.

    `checks` maps each closed-form check's name to the worst residual it
    observed, whether or not it stayed under its bound."""

    name: str
    passed: bool
    diffs: tuple
    flags: dict
    residuals: dict
    verdict: metrize.Verdict
    checks: dict
    count: int
    seed: int

    def summary(self) -> str:
        head = "pass" if self.passed else "FAIL"
        bits = ", ".join(f"{k}={str(v).lower()}" for k, v in self.flags.items())
        return f"{head}: {bits}, verdict={self.verdict.outcome}"

    def lines(self) -> list:
        out = [f"[{self.name}] {self.summary()}"]
        out += [f"  diff: {d}" for d in self.diffs]
        out += [f"  check {k}: residual {v:.3e}" for k, v in self.checks.items()]
        return out


@lru_cache(maxsize=1)
def _records() -> tuple:
    recs = []
    for path in sorted(_DIR.glob("*.json")):
        with open(path) as fh:
            recs.append(json.load(fh))
    if not recs:
        raise SprayLabError(f"no fixture records found under {_DIR}")
    return tuple(recs)


def fixture_names() -> tuple:
    """Canonical fixture names, sorted."""
    return tuple(sorted(r["name"] for r in _records()))


def load_fixture(name: str) -> Fixture:
    # dots and underscores are interchangeable, so ex7_1 finds ex7.1, and
    # a .spray suffix is tolerated: "ex7_1.spray" names the same fixture
    want = name.strip().lower()
    if want.endswith(".spray"):
        want = want[: -len(".spray")]
    want = want.replace("_", ".")
    for rec in _records():
        keys = {rec["name"].lower()}
        keys.update(a.lower() for a in rec.get("aliases", ()))
        keys = {k.replace("_", ".") for k in keys}
        if want in keys:
            source = (_DIR / rec["source"]).read_text()
            problem = dsl.parse(source, name=rec["name"])
            box = SampleBox.from_hint(rec["box"]) if rec.get("box") else None
            return Fixture(
                name=rec["name"],
                aliases=tuple(rec.get("aliases", ())),
                source=source,
                problem=problem,
                flags=dict(rec.get("flags", {})),
                verdict=dict(rec.get("verdict", {})),
                checks=tuple(rec.get("checks", ())),
                count=int(rec.get("count", 12)),
                seed=int(rec.get("seed", 7)),
                box=box,
                note=rec.get("note", ""),
            )
    raise UnknownFixture(
        f"no fixture named {name!r}; known: {', '.join(fixture_names())}")


def _expr_eval(dim: int, expr: str):
    """Evaluate a closed-form expression in the chart's 2n variables."""
    node = dsl.parse(f"dim {dim}\nmetric L = {expr}\n").exprs[0]

    def value(pt) -> float:
        return float(dsl.evaluate(node, [float(v) for v in pt], dim=dim))

    return value


# -- check kinds ------------------------------------------------------------
#
# Each handler gets (fixture, spray, verdict, samples, check-record, tol) and
# returns (worst residual, diff lines).  A handler never raises on a failed
# bound; hard errors (bad record, missing prerequisites) do raise.


def _chk_scalar_expr(fx, spray, verdict, samples, chk, tol):
    want_of = _expr_eval(spray.dim, chk["expr"])
    rel = float(chk.get("rel", 0.0))
    atol = float(chk.get("atol", tol.abs))
    worst = exceeded = 0.0
    for pt in samples.points():
        b = geometry.CurvatureBundle(spray, pt, 4)
        if chk["field"] == "Ric":
            got = b.Ric_value
        elif chk["field"] == "R":
            got = classify.decompose_scalar(b, tol=tol).R
        else:
            raise SprayLabError(f"scalar_expr check: unknown field {chk['field']!r}")
        want = want_of(pt)
        err = abs(got - want)
        worst = max(worst, err)
        exceeded = max(exceeded, err - (atol + rel * abs(want)))
    bad = []
    if exceeded > 0.0:
        bad.append(f"{chk['name']}: worst |got - want| = {worst:.3e} "
                   f"exceeds bound by {exceeded:.3e}")
    return worst, bad


def _chk_delta_expr(fx, spray, verdict, samples, chk, tol):
    n = spray.dim
    want_of = [_expr_eval(n, e) for e in chk["exprs"]]
    if len(want_of) != n:
        raise SprayLabError("delta_expr check needs one expression per axis")
    rel = float(chk.get("rel", 0.0))
    atol = float(chk.get("atol", tol.abs))
    worst = exceeded = 0.0
    for pt in samples.points():
        b = geometry.CurvatureBundle(spray, pt, 4)
        dec = classify.decompose_scalar(b, tol=tol)
        slots = b.delta_scalar(dec.R_jet)
        for i in range(n):
            want = want_of[i](pt)
            err = abs(slots[i].value - want)
            worst = max(worst, err)
            exceeded = max(exceeded, err - (atol + rel * abs(want)))
    bad = []
    if exceeded > 0.0:
        bad.append(f"{chk['name']}: worst horizontal-derivative mismatch "
                   f"{worst:.3e} exceeds bound by {exceeded:.3e}")
    return worst, bad


def _chk_values_at(fx, spray, verdict, samples, chk, tol):
    pt = np.asarray(chk["point"], dtype=float)
    b = geometry.CurvatureBundle(spray, pt, 4)
    field = chk["field"]
    if field == "tau":
        got = classify.decompose_scalar(b, tol=tol).tau
    elif field == "chi":
        got = b.chi_values
    elif field == "G":
        got = b.G_values
    elif field == "R":
        got = np.array([classify.decompose_scalar(b, tol=tol).R])
    elif field == "Ric":
        got = np.array([b.Ric_value])
    else:
        raise SprayLabError(f"values_at check: unknown field {field!r}")
    want = np.asarray(chk["want"], dtype=float)
    if want.shape != np.shape(got):
        raise SprayLabError(f"values_at check: want has shape {want.shape}, "
                            f"field {field!r} has {np.shape(got)}")
    atol = float(chk.get("atol", tol.abs))
    worst = float(np.max(np.abs(np.asarray(got) - want)))
    bad = []
    if worst > atol:
        bad.append(f"{chk['name']}: {field} at {chk['point']} off by {worst:.3e} "
                   f"(allowed {atol:.1e})")
    return worst, bad


def _chk_recovered_expr(fx, spray, verdict, samples, chk, tol):
    if verdict.recovered_metric is None:
        return float("nan"), [f"{chk['name']}: verdict carries no recovered metric "
                              f"(outcome {verdict.outcome}, rule {verdict.rule!r})"]
    want_of = _expr_eval(spray.dim, chk["expr"])
    rel = float(chk.get("rel", tol.rel))
    atol = float(chk.get("atol", tol.abs))
    worst = exceeded = 0.0
    for pt in samples.points():
        want = want_of(pt)
        err = abs(verdict.recovered_metric.value(pt) - want)
        worst = max(worst, err)
        exceeded = max(exceeded, err - (atol + rel * abs(want)))
    bad = []
    if exceeded > 0.0:
        bad.append(f"{chk['name']}: recovered metric off by {worst:.3e}, "
                   f"over bound by {exceeded:.3e}")
    return worst, bad


def _chk_witness_metric(fx, spray, verdict, samples, chk, tol):
    n = spray.dim
    witness = geometry.ExprMetric(
        dsl.parse(f"dim {n}\nmetric L = {chk['expr']}\n", name="witness"))
    atol = float(chk.get("atol", tol.abs))
    rel = float(chk.get("rel", tol.rel))
    worst = 0.0
    bad = []
    semi_worst = match_worst = 0.0
    for pt in samples.points():
        b = geometry.CurvatureBundle(spray, pt, 3)
        slots = b.delta_scalar(witness.jet(pt, 1))
        semi_worst = max(semi_worst, max(abs(s.value) for s in slots))
        induced = geometry.spray_from_metric(witness, pt, 0)
        gv = np.array([g.value for g in induced])
        scale = max(1.0, float(np.max(np.abs(b.G_values))))
        err = float(np.max(np.abs(gv - b.G_values)))
        match_worst = max(match_worst, err - rel * scale)
        worst = max(worst, max(abs(s.value) for s in slots), err)
    if semi_worst > atol:
        bad.append(f"{chk['name']}: witness is not parallel along the spray "
                   f"(worst horizontal derivative {semi_worst:.3e})")
    if match_worst > 0.0:
        bad.append(f"{chk['name']}: witness does not induce the fixture spray "
                   f"(excess {match_worst:.3e})")
    return worst, bad


def _chk_structure_check(fx, spray, verdict, samples, chk, tol):
    res = pflat.quadratic_structure_check(spray, samples=samples, tol=tol)
    want = bool(chk["want"])
    bad = []
    if bool(res.holds) != want:
        bad.append(f"{chk['name']}: expected holds={want}, got {res.holds} "
                   f"(residual {res.residual:.3e})")
    if want and "max_residual" in chk and res.residual > chk["max_residual"]:
        bad.append(f"{chk['name']}: residual {res.residual:.3e} above "
                   f"{chk['max_residual']:.1e}")
    if not want and "min_residual" in chk and res.residual < chk["min_residual"]:
        bad.append(f"{chk['name']}: residual {res.residual:.3e} below the "
                   f"expected failure margin {chk['min_residual']:.1e}")
    return res.residual, bad


def _chk_omega_fit(fx, spray, verdict, samples, chk, tol):
    wk = classify.is_weak_isotropic(spray, samples, tol=tol)
    want_of = _expr_eval(spray.dim, chk["expr"])
    rel = float(chk.get("rel", tol.rel))
    atol = float(chk.get("atol", 1e-9))
    worst = exceeded = 0.0
    for bidx, xb in enumerate(samples.bases):
        want = want_of(np.concatenate([xb, np.ones(spray.dim)]))
        err = abs(wk.omega[bidx][0, 1] - want)
        worst = max(worst, err)
        exceeded = max(exceeded, err - (atol + rel * abs(want)))
    bad = []
    if not wk.holds:
        bad.append(f"{chk['name']}: weak-isotropy fit does not hold "
                   f"(residual {wk.residual:.3e})")
    if exceeded > 0.0:
        bad.append(f"{chk['name']}: fitted omega off the closed form by "
                   f"{worst:.3e} (over bound by {exceeded:.3e})")
    return worst, bad


def _chk_main_scalar_sq(fx, spray, verdict, samples, chk, tol):
    m = fx.metric()
    want = float(chk["want"])
    rel = float(chk.get("rel", tol.rel))
    worst = 0.0
    for pt in samples.points():
        fr = dim2.frame(m, pt, tol=tol)
        worst = max(worst, abs(fr.main_scalar ** 2 - want))
    bad = []
    if worst > rel * abs(want) + tol.abs:
        bad.append(f"{chk['name']}: main scalar squared off by {worst:.3e} "
                   f"from {want}")
    return worst, bad


def _chk_flag_ode(fx, spray, verdict, samples, chk, tol):
    m = fx.metric()
    atol = float(chk.get("atol", 1e-6))
    pts = samples.points()
    limit = int(chk.get("limit", len(pts)))
    worst = 0.0
    for pt in pts[:limit]:
        worst = max(worst, dim2.flag_ode_residual(m, pt, tol=tol))
    bad = []
    if worst > atol:
        bad.append(f"{chk['name']}: flag ODE residual {worst:.3e} above "
                   f"{atol:.1e}")
    return worst, bad


_CHECKS = {
    "scalar_expr": _chk_scalar_expr,
    "delta_expr": _chk_delta_expr,
    "values_at": _chk_values_at,
    "recovered_expr": _chk_recovered_expr,
    "witness_metric": _chk_witness_metric,
    "structure_check": _chk_structure_check,
    "omega_fit": _chk_omega_fit,
    "main_scalar_sq": _chk_main_scalar_sq,
    "flag_ode": _chk_flag_ode,
}


def run_fixture(name: str, count: int | None = None, seed: int | None = None,
                tol: Tolerances = TOL) -> FixtureReport:
    """Replay classification, decision, and closed-form checks for `name`.

    `count`/`seed` override the record's sampling defaults; expectations are
    meant to be stable under such overrides (more points, other seeds), and
    the suite exercises that.  One draw serves the whole replay: the verdict
    routes the classification's report and the checks run on its samples.
    """
    fx = load_fixture(name)
    count = fx.count if count is None else int(count)
    seed = fx.seed if seed is None else int(seed)
    spray = fx.build()
    diffs = []

    rep = classify.classify_spray(spray, count=count, seed=seed, box=fx.box,
                                  tol=tol)
    for flag, want in fx.flags.items():
        got = rep.flags.get(flag)
        if got is None or bool(got) != want:
            diffs.append(f"flag {flag}: expected {want}, got {got} "
                         f"(residual {rep.residuals.get(flag, float('nan')):.3e})")

    v = metrize.route(spray, rep, tol=tol)
    want_out = fx.verdict.get("outcome")
    if want_out and v.outcome != want_out:
        diffs.append(f"verdict outcome: expected {want_out}, got {v.outcome} "
                     f"(rule {v.rule!r})")
    want_rule = fx.verdict.get("rule")
    if want_rule and v.rule != want_rule:
        diffs.append(f"verdict rule: expected {want_rule!r}, got {v.rule!r}")

    check_residuals = {}
    for chk in fx.checks:
        try:
            handler = _CHECKS[chk["kind"]]
        except KeyError:
            raise SprayLabError(
                f"fixture {fx.name!r} uses unknown check kind {chk['kind']!r}")
        worst, bad = handler(fx, spray, v, rep.samples, chk, tol)
        check_residuals[chk["name"]] = worst
        diffs.extend(bad)

    return FixtureReport(
        name=fx.name,
        passed=not diffs,
        diffs=tuple(diffs),
        flags=dict(rep.flags),
        residuals=dict(rep.residuals),
        verdict=v,
        checks=check_residuals,
        count=count,
        seed=seed,
    )
