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
        """The spray the classifiers run on (see `geometry.spray_of`)."""
        return geometry.spray_of(self.problem)

    def metric(self) -> geometry.ExprMetric:
        if self.problem.kind != "metric":
            raise PreconditionError(
                f"fixture {self.name!r} is a spray; it has no metric side")
        return geometry.ExprMetric(self.problem)

    def diffs(self, report, verdict) -> list:
        """How a classification report and its verdict depart from the
        recorded flags, outcome and rule, one line each."""
        out = []
        for flag, want in self.flags.items():
            got = report.flags.get(flag)
            if got is None or bool(got) != want:
                res = report.residuals.get(flag, float("nan"))
                out.append(f"flag {flag}: expected {want}, got {got} "
                           f"(residual {res:.3e})")
        want_out = self.verdict.get("outcome")
        if want_out and verdict.outcome != want_out:
            out.append(f"verdict outcome: expected {want_out}, got "
                       f"{verdict.outcome} (rule {verdict.rule!r})")
        want_rule = self.verdict.get("rule")
        if want_rule and verdict.rule != want_rule:
            out.append(f"verdict rule: expected {want_rule!r}, "
                       f"got {verdict.rule!r}")
        return out


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


def _compare(pairs, atol: float, rel: float):
    """(worst |got - want|, worst excess of |got - want| over
    atol + rel |want|) over the (got, want) pairs, in their order."""
    worst = exceeded = 0.0
    for got, want in pairs:
        err = abs(got - want)
        worst = max(worst, err)
        exceeded = max(exceeded, err - (atol + rel * abs(want)))
    return worst, exceeded


# -- check kinds ------------------------------------------------------------
#
# Each handler gets (fixture, spray, verdict, classification report,
# check-record, tol) and returns (worst residual, diff lines).  The report's
# samples, bundles and fits are read, not drawn or built again.  A handler
# never raises on a failed bound; hard errors (bad record, missing
# prerequisites) do raise.


def _chk_scalar_expr(fx, spray, verdict, rep, chk, tol):
    want_of = _expr_eval(spray.dim, chk["expr"])
    rel = float(chk.get("rel", 0.0))
    atol = float(chk.get("atol", tol.abs))
    if chk["field"] == "Ric":
        pairs = ((b.Ric_value, want_of(pt)) for pt, b, _ in rep.triples)
    elif chk["field"] == "R":
        pairs = ((dec.R, want_of(pt)) for pt, _, dec in rep.triples)
    else:
        raise SprayLabError(f"scalar_expr check: unknown field {chk['field']!r}")
    worst, exceeded = _compare(pairs, atol, rel)
    bad = []
    if exceeded > 0.0:
        bad.append(f"{chk['name']}: worst |got - want| = {worst:.3e} "
                   f"exceeds bound by {exceeded:.3e}")
    return worst, bad


def _chk_delta_expr(fx, spray, verdict, rep, chk, tol):
    n = spray.dim
    want_of = [_expr_eval(n, e) for e in chk["exprs"]]
    if len(want_of) != n:
        raise SprayLabError("delta_expr check needs one expression per axis")
    rel = float(chk.get("rel", 0.0))
    atol = float(chk.get("atol", tol.abs))
    worst, exceeded = _compare(
        ((got, want_of[i](pt)) for pt, b, dec in rep.triples
         for i, got in enumerate(b.cov_h(dec.R_jet, ()).tolist())),
        atol, rel)
    bad = []
    if exceeded > 0.0:
        bad.append(f"{chk['name']}: worst horizontal-derivative mismatch "
                   f"{worst:.3e} exceeds bound by {exceeded:.3e}")
    return worst, bad


def _chk_values_at(fx, spray, verdict, rep, chk, tol):
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


def _chk_recovered_expr(fx, spray, verdict, rep, chk, tol):
    if verdict.recovered_metric is None:
        return float("nan"), [f"{chk['name']}: verdict carries no recovered metric "
                              f"(outcome {verdict.outcome}, rule {verdict.rule!r})"]
    want_of = _expr_eval(spray.dim, chk["expr"])
    rel = float(chk.get("rel", tol.rel))
    atol = float(chk.get("atol", tol.abs))
    L = verdict.recovered_metric
    worst, exceeded = _compare(
        ((L.value(pt), want_of(pt)) for pt in rep.samples.points()),
        atol, rel)
    bad = []
    if exceeded > 0.0:
        bad.append(f"{chk['name']}: recovered metric off by {worst:.3e}, "
                   f"over bound by {exceeded:.3e}")
    return worst, bad


def _chk_witness_metric(fx, spray, verdict, rep, chk, tol):
    n = spray.dim
    witness = geometry.ExprMetric(
        dsl.parse(f"dim {n}\nmetric L = {chk['expr']}\n", name="witness"))
    atol = float(chk.get("atol", tol.abs))
    rel = float(chk.get("rel", tol.rel))
    worst = 0.0
    bad = []
    semi_worst = match_worst = 0.0
    for _, b, _, semi, err in metrize.metric_spray_residuals(witness,
                                                             rep.triples):
        semi_worst = max(semi_worst, semi)
        scale = max(1.0, float(np.max(np.abs(b.G_values))))
        match_worst = max(match_worst, err - rel * scale)
        worst = max(worst, semi, err)
    if semi_worst > atol:
        bad.append(f"{chk['name']}: witness is not parallel along the spray "
                   f"(worst horizontal derivative {semi_worst:.3e})")
    if match_worst > 0.0:
        bad.append(f"{chk['name']}: witness does not induce the fixture spray "
                   f"(excess {match_worst:.3e})")
    return worst, bad


def _chk_structure_check(fx, spray, verdict, rep, chk, tol):
    res = pflat.quadratic_structure_check(spray, rep, tol=tol)
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


def _chk_omega_fit(fx, spray, verdict, rep, chk, tol):
    if not rep.flags["scalar"]:
        raise PreconditionError(
            f"{chk['name']}: the spray is not of scalar curvature at every "
            "sample; weak isotropy is undefined")
    residual = rep.residuals["weak_isotropic"]
    if not rep.flags["weak_isotropic"]:
        return residual, [f"{chk['name']}: weak-isotropy fit does not hold "
                          f"(residual {residual:.3e})"]
    want_of = _expr_eval(spray.dim, chk["expr"])
    rel = float(chk.get("rel", tol.rel))
    atol = float(chk.get("atol", 1e-9))
    ones = np.ones(spray.dim)
    worst, exceeded = _compare(
        ((om[0, 1], want_of(np.concatenate([xb, ones])))
         for om, xb in zip(rep.omega, rep.samples.bases)),
        atol, rel)
    bad = []
    if exceeded > 0.0:
        bad.append(f"{chk['name']}: fitted omega off the closed form by "
                   f"{worst:.3e} (over bound by {exceeded:.3e})")
    return worst, bad


def _chk_main_scalar_sq(fx, spray, verdict, rep, chk, tol):
    m = fx.metric()
    want = float(chk["want"])
    rel = float(chk.get("rel", tol.rel))
    worst = 0.0
    for pt in rep.samples.points():
        fr = dim2.frame(m, pt, tol=tol)
        worst = max(worst, abs(fr.main_scalar ** 2 - want))
    bad = []
    if worst > rel * abs(want) + tol.abs:
        bad.append(f"{chk['name']}: main scalar squared off by {worst:.3e} "
                   f"from {want}")
    return worst, bad


def _chk_flag_ode(fx, spray, verdict, rep, chk, tol):
    m = fx.metric()
    atol = float(chk.get("atol", 1e-6))
    pts = rep.samples.points()
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

    rep = classify.classify_spray(spray, count=count, seed=seed, box=fx.box,
                                  tol=tol)
    v = metrize.route(spray, rep, tol=tol)
    diffs = fx.diffs(rep, v)

    check_residuals = {}
    for chk in fx.checks:
        try:
            handler = _CHECKS[chk["kind"]]
        except KeyError:
            raise SprayLabError(
                f"fixture {fx.name!r} uses unknown check kind {chk['kind']!r}")
        worst, bad = handler(fx, spray, v, rep, chk, tol)
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
