"""Metrizability decision procedures with metric recovery.

Four entry points, one per decision route: `verdict_isotropic` for isotropic
sprays (the R / omega cascade), `verdict_constant` for constant curvature
(the Ric test), `nonmetrizable_scalar` for scalar sprays (purely negative
rules plus an honest inconclusive), and `projective_shift` for the shifted
family along a constant-flag-curvature metric.  `route` sends a
ClassificationReport to the sharpest procedure its flags license, and the
procedure reads the report's samples and bundles; `decide` is
`classify_spray` followed by `route`.  A spray that is not of scalar
curvature is out of scope for every rule and comes back inconclusive.

Every verdict is evidence-backed: the rule string names the decisive test,
`residual` is the worst number behind it, and metrizable-with-metric
verdicts are only emitted after the recovered metric has been re-verified
against the input spray (non-degenerate Hessian, covariant constancy,
induced-spray match).  Recovery never fabricates: the locally-metrizable
outcomes are existence statements and carry no metric.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import classify, geometry, jets, sampling
from .errors import PathError, PreconditionError, SprayLabError
from .sampling import TOL, SampleBox, SampleSet, Tolerances

__all__ = [
    "Verdict",
    "FinslerCheck",
    "CurvatureMetric",
    "ScaledCurvatureMetric",
    "LambdaField",
    "finsler_check",
    "recover_lambda",
    "verdict_isotropic",
    "verdict_constant",
    "nonmetrizable_scalar",
    "projective_shift",
    "route",
    "decide",
]

METRIZABLE_OUTCOMES = ("metrizable_locally", "metrizable_with_metric")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one decision procedure.

    `rule` names the test that decided; `residual` is the worst value backing
    it.  `recovered_metric` is set only for metrizable_with_metric and has
    been re-verified.  `omega` holds per-base samples of the 1-form
    R_{;i}/R when one was established (rows parallel to `bases`).
    """

    outcome: str
    rule: str
    residual: float
    recovered_metric: object | None = None
    omega: np.ndarray | None = None
    bases: np.ndarray | None = None
    evidence: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FinslerCheck:
    holds: bool
    euler_residual: float
    rank_ratio: float


def finsler_check(field_obj, samples: SampleSet,
                  tol: Tolerances = TOL) -> FinslerCheck:
    """Is the scalar field a (pseudo-)Finsler function on the samples?

    Positive 2-homogeneity in y through all jet coefficients, and a
    y-Hessian of full numeric rank (smallest singular value at least
    rank_tol times the largest) at every sample.  Signature is not
    constrained: indefinite metrics pass.
    """
    n = field_obj.dim
    worst_euler = 0.0
    min_ratio = float("inf")
    holds = True
    for pt in samples.points():
        S = field_obj.jet(pt, 2)
        e = classify.euler_residual(field_obj, S, 2)
        worst_euler = max(worst_euler, e)
        H = np.array([[0.5 * S.dy(i).dy(j).value for j in range(n)]
                      for i in range(n)])
        sv = np.linalg.svd(H, compute_uv=False)
        ratio = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
        min_ratio = min(min_ratio, ratio)
        if ratio < tol.rank or not tol.zero(e, max(1.0, abs(S.value))):
            holds = False
    return FinslerCheck(holds=holds, euler_residual=worst_euler,
                        rank_ratio=min_ratio)


class CurvatureMetric:
    """The curvature scalar R = Ric/(n-1) of a spray, as a metric candidate.

    Exists numerically: each jet request builds a curvature bundle two
    orders above and splits it.  Requests are cached per (point, order)
    because re-verification revisits the same samples several times.
    """

    def __init__(self, spray, name: str | None = None):
        self.spray = spray
        self.dim = spray.dim
        self.name = name or f"curvature({spray.name})"
        self._cache: dict = {}

    def jet(self, p, order: int):
        pa = geometry._point_array(p, self.dim)
        key = (pa.tobytes(), order)
        try:
            return self._cache[key]
        except KeyError:
            pass
        b = geometry.CurvatureBundle(self.spray, pa, max(order + 2, 3))
        Rj, _, res = geometry.scalar_split(b)
        if not geometry._split_holds(b, res, TOL):
            raise PreconditionError(
                "curvature scalar is undefined: the spray is not of scalar "
                f"curvature at this point (split residual {res:.3e})")
        self._cache[key] = Rj
        return Rj

    def value(self, p) -> float:
        return float(self.jet(p, 0).value)

    def guard_values(self, p) -> list[float]:
        return self.spray.guard_values(p)


class LambdaField:
    """exp of the line integral of a 1-form along straight segments.

    Callable on chart points; the integral runs from `x0` with a composite
    Gauss-Legendre rule (`panels` x `nodes` evaluations).  `accept` vetoes
    nodes outside the admissible chart; a vetoed node raises PathError
    because the segment is then not contained in the domain.
    """

    def __init__(self, omega: Callable, x0, accept: Callable | None = None,
                 panels: int = 8, nodes: int = 8):
        self.omega = omega
        self.x0 = np.asarray(x0, dtype=float)
        self.accept = accept
        self.panels = panels
        self.nodes = nodes
        self._rule = np.polynomial.legendre.leggauss(nodes)
        self._cache: dict[bytes, float] = {}

    def __call__(self, x) -> float:
        xa = np.asarray(x, dtype=float)
        key = xa.tobytes()
        try:
            return self._cache[key]
        except KeyError:
            pass
        d = xa - self.x0
        ts, ws = self._rule
        width = 1.0 / self.panels
        total = 0.0
        for p in range(self.panels):
            left = p * width
            for tk, wk in zip(ts, ws):
                t = left + 0.5 * width * (tk + 1.0)
                xt = self.x0 + t * d
                if self.accept is not None and not self.accept(xt):
                    raise PathError(
                        "integration segment leaves the admissible chart "
                        f"at t={t:.4f}")
                total += 0.5 * width * wk * float(self.omega(xt) @ d)
        out = float(np.exp(total))
        self._cache[key] = out
        return out


def recover_lambda(omega: Callable, x0, accept: Callable | None = None,
                   panels: int = 8, nodes: int = 8) -> LambdaField:
    """Integrate a closed 1-form into the scale field lambda, lambda(x0)=1.

    64 quadrature nodes by default (8 panels of 8); exact to machine
    precision for the polynomial forms that occur in the test families.
    """
    return LambdaField(omega, x0, accept=accept, panels=panels, nodes=nodes)


class ScaledCurvatureMetric:
    """L = R/lambda: curvature scalar rescaled by an x-only potential.

    The jet at p combines three ingredients: R as a jet from the curvature
    bundle, the 1-form omega_i = delta_i R / R as jets one order lower, and
    the potential mu = ln(lambda) whose Taylor coefficients are read off
    omega (mu_{alpha} = omega_i[alpha - e_i]/alpha_i for x-monomials; the
    constant term comes from the quadrature field).  Only x-monomials are
    transferred, so residual y-noise in omega below tolerance is dropped
    rather than amplified.
    """

    def __init__(self, spray, lam: LambdaField, name: str | None = None):
        self.spray = spray
        self.lam = lam
        self.dim = spray.dim
        self.name = name or f"curvature({spray.name})/lambda"
        self._cache: dict = {}

    def jet(self, p, order: int):
        pa = geometry._point_array(p, self.dim)
        key = (pa.tobytes(), order)
        try:
            return self._cache[key]
        except KeyError:
            pass
        n = self.dim
        b = geometry.CurvatureBundle(self.spray, pa, max(order + 2, 3))
        Rj, _, res = geometry.scalar_split(b)
        if not geometry._split_holds(b, res, TOL):
            raise PreconditionError(
                "curvature scalar is undefined: the spray is not of scalar "
                f"curvature at this point (split residual {res:.3e})")
        om = [d / Rj for d in b.delta_scalar(Rj)]
        osp = om[0].space
        msp = jets.space(2 * n, order)
        coeffs = np.zeros(msp.T)
        coeffs[0] = np.log(self.lam(pa[:n]))
        for idx in range(1, msp.T):
            alpha = msp.alphas[idx]
            if any(alpha[n:]):
                continue
            i = next(k for k in range(n) if alpha[k] > 0)
            beta = list(alpha)
            beta[i] -= 1
            coeffs[idx] = om[i].coeffs[osp.index[tuple(beta)]] / alpha[i]
        mu = jets.Jet(msp, tuple(pa), coeffs)
        out = Rj * jets.exp(-1.0 * mu)
        self._cache[key] = out
        return out

    def value(self, p) -> float:
        return float(self.jet(p, 0).value)

    def guard_values(self, p) -> list[float]:
        return self.spray.guard_values(p)


# -- shared plumbing -----------------------------------------------------------


_OUT_OF_SCOPE_NOTE = ("the spray is not of scalar curvature, which puts it "
                      "outside what these decision procedures can settle")


def _zero_note(samples: SampleSet) -> str:
    return (f"zero was judged by the max over {samples.count} samples; "
            "pointwise evaluation cannot certify identical vanishing")


def _classified(spray, report, count: int, seed: int, box: SampleBox | None,
                order: int, tol: Tolerances):
    """The samples and (point, bundle, decomposition) triples a verdict reads:
    the report's when one is given, else those of a fresh draw.  Sampling
    arguments next to a report would be silently overridden by it, so they
    must stay at their defaults."""
    if report is not None:
        if (count, seed, box, order) != (64, 7, None, 4):
            raise TypeError("a verdict reads either a report or its own "
                            "draw; pass sampling arguments without a report")
        return report.samples, report.triples
    samples = sampling.draw(spray, count=count, seed=seed, box=box)
    return samples, tuple(classify.point_bundles(spray, samples, order, tol))


def _certify(spray, L, samples: SampleSet, triples, tol: Tolerances):
    """Re-verify a recovered metric against its spray at every sample.

    Checks the metric is Finslerian, covariantly constant along the spray
    (L_{;i} = 0), and induces the spray back.  Returns (ok, evidence, worst
    residual); the caller decides what a failure demotes the verdict to.
    """
    fc = finsler_check(L, samples, tol)
    ev: dict = {"finsler_euler": fc.euler_residual,
                "finsler_rank_ratio": fc.rank_ratio}
    semi_worst = 0.0
    match_worst = 0.0
    scale_L = 1.0
    scale_G = 1.0
    for pt, b, _ in triples:
        Lj = L.jet(pt, 1)
        scale_L = max(scale_L, abs(Lj.value))
        semi_worst = max(semi_worst,
                         max(abs(d.value) for d in b.delta_scalar(Lj)))
        gv = np.array([g.value for g in geometry.spray_from_metric(L, pt, 0)])
        scale_G = max(scale_G, float(np.max(np.abs(b.G_values))))
        match_worst = max(match_worst,
                          float(np.max(np.abs(gv - b.G_values))))
    ev["L_semicolon"] = semi_worst
    ev["spray_match"] = match_worst
    ok = (fc.holds and tol.zero(semi_worst, scale_L)
          and tol.zero(match_worst, scale_G))
    return ok, ev, max(semi_worst, match_worst)


def _finsler_failure(fc: FinslerCheck, tol: Tolerances) -> float:
    return fc.rank_ratio if fc.rank_ratio < tol.rank else fc.euler_residual


# -- decision procedures -------------------------------------------------------


def verdict_isotropic(spray, count: int = 64, seed: int = 7,
                      box: SampleBox | None = None, order: int = 4,
                      tol: Tolerances = TOL, x0=None,
                      report: classify.ClassificationReport | None = None
                      ) -> Verdict:
    """Decide metrizability of an isotropic spray.

    Cascade: R vanishing -> locally metrizable (existence only); R not a
    Finsler function -> negative; otherwise the 1-form omega = R_{;i}/R
    must be y-independent and closed, and then either vanishes (L = R) or,
    in dimension 2 only, integrates to a scale lambda with L = R/lambda.
    `x0` anchors the lambda quadrature (defaults to the chart origin).
    With `report`, its samples and bundles are used, and count, seed, box
    and order must be left at their defaults.
    """
    n = spray.dim
    samples, triples = _classified(spray, report, count, seed, box, order, tol)
    for _, b, dec in triples:
        iso = classify.is_isotropic(dec, b, tol)
        if not iso.holds:
            raise PreconditionError(
                "isotropy fails at a sample point (residual "
                f"{iso.residual:.3e}); the isotropic procedure does not apply")

    max_R = max(abs(dec.R) for _, _, dec in triples)
    if tol.zero(max_R, 1.0):
        return Verdict("metrizable_locally", "R vanishes on samples", max_R,
                       bases=samples.bases,
                       evidence={"max_R": max_R, "note": _zero_note(samples)})

    fc = finsler_check(CurvatureMetric(spray), samples, tol)
    if not fc.holds:
        return Verdict("not_metrizable", "R is not a Finsler metric",
                       _finsler_failure(fc, tol), bases=samples.bases,
                       evidence={"finsler_euler": fc.euler_residual,
                                 "finsler_rank_ratio": fc.rank_ratio})

    # the omega stage: jets of delta_i R / R at every sample whose R value
    # is safely divisible
    floor = max(tol.abs, 1e-6 * max_R)
    m = samples.ys.shape[1]
    om_vals = np.full((len(triples), n), np.nan)
    y_dep = 0.0
    curl = 0.0
    om_scale = 1.0
    for i, (pt, b, dec) in enumerate(triples):
        if abs(dec.R) < floor:
            continue
        om = [d / dec.R_jet for d in b.delta_scalar(dec.R_jet)]
        om_vals[i] = [o.value for o in om]
        om_scale = max(om_scale, float(np.max(np.abs(om_vals[i]))))
        for a in range(n):
            for j in range(n):
                y_dep = max(y_dep, abs(om[a].dy(j).value))
            for j in range(a + 1, n):
                curl = max(curl, abs(om[a].dx(j).value - om[j].dx(a).value))
    for bidx in range(samples.bases.shape[0]):
        blk = om_vals[bidx * m:(bidx + 1) * m]
        blk = blk[~np.isnan(blk).any(axis=1)]
        if blk.shape[0] >= 2:
            y_dep = max(y_dep, float(np.max(blk.max(axis=0) - blk.min(axis=0))))

    if not tol.zero(y_dep, om_scale):
        return Verdict("not_metrizable", "omega y-dependent", y_dep,
                       bases=samples.bases, evidence={"omega_spread": y_dep})
    if not tol.zero(curl, om_scale):
        return Verdict("not_metrizable", "omega not closed", curl,
                       bases=samples.bases, evidence={"omega_curl": curl})

    base_omega = np.empty((samples.bases.shape[0], n))
    for bidx in range(samples.bases.shape[0]):
        blk = om_vals[bidx * m:(bidx + 1) * m]
        blk = blk[~np.isnan(blk).any(axis=1)]
        base_omega[bidx] = blk.mean(axis=0) if blk.shape[0] else np.nan

    max_om = float(np.nanmax(np.abs(om_vals)))
    if tol.zero(max_om, 1.0):
        L = CurvatureMetric(spray)
        ok, ev, worst = _certify(spray, L, samples, triples, tol)
        if not ok:
            return Verdict("inconclusive",
                           "recovered metric failed re-verification", worst,
                           bases=samples.bases, evidence=ev)
        return Verdict("metrizable_with_metric", "omega vanishes; L = R",
                       worst, recovered_metric=L, omega=base_omega,
                       bases=samples.bases, evidence=ev)

    if n >= 3:
        # a nonzero closed omega cannot be integrated into a metric above
        # dimension 2; the branch is terminal
        return Verdict("not_metrizable", "nonzero omega needs dimension 2",
                       max_om, bases=samples.bases, omega=base_omega,
                       evidence={"max_omega": max_om})

    y_ref = samples.ys[0, 0].copy()

    def omega_at(x: np.ndarray) -> np.ndarray:
        pt = np.concatenate([x, y_ref])
        b = geometry.CurvatureBundle(spray, pt, 3)
        Rj, _, res = geometry.scalar_split(b)
        if abs(Rj.value) < floor:
            raise PathError(
                "curvature scalar vanishes on the integration path; omega "
                "is undefined there")
        return np.array([d.value for d in b.delta_scalar(Rj)]) / Rj.value

    anchor = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    lam = recover_lambda(omega_at, anchor, accept=lambda x: (
        sampling.guards_hold(spray, np.concatenate([x, y_ref]))))
    L = ScaledCurvatureMetric(spray, lam)
    ok, ev, worst = _certify(spray, L, samples, triples, tol)
    ev["lambda"] = lam
    if not ok:
        return Verdict("inconclusive",
                       "recovered metric failed re-verification", worst,
                       bases=samples.bases, evidence=ev)
    return Verdict("metrizable_with_metric", "omega exact; L = R/lambda",
                   worst, recovered_metric=L, omega=base_omega,
                   bases=samples.bases, evidence=ev)


def verdict_constant(spray, count: int = 64, seed: int = 7,
                     box: SampleBox | None = None, order: int = 4,
                     tol: Tolerances = TOL,
                     report: classify.ClassificationReport | None = None
                     ) -> Verdict:
    """Decide metrizability of a constant-curvature spray.

    Ric vanishing -> locally metrizable (existence only); otherwise
    metrizable exactly when Ric/(n-1) is itself a Finsler function, and
    that quotient is the recovered metric.  `report` as for
    `verdict_isotropic`.
    """
    samples, triples = _classified(spray, report, count, seed, box, order, tol)
    for _, b, dec in triples:
        con = classify.is_constant(dec, b, tol)
        if not con.holds:
            raise PreconditionError(
                "constant-curvature classification fails at a sample "
                f"(residual {con.residual:.3e})")

    max_ric = max(abs(b.Ric_value) for _, b, _ in triples)
    if tol.zero(max_ric, 1.0):
        return Verdict("metrizable_locally", "Ric vanishes on samples",
                       max_ric, bases=samples.bases,
                       evidence={"max_Ric": max_ric,
                                 "note": _zero_note(samples)})

    L = CurvatureMetric(spray)
    fc = finsler_check(L, samples, tol)
    if not fc.holds:
        return Verdict("not_metrizable", "Ric is not a Finsler metric",
                       _finsler_failure(fc, tol), bases=samples.bases,
                       evidence={"finsler_euler": fc.euler_residual,
                                 "finsler_rank_ratio": fc.rank_ratio})
    ok, ev, worst = _certify(spray, L, samples, triples, tol)
    if not ok:
        return Verdict("inconclusive",
                       "recovered metric failed re-verification", worst,
                       bases=samples.bases, evidence=ev)
    return Verdict("metrizable_with_metric", "L = Ric/(n-1)", worst,
                   recovered_metric=L, bases=samples.bases, evidence=ev)


def nonmetrizable_scalar(spray, count: int = 64, seed: int = 7,
                         box: SampleBox | None = None, order: int = 4,
                         tol: Tolerances = TOL,
                         report: classify.ClassificationReport | None = None
                         ) -> Verdict:
    """Negative tests for scalar-curvature sprays.

    Two rules fire not_metrizable: R = 0 with tau != 0, and (for R != 0)
    a quotient tau/R that fails horizontal covariant constancy or vertical
    symmetry.  Everything else is inconclusive: the rules are sufficient
    for non-metrizability, never for the converse, and the remaining gap
    is a genuinely open problem this engine does not guess at.  `report`
    as for `verdict_isotropic`.
    """
    n = spray.dim
    samples, triples = _classified(spray, report, count, seed, box, order, tol)
    for _, _, dec in triples:
        if not dec.holds:
            raise PreconditionError(
                "scalar decomposition fails at a sample (residual "
                f"{dec.residual:.3e}); the scalar rules do not apply")

    max_R = max(abs(dec.R) for _, _, dec in triples)
    max_tau = max(float(np.max(np.abs(dec.tau))) for _, _, dec in triples)
    inconclusive_rule = ("scalar non-metrizability tests passed; "
                         "the conditions are sufficient only")
    if tol.zero(max_R, 1.0):
        if not tol.zero(max_tau, 1.0):
            return Verdict("not_metrizable", "R = 0 but tau != 0", max_tau,
                           bases=samples.bases,
                           evidence={"max_R": max_R, "max_tau": max_tau})
        return Verdict("inconclusive", inconclusive_rule, max_tau,
                       bases=samples.bases,
                       evidence={"max_R": max_R, "max_tau": max_tau})

    # quotient tests at samples where the division is well-conditioned
    floor = max(tol.abs, 1e-2 * max_R)
    worst = 0.0
    t_scale = 1.0
    used = 0
    for pt, b, dec in triples:
        if abs(dec.R) < floor:
            continue
        used += 1
        t = [dec.tau_jets[i] / dec.R_jet for i in range(n)]
        t_scale = max(t_scale, max(abs(ti.value) for ti in t))
        cov = b.cov_h(np.array(t, dtype=object), ("d",))
        worst = max(worst, float(np.max(np.abs(
            geometry.CurvatureBundle._values(cov)))))
        for i in range(n):
            for j in range(i + 1, n):
                worst = max(worst, abs(t[i].dy(j).value - t[j].dy(i).value))
    if worst > 10.0 * (tol.abs + tol.rel * t_scale):
        return Verdict(
            "not_metrizable",
            "tau/R fails covariant-constancy or vertical symmetry", worst,
            bases=samples.bases,
            evidence={"quotient_residual": worst, "samples_used": used})
    return Verdict("inconclusive", inconclusive_rule, worst,
                   bases=samples.bases,
                   evidence={"quotient_residual": worst, "samples_used": used})


def projective_shift(metric, c: float, count: int = 64, seed: int = 7,
                     box: SampleBox | None = None, order: int = 4,
                     tol: Tolerances = TOL):
    """Shift the metric's spray by c F y and decide the result.

    Asserts the structural identities of the construction on the way
    (shifted spray stays isotropic, its curvature scalar is
    (lambda + c^2) L), runs the isotropic verdict, and cross-checks it
    against the closed-form rule: metrizable iff lambda = -c^2 or c = 0.
    Returns (shifted spray, verdict).
    """
    if metric.dim < 2:
        raise PreconditionError("projective shift needs dimension >= 2")
    samples = sampling.draw(metric, count=count, seed=seed, box=box)
    for pt in samples.points():
        if metric.value(pt) <= 0.0:
            raise PreconditionError(
                "projective shift needs L > 0 on the sample set "
                "(F = sqrt(L) must be real)")
    fc = finsler_check(metric, samples, tol)
    if not fc.holds:
        raise PreconditionError(
            "projective shift needs a Finsler function; the Hessian rank "
            f"or homogeneity test failed (euler {fc.euler_residual:.3e}, "
            f"rank ratio {fc.rank_ratio:.3e})")

    base = geometry.MetricSpray(metric)
    lam_vals = []
    for pt, b, dec in classify.point_bundles(base, samples, order, tol):
        if not dec.holds:
            raise PreconditionError(
                "the metric's spray is not of scalar curvature; projective "
                "shift applies to constant flag curvature only")
        lam_vals.append(dec.R / metric.value(pt))
    lam_hat = float(np.mean(lam_vals))
    spread = float(np.max(lam_vals) - np.min(lam_vals))
    if not tol.zero(spread, max(1.0, abs(lam_hat))):
        raise PreconditionError(
            "the metric is not of constant flag curvature (ratio R/L "
            f"spreads by {spread:.3e} across samples)")

    shifted = geometry.ShiftedSpray(base, metric, c)
    shift_worst = 0.0
    for pt, b, dec in classify.point_bundles(shifted, samples, order, tol):
        iso = classify.is_isotropic(dec, b, tol)
        if not iso.holds:
            raise SprayLabError(
                "the shifted spray lost isotropy; the shift identity is "
                f"violated (residual {iso.residual:.3e})")
        want = (lam_hat + c * c) * metric.value(pt)
        shift_worst = max(shift_worst, abs(dec.R - want))
    if not tol.zero(shift_worst, max(1.0, (abs(lam_hat) + c * c))):
        raise SprayLabError(
            "shifted curvature scalar does not match (lambda + c^2) L "
            f"(residual {shift_worst:.3e})")

    v = verdict_isotropic(shifted, count=count, seed=seed, box=box,
                          order=order, tol=tol)
    engine_yes = v.outcome in METRIZABLE_OUTCOMES
    rule_yes = c == 0.0 or abs(lam_hat + c * c) <= 1e-6
    if engine_yes != rule_yes:
        raise SprayLabError(
            "isotropic verdict disagrees with the closed-form shift rule "
            f"(engine {v.outcome!r}, rule says metrizable={rule_yes})")
    v = dataclasses.replace(v, evidence={
        **v.evidence,
        "flag_curvature": lam_hat,
        "shift_identity": shift_worst,
        "closed_rule_metrizable": rule_yes,
    })
    return shifted, v


def route(spray, report: classify.ClassificationReport,
          tol: Tolerances = TOL, x0=None) -> Verdict:
    """Run the sharpest decision procedure the report's flags license.

    Constant curvature beats isotropic beats bare scalar; a spray that is
    not of scalar curvature is out of scope for every rule here and comes
    back inconclusive.  The procedure reads the report's samples and
    bundles, so nothing is drawn or built twice.
    """
    if report.flags["constant"]:
        return verdict_constant(spray, tol=tol, report=report)
    if report.flags["isotropic"]:
        return verdict_isotropic(spray, tol=tol, x0=x0, report=report)
    if report.flags["scalar"]:
        return nonmetrizable_scalar(spray, tol=tol, report=report)
    return Verdict("inconclusive", "not of scalar curvature",
                   float(report.residuals["scalar"]), bases=report.bases,
                   evidence={"note": _OUT_OF_SCOPE_NOTE})


def decide(spray, count: int = 64, seed: int = 7,
           box: SampleBox | None = None, order: int = 4,
           tol: Tolerances = TOL, x0=None) -> Verdict:
    """Classify the spray on one sample draw, then `route` the report."""
    report = classify.classify_spray(spray, count=count, seed=seed, box=box,
                                     order=order, tol=tol)
    return route(spray, report, tol=tol, x0=x0)
