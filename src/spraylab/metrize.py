"""Metrizability decision procedures with metric recovery.

Four entry points, one per decision route: `verdict_isotropic` for isotropic
sprays (the R / omega cascade), `verdict_constant` for constant curvature
(the Ric test), `nonmetrizable_scalar` for scalar sprays (purely negative
rules plus an honest inconclusive), and `projective_shift` for the shifted
family along a constant-flag-curvature metric.  `route` sends a
ClassificationReport to the sharpest procedure its flags license.  The
three verdicts take that report as their only input: its flags are their
preconditions, so no verdict decides a curvature class again, and they
read its samples and bundles, drawing and building nothing at a sample.
`decide` is `classify_spray` followed by `route`; `projective_shift`
classifies its shifted spray once and hands that report to
`verdict_isotropic`.  A spray that is not of scalar curvature is out of
scope for every rule and comes back inconclusive.

Every verdict is evidence-backed: the rule string names the decisive test,
`residual` is the worst number behind it, and metrizable-with-metric
verdicts are only emitted after the recovered metric has been re-verified
against the input spray (non-degenerate Hessian, covariant constancy,
induced-spray match; the Finsler check is the one the verdict made on
the same metric).  Recovery never fabricates: the locally-metrizable
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
    "metric_spray_residuals",
    "lambda_field",
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


def _bundle_table(bundles) -> dict:
    """Point bundles keyed by their point's bytes."""
    return {b.point.array().tobytes(): b for b in bundles}


def _candidate_jet(metric, p, order: int, jet_order: int):
    """The jet of order `jet_order` that `metric.jet(p, order)` returns.

    Truncated from the jet kept at p when that is of high enough order,
    else computed by `metric._jet_at` and kept: on the bundle that
    `metric._bundles` holds at p when it is at least two orders above
    `order`, else on a new one of order max(order + 2, 3).  Either way the
    bundle's scalar split must hold.
    """
    pa = geometry._point_array(p, metric.dim)
    key = pa.tobytes()
    out = metric._jets.get(key)
    if out is None or out.order < jet_order:
        b = metric._bundles.get(key)
        if b is None or b.order < order + 2:
            b = geometry.CurvatureBundle(metric.spray, pa, max(order + 2, 3))
        if not geometry.split_holds(b, TOL):
            raise PreconditionError(
                "curvature scalar is undefined: the spray is not of scalar "
                f"curvature at this point (split residual {b.split[2]:.3e})")
        out = metric._jets[key] = metric._jet_at(b, order)
    return out.truncated(jet_order)


class CurvatureMetric:
    """The curvature scalar R = Ric/(n-1) of a spray, as a metric candidate.

    Exists numerically: a jet request reads the curvature bundle two orders
    above the point and splits it; the split must hold.  Where `bundles`
    (the classification report's, typically) has a bundle of high enough
    order at the point, that bundle is read; elsewhere one is built for
    the request.  Per point, the jet of the highest order asked for is
    kept, not the bundle, and a request of lower order gets its
    truncation.  Truncation is exact, since each coefficient is computed
    from coefficients of no higher degree only, so this is bit for bit
    what a bundle built for the request would give.  A request of order k
    returns a jet of order max(k, 1).
    """

    def __init__(self, spray, bundles=()):
        self.spray = spray
        self.dim = spray.dim
        self.name = f"curvature({spray.name})"
        self._bundles = _bundle_table(bundles)
        self._jets: dict = {}

    def _jet_at(self, b, order: int):
        return b.curvature_scalar.truncated(max(order, 1))

    def jet(self, p, order: int):
        return _candidate_jet(self, p, order, max(order, 1))

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

    `omega` takes a block of K nodes, shaped (K, n), and returns the form
    at each, shaped (K, n): one call per segment evaluates every node
    before the first veto.  `accept` runs node by node, in path order, and
    the earliest node that fails decides the error, as if the nodes were
    visited one at a time: when the block call raises, the nodes are
    evaluated one by one to find the first that fails.
    """

    panels = 8
    nodes = 8

    def __init__(self, omega: Callable, x0, accept: Callable | None = None):
        self.omega = omega
        self.x0 = np.asarray(x0, dtype=float)
        self.accept = accept
        ts, ws = np.polynomial.legendre.leggauss(self.nodes)
        width = 1.0 / self.panels
        # (t, weight) of every node along the segment, in path order
        self._rule = [(p * width + 0.5 * width * (tk + 1.0), 0.5 * width * wk)
                      for p in range(self.panels) for tk, wk in zip(ts, ws)]
        self._cache: dict[bytes, float] = {}

    def __call__(self, x) -> float:
        xa = np.asarray(x, dtype=float)
        key = xa.tobytes()
        try:
            return self._cache[key]
        except KeyError:
            pass
        d = xa - self.x0
        xs = []
        veto = None
        for t, _ in self._rule:
            xt = self.x0 + t * d
            try:
                ok = self.accept is None or self.accept(xt)
            except Exception as exc:
                # raised once the nodes before this one are evaluated, one
                # of which may fail first
                veto = exc
                break
            if not ok:
                veto = PathError("integration segment leaves the admissible "
                                 f"chart at t={t:.4f}")
                break
            xs.append(xt)
        om = self._omega_block(np.array(xs).reshape(len(xs), len(d)))
        if veto is not None:
            raise veto
        total = 0.0
        for (_, w), om_k in zip(self._rule, om):
            total += w * float(om_k @ d)
        out = float(np.exp(total))
        self._cache[key] = out
        return out

    def _omega_block(self, xs: np.ndarray) -> np.ndarray:
        if not len(xs):
            return xs
        try:
            om = self.omega(xs)
        except Exception:
            # the first node whose own evaluation fails decides the error
            for k in range(len(xs)):
                self.omega(xs[k:k + 1])
            raise
        if np.shape(om) != xs.shape:
            raise ValueError(f"omega maps {xs.shape} nodes to shape "
                             f"{np.shape(om)}, not one row per node")
        return om


class ScaledCurvatureMetric:
    """L = R/lambda: curvature scalar rescaled by an x-only potential.

    The jet at p combines three ingredients: R as a jet from the curvature
    bundle, the 1-form omega_i = delta_i R / R as jets one order lower, and
    the potential mu = ln(lambda) whose Taylor coefficients are read off
    omega (mu_{alpha} = omega_i[alpha - e_i]/alpha_i for x-monomials; the
    constant term comes from the quadrature field).  Only x-monomials are
    transferred, so residual y-noise in omega below tolerance is dropped
    rather than amplified.  The curvature bundles are found, and the jets
    kept, as for `CurvatureMetric`; a request of order k returns a jet of
    order k.
    """

    def __init__(self, spray, lam: LambdaField, bundles=()):
        self.spray = spray
        self.lam = lam
        self.dim = spray.dim
        self.name = f"curvature({spray.name})/lambda"
        self._bundles = _bundle_table(bundles)
        self._jets: dict = {}

    def _jet_at(self, b, order: int):
        n = self.dim
        Rj = b.curvature_scalar.truncated(max(order, 1))
        om = [d / Rj for d in b.delta_scalar(Rj)]
        osp = om[0].space
        msp = jets.space(2 * n, order)
        coeffs = np.zeros(msp.T)
        coeffs[0] = np.log(self.lam(b.point.x))
        for idx in range(1, msp.T):
            alpha = msp.alphas[idx]
            if any(alpha[n:]):
                continue
            i = next(k for k in range(n) if alpha[k] > 0)
            beta = list(alpha)
            beta[i] -= 1
            coeffs[idx] = om[i].coeffs[osp.index[tuple(beta)]] / alpha[i]
        mu = jets.Jet(msp, Rj.center, coeffs)
        return Rj * jets.exp(-1.0 * mu)

    def jet(self, p, order: int):
        return _candidate_jet(self, p, order, order)

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


def metric_spray_residuals(L, triples, parallel: bool = True):
    """Compare a metric with a spray at each (point, bundle, _) triple.

    `triples` are a classification's, as `ClassificationReport` holds them,
    and their bundles stand for the spray.  Yields (point, bundle, L value,
    max |L_{;i}|, max |G_L - G|) per sample in turn, where L_{;i} is the
    horizontal derivative of L along the spray and G_L the spray that L
    induces.  With `parallel` false, L and L_{;i} are not evaluated and
    their places hold None.  The pass rules are the callers'.
    """
    for pt, b, _ in triples:
        value = semi = None
        if parallel:
            Lj = L.jet(pt, 1)
            value = Lj.value
            semi = max(abs(d) for d in b.cov_h(Lj, ()).tolist())
        gv = np.array([g.value for g in geometry.spray_from_metric(L, pt, 0)])
        yield pt, b, value, semi, float(np.max(np.abs(gv - b.G_values)))


def _certify(L, report: classify.ClassificationReport, fc: FinslerCheck,
             tol: Tolerances):
    """Re-verify a recovered metric against its spray at every sample.

    Checks the metric is Finslerian (`fc`, the verdict's `finsler_check`
    of L on the report's samples), covariantly constant along the spray
    (L_{;i} = 0), and induces the spray back.  Returns (ok, evidence, worst
    residual); the caller decides what a failure demotes the verdict to.
    """
    ev: dict = {"finsler_euler": fc.euler_residual,
                "finsler_rank_ratio": fc.rank_ratio}
    semi_worst = 0.0
    match_worst = 0.0
    scale_L = 1.0
    scale_G = 1.0
    for _, b, value, semi, match in metric_spray_residuals(L, report.triples):
        scale_L = max(scale_L, abs(value))
        semi_worst = max(semi_worst, semi)
        scale_G = max(scale_G, float(np.max(np.abs(b.G_values))))
        match_worst = max(match_worst, match)
    ev["L_semicolon"] = semi_worst
    ev["spray_match"] = match_worst
    ok = (fc.holds and tol.zero(semi_worst, scale_L)
          and tol.zero(match_worst, scale_G))
    return ok, ev, max(semi_worst, match_worst)


def lambda_field(spray, samples: SampleSet, order: int,
                 form: Callable) -> LambdaField:
    """Integrate a 1-form that the spray's bundles give, at a fixed tangent.

    The form is taken at the first sample's tangent: `form` maps the
    order-`order` block bundle at a segment's K nodes to the (K, n) form
    values there.  The integral runs from the chart origin, and a node
    where the spray's guards fail at that tangent vetoes the segment (see
    `LambdaField`).
    """
    n = spray.dim
    y_ref = samples.ys[0, 0].copy()

    def omega(xs: np.ndarray) -> np.ndarray:
        # one block bundle for the nodes of a segment
        pts = np.concatenate([xs, np.broadcast_to(y_ref, xs.shape)], axis=1)
        return form(geometry.CurvatureBundle(spray, pts, order))

    return LambdaField(omega, np.zeros(n), accept=lambda x: (
        sampling.guards_hold(spray, np.concatenate([x, y_ref]))))


def _finsler_failure(fc: FinslerCheck, tol: Tolerances) -> float:
    return fc.rank_ratio if fc.rank_ratio < tol.rank else fc.euler_residual


# -- decision procedures -------------------------------------------------------


def _require(report: classify.ClassificationReport, flag: str, what: str):
    """Raise PreconditionError unless the report's `flag` holds."""
    if not report.flags[flag]:
        raise PreconditionError(
            f"{what} fails on the samples (worst residual "
            f"{report.residuals[flag]:.3e}); the procedure does not apply")


def verdict_isotropic(spray, report: classify.ClassificationReport,
                      tol: Tolerances = TOL) -> Verdict:
    """Decide metrizability of an isotropic spray.

    Cascade: R vanishing -> locally metrizable (existence only); R not a
    Finsler function -> negative; otherwise the 1-form omega = R_{;i}/R
    must be y-independent and closed, and then either vanishes (L = R) or,
    in dimension 2 only, integrates to a scale lambda with L = R/lambda,
    anchored at the chart origin.

    `report` is the spray's classification: its isotropic flag is the
    precondition, and its samples and (point, bundle, ScalarDecomposition)
    triples are the only input.  Nothing is drawn or classified again.
    """
    _require(report, "isotropic", "isotropy")
    n = spray.dim
    samples, triples = report.samples, report.triples

    max_R = max(abs(dec.R) for _, _, dec in triples)
    if tol.zero(max_R, 1.0):
        return Verdict("metrizable_locally", "R vanishes on samples", max_R,
                       bases=samples.bases,
                       evidence={"max_R": max_R, "note": _zero_note(samples)})

    # the metric candidates read the classification's bundles
    known = [b for _, b, _ in triples]
    R = CurvatureMetric(spray, bundles=known)
    fc = finsler_check(R, samples, tol)
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
        ok, ev, worst = _certify(R, report, fc, tol)
        if not ok:
            return Verdict("inconclusive",
                           "recovered metric failed re-verification", worst,
                           bases=samples.bases, evidence=ev)
        return Verdict("metrizable_with_metric", "omega vanishes; L = R",
                       worst, recovered_metric=R, omega=base_omega,
                       bases=samples.bases, evidence=ev)

    if n >= 3:
        # a nonzero closed omega cannot be integrated into a metric above
        # dimension 2; the branch is terminal
        return Verdict("not_metrizable", "nonzero omega needs dimension 2",
                       max_om, bases=samples.bases, omega=base_omega,
                       evidence={"max_omega": max_om})

    def omega_at(b) -> np.ndarray:
        Rj = b.curvature_scalar
        Rv = Rj.value
        if np.any(np.abs(Rv) < floor):
            raise PathError(
                "curvature scalar vanishes on the integration path; omega "
                "is undefined there")
        return b.cov_h(Rj, ()) / Rv[:, None]

    lam = lambda_field(spray, samples, 3, omega_at)
    L = ScaledCurvatureMetric(spray, lam, bundles=known)
    ok, ev, worst = _certify(L, report, finsler_check(L, samples, tol), tol)
    ev["lambda"] = lam
    if not ok:
        return Verdict("inconclusive",
                       "recovered metric failed re-verification", worst,
                       bases=samples.bases, evidence=ev)
    return Verdict("metrizable_with_metric", "omega exact; L = R/lambda",
                   worst, recovered_metric=L, omega=base_omega,
                   bases=samples.bases, evidence=ev)


def verdict_constant(spray, report: classify.ClassificationReport,
                     tol: Tolerances = TOL) -> Verdict:
    """Decide metrizability of a constant-curvature spray.

    Ric vanishing -> locally metrizable (existence only); otherwise
    metrizable exactly when Ric/(n-1) is itself a Finsler function, and
    that quotient is the recovered metric.  `report` as for
    `verdict_isotropic`, with the constant flag as the precondition.
    """
    _require(report, "constant", "constant curvature")
    samples, triples = report.samples, report.triples

    max_ric = max(abs(b.Ric_value) for _, b, _ in triples)
    if tol.zero(max_ric, 1.0):
        return Verdict("metrizable_locally", "Ric vanishes on samples",
                       max_ric, bases=samples.bases,
                       evidence={"max_Ric": max_ric,
                                 "note": _zero_note(samples)})

    L = CurvatureMetric(spray, bundles=[b for _, b, _ in triples])
    fc = finsler_check(L, samples, tol)
    if not fc.holds:
        return Verdict("not_metrizable", "Ric is not a Finsler metric",
                       _finsler_failure(fc, tol), bases=samples.bases,
                       evidence={"finsler_euler": fc.euler_residual,
                                 "finsler_rank_ratio": fc.rank_ratio})
    ok, ev, worst = _certify(L, report, fc, tol)
    if not ok:
        return Verdict("inconclusive",
                       "recovered metric failed re-verification", worst,
                       bases=samples.bases, evidence=ev)
    return Verdict("metrizable_with_metric", "L = Ric/(n-1)", worst,
                   recovered_metric=L, bases=samples.bases, evidence=ev)


def nonmetrizable_scalar(spray, report: classify.ClassificationReport,
                         tol: Tolerances = TOL) -> Verdict:
    """Negative tests for scalar-curvature sprays.

    Two rules fire not_metrizable: R = 0 with tau != 0, and (for R != 0)
    a quotient tau/R that fails horizontal covariant constancy or vertical
    symmetry.  Everything else is inconclusive: the rules are sufficient
    for non-metrizability, never for the converse, and the remaining gap
    is a genuinely open problem this engine does not guess at.  `report`
    as for `verdict_isotropic`, with the scalar flag as the precondition.
    """
    _require(report, "scalar", "the scalar decomposition")
    n = spray.dim
    samples, triples = report.samples, report.triples

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
        worst = max(worst, float(np.max(np.abs(cov))))
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
    (lambda + c^2) L), runs the isotropic verdict on the shifted spray's
    one classification, and cross-checks it against the closed-form rule:
    metrizable iff lambda = -c^2 or c = 0.  Returns (shifted spray,
    verdict).
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

    # the shifted spray's guards are the metric's, so the metric's samples
    # are also the ones a draw on the shifted spray gives
    shifted = geometry.ShiftedSpray(base, metric, c)
    report = classify.classify_samples(shifted, samples, order, tol)
    if not report.flags["isotropic"]:
        raise SprayLabError(
            "the shifted spray lost isotropy; the shift identity is violated "
            f"(worst residual {report.residuals['isotropic']:.3e})")
    shift_worst = 0.0
    for pt, _, dec in report.triples:
        want = (lam_hat + c * c) * metric.value(pt)
        shift_worst = max(shift_worst, abs(dec.R - want))
    if not tol.zero(shift_worst, max(1.0, (abs(lam_hat) + c * c))):
        raise SprayLabError(
            "shifted curvature scalar does not match (lambda + c^2) L "
            f"(residual {shift_worst:.3e})")

    v = verdict_isotropic(shifted, report, tol=tol)
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
          tol: Tolerances = TOL) -> Verdict:
    """Run the sharpest decision procedure the report's flags license.

    Constant curvature beats isotropic beats bare scalar; a spray that is
    not of scalar curvature is out of scope for every rule here and comes
    back inconclusive.  The procedure reads the report's flags, samples and
    bundles, so nothing is drawn, built or classified twice.
    """
    if report.flags["constant"]:
        return verdict_constant(spray, report, tol=tol)
    if report.flags["isotropic"]:
        return verdict_isotropic(spray, report, tol=tol)
    if report.flags["scalar"]:
        return nonmetrizable_scalar(spray, report, tol=tol)
    return Verdict("inconclusive", "not of scalar curvature",
                   float(report.residuals["scalar"]), bases=report.bases,
                   evidence={"note": _OUT_OF_SCOPE_NOTE})


def decide(spray, count: int = 64, seed: int = 7,
           box: SampleBox | None = None, order: int = 4,
           tol: Tolerances = TOL) -> Verdict:
    """Classify the spray on one sample draw, then `route` the report."""
    report = classify.classify_spray(spray, count=count, seed=seed, box=box,
                                     order=order, tol=tol)
    return route(spray, report, tol=tol)
