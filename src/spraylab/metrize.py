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

The outcomes the routes share are built once each: `_vanishing`,
`_not_finsler`, and `_certified`, the one tail of every recovered metric.

The metric checks run on the blocks of `classify.BLOCK_ROWS` samples that
the classification builds: `finsler_check` takes one 2-jet per block,
`metric_spray_residuals` one jet of L, one `cov_h` and one induced spray
per block bundle, and the recovered candidates (`CurvatureMetric`,
`ScaledCurvatureMetric`) take a jet at a block off the report's block
bundle, and the quotients omega = delta R / R and t = tau / R are one
reciprocal and one stacked product per block bundle.  Every row equals
its sample alone, bit for bit.  A block that raises follows
`classify.rowwise`: `finsler_check` and the quadrature's nodes run the
rows of a block of points alone, and `metric_spray_residuals`, the
quotients and the candidates' split checks run them on one-row block
bundles (`classify.bundle_rows`).
"""

from __future__ import annotations

import dataclasses
import math
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


def _finsler_rows(field_obj, p, tol: Tolerances) -> list:
    """(Euler residual, rank ratio, passes) at a point, or at each row of a
    block of points in row order, from one 2-jet of the field."""
    n = field_obj.dim
    S = field_obj.jet(p, 2)
    euler = np.reshape(classify.euler_residual(S, 2), -1).tolist()
    scales = np.reshape(S.value, -1).tolist()
    # C-contiguous, so each row's SVD sees the layout a point's matrix has
    H = np.empty(S.coeffs.shape[:-1] + (n, n))
    for i in range(n):
        di = S.dy(i)
        for j in range(n):
            H[..., i, j] = 0.5 * di.dy(j).value
    out = []
    for e, v, sv in zip(euler, scales, geometry.singular_values(H.reshape(-1, n, n))):
        ratio = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
        fails = ratio < tol.rank or not tol.zero(e, max(1.0, abs(v)))
        out.append((e, ratio, not fails))
    return out


def finsler_check(field_obj, samples: SampleSet,
                  tol: Tolerances = TOL) -> FinslerCheck:
    """Is the scalar field a (pseudo-)Finsler function on the samples?

    Positive 2-homogeneity in y through all jet coefficients, and a
    y-Hessian of full numeric rank (smallest singular value at least
    rank_tol times the largest) at every sample.  Signature is not
    constrained: indefinite metrics pass.

    The field gives one 2-jet per run of `classify.BLOCK_ROWS` samples,
    taken at the block of their points (`classify.rowwise`), and each row
    is judged as the sample alone would be, in sample order.
    """
    def judged(points):
        return _finsler_rows(field_obj, points, tol)

    rows = [row for block in classify.blocks(samples.points())
            for row in classify.rowwise(judged, block)]
    worst_euler = 0.0
    min_ratio = float("inf")
    holds = True
    for e, ratio, passes in rows:
        worst_euler = max(worst_euler, e)
        min_ratio = min(min_ratio, ratio)
        holds = holds and passes
    return FinslerCheck(holds=holds, euler_residual=worst_euler,
                        rank_ratio=min_ratio)


def _check_splits(b) -> None:
    """The scalar split must hold at each point of the bundle, checked in
    row order, so the first failing row names the error."""
    def split_rows(b) -> zip:  # (split holds, split residual) per row
        return zip(geometry.split_holds(b, TOL), np.reshape(b.split_values[2], -1).tolist())

    for holds, residual in classify.bundle_rows(split_rows, b):
        if not holds:
            raise PreconditionError(
                "curvature scalar is undefined: the spray is not of scalar "
                f"curvature at this point (split residual {residual:.3e})")


class CurvatureMetric:
    """The curvature scalar R = Ric/(n-1) of a spray, as a metric candidate,
    and the read path of every recovered metric.

    Exists numerically: a jet request reads the curvature bundle two orders
    above the point and splits it; the split must hold.  Where `bundles`
    (the classification report's block bundles, typically) has a bundle of
    high enough order at the point or block, that bundle is read;
    elsewhere one of order at least 3 is built for the request.  Per
    point, the jet of the highest order asked for is kept, not the bundle,
    and a request of lower order gets its truncation.  Truncation is
    exact, since each coefficient is computed from coefficients of no
    higher degree only, so this is bit for bit what a bundle built for the
    request would give.  A request of order k returns a jet of order
    max(k, `least_order`).  A value read at a point that has neither reads
    an order-2 bundle there and keeps nothing (`_value_bundle`).

    `p` may also be a (B, 2n) block of points.  Its jet is read off the
    block bundle that `bundles` holds for that block (one block of a
    classification), else off a block bundle built for the request, and
    row r equals, bit for bit, the jet at point r alone.  Each row's split
    is checked in row order.  The block's jet is kept for the block and,
    row by row, for its points, so a read at a sample point of a block
    that was asked for truncates that row.

    A subclass changes the jet read off a bundle (`_jet_at`), the
    `least_order` and the fresh-point `value`.
    """

    least_order = 1

    def __init__(self, spray, bundles=()):
        self.spray = spray
        self.dim = spray.dim
        self.name = f"curvature({spray.name})"
        self._bundles = {geometry.point_key(b._pa): b for b in bundles}
        self._jets: dict = {}

    def _jet_at(self, b, order: int):
        return b.curvature_scalar.truncated(max(order, 1))

    def jet(self, p, order: int):
        jet_order = max(order, self.least_order)
        pa = geometry._point_array(p, self.dim)
        key = geometry.point_key(pa)
        out = self._jets.get(key)
        if out is None or out.order < jet_order:
            b = self._bundles.get(key)
            if b is None or b.order < order + 2:
                b = geometry.CurvatureBundle(self.spray, pa, max(order + 2, 3))
            _check_splits(b)
            out = self._jets[key] = self._jet_at(b, order)
            for r, row in enumerate(pa if pa.ndim == 2 else ()):
                row_key = geometry.point_key(row)
                kept = self._jets.get(row_key)
                if kept is None or kept.order < out.order:
                    self._jets[row_key] = jets.Jet(out.space, tuple(row), out.coeffs[r])
        return out.truncated(jet_order)

    def _value_bundle(self, p):
        """For a value read at a fresh point, one where no jet is kept and
        `bundles` holds no bundle, an order-2 point bundle there, whose
        split holds; else None, and the read goes through `jet`.

        The read takes R off the bundle's `split_values`, which have the
        bits of any order's jets' values, so it builds the bundle's G and R
        and no jet after them."""
        pa = geometry._point_array(p, self.dim)
        key = geometry.point_key(pa)
        if pa.ndim != 1 or key in self._jets or key in self._bundles:
            return None
        b = geometry.CurvatureBundle(self.spray, pa, 2)
        _check_splits(b)
        return b

    def value(self, p) -> float:
        b = self._value_bundle(p)
        if b is None:
            return float(self.jet(p, 0).value)
        return float(b.split_values[0])

    def guard_values(self, p) -> list[float]:
        return self.spray.guard_values(p)


# Nodes that one `omega` call of a block request holds at most, in runs of
# whole targets: 4 targets of the 64-node rule.  It bounds the block bundle
# at the nodes.  A seed-7 `decide ex7.1` integrates to 16 targets in one
# request: its traced peak (tracemalloc; 2-vCPU x86, numpy 2.4) is 0.90 /
# 1.44 / 1.98 / 3.52 MB at runs of 64 / 256 / 512 / 1024 nodes, and its
# CPU time, median of 20 interleaved passes, 22.7 / 17.8 / 19.0 / 20.2 ms.
RUN_NODES = 256


class LambdaField:
    """exp of the line integral of a 1-form along straight segments.

    Callable on chart points, and `values` takes a block of them, the
    request of a block of samples; the integral runs from `x0` with a
    composite Gauss-Legendre rule (`panels` x `nodes` evaluations).
    `accept` vetoes nodes outside the admissible chart; a vetoed node
    raises PathError because the segment is then not contained in the
    domain.  Each target's value is kept, by its bytes, and a call is one
    request of one target.

    `omega` takes a block of K nodes, shaped (K, n), and returns the form
    at each, shaped (K, n).  The targets of a request that are not kept
    are taken once each, in request order and in runs of whole targets of
    at most `RUN_NODES` nodes: one call evaluates every node of a run
    before its first veto, under the rule of `classify.rowwise`.  `accept`
    runs node by node, in path order, target by target, and the earliest
    (target, node) that fails decides the error, after the targets before
    it are kept: as if each target were asked alone, in turn.

    Each value has the bits of its target asked alone: the nodes x0 + t d
    are one array, the form's dot product with d at every node is one
    `np.vecdot`, which rounds each node as `om_k @ d` does, and each
    target's weighted sum is a float loop in path order, with one scalar
    `np.exp`.
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
        self._rule = [(float(p * width + 0.5 * width * (tk + 1.0)),
                       float(0.5 * width * wk))
                      for p in range(self.panels) for tk, wk in zip(ts, ws)]
        self._ts = np.array([t for t, _ in self._rule])[:, None]
        self._cache: dict[bytes, float] = {}

    def __call__(self, x) -> float:
        return self.values(np.asarray(x, dtype=float)[None])[0]

    def values(self, xs) -> list:
        """lambda at each row of the (m, n) block of targets, as floats."""
        xa = np.asarray(xs, dtype=float)
        keys = [x.tobytes() for x in xa]
        todo = list({key: x for key, x in zip(keys, xa) if key not in self._cache}.items())
        per = max(1, RUN_NODES // len(self._rule))
        for lo in range(0, len(todo), per):
            self._integrate(todo[lo:lo + per])
        return [self._cache[key] for key in keys]

    def _integrate(self, targets: list) -> None:
        """Keep the value at each (key, x) of one run, or raise what the
        first failing (target, node) raises, after keeping the targets
        before it."""
        K, n = len(self._rule), len(self.x0)
        d = np.array([x for _, x in targets]) - self.x0
        nodes = (self.x0 + self._ts * d[:, None, :]).reshape(-1, n)
        count, failure = (len(nodes), None) if self.accept is None else self._accepted(nodes)
        om = []
        try:
            om.extend(classify.rowwise(self.omega, nodes[:count]))
        except Exception as exc:
            failure = exc  # at a node that comes before any veto
        else:
            om = np.array(om)
            if count and om.shape != (count, n):
                raise ValueError(f"omega maps {(count, n)} nodes to shape "
                                 f"{om.shape}, not one row per node")
        done = len(om) // K  # the targets whose every node is evaluated
        if done:
            dots = np.vecdot(np.asarray(om[:done * K]), np.repeat(d[:done], K, axis=0))
            for (key, _), row in zip(targets, dots.reshape(done, K).tolist()):
                total = 0.0
                for (_, w), v in zip(self._rule, row):
                    total += w * v
                self._cache[key] = float(np.exp(total))
        if failure is not None:
            raise failure

    def _accepted(self, nodes: np.ndarray) -> tuple:
        """(the count of nodes before the first veto, its error or None):
        `accept` asked node by node, in order.  The error is raised once
        the nodes before it are evaluated, one of which may fail first."""
        for k, x in enumerate(nodes):
            try:
                if not self.accept(x):
                    t = self._rule[k % len(self._rule)][0]
                    return k, PathError("integration segment leaves the "
                                        f"admissible chart at t={t:.4f}")
            except Exception as exc:
                return k, exc
        return len(nodes), None


class ScaledCurvatureMetric(CurvatureMetric):
    """L = R/lambda: curvature scalar rescaled by an x-only potential.

    The jet at p combines three ingredients: R as a jet from the curvature
    bundle, the 1-form omega_i = delta_i R / R as jets one order lower, and
    the potential mu = ln(lambda) whose Taylor coefficients are read off
    omega (mu_{alpha} = omega_i[alpha - e_i]/alpha_i for x-monomials; the
    constant term comes from the quadrature field).  Only x-monomials are
    transferred, so residual y-noise in omega below tolerance is dropped
    rather than amplified.  The curvature bundles are found, and the jets
    kept, by `CurvatureMetric`'s read path, at a point or a block of
    points; a request of order k returns a jet of order k.  At a block,
    lambda is taken at each row's x and the coefficients move along the
    last axis, so each row is what its point alone gives.
    """

    least_order = 0

    def __init__(self, spray, lam: LambdaField, bundles=()):
        super().__init__(spray, bundles)
        self.lam = lam
        self.name += "/lambda"

    def _jet_at(self, b, order: int):
        n = self.dim
        Rj = b.curvature_scalar.truncated(max(order, 1))
        om = _divided(Rj, b.delta_scalar(Rj), 0.0)[1]
        osp = om[0].space
        msp = jets.space(2 * n, order)
        coeffs = np.zeros(Rj.coeffs.shape[:-1] + (msp.T,))
        # np.log of each row's float, as at a point
        lams = self.lam.values(np.reshape(b._pa, (-1, 2 * n))[:, :n])
        coeffs[..., 0] = np.reshape([np.log(v) for v in lams], coeffs.shape[:-1])
        for idx in range(1, msp.T):
            alpha = msp.alphas[idx]
            if any(alpha[n:]):
                continue
            i = next(k for k in range(n) if alpha[k] > 0)
            beta = list(alpha)
            beta[i] -= 1
            coeffs[..., idx] = om[i].coeffs[..., osp.index[tuple(beta)]] / alpha[i]
        mu = jets.Jet(msp, Rj.center, coeffs)
        return Rj * jets.exp(-1.0 * mu)

    def value(self, p) -> float:
        """L at p.  At a fresh point (see `_value_bundle`) this is the
        order-0 jet's R * exp(-ln lambda), with the error that its jet
        raises where R is at the reciprocal floor of omega = delta R / R."""
        b = self._value_bundle(p)
        if b is None:
            return float(self.jet(p, 0).value)
        R = float(b.split_values[0])
        jets.check_divisor(R)  # the floor check of the quotients in `_jet_at`
        mu = np.log(self.lam(b._pa[:self.dim]))
        # the kernel's product of two order-0 jets: one term summed from 0.0
        return 0.0 + R * math.exp(mu * -1.0)


# -- shared plumbing -----------------------------------------------------------


def _residual_rows(b, L, parallel: bool) -> list:
    """`metric_spray_residuals`' (G values, L value, max |L_{;i}|,
    max |G_L - G|) at each row of the block bundle b."""
    n = L.dim
    rows = len(b._pa)
    values = semis = [None] * rows
    if parallel:
        Lj = L.jet(b._pa, 1)
        values = np.reshape(Lj.value, rows).tolist()
        semis = [max(abs(d) for d in cov)
                 for cov in b.cov_h(Lj, ()).reshape(rows, n).tolist()]
    gv = np.array([g.value for g in geometry.spray_from_metric(L, b._pa, 0)])
    match = np.max(np.abs(gv.T - b.G_values), axis=1).tolist()
    return list(zip(b.G_values, values, semis, match))


def metric_spray_residuals(L, blocks, parallel: bool = True):
    """Compare a metric with a spray at each sample of `blocks`.

    `blocks` are a classification's (points, bundle, decompositions), as
    `ClassificationReport.blocks` holds them, and their bundles stand for
    the spray.  Yields (point, G values, L value, max |L_{;i}|,
    max |G_L - G|) per sample in turn, where G is the spray at the point,
    L_{;i} the horizontal derivative of L along the spray and G_L the
    spray that L induces.  With `parallel` false, L and L_{;i} are not
    evaluated and their places hold None.  The pass rules are the callers'.

    The rows of one block bundle are compared at once
    (`classify.sample_rows`): one jet of L at the block, one `cov_h` of the
    block bundle and one `spray_from_metric` at the block, each row equal,
    bit for bit, to its sample alone.
    """
    for pt, _, row in classify.sample_rows(_residual_rows, blocks, L, parallel):
        yield (pt, *row)


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
    for _, G, value, semi, match in metric_spray_residuals(L, report.blocks):
        scale_L = max(scale_L, abs(value))
        semi_worst = max(semi_worst, semi)
        scale_G = max(scale_G, float(np.max(np.abs(G))))
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
    order-`order` block bundle at K nodes to the (K, n) form values there,
    one bundle per run of a request's nodes (`LambdaField`), so a block
    request of the samples' x builds one bundle per `RUN_NODES` nodes,
    not one per target.  The integral runs from the chart origin, and a
    node where the spray's guards fail at that tangent vetoes the segment.
    A spray without guards admits every node, so its nodes are not asked.
    The samples must be admissible points of the spray: the guards are
    counted at the first.
    """
    n = spray.dim
    y_ref = samples.ys[0, 0].copy()

    def omega(xs: np.ndarray) -> np.ndarray:
        # one block bundle for the nodes of a run
        pts = np.concatenate([xs, np.broadcast_to(y_ref, xs.shape)], axis=1)
        return form(geometry.CurvatureBundle(spray, pts, order))

    def accept(x: np.ndarray) -> bool:
        return sampling.guards_hold(spray, np.concatenate([x, y_ref]))

    guarded = bool(spray.guard_values(samples.points()[0]))
    return LambdaField(omega, np.zeros(n), accept=accept if guarded else None)


def _vanishing(samples: SampleSet, rule: str, key: str,
               max_value: float) -> Verdict:
    """metrizable_locally: an existence statement, so it has no metric."""
    note = (f"zero was judged by the max over {samples.count} samples; "
            "pointwise evaluation cannot certify identical vanishing")
    return Verdict("metrizable_locally", rule, max_value, bases=samples.bases,
                   evidence={key: max_value, "note": note})


def _not_finsler(samples: SampleSet, rule: str, fc: FinslerCheck,
                 tol: Tolerances) -> Verdict:
    """not_metrizable: the only candidate metric failed `finsler_check`."""
    residual = fc.rank_ratio if fc.rank_ratio < tol.rank else fc.euler_residual
    return Verdict("not_metrizable", rule, residual, bases=samples.bases,
                   evidence={"finsler_euler": fc.euler_residual,
                             "finsler_rank_ratio": fc.rank_ratio})


def _certified(L, report: classify.ClassificationReport, fc: FinslerCheck,
               tol: Tolerances, rule: str, omega: np.ndarray | None = None,
               **evidence) -> Verdict:
    """metrizable_with_metric under `rule` if L passes `_certify`, else
    inconclusive with neither metric nor omega; the evidence is
    `_certify`'s plus `evidence` either way."""
    ok, ev, worst = _certify(L, report, fc, tol)
    ev.update(evidence)
    if not ok:
        return Verdict("inconclusive",
                       "recovered metric failed re-verification", worst,
                       bases=report.bases, evidence=ev)
    return Verdict("metrizable_with_metric", rule, worst, recovered_metric=L,
                   omega=omega, bases=report.bases, evidence=ev)


def _divided(Rj, nums: list, floor: float) -> tuple:
    """(rows, jets): the mask of the rows (one at a point) whose |R|, Rj's
    value, is not under `floor`, a nan included, and u / R for the jets u
    of `nums`, of one space: one reciprocal and one stacked product, u the
    left factor.  The other rows are divided by 1, so none of them raises."""
    sp = nums[0].space
    rows = ~(np.abs(Rj.coeffs[..., 0]) < floor)
    R = np.where(rows[..., None], Rj.coeffs[..., :sp.T], sp.constant(1.0, Rj.center).coeffs)
    inv = jets.Jet(sp, Rj.center, R).reciprocal()
    q = jets.stacked_product(sp, np.array([u.coeffs for u in nums]), inv.coeffs)
    return np.reshape(rows, -1), geometry._unstack(sp, Rj.center, q, 1)


def _first_orders(rows, q: list) -> list:
    """Per row: None off the mask `rows`, else [u, d_0 u, ...] for u in `q`."""
    J = np.moveaxis(jets.first_order(q, q[0]).reshape(len(q), len(rows), -1), 1, 0)
    return [j if used else None for j, used in zip(J.tolist(), rows)]


def _omega_rows(b, floor: float) -> list:
    """`_first_orders` of omega = delta R / R at each row of the block
    bundle b."""
    Rj = b.curvature_scalar
    return _first_orders(*_divided(Rj, b.delta_scalar(Rj), floor))


def _t_rows(b, floor: float) -> list:
    """None, or (`_first_orders` of t = tau / R, max |t_{i;j}|), at each
    row of the block bundle b, from its split and one `cov_h`."""
    Rj, tau, _ = b.splits
    rows, t = _divided(Rj, tau, floor)
    cov = np.max(np.abs(b.cov_h(np.array(t, dtype=object), ("d",)).reshape(len(rows), -1)), 1)
    return [None if J is None else (J, c) for J, c in zip(_first_orders(rows, t), cov.tolist())]


def _decompositions(report: classify.ClassificationReport):
    """The report's ScalarDecompositions, one per sample, in sample order."""
    return (dec for _, _, decs in report.blocks for dec in decs)


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
    precondition, and its samples and blocks (block bundles with their
    rows' ScalarDecompositions) are the only input.  Nothing is drawn or
    classified again.
    """
    _require(report, "isotropic", "isotropy")
    n = spray.dim
    samples = report.samples

    max_R = max(abs(dec.R) for dec in _decompositions(report))
    if tol.zero(max_R, 1.0):
        return _vanishing(samples, "R vanishes on samples", "max_R", max_R)

    # the metric candidates read the classification's bundles
    known = [b for _, b, _ in report.blocks]
    R = CurvatureMetric(spray, bundles=known)
    fc = finsler_check(R, samples, tol)
    if not fc.holds:
        return _not_finsler(samples, "R is not a Finsler metric", fc, tol)

    # the omega stage: delta_i R / R at every sample where R is divisible
    floor = max(tol.abs, 1e-6 * max_R)
    m = samples.ys.shape[1]
    om_vals = np.full((samples.count, n), np.nan)
    y_dep = 0.0
    curl = 0.0
    om_scale = 1.0
    # om[a] = [omega_a, its d_x..., its d_y...], or None
    for i, (_, _, om) in enumerate(classify.sample_rows(_omega_rows, report.blocks, floor)):
        if om is None:
            continue
        om_vals[i] = [o[0] for o in om]
        om_scale = max(om_scale, float(np.max(np.abs(om_vals[i]))))
        for a in range(n):
            for j in range(n):
                y_dep = max(y_dep, abs(om[a][n + 1 + j]))
            for j in range(a + 1, n):
                curl = max(curl, abs(om[a][1 + j] - om[j][1 + a]))
    # per base: the spread of omega across its tangents, and their mean
    base_omega = np.empty((samples.bases.shape[0], n))
    for bidx in range(samples.bases.shape[0]):
        blk = om_vals[bidx * m:(bidx + 1) * m]
        blk = blk[~np.isnan(blk).any(axis=1)]
        if blk.shape[0] >= 2:
            y_dep = max(y_dep, float(np.max(blk.max(axis=0) - blk.min(axis=0))))
        base_omega[bidx] = blk.mean(axis=0) if blk.shape[0] else np.nan

    for rule, key, worst in (("omega y-dependent", "omega_spread", y_dep),
                             ("omega not closed", "omega_curl", curl)):
        if not tol.zero(worst, om_scale):
            return Verdict("not_metrizable", rule, worst, bases=samples.bases,
                           evidence={key: worst})

    max_om = float(np.nanmax(np.abs(om_vals)))
    if tol.zero(max_om, 1.0):
        return _certified(R, report, fc, tol, "omega vanishes; L = R",
                          omega=base_omega)

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
    return _certified(L, report, finsler_check(L, samples, tol), tol,
                      "omega exact; L = R/lambda", omega=base_omega,
                      **{"lambda": lam})


def verdict_constant(spray, report: classify.ClassificationReport,
                     tol: Tolerances = TOL) -> Verdict:
    """Decide metrizability of a constant-curvature spray.

    Ric vanishing -> locally metrizable (existence only); otherwise
    metrizable exactly when Ric/(n-1) is itself a Finsler function, and
    that quotient is the recovered metric.  `report` as for
    `verdict_isotropic`, with the constant flag as the precondition.
    """
    _require(report, "constant", "constant curvature")
    samples = report.samples

    max_ric = max(abs(ric) for _, b, _ in report.blocks for ric in b.Ric_value.tolist())
    if tol.zero(max_ric, 1.0):
        return _vanishing(samples, "Ric vanishes on samples", "max_Ric",
                          max_ric)

    L = CurvatureMetric(spray, bundles=[b for _, b, _ in report.blocks])
    fc = finsler_check(L, samples, tol)
    if not fc.holds:
        return _not_finsler(samples, "Ric is not a Finsler metric", fc, tol)
    return _certified(L, report, fc, tol, "L = Ric/(n-1)")


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
    samples = report.samples

    max_R = max(abs(dec.R) for dec in _decompositions(report))
    max_tau = max(float(np.max(np.abs(dec.tau))) for dec in _decompositions(report))

    def decided(fired: bool, rule: str, residual: float, **evidence):
        # a rule that fires is decisive; one that passes leaves it open
        if not fired:
            rule = ("scalar non-metrizability tests passed; "
                    "the conditions are sufficient only")
        return Verdict("not_metrizable" if fired else "inconclusive", rule,
                       residual, bases=samples.bases, evidence=evidence)

    if tol.zero(max_R, 1.0):
        return decided(not tol.zero(max_tau, 1.0), "R = 0 but tau != 0",
                       max_tau, max_R=max_R, max_tau=max_tau)

    # quotient tests at samples where the division is well-conditioned
    floor = max(tol.abs, 1e-2 * max_R)
    worst = 0.0
    t_scale = 1.0
    rows = [row for _, _, row in classify.sample_rows(_t_rows, report.blocks, floor)
            if row is not None]
    for t, cov in rows:
        t_scale = max(t_scale, max(abs(ti[0]) for ti in t))
        worst = max(worst, cov)
        for i in range(n):
            for j in range(i + 1, n):
                worst = max(worst, abs(t[i][n + 1 + j] - t[j][n + 1 + i]))
    return decided(worst > 10.0 * (tol.abs + tol.rel * t_scale),
                   "tau/R fails covariant-constancy or vertical symmetry",
                   worst, quotient_residual=worst, samples_used=len(rows))


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

    The metric's spray is lifted once per block of samples: the shifted
    spray reads the base G off the block bundles that the flag-curvature
    test builds (`geometry.ShiftedSpray`'s `bundles`).  At c = 0 the
    shifted spray is the base spray, and its classification reads those
    blocks themselves.
    """
    if metric.dim < 2:
        raise PreconditionError("projective shift needs dimension >= 2")
    samples = sampling.draw(metric, count=count, seed=seed, box=box)
    if isinstance(metric, CurvatureMetric):
        # a recovered metric keeps the highest-order jet asked of it at each
        # block, and row by row at its points: ask first for the order the
        # metric's spray lifts it to, so that every read below truncates
        # one jet per block
        try:
            for block in classify.blocks(samples.points()):
                metric.jet(block, order + 2)
        except Exception:
            pass  # the reads below raise what they raise, in their order
    L_vals = [metric.value(pt) for pt in samples.points()]
    if min(L_vals) <= 0.0:
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
    base_blocks = []

    def base_decs():
        # each block is kept: the shifted spray reads G off its bundle
        for block in classify.block_bundles(base, samples, order, tol):
            base_blocks.append(block)
            yield from block[2]

    lam_vals = []
    for L, dec in zip(L_vals, base_decs()):
        if not dec.holds:
            raise PreconditionError(
                "the metric's spray is not of scalar curvature; projective "
                "shift applies to constant flag curvature only")
        lam_vals.append(dec.R / L)
    lam_hat = float(np.mean(lam_vals))
    spread = float(np.max(lam_vals) - np.min(lam_vals))
    if not tol.zero(spread, max(1.0, abs(lam_hat))):
        raise PreconditionError(
            "the metric is not of constant flag curvature (ratio R/L "
            f"spreads by {spread:.3e} across samples)")

    # the shifted spray's guards are the metric's, so the metric's samples
    # are also the ones a draw on the shifted spray gives
    shifted = geometry.ShiftedSpray(base, metric, c, bundles=[b for _, b, _ in base_blocks])
    blocks = base_blocks if c == 0.0 else classify.block_bundles(shifted, samples, order, tol)
    report = classify.classify_blocks(samples, blocks, tol)
    if not report.flags["isotropic"]:
        raise SprayLabError(
            "the shifted spray lost isotropy; the shift identity is violated "
            f"(worst residual {report.residuals['isotropic']:.3e})")
    shift_worst = 0.0
    for L, dec in zip(L_vals, _decompositions(report)):
        want = (lam_hat + c * c) * L
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
    note = ("the spray is not of scalar curvature, which puts it outside "
            "what these decision procedures can settle")
    return Verdict("inconclusive", "not of scalar curvature",
                   float(report.residuals["scalar"]), bases=report.bases,
                   evidence={"note": note})


def decide(spray, count: int = 64, seed: int = 7,
           box: SampleBox | None = None, order: int = 4,
           tol: Tolerances = TOL) -> Verdict:
    """Classify the spray on one sample draw, then `route` the report."""
    report = classify.classify_spray(spray, count=count, seed=seed, box=box,
                                     order=order, tol=tol)
    return route(spray, report, tol=tol)
