"""Metrizability verdicts and metric recovery.

Frozen numbers come from an independent sympy computation: curvature tensors
assembled from the defining formula, covariant derivatives by hand, induced
sprays through an explicit adjugate.  The recovered-metric targets
(lambda = e^{-2 x1^2} and L = -2 e^{2 x1^2} |y|^2 for the whirl spray,
L = -4|y|^2/(1-|x|^2)^2 for the ball family at c=2) were confirmed there to
reproduce the input spray exactly before being trusted as expectations here.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spraylab import (classify, cli, corpus, dsl, geometry, jets, metrize,
                      sampling)
from spraylab.errors import DomainError, PathError, PreconditionError

from conftest import classified, loop_lambda

FLAT = """
dim 2
spray G1 = 0
spray G2 = 0
"""

ROTOR = """
dim 2
const r = 1
spray G1 = y2 * sqrt(y1^2 + y2^2) / (2*r)
spray G2 = -(y1 * sqrt(y1^2 + y2^2)) / (2*r)
guard = y1^2 + y2^2 - 0.25
"""

WHIRL = """
dim 2
spray G1 = x1 * (y1^2 - y2^2)
spray G2 = 2 * x1 * y1 * y2
"""

BALL = """
dim 2
const c = 2
spray G1 = (-(y1^2 + y2^2)*x1 + c*(x1*y1 + x2*y2)*y1) / (1 - x1^2 - x2^2)
spray G2 = (-(y1^2 + y2^2)*x2 + c*(x1*y1 + x2*y2)*y2) / (1 - x1^2 - x2^2)
guard = 0.7 - x1^2 - x2^2
"""

CUBIC = """
dim 2
spray G1 = -3 * y2^2
spray G2 = -2 * y2^3 / y1
guard = y1 - 0.45
"""

# the degenerate member of the quadratic projective family (u = |x|^2)
DEGEN = """
dim 2
spray G1 = -((x1*y1 + x2*y2) / (x1^2 + x2^2)) * y1
spray G2 = -((x1*y1 + x2*y2) / (x1^2 + x2^2)) * y2
guard = x1^2 + x2^2 - 0.04
"""

DEGEN_L = """
dim 2
metric L = ((x1^2 + x2^2)*(y1^2 + y2^2) - (x1*y1 + x2*y2)^2) / (x1^2 + x2^2)^2
guard = x1^2 + x2^2 - 0.04
"""

# scalar, non-isotropic, R != 0, and tau/R fails covariant constancy
TWIST = """
dim 2
spray G1 = y1 * y2
spray G2 = x1 * (y1^2 + y2^2)
"""

# scalar, non-isotropic, R = -2 y1 y2 != 0, yet tau/R = (0, 1/y2) passes
# every scalar non-metrizability test: the honest inconclusive case
DRIFT = """
dim 2
spray G1 = x2 * y1^2
spray G2 = 0
"""

NONSCALAR3 = """
dim 3
spray G1 = x2 * y3^2
spray G2 = 0
spray G3 = 0
"""

# projective factor from u = e^{x1}: G^i = -(y1/2) y^i, R = y1^2/4 degenerate
EXPFAC = """
dim 2
spray G1 = -(y1/2) * y1
spray G2 = -(y1/2) * y2
"""

EX75 = """
dim 3
spray G1 = 0
spray G2 = x1 * y1^2 + x3 * y3^2
spray G3 = 0
"""

WITNESS75 = """
dim 3
metric L = y3^2 + x1^2 * y1^2 + y1*y2 + x3^2 * y1*y3
"""

EQ3 = """
dim 2
metric L = ((1 + x1^2 + x2^2)*(y1^2 + y2^2) - (x1*y1 + x2*y2)^2) / (1 + x1^2 + x2^2)^2
"""

FLATM = """
dim 2
metric L = y1^2 + y2^2
"""

WHIRL_METRIC = """
dim 2
metric L = -2 * exp(2 * x1^2) * (y1^2 + y2^2)
"""

CONE = """
dim 2
metric L = (y1^2 + y2^2)^(3/4)
"""

CMS19 = """
dim 2
metric L = y1^(2/3) * ((1 + x1 + x2) * y2)^(4/3)
guard = y1 - 0.05
guard = y2 - 0.05
guard = 1 + x1 + x2 - 0.2
"""

PROT = (0.1, -0.2, 3.0, 4.0)
PD = (0.4, 0.3, 0.7, -0.2)
PC = (0.3, -0.2, 0.8, 0.6)
PE = (0.25, -0.3, 0.6, 0.9)
PCUB = (0.2, -0.3, 1.0, 1.0)

# sympy-frozen: worst entry of the covariant derivative of tau/R for TWIST
TWIST_T_COV = np.array([[1.3274284715342928, -0.05768894586562555],
                        [-1.7699046287123905, 0.07691859448750073]])


def spray_of(src: str, consts: dict | None = None):
    pd = dsl.parse(src, consts=consts)
    if pd.kind == "metric":
        return geometry.MetricSpray(geometry.ExprMetric(pd))
    return geometry.ExprSpray(pd)


def metric_of(src: str) -> geometry.ExprMetric:
    return geometry.ExprMetric(dsl.parse(src))


def guarded(sp):
    return lambda pt: all(g > 1e-6 for g in sp.guard_values(pt))


def draw(thing, count: int = 12, seed: int = 7, box=None) -> sampling.SampleSet:
    return sampling.sample_points(
        thing.dim, count=count, seed=seed, box=box, accept=guarded(thing))


# -- finsler_check --------------------------------------------------------------


def test_finsler_check_euclidean() -> None:
    m = metric_of(FLATM)
    fc = metrize.finsler_check(m, draw(m))
    assert fc.holds
    assert fc.euler_residual <= 1e-10
    assert fc.rank_ratio == pytest.approx(1.0, abs=1e-12)


def test_finsler_check_degenerate_hessian() -> None:
    m = metric_of(DEGEN_L)
    fc = metrize.finsler_check(m, draw(m))
    assert not fc.holds
    assert fc.euler_residual <= 1e-8       # still 2-homogeneous
    assert fc.rank_ratio <= 1e-10          # rank n-1


def test_finsler_check_wrong_degree() -> None:
    m = metric_of(CONE)
    fc = metrize.finsler_check(m, draw(m))
    assert not fc.holds
    assert fc.euler_residual > 1e-2        # y.dL/dy = 1.5 L, not 2 L


def test_finsler_check_curvature_scalar() -> None:
    sp = spray_of(ROTOR)
    fc = metrize.finsler_check(metrize.CurvatureMetric(sp), draw(sp))
    assert fc.holds                        # Hessian of |y|^2/r^2 is (2/r^2) id
    assert fc.rank_ratio == pytest.approx(1.0, abs=1e-9)


def test_curvature_metric_jets() -> None:
    R = metrize.CurvatureMetric(spray_of(ROTOR))
    j = R.jet(PROT, 2)
    assert j.value == pytest.approx(25.0, abs=1e-9)
    assert j.dy(0).value == pytest.approx(6.0, abs=1e-9)
    assert j.dy(1).value == pytest.approx(8.0, abs=1e-9)
    assert abs(j.dx(0).value) <= 1e-9
    assert R.value(PROT) == pytest.approx(25.0, abs=1e-9)


def test_curvature_metrics_read_given_bundles(monkeypatch) -> None:
    sp = spray_of(ROTOR)
    known = geometry.CurvatureBundle(sp, PROT, 4)
    built = []
    init = geometry.CurvatureBundle.__init__

    def counting_init(b, spray, p, order=4):
        built.append(order)
        init(b, spray, p, order)

    monkeypatch.setattr(geometry.CurvatureBundle, "__init__", counting_init)
    R = metrize.CurvatureMetric(sp, bundles=[known])
    lam = metrize.LambdaField(lambda xs: np.zeros_like(xs), (0.0, 0.0))
    S = metrize.ScaledCurvatureMetric(sp, lam, bundles=[known])
    # an order-2 jet is read off the order-4 bundle given at that point,
    # and lower orders are its truncations
    assert R.jet(PROT, 2) is known.curvature_scalar
    assert S.jet(PROT, 2).value == pytest.approx(25.0, abs=1e-9)
    for order in (0, 1, 2):
        assert R.jet(PROT, order).order == max(order, 1)
        assert S.jet(PROT, order).order == order
    assert R.value(PROT) == S.value(PROT) == pytest.approx(25.0, abs=1e-9)
    assert built == []
    # a point without a given bundle builds one, two orders above
    R.jet(PC, 2)
    assert built == [4]


def test_kept_candidate_jets_truncate_to_the_requested_jets() -> None:
    # a lower-order request is served by truncating the jet kept at the
    # point; that must be, byte for byte, the jet computed for the request,
    # at the samples (report bundles) and off them (bundles built there)
    sp = spray_of(WHIRL)
    rep = classified(sp, 12)
    lam = metrize.verdict_isotropic(sp, rep).evidence["lambda"]
    samples = rep.samples
    known = [b for _, b, _ in rep.blocks]
    off = [np.array([0.3, -0.2, 0.6, -0.5]), np.array([-0.1, 0.4, 0.2, 0.9])]
    for pt in list(samples.points()) + off:
        for make in (lambda: metrize.CurvatureMetric(sp, bundles=known),
                     lambda: metrize.ScaledCurvatureMetric(sp, lam,
                                                           bundles=known)):
            kept = make()
            kept.jet(pt, 3)
            for order in (0, 1, 2):
                want = make().jet(pt, order)
                got = kept.jet(pt, order)
                assert got.order == want.order
                assert got.coeffs.tobytes() == want.coeffs.tobytes()


def two_samples(*pts) -> sampling.SampleSet:
    """A sample set of the given points, each on a base of its own."""
    pts = np.array(pts, dtype=float)
    n = pts.shape[1] // 2
    return sampling.SampleSet(pts[:, :n].copy(), pts[:, None, n:].copy())


def test_finsler_check_of_a_block_keeps_the_first_failing_sample() -> None:
    # the first sample is not of scalar curvature, and the spray cannot be
    # evaluated at the second: the block bundle raises the second's
    # DomainError, so the candidate checks the split of each row on its
    # own, and the first's PreconditionError names the error, for a jet at
    # the block and for the samples taken one at a time
    sp = spray_of("dim 3\nspray G1 = x2 * y3^2 * sqrt(x1)\nspray G2 = 0\n"
                  "spray G3 = 0\n")
    samples = two_samples((0.5, 0.2, -0.1, 0.7, 0.5, -0.4),
                          (-0.5, 0.2, -0.1, 0.7, 0.5, -0.4))
    with pytest.raises(DomainError):
        geometry.CurvatureBundle(sp, samples.points(), 4).G
    with pytest.raises(PreconditionError, match="curvature scalar is undefined"):
        metrize.CurvatureMetric(sp).jet(samples.points(), 2)
    with pytest.raises(PreconditionError, match="curvature scalar is undefined"):
        metrize.finsler_check(metrize.CurvatureMetric(sp), samples)


def test_metric_spray_residuals_of_a_block_keep_the_first_failing_sample() -> None:
    # the metric's Hessian is degenerate at the first sample, and its jet
    # cannot be taken at the second: the block raises the second's
    # DomainError, and the samples compared one at a time raise the first's
    # DegenerateMetric, after yielding nothing
    from spraylab.errors import DegenerateMetric

    metric = metric_of("dim 2\nmetric L = y1^2 + x1^2*y2^2 + sqrt(x2)*y1^2\n")
    samples = two_samples((1e-9, 0.25, 0.6, 0.8), (0.3, -0.25, 0.6, 0.8))
    blocks = tuple(classify.block_bundles(spray_of(FLAT), samples))
    assert len(blocks) == 1 and len(blocks[0][0]) == 2
    with pytest.raises(DomainError):
        metric.jet(samples.points(), 1)
    got = []
    with pytest.raises(DegenerateMetric):
        for row in metrize.metric_spray_residuals(metric, blocks):
            got.append(row)
    assert got == []


def test_curvature_metrics_check_the_split_of_given_bundles() -> None:
    sp = spray_of(NONSCALAR3)
    pt = (0.1, 0.2, -0.1, 0.7, 0.5, -0.4)
    known = [geometry.CurvatureBundle(sp, pt, 4)]
    lam = metrize.LambdaField(lambda xs: np.zeros_like(xs), (0.0,) * 3)
    for L in (metrize.CurvatureMetric(sp, bundles=known),
              metrize.ScaledCurvatureMetric(sp, lam, bundles=known)):
        with pytest.raises(PreconditionError, match="curvature scalar is undefined"):
            L.jet(pt, 2)


def fresh_points(spray, box, seed: int, count: int = 12) -> np.ndarray:
    """Seeded random points in the box where the spray's guards hold,
    drawn uniformly, none of them a sample of a classification."""
    rng = np.random.default_rng(seed)
    box = box or sampling.SampleBox()
    n, out = spray.dim, []
    while len(out) < count:
        pt = np.concatenate([rng.uniform(box.x_lo, box.x_hi, n),
                             rng.uniform(box.y_lo, box.y_hi, n)])
        if guarded(spray)(pt):
            out.append(pt)
    return np.array(out)


@pytest.mark.parametrize("name", ["ex7.1", "elliptic2", "ex7.3"])
def test_a_fresh_value_has_the_bits_of_the_order_0_jet(name, tally) -> None:
    fx = corpus.load_fixture(name)
    spray = fx.build()
    L = metrize.decide(spray, count=fx.count, seed=7, box=fx.box).recovered_metric
    pts = np.concatenate([fresh_points(spray, fx.box, seed) for seed in (1, 2)]
                         + [draw(spray, 8, 101, fx.box).points()])
    for pt in pts:
        key = (pt.tobytes(), 2)
        got = L.value(pt)
        # read off one order-2 bundle, and nothing kept for the point
        assert tally["bundles"][key] == 1
        assert geometry.point_key(pt) not in L._jets
        assert got.hex() == L.jet(pt, 0).value.hex()
        # a known point reads its kept jet
        assert L.value(pt).hex() == got.hex() and tally["bundles"][key] == 1


@pytest.mark.parametrize("name", ["elliptic2", "ex7.3"])
def test_a_fresh_value_takes_no_order_0_kernel_product_and_no_R_jets(
        name, monkeypatch) -> None:
    # the curvature scalar and the split of an order-2 bundle are order-0
    # jets: their products skip the kernel, and R is read off its stack
    fx = corpus.load_fixture(name)
    spray = fx.build()
    L = metrize.decide(spray, count=fx.count, seed=7, box=fx.box).recovered_metric
    assert isinstance(L, metrize.CurvatureMetric)
    orders, built = Counter(), []
    mul_coeffs, value_bundle = jets._mul_coeffs, metrize.CurvatureMetric._value_bundle

    def counting_mul(sp, a, b):
        orders[sp.order] += 1
        return mul_coeffs(sp, a, b)

    def kept_bundle(metric, p):
        built.append(value_bundle(metric, p))
        return built[-1]

    # reciprocals taken outside the spray's own coefficients: the split's
    # floor check is a test on the value, and no tau jet is built
    reciprocals, in_spray = Counter(), []
    reciprocal, coeff_jets = jets.Jet.reciprocal, L.spray.coeff_jets

    def counting_reciprocal(u):
        reciprocals["spray" if in_spray else "read"] += 1
        return reciprocal(u)

    def spray_jets(p, order):
        in_spray.append(p)
        try:
            return coeff_jets(p, order)
        finally:
            in_spray.pop()

    monkeypatch.setattr(jets, "_mul_coeffs", counting_mul)
    monkeypatch.setattr(metrize.CurvatureMetric, "_value_bundle", kept_bundle)
    monkeypatch.setattr(jets.Jet, "reciprocal", counting_reciprocal)
    monkeypatch.setattr(L.spray, "coeff_jets", spray_jets)
    for pt in fresh_points(spray, fx.box, 3):
        L.value(pt)
    assert len(built) == 12 and all(b.order == 2 for b in built)
    assert orders[0] == 0 and sum(orders.values()) > 0
    assert not any("R" in b.__dict__ for b in built)
    assert reciprocals["read"] == 0 and reciprocals["spray"] > 0
    assert not any(key in b.__dict__ for b in built for key in ("splits", "curvature_scalar"))


def test_a_fresh_value_raises_what_the_jet_raises() -> None:
    lam = metrize.LambdaField(lambda xs: np.zeros_like(xs), (0.0,) * 3)
    flat = spray_of("dim 3\nspray G1 = 0\nspray G2 = 0\nspray G3 = 0\n")
    pt = (0.1, 0.2, -0.1, 0.7, 0.5, -0.4)
    cases = [
        # not of scalar curvature at pt
        (PreconditionError, lambda sp: metrize.CurvatureMetric(sp), NONSCALAR3),
        (PreconditionError, lambda sp: metrize.ScaledCurvatureMetric(sp, lam), NONSCALAR3),
        # R = 0: omega = delta R / R meets the reciprocal floor
        (DomainError, lambda sp: metrize.ScaledCurvatureMetric(sp, lam), flat),
    ]
    for error, make, sp in cases:
        sp = spray_of(sp) if isinstance(sp, str) else sp
        with pytest.raises(error) as want:
            make(sp).jet(pt, 0)
        with pytest.raises(error) as got:
            make(sp).value(pt)
        assert str(got.value) == str(want.value)
    assert metrize.CurvatureMetric(flat).value(pt) == 0.0
    # tangents the split cannot divide by, and one the bundle refuses
    lam2 = metrize.LambdaField(lambda xs: np.zeros_like(xs), (0.0,) * 2)
    for y, text in [((1e-13, 0.0), "division by jet with value part 1e-13"),
                    ((1e-300, 1e-301), "division by jet with value part 1e-300"),
                    ((np.nan, 1.0), "tangent vector is not finite")]:
        for source in (WHIRL, BALL):
            sp = spray_of(source)
            for make in (metrize.CurvatureMetric,
                         lambda sp: metrize.ScaledCurvatureMetric(sp, lam2)):
                with pytest.raises(DomainError) as want:
                    make(sp).jet((0.1, 0.2) + y, 0)
                with pytest.raises(DomainError) as got:
                    make(sp).value((0.1, 0.2) + y)
                assert str(got.value) == str(want.value) == text


# -- LambdaField ----------------------------------------------------------------


def first_component(f):
    """The block form (K, 2) -> (K, 2) of omega = f(x1) dx1."""
    return lambda xs: np.stack([f(xs[:, 0]), np.zeros(len(xs))], axis=1)


def test_recover_lambda_zero_form() -> None:
    lam = metrize.LambdaField(lambda xs: np.zeros_like(xs), np.zeros(2))
    assert lam(np.array([0.7, -0.3])) == 1.0


def test_recover_lambda_log_derivative() -> None:
    # omega = d ln(x1 + 2) integrates to lambda = (x1 + 2)/2 from x0 = 0
    lam = metrize.LambdaField(
        first_component(lambda x1: 1.0 / (x1 + 2.0)), np.zeros(2))
    for x1 in (-0.5, 0.4, 1.5):
        got = lam(np.array([x1, 0.3]))
        assert got == pytest.approx((x1 + 2.0) / 2.0, abs=1e-8)


def test_recover_lambda_gaussian() -> None:
    lam = metrize.LambdaField(
        first_component(lambda x1: -4.0 * x1), np.zeros(2))
    for x1 in (-0.6, 0.25, 0.8):
        assert lam(np.array([x1, -0.2])) == pytest.approx(
            np.exp(-2.0 * x1 ** 2), abs=1e-10)


def test_recover_lambda_path_exits_chart() -> None:
    lam = metrize.LambdaField(
        first_component(np.ones_like), np.zeros(2),
        accept=lambda x: x[0] < 0.5)
    with pytest.raises(PathError):
        lam(np.array([1.0, 0.0]))


def vanishing_beyond(x1_max: float, domain_beyond: float | None = None):
    """A block omega that fails like the isotropic verdict's: PathError when
    a node has x1 > x1_max; with `domain_beyond`, it checks first for nodes
    beyond that and raises DomainError for them."""
    def omega(xs):
        if domain_beyond is not None and np.any(xs[:, 0] > domain_beyond):
            raise DomainError("division by jet with value part 0.0")
        if np.any(xs[:, 0] > x1_max):
            raise PathError("curvature scalar vanishes on the integration "
                            "path; omega is undefined there")
        return np.zeros_like(xs)
    return omega


def test_recover_lambda_vanishing_before_the_veto_decides() -> None:
    # the form is undefined from x1 = 0.3 on, the chart ends at 0.5: visited
    # node by node, the path meets the undefined form first
    lam = metrize.LambdaField(vanishing_beyond(0.3), np.zeros(2),
                                 accept=lambda x: x[0] < 0.5)
    with pytest.raises(PathError, match="curvature scalar vanishes"):
        lam(np.array([1.0, 0.0]))


def test_recover_lambda_earliest_failing_node_decides() -> None:
    # the block call raises DomainError for the nodes beyond 0.4, but the
    # nodes between 0.3 and 0.4 come first on the path and fail otherwise
    lam = metrize.LambdaField(vanishing_beyond(0.3, domain_beyond=0.4),
                                 np.zeros(2), accept=lambda x: x[0] < 0.5)
    with pytest.raises(PathError, match="curvature scalar vanishes"):
        lam(np.array([1.0, 0.0]))


def test_recover_lambda_veto_before_any_failure() -> None:
    lam = metrize.LambdaField(vanishing_beyond(0.7), np.zeros(2),
                                 accept=lambda x: x[0] < 0.5)
    with pytest.raises(PathError, match="leaves the admissible chart"):
        lam(np.array([1.0, 0.0]))


def test_recover_lambda_rejects_point_callables() -> None:
    lam = metrize.LambdaField(lambda x: np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="one row per node"):
        lam(np.array([0.7, -0.3]))


# a flat spray whose guard is sqrt(1.5 - x1) + 1 > 1 where it is defined:
# past x1 = 1.5 its float evaluation raises
SQRT_GUARD = """
dim 2
spray G1 = 0
spray G2 = 0
guard = sqrt(1.5 - x1) + 1
"""


def guarded_field(src: str):
    """A lambda_field of the zero form on the spray, with the points its
    guards were asked at and the number of nodes of each form call."""
    spray = spray_of(src)
    calls, seen = [], []
    guard_values = spray.guard_values

    def recording(p):
        calls.append(tuple(p))
        return guard_values(p)

    spray.guard_values = recording
    # one admissible sample of every guard below
    samples = sampling.SampleSet(np.full((1, 2), 0.25), np.array([[[0.6, 0.8]]]))

    def form(b):
        seen.append(len(b._pa))
        return np.zeros((len(b._pa), 2))

    return metrize.lambda_field(spray, samples, 2, form), calls, seen


def first_failing_node(lam, target, ok) -> int:
    return next(k for k, (t, _) in enumerate(lam._rule)
                if not ok(t * np.asarray(target)))


def test_guard_that_fails_mid_segment_vetoes_its_node() -> None:
    lam, calls, seen = guarded_field(SQRT_GUARD.replace(
        "sqrt(1.5 - x1) + 1", "0.5 - x1"))
    assert lam(np.array([0.4, -0.3])) == 1.0
    # the guard fails past x1 = 0.5: the nodes are asked one at a time, and
    # the first that fails vetoes the segment after the nodes before it
    # are evaluated
    calls.clear()
    k = first_failing_node(lam, (1.0, 0.2), lambda x: 0.5 - x[0] > 1e-6)
    with pytest.raises(PathError, match=f"t={lam._rule[k][0]:.4f}"):
        lam(np.array([1.0, 0.2]))
    assert len(calls) == k + 1
    assert seen[-1] == k


def test_guard_whose_float_evaluation_raises_decides_the_error() -> None:
    lam, calls, seen = guarded_field(SQRT_GUARD)
    assert lam(np.array([1.2, 0.5])) == 1.0
    # the first node past x1 = 1.5 raises in floats, after the nodes
    # before it are evaluated
    calls.clear()
    k = first_failing_node(lam, (2.0, 0.0), lambda x: 1.5 - x[0] > 0.0)
    with pytest.raises(DomainError, match="sqrt"):
        lam(np.array([2.0, 0.0]))
    assert len(calls) == k + 1
    assert seen[-1] == k


def test_guard_that_fails_at_zero_in_floats_decides_the_error() -> None:
    # every node towards a target with x1 = 0 has x1 exactly 0, where the
    # real power of the guard is undefined in floats
    lam, calls, seen = guarded_field(SQRT_GUARD.replace(
        "sqrt(1.5 - x1) + 1", "x1^0.5 + 1"))
    calls.clear()
    with pytest.raises(DomainError):
        lam(np.array([0.0, 0.5]))
    assert len(calls) == 1 and seen == []


def test_lambda_field_of_a_spray_without_guards_asks_no_node() -> None:
    lam, calls, _ = guarded_field(SQRT_GUARD.replace(
        "guard = sqrt(1.5 - x1) + 1\n", ""))
    assert lam.accept is None
    assert lam(np.array([2.0, 0.0])) == 1.0
    # asked once, at the sample, to count the guards
    assert len(calls) == 1


# -- block requests of a LambdaField ---------------------------------------------
#
# `values` against `loop_lambda`, the call as it integrated one target at a
# time: on block requests with repeated and already-kept targets, requests
# of more than one run of RUN_NODES nodes, forms that raise at a node and
# guards that veto, or raise, at a node.

LAMBDA_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                           database=None)

# ex7.1, isotropic with R = 0 nowhere near the box, behind a guard that
# ends the chart along a line: {wall} is the guard's text
WHIRL_GUARDED = """
dim 2
spray G1 = x1 * (y1^2 - y2^2)
spray G2 = 2 * x1 * y1 * y2
guard = {wall}
"""


def form_field(n: int, a: tuple, fail_at: float | None, wall: float | None,
               raise_at: float | None) -> metrize.LambdaField:
    """A field of an elementwise form in dim n, whose rows do not depend on
    the block: it raises at the nodes with x1 > fail_at, naming the first
    in its block; `accept` vetoes the nodes with x1 + x2 >= wall and raises
    at those with x2 > raise_at."""
    a = np.array(a[:n])

    def omega(xs):
        bad = xs[:, 0] > (np.inf if fail_at is None else fail_at)
        if bad.any():
            raise DomainError(f"form undefined at {xs[bad][0].tolist()}")
        return 0.3 * np.cos(xs[:, ::-1] * a + 0.1) - 0.2 * xs

    def accept(x):
        if raise_at is not None and x[1] > raise_at:
            raise DomainError(f"guard undefined at {x.tolist()}")
        return wall is None or x[0] + x[1] < wall

    guarded = wall is not None or raise_at is not None
    return metrize.LambdaField(omega, np.zeros(n), accept=accept if guarded else None)


def whirl_field(wall: str) -> metrize.LambdaField:
    """The isotropic route's field on the guarded whirl: omega = delta R / R
    at the nodes, which raises where |R| is under 1e-3."""
    spray = spray_of(WHIRL_GUARDED.format(wall=wall))

    def omega_at(b):
        Rj = b.curvature_scalar
        if np.any(np.abs(Rj.value) < 1e-3):
            raise PathError("curvature scalar vanishes on the integration path")
        return b.cov_h(Rj, ()) / Rj.value[:, None]

    samples = sampling.SampleSet(np.full((1, 2), 0.1), np.array([[[0.6, 0.8]]]))
    return metrize.lambda_field(spray, samples, 3, omega_at)


def request_outcome(fn, field) -> tuple:
    """(float.hex of each value, or the error's type and text; float.hex of
    every kept value, by key)."""
    try:
        got = [v.hex() for v in fn()]
    except Exception as exc:
        got = f"{type(exc).__name__}: {exc}"
    return got, {key: v.hex() for key, v in field._cache.items()}


def assert_requests_equal_the_loop(make, pool, kept, request) -> None:
    """`values` and the call, each on a fresh field that first asked for the
    `kept` targets, give the bits and error that `loop_lambda` gives, target
    by target, and keep the same values."""
    targets = np.array([pool[k] for k in request])
    outcomes = []
    for ask in ("block", "call", "loop"):
        field = make()
        one = (lambda x: loop_lambda(field, x)) if ask == "loop" else field
        for k in kept:
            try:
                one(pool[k])
            except Exception:
                pass
        if ask == "block":
            outcomes.append(request_outcome(lambda: field.values(targets), field))
        else:
            outcomes.append(request_outcome(lambda: [one(x) for x in targets], field))
    assert outcomes[0] == outcomes[2]
    assert outcomes[1] == outcomes[2]


@st.composite
def requests(draw, n: int, lo: float, hi: float):
    """(pool of targets, indices asked first, indices of the request): up
    to 3 runs' worth of targets, each in the request, with repeats."""
    size = draw(st.integers(1, 3 * (metrize.RUN_NODES // 64)))
    pool = [np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
            for _ in range(size)]
    index = st.integers(0, size - 1)
    kept = draw(st.lists(index, max_size=3))
    request = draw(st.permutations(list(range(size)) + draw(st.lists(index, max_size=4))))
    return pool, kept, request


@LAMBDA_SETTINGS
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
           st.just(n), requests(n, -1.5, 1.5))),
       st.tuples(*[st.floats(-2.0, 2.0)] * 4),
       st.sampled_from([None, 0.6, 1.2]), st.sampled_from([None, 0.8, 1.6]),
       st.sampled_from([None, 0.9]))
def test_block_requests_equal_the_loop_over_targets(case, a, fail_at, wall,
                                                    raise_at) -> None:
    n, (pool, kept, request) = case
    assert_requests_equal_the_loop(
        lambda: form_field(n, a, fail_at, wall, raise_at), pool, kept, request)


@settings(LAMBDA_SETTINGS, max_examples=25)
@given(requests(2, -0.9, 0.9),
       st.sampled_from(["0.5 - x1 - 0.5*x2", "sqrt(0.6 - x2) + 1", "1"]))
def test_block_requests_on_a_guarded_spray_equal_the_loop(case, wall) -> None:
    # the guards veto, or fail to evaluate, at the nodes beyond a line, at
    # a node of each target that its distance decides
    pool, kept, request = case
    assert_requests_equal_the_loop(lambda: whirl_field(wall), pool, kept, request)


def test_block_request_keeps_the_targets_before_the_failing_one() -> None:
    # a request whose third target leaves the chart keeps the two before
    # it, as two calls would have, and integrates each target once
    field = form_field(2, (1.0, -1.0, 0.0, 0.0), None, 0.8, None)
    calls = []
    omega = field.omega
    field.omega = lambda xs: calls.append(len(xs)) or omega(xs)
    targets = np.array([[0.1, 0.2], [0.3, -0.1], [0.9, 0.5], [0.2, 0.2]])
    with pytest.raises(PathError, match="leaves the admissible chart"):
        field.values(np.concatenate([targets[:2], targets[:2], targets[2:]]))
    assert list(field._cache) == [x.tobytes() for x in targets[:2]]
    k = next(k for k, (t, _) in enumerate(field._rule) if t * 1.4 >= 0.8)
    assert calls == [2 * 64 + k]


# float.hex of ex7.1's recovered L and lambda at 12 fixed points, recorded
# while the quadrature still built one bundle per node
RECOVERY_HEX = Path(__file__).resolve().parent / "data" / "ex7_1_recovery_hex.json"


@pytest.mark.parametrize("seed", ["7", "1007"])
def test_ex7_1_recovery_is_bit_for_bit_stable(seed) -> None:
    rec = json.loads(RECOVERY_HEX.read_text())
    fx = corpus.load_fixture(rec["fixture"])
    pts = np.array([[float.fromhex(v) for v in p] for p in rec["points"]])
    v = metrize.decide(fx.build(), count=64, seed=int(seed), box=fx.box)
    L = v.recovered_metric
    assert [L.value(p).hex() for p in pts] == rec["seeds"][seed]["L"]
    assert [L.lam(p[:2]).hex() for p in pts] == rec["seeds"][seed]["lambda"]


# float.hex of the numbers behind each re-verification of a recovered metric
# (the Finsler check, L_{;i}, the induced-spray match), recorded while
# certification still ran one sample at a time: `decide` on the three
# fixtures that recover a metric, at the seeds of the benchmark's `recover`
# workload; projective shifts of the round sphere; and gen-pflat's round
# trip on the quadratic data of the `highdim` workload at seed 7
CERTIFY_HEX = Path(__file__).resolve().parent / "data" / "certify_hex.json"
PFLAT_DATA = {
    3: ("1.0250,0.0122,-0.0219,0.0122,0.9600,0.0695,-0.0219,0.0695,1.0594",
        "-0.0064,-0.0394,-0.0443"),
    4: ("1.0210,0.0078,0.0644,0.0025,0.0078,0.9479,-0.0382,-0.0241,0.0644,"
        "-0.0382,1.0344,-0.0568,0.0025,-0.0241,-0.0568,1.0690",
        "0.0890,0.0808,0.0139,-0.0709"),
}
CERTIFY_CASES = ([f"decide {name} seed {seed}"
                  for name in ("ex7.1", "elliptic2", "ex7.3")
                  for seed in (7, 1007, 2007)]
                 + [f"projective_shift elliptic2 c={c}" for c in (0.0, 1.0)]
                 + [f"gen-pflat dim {n}" for n in PFLAT_DATA])


def certify_numbers(case: str, tmp_path) -> dict:
    """The residual and every float of the verdict's evidence, or the
    round trip of gen-pflat, as float.hex."""
    kind, rest = case.split(" ", 1)
    if kind == "gen-pflat":
        n = int(rest.split()[-1])
        A, B = PFLAT_DATA[n]
        out = tmp_path / "report.json"
        code = cli.main(["gen-pflat", f"--A={A}", f"--B={B}", "--C=1",
                         f"--dir={tmp_path / 'gen'}", f"--name=pflat{n}",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        roundtrip = json.loads(out.read_text())["roundtrip"]
        return {k: float(v).hex() for k, v in sorted(roundtrip.items())}
    if kind == "decide":
        name, _, seed = rest.split()
        fx = corpus.load_fixture(name)
        v = metrize.decide(fx.build(), count=64, seed=int(seed), box=fx.box)
    else:
        sphere = corpus.load_fixture("elliptic2")
        c = float(rest.split("c=")[1])
        v = metrize.projective_shift(sphere.metric(), c, count=64, seed=7,
                                     box=sphere.box)[1]
    out = {"outcome": v.outcome, "residual": v.residual.hex()}
    out.update({k: e.hex() for k, e in sorted(v.evidence.items())
                if isinstance(e, float)})
    return out


@pytest.mark.parametrize("case", CERTIFY_CASES)
def test_certification_numbers_match_record(case, tmp_path) -> None:
    want = json.loads(CERTIFY_HEX.read_text())[case]
    assert certify_numbers(case, tmp_path) == want


# -- verdict_isotropic ----------------------------------------------------------


def test_rotor_omega_is_y_dependent() -> None:
    # omega = R_{;i}/R = (y2, -y1)/|y| moves with the tangent
    sp = spray_of(ROTOR)
    for y, expected in (((3.0, 4.0), (0.8, -0.6)), ((1.0, 0.0), (0.0, -1.0))):
        b = geometry.CurvatureBundle(sp, (0.1, -0.2) + y, 4)
        Rj, _, _ = b.splits
        om = [(d / Rj).value for d in b.delta_scalar(Rj)]
        assert np.allclose(om, expected, atol=1e-9)


def test_verdict_rotor_not_metrizable() -> None:
    sp = spray_of(ROTOR)
    v = metrize.verdict_isotropic(sp, classified(sp, 12))
    assert v.outcome == "not_metrizable"
    assert v.rule == "omega y-dependent"
    assert v.residual > 0.1
    assert v.recovered_metric is None


def test_verdict_whirl_recovers_scaled_metric() -> None:
    sp = spray_of(WHIRL)
    v = metrize.verdict_isotropic(sp, classified(sp, 12))
    assert v.outcome == "metrizable_with_metric"
    assert v.rule == "omega exact; L = R/lambda"
    # omega report: one row per base, each approximately (-4 x1, 0)
    assert v.omega is not None
    for xb, row in zip(v.bases, v.omega):
        assert np.allclose(row, [-4.0 * xb[0], 0.0], atol=1e-7)
    assert v.evidence["L_semicolon"] <= 1e-8
    assert v.evidence["spray_match"] <= 1e-8
    L = v.recovered_metric
    rng = np.random.default_rng(11)
    for _ in range(8):
        x1, x2 = rng.uniform(-0.6, 0.6, 2)
        y1, y2 = rng.uniform(-1.0, 1.0, 2)
        if max(abs(y1), abs(y2)) < 0.1:
            continue
        want = -2.0 * np.exp(2.0 * x1 ** 2) * (y1 ** 2 + y2 ** 2)
        got = L.value(np.array([x1, x2, y1, y2]))
        assert got == pytest.approx(want, rel=1e-8)


def test_verdict_whirl_lambda_field() -> None:
    sp = spray_of(WHIRL)
    v = metrize.verdict_isotropic(sp, classified(sp, 12))
    lam = v.evidence["lambda"]
    for x1 in (-0.5, 0.0, 0.6):
        assert lam(np.array([x1, 0.2])) == pytest.approx(
            np.exp(-2.0 * x1 ** 2), abs=1e-9)


def test_verdict_ball_sweep() -> None:
    for c in (0.5, 1.0, 2.0, 3.0):
        sp = spray_of(BALL, consts={"c": c})
        v = metrize.verdict_isotropic(sp, classified(sp, 12))
        if c == 2.0:
            assert v.outcome == "metrizable_with_metric"
            assert v.rule == "omega vanishes; L = R"
            L = v.recovered_metric
            for pt in draw(spray_of(BALL), count=8, seed=3).points():
                w = 1.0 - pt[0] ** 2 - pt[1] ** 2
                want = -4.0 * (pt[2] ** 2 + pt[3] ** 2) / w ** 2
                assert L.value(pt) == pytest.approx(want, rel=1e-8)
        else:
            assert v.outcome == "not_metrizable"


def test_ball_curvature_closed_forms() -> None:
    # R and R_{;i} for the family at c = 3, against the sympy-checked forms
    c = 3.0
    sp = spray_of(BALL, consts={"c": c})
    for pt in draw(sp, count=8, seed=5).points():
        x, y = pt[:2], pt[2:]
        xx, yy, xy = x @ x, y @ y, x @ y
        w = 1.0 - xx
        want_R = -(((c - 2.0) * xx + c + 2.0) * yy - c * (c - 2.0) * xy ** 2) / w ** 2
        want_Rs = (2.0 * (c - 2.0) / w ** 3) * (
            ((c - 1.0) * xx + c + 1.0) * (yy * x + 2.0 * xy * y)
            - 2.0 * c * (c - 1.0) * xy ** 2 * x)
        b = geometry.CurvatureBundle(sp, pt, 4)
        Rj, _, _ = b.splits
        assert Rj.value == pytest.approx(want_R, rel=1e-8)
        got = [d.value for d in b.delta_scalar(Rj)]
        assert np.allclose(got, want_Rs, rtol=1e-8, atol=1e-10)


def test_verdict_degenerate_family_member() -> None:
    sp = spray_of(DEGEN)
    dec, = classify.decompose_scalar(geometry.CurvatureBundle(sp, PD, 4))
    assert dec.R == pytest.approx(1.3456, abs=1e-10)
    assert np.allclose(dec.tau, [1.392, -1.856], atol=1e-10)
    v = metrize.verdict_isotropic(sp, classified(sp, 12))
    assert v.outcome == "not_metrizable"
    assert v.rule == "R is not a Finsler metric"
    vc = metrize.verdict_constant(sp, classified(sp, 12))
    assert vc.outcome == "not_metrizable"
    assert vc.rule == "Ric is not a Finsler metric"


def test_verdict_expfac_not_metrizable() -> None:
    # R = y1^2/4: 2-homogeneous but rank-1 Hessian
    sp = spray_of(EXPFAC)
    v = metrize.verdict_isotropic(sp, classified(sp, 12))
    assert v.outcome == "not_metrizable"
    assert v.rule == "R is not a Finsler metric"


def test_verdict_isotropic_rejects_nonisotropic() -> None:
    sp = spray_of(CUBIC)
    rep = classified(sp, 8)
    with pytest.raises(PreconditionError):
        metrize.verdict_isotropic(sp, rep)


# -- verdict_constant -----------------------------------------------------------


def test_verdict_constant_round_metric() -> None:
    m = metric_of(EQ3)
    sp = geometry.MetricSpray(m)
    v = metrize.verdict_constant(sp, classified(sp, 12))
    assert v.outcome == "metrizable_with_metric"
    assert v.rule == "L = Ric/(n-1)"
    L = v.recovered_metric
    for pt in draw(m, count=8, seed=9).points():
        assert L.value(pt) == pytest.approx(m.value(pt), rel=1e-8)


def test_eq3_spray_values() -> None:
    sp = spray_of(EQ3)
    G = sp.coeff_jets(np.array(PE), 0)
    assert G[0].value == pytest.approx(0.062472885032537964, abs=1e-12)
    assert G[1].value == pytest.approx(0.09370932754880694, abs=1e-12)
    assert metric_of(EQ3).value(PE) == pytest.approx(1.0043431002112733, abs=1e-12)


def test_verdict_constant_flat() -> None:
    sp = spray_of(FLAT)
    v = metrize.verdict_constant(sp, classified(sp, 8))
    assert v.outcome == "metrizable_locally"
    assert v.rule == "Ric vanishes on samples"
    assert v.recovered_metric is None
    assert "sample" in v.evidence["note"]


def test_verdict_constant_rejects_nonconstant() -> None:
    sp = spray_of(ROTOR)
    rep = classified(sp, 8)
    with pytest.raises(PreconditionError):
        metrize.verdict_constant(sp, rep)


def test_berwald_flat_witness() -> None:
    # the R-flat Berwald spray is locally metrizable; a known witness metric
    # induces it exactly and is covariantly constant along it
    sp = spray_of(EX75)
    v = metrize.decide(sp, count=12)
    assert v.outcome == "metrizable_locally"
    m = metric_of(WITNESS75)
    fc = metrize.finsler_check(m, draw(m, count=8))
    assert fc.holds
    for pt in draw(sp, count=8, seed=2).points():
        b = geometry.CurvatureBundle(sp, pt, 3)
        Lj = m.jet(pt, 1)
        semi = [d.value for d in b.delta_scalar(Lj)]
        assert np.max(np.abs(semi)) <= 1e-10
        got = [g.value for g in geometry.spray_from_metric(m, pt, 0)]
        assert np.allclose(got, [g.value for g in b.G], atol=1e-10)


# -- nonmetrizable_scalar -------------------------------------------------------


def test_cubic_flat_with_torsion() -> None:
    sp = spray_of(CUBIC)
    dec, = classify.decompose_scalar(geometry.CurvatureBundle(sp, PCUB, 4))
    assert abs(dec.R) <= 1e-10
    assert np.allclose(dec.tau, [-12.0, 12.0], atol=1e-9)
    v = metrize.nonmetrizable_scalar(sp, classified(sp, 12))
    assert v.outcome == "not_metrizable"
    assert v.rule == "R = 0 but tau != 0"
    assert metrize.decide(sp, count=12).outcome == "not_metrizable"


def test_twist_fails_quotient_constancy() -> None:
    sp = spray_of(TWIST)
    b = geometry.CurvatureBundle(sp, PC, 4)
    Rj, tau, _ = b.splits
    assert Rj.value == pytest.approx(-1.2576, abs=1e-10)
    assert np.allclose([t.value for t in tau], [-1.392, -0.24], atol=1e-10)
    t = np.array([tau[i] / Rj for i in range(2)], dtype=object)
    cov = b.cov_h(t, ("d",))
    assert np.allclose(cov, TWIST_T_COV, atol=1e-9)
    v = metrize.nonmetrizable_scalar(sp, classified(sp, 12))
    assert v.outcome == "not_metrizable"
    assert v.rule == "tau/R fails covariant-constancy or vertical symmetry"
    assert v.residual > 0.5


def test_drift_stays_inconclusive() -> None:
    sp = spray_of(DRIFT)
    dec, = classify.decompose_scalar(geometry.CurvatureBundle(sp, PC, 4))
    assert dec.R == pytest.approx(-2.0 * 0.8 * 0.6, abs=1e-10)
    assert np.allclose(dec.tau, [0.0, -1.6], atol=1e-10)
    v = metrize.nonmetrizable_scalar(sp, classified(sp, 12))
    assert v.outcome == "inconclusive"
    assert metrize.decide(sp, count=12).outcome == "inconclusive"


def test_degen_passes_scalar_tests() -> None:
    sp = spray_of(DEGEN)
    v = metrize.nonmetrizable_scalar(sp, classified(sp, 12))
    assert v.outcome == "inconclusive"


def test_flat_scalar_op_is_inconclusive() -> None:
    # the op itself only ever fires negative rules; flatness is decided by
    # the constant-curvature path in decide()
    sp = spray_of(FLAT)
    assert metrize.nonmetrizable_scalar(sp, classified(sp, 8)).outcome == "inconclusive"
    assert metrize.decide(spray_of(FLAT), count=8).outcome == "metrizable_locally"


def test_scalar_op_rejects_nonscalar() -> None:
    sp = spray_of(NONSCALAR3)
    rep = classified(sp, 8)
    with pytest.raises(PreconditionError):
        metrize.nonmetrizable_scalar(sp, rep)


@pytest.mark.parametrize("src, rule", [
    (BALL, "L = Ric/(n-1)"),
    (WHIRL, "omega exact; L = R/lambda"),
    (DRIFT, "scalar non-metrizability tests passed; the conditions are "
            "sufficient only"),
], ids=["constant", "isotropic", "scalar"])
def test_route_reads_the_report_only(src, rule, tally, monkeypatch) -> None:
    # each verdict, routed a report, makes no draw and builds no order-4
    # bundle: the report's samples and bundles are its whole input
    sp = spray_of(src)
    rep = classify.classify_spray(sp, count=12)
    orders = []
    init = geometry.CurvatureBundle.__init__

    def recording_init(b, spray, p, order=4):
        init(b, spray, p, order)
        orders.append(order)

    monkeypatch.setattr(geometry.CurvatureBundle, "__init__", recording_init)
    draws = tally["draws"]
    v = metrize.route(sp, rep)
    assert v.rule == rule
    assert tally["draws"] == draws
    assert 4 not in orders


def test_decide_nonscalar() -> None:
    v = metrize.decide(spray_of(NONSCALAR3), count=8)
    assert v.outcome == "inconclusive"
    assert v.rule == "not of scalar curvature"


def test_divisions_by_R_take_one_reciprocal_per_block(monkeypatch) -> None:
    # the n quotients delta_i R / R of the omega stage and tau_i / R of the
    # scalar route share one reciprocal of R per block of samples, and so
    # do those of the scaled candidate's jets per call
    recips, uses = Counter(), Counter()
    reciprocal = jets.Jet.reciprocal
    delta_scalar = geometry.CurvatureBundle.delta_scalar
    stages = ("_omega_rows", "_t_rows", "_jet_at")

    def stage() -> str:
        # the innermost of `stages` that the call runs in
        f = sys._getframe(2)
        while f is not None and not (f.f_code.co_filename == metrize.__file__
                                     and f.f_code.co_name in stages):
            f = f.f_back
        return f.f_code.co_name if f is not None else ""

    def counting_reciprocal(u):
        recips[stage()] += 1
        return reciprocal(u)

    def counting_delta_scalar(b, S):
        uses[stage()] += 1
        return delta_scalar(b, S)

    monkeypatch.setattr(jets.Jet, "reciprocal", counting_reciprocal)
    monkeypatch.setattr(geometry.CurvatureBundle, "delta_scalar",
                        counting_delta_scalar)
    for name, rule, run in (("ex7.1", "omega exact; L = R/lambda", "_omega_rows"),
                            ("cms19", "scalar non-metrizability tests passed; "
                                      "the conditions are sufficient only", "_t_rows")):
        fx = corpus.load_fixture(name)
        spray = fx.build()
        for count in (64, 300):  # one block of samples, and three
            rep = classify.classify_spray(spray, count=count, seed=7, box=fx.box)
            blocks = len(classify.blocks(rep.samples.points()))
            assert blocks == (1 if count == 64 else 3)
            recips.clear()
            uses.clear()
            v = metrize.route(spray, rep)
            assert v.rule == rule
            assert recips[run] == blocks
            if run == "_omega_rows":
                assert uses[run] == blocks
                assert uses["_jet_at"] > 0
                assert recips["_jet_at"] == uses["_jet_at"]
            else:
                assert v.evidence["samples_used"] > 0


# -- projective_shift -----------------------------------------------------------


def test_shift_flat_zero_speed() -> None:
    shifted, v = metrize.projective_shift(metric_of(FLATM), 0.0, count=12)
    assert v.outcome == "metrizable_locally"
    assert v.evidence["flag_curvature"] == pytest.approx(0.0, abs=1e-9)


def test_shift_flat_unit_speed() -> None:
    shifted, v = metrize.projective_shift(metric_of(FLATM), 1.0, count=12)
    assert v.outcome == "not_metrizable"
    assert v.rule == "omega y-dependent"
    assert v.evidence["shift_identity"] <= 1e-7


def test_shift_round_metric() -> None:
    shifted, v = metrize.projective_shift(metric_of(EQ3), 2.0, count=12)
    assert v.outcome == "not_metrizable"
    assert v.evidence["flag_curvature"] == pytest.approx(1.0, abs=1e-7)


def test_shift_evaluates_blocks(tally) -> None:
    # the metric's spray and the shifted spray each take the 40 samples in
    # blocks, and no block falls back to one-row block bundles; the
    # verdict reads the shifted spray's bundles, drawing nothing
    metrize.projective_shift(metric_of(EQ3), 2.0, count=40)
    one_pass = [(len(block), 4) for block in classify.blocks(range(40))]
    assert tally["draws"] == 1
    assert tally["blocks"] == one_pass * 2


def test_shift_of_a_recovered_metric_builds_one_bundle_per_block(monkeypatch) -> None:
    # the recovered metric is asked first for the order its spray lifts it
    # to (order 6, on order-8 bundles); its values and its Finsler check
    # truncate that jet, so the spray it came from gets one order-8 block
    # bundle per block, and no other bundle
    fx = corpus.load_fixture("elliptic2")
    L = metrize.decide(fx.build(), count=16, seed=7, box=fx.box).recovered_metric
    assert isinstance(L, metrize.CurvatureMetric)
    built = []
    init = geometry.CurvatureBundle.__init__

    def recording_init(b, spray, p, order=4):
        init(b, spray, p, order)
        if spray is L.spray:
            built.append((b._pa.shape, order))

    monkeypatch.setattr(geometry.CurvatureBundle, "__init__", recording_init)
    metrize.projective_shift(L, 0.7, count=8, seed=3, box=fx.box)
    assert built == [((8, 4), 8)]


def test_shift_of_a_recovered_scaled_metric_takes_one_jet_per_block(monkeypatch) -> None:
    # ex7.1 recovers L = R/lambda, which is negative: the shift asks it for
    # one jet per block of samples, reads every value off those jets, and
    # refuses it before its Finsler check
    fx = corpus.load_fixture("ex7.1")
    L = metrize.decide(fx.build(), count=fx.count, seed=7, box=fx.box).recovered_metric
    assert type(L) is metrize.ScaledCurvatureMetric
    orders = []
    jet_at = metrize.ScaledCurvatureMetric._jet_at

    def counting(metric, b, order):
        orders.append((np.shape(b._pa), order))
        return jet_at(metric, b, order)

    monkeypatch.setattr(metrize.ScaledCurvatureMetric, "_jet_at", counting)
    count = classify.BLOCK_ROWS + 8
    with pytest.raises(PreconditionError, match="needs L > 0"):
        metrize.projective_shift(L, 0.7, count=count, seed=3, box=fx.box)
    assert orders == [((classify.BLOCK_ROWS, 4), 6), ((count - classify.BLOCK_ROWS, 4), 6)]


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_shift_lifts_the_metric_spray_once_per_block(monkeypatch, c) -> None:
    # the flag-curvature test builds the metric spray's block bundles, and
    # the shifted spray reads G off them: one order-4 lift of the metric
    # per block of samples, not one per spray
    fx = corpus.load_fixture("elliptic2")
    metric = fx.metric()
    lifts = []
    spray_from_metric = geometry.spray_from_metric

    def counting(m, p, order=4, tol=sampling.TOL):
        if m is metric and order == 4:
            lifts.append(np.shape(p))
        return spray_from_metric(m, p, order, tol)

    monkeypatch.setattr(geometry, "spray_from_metric", counting)
    metrize.projective_shift(metric, c, count=64, seed=7, box=fx.box)
    assert lifts == [(64, 4)]


@pytest.mark.parametrize("c, passes", [(0.0, 1), (1.0, 2)])
def test_shift_at_zero_classifies_the_base_blocks(monkeypatch, c, passes) -> None:
    # at c = 0 the shifted spray is the base spray, so its classification
    # reads the flag-curvature test's block bundles: one order-4 bundle per
    # block of samples; any other c builds the shifted spray's own
    fx = corpus.load_fixture("elliptic2")
    built = []
    init = geometry.CurvatureBundle.__init__

    def recording_init(b, spray, p, order=4):
        init(b, spray, p, order)
        if b._pa.ndim == 2 and order == 4:
            built.append(len(b._pa))

    monkeypatch.setattr(geometry.CurvatureBundle, "__init__", recording_init)
    metrize.projective_shift(fx.metric(), c, count=136, seed=7, box=fx.box)
    assert built == [len(block) for block in classify.blocks(range(136))] * passes


def test_shifted_spray_reads_the_base_bundles_bitwise() -> None:
    metric = corpus.load_fixture("elliptic2").metric()
    base = geometry.MetricSpray(metric)
    block = sampling.draw(metric, count=16, seed=7).points()
    b = geometry.CurvatureBundle(base, block, 4)
    for c in (0.0, 1.0):
        plain = geometry.ShiftedSpray(base, metric, c)
        read = geometry.ShiftedSpray(base, metric, c, bundles=[b])
        for p, order in ((block, 4), (block, 3), (block[:8], 4), (block[0], 4)):
            assert [u.coeffs.tobytes() for u in read.coeff_jets(p, order)] == \
                [u.coeffs.tobytes() for u in plain.coeff_jets(p, order)]


def test_each_class_is_decided_once_per_classified_block(monkeypatch) -> None:
    # the verdicts, projective_shift and the structure check read the
    # classification report's flags, so each class test runs once per
    # classified block of samples (`classify.blocks`), and each candidate
    # metric is checked for being Finsler once, by the verdict that made it
    from spraylab import cli

    calls = {}
    for name in ("is_isotropic", "is_constant", "is_berwald", "_proportional"):
        calls[name] = 0

        def counting(*args, _name=name, _fn=getattr(classify, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(classify, name, counting)
    checked = []  # holds the metrics alive, so their ids stay distinct
    finsler = metrize.finsler_check

    def counting_finsler(field_obj, *args, **kw):
        checked.append(field_obj)
        return finsler(field_obj, *args, **kw)

    monkeypatch.setattr(metrize, "finsler_check", counting_finsler)

    classified_blocks = 0
    for name in corpus.fixture_names():
        report = cli.cmd_metrize(cli.RunConfig(input=name, seed=7))
        assert not report.mismatches
        used = report.data["sampling"]["used"]
        classified_blocks += len(classify.blocks(range(used)))
    for c in (0.0, 1.0):
        # a metric per call: each call checks the metric it is given
        metric = corpus.load_fixture("elliptic2").metric()
        metrize.projective_shift(metric, c, count=16, seed=7)
        used = sampling.draw(metric, count=16, seed=7).count
        classified_blocks += len(classify.blocks(range(used)))

    assert calls == dict.fromkeys(calls, classified_blocks)
    assert len({id(m) for m in checked}) == len(checked)


def test_shift_round_metric_zero_speed() -> None:
    m = metric_of(EQ3)
    shifted, v = metrize.projective_shift(m, 0.0, count=12)
    assert v.outcome == "metrizable_with_metric"
    L = v.recovered_metric
    for pt in draw(m, count=8, seed=13).points():
        assert L.value(pt) == pytest.approx(m.value(pt), rel=1e-8)


# -- decide + soundness ---------------------------------------------------------


def test_decide_routes_constant_before_isotropic() -> None:
    v = metrize.decide(spray_of(BALL), count=12)
    assert v.outcome == "metrizable_with_metric"
    assert v.rule == "L = Ric/(n-1)"


def test_decide_isotropic_branch() -> None:
    v = metrize.decide(spray_of(WHIRL), count=12)
    assert v.outcome == "metrizable_with_metric"
    assert v.rule == "omega exact; L = R/lambda"


def test_metric_fixtures_never_condemned() -> None:
    for src in (FLATM, EQ3, WITNESS75, WHIRL_METRIC):
        v = metrize.decide(spray_of(src), count=8)
        assert v.outcome != "not_metrizable", src.strip().splitlines()[1]


def test_cms_spray_survives_scalar_tests() -> None:
    # induced spray of a constant-main-scalar metric: scalar, not isotropic,
    # R != 0; its tau/R must pass both quotient tests (soundness)
    sp = spray_of(CMS19)
    box = sampling.SampleBox(-0.3, 0.5, 0.1, 1.0)
    v = metrize.nonmetrizable_scalar(sp, classified(sp, 8, box=box))
    assert v.outcome == "inconclusive"


# -- outcomes that no fixture reaches -------------------------------------------

# the 3-dimensional round metric in gnomonic coordinates, flag curvature 1
ROUND3 = """
dim 3
metric L = ((1 + x1^2 + x2^2 + x3^2)*(y1^2 + y2^2 + y3^2) - (x1*y1 + x2*y2 + x3*y3)^2) / (1 + x1^2 + x2^2 + x3^2)^2
"""

# every field of each verdict below, recorded with floats as float.hex
VERDICT_FIELDS = Path(__file__).resolve().parent / "data" / "verdict_fields.json"


def verdict_fields(v) -> dict:
    """A verdict's fields in JSON terms: floats as float.hex, arrays as
    nested lists, a recovered metric as its type and its value at the
    first base with y = (1, ..., 1), other evidence objects as their type."""
    def enc(obj):
        if isinstance(obj, np.ndarray):
            return enc(obj.tolist())
        if isinstance(obj, list):
            return [enc(o) for o in obj]
        if isinstance(obj, float):
            return obj.hex()
        if obj is None or isinstance(obj, (str, int)):
            return obj
        return type(obj).__name__

    metric = None
    if v.recovered_metric is not None:
        pt = np.concatenate([v.bases[0], np.ones(len(v.bases[0]))])
        metric = [enc(v.recovered_metric), enc(v.recovered_metric.value(pt))]
    return {"outcome": v.outcome, "rule": v.rule, "residual": enc(v.residual),
            "recovered_metric": metric, "omega": enc(v.omega),
            "bases": enc(v.bases),
            "evidence": {k: enc(e) for k, e in v.evidence.items()}}


def forced_omega(monkeypatch, form) -> None:
    """Make every bundle's delta_i R equal R times `form(R)[i]`.

    No spray in the corpus or in these tests reaches the two omega outcomes
    this forces.  In dimension 3 and up a closed, nonzero, y-independent
    omega would make R/exp(integral of omega) a metric of nonconstant flag
    curvature, which Schur's lemma rules out."""
    monkeypatch.setattr(geometry.CurvatureBundle, "delta_scalar",
                        lambda b, Rj: [Rj * w for w in form(Rj)])


def failing_certify(monkeypatch) -> None:
    """Demote every certificate after computing it."""
    certify = metrize._certify

    def failing(*args, **kwargs):
        _, ev, worst = certify(*args, **kwargs)
        return False, ev, worst

    monkeypatch.setattr(metrize, "_certify", failing)


def _r_vanishes(monkeypatch):
    sp = spray_of(FLAT)
    return metrize.verdict_isotropic(sp, classified(sp, 12))


def _omega_vanishes(monkeypatch):
    sp = geometry.MetricSpray(metric_of(EQ3))
    return metrize.verdict_isotropic(sp, classified(sp, 12))


def _omega_not_closed(monkeypatch):
    sp = geometry.MetricSpray(metric_of(EQ3))
    rep = classified(sp, 12)
    # omega = x2 dx1 - x1 dx2: y-independent, with curl 2
    forced_omega(monkeypatch, lambda Rj: [Rj.space.variable(1, Rj.center),
                                          -1.0 * Rj.space.variable(0, Rj.center)])
    return metrize.verdict_isotropic(sp, rep)


def _omega_needs_dim2(monkeypatch):
    sp = geometry.MetricSpray(metric_of(ROUND3))
    rep = classified(sp, 12)
    forced_omega(monkeypatch, lambda Rj: [0.5, 0.0, 0.0])
    return metrize.verdict_isotropic(sp, rep)


def _reverify_r(monkeypatch):
    failing_certify(monkeypatch)
    return _omega_vanishes(monkeypatch)


def _reverify_r_lambda(monkeypatch):
    failing_certify(monkeypatch)
    sp = spray_of(WHIRL)
    return metrize.verdict_isotropic(sp, classified(sp, 12))


def _reverify_ric(monkeypatch):
    failing_certify(monkeypatch)
    sp = geometry.MetricSpray(metric_of(EQ3))
    return metrize.verdict_constant(sp, classified(sp, 12))


PINNED = {
    "R vanishes on samples": _r_vanishes,
    "omega vanishes; L = R": _omega_vanishes,
    "omega not closed": _omega_not_closed,
    "nonzero omega needs dimension 2": _omega_needs_dim2,
    "re-verification of L = R": _reverify_r,
    "re-verification of L = R/lambda": _reverify_r_lambda,
    "re-verification of L = Ric/(n-1)": _reverify_ric,
}


@pytest.mark.parametrize("case", list(PINNED))
def test_unreached_outcomes_keep_every_field(case, monkeypatch) -> None:
    want = json.loads(VERDICT_FIELDS.read_text())[case]
    assert verdict_fields(PINNED[case](monkeypatch)) == want
