"""Curvature stack against frozen values from an independent symbolic oracle.

Every literal below was produced once in a throwaway sympy session that
implemented the definitions directly (exact differentiation of the spray
coefficients, then float evaluation at rational points) and is pasted here
so the tests never depend on the code under test.  The fixture sprays:

  ROTOR    G1 =  y2 |y|/(2r),  G2 = -y1 |y|/(2r)        (|y| Euclidean, r=1)
  BALL_C   G^i = (-|y|^2 x^i + c<x,y> y^i)/(1-|x|^2)    (family in c)
  CUBIC    G1 = -3 (y2)^2,  G2 = -2 (y2)^3/y1           (scalar, R=0, tau!=0)
  WHIRL    G1 = x1 ((y1)^2-(y2)^2),  G2 = 2 x1 y1 y2    (Berwald, isotropic)
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from spraylab import corpus, dsl, geometry, jets
from spraylab.errors import DomainError, OrderError
from spraylab.geometry import CurvatureBundle
from spraylab.sampling import TOL, Tolerances

from conftest import cov_h_jets, loop_folds

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

WHIRL = """
dim 2
spray G1 = x1 * (y1^2 - y2^2)
spray G2 = 2 * x1 * y1 * y2
"""

WHIRL_METRIC = """
dim 2
metric L = -2 * exp(2 * x1^2) * (y1^2 + y2^2)
"""

ROUND_METRIC = """
dim 2
metric L = ((1 + x1^2 + x2^2)*(y1^2 + y2^2) - (x1*y1 + x2*y2)^2) / (1 + x1^2 + x2^2)^2
"""

ROUND_METRIC_3 = """
dim 3
metric L = ((1 + x1^2 + x2^2 + x3^2)*(y1^2 + y2^2 + y3^2) - (x1*y1 + x2*y2 + x3*y3)^2) / (1 + x1^2 + x2^2 + x3^2)^2
"""

NONSCALAR3 = """
dim 3
spray G1 = x2 * y3^2
spray G2 = 0
spray G3 = 0
"""

P0 = (0.1, -0.2, 0.7, 0.4)
PROT = (0.1, -0.2, 3.0, 4.0)
PCUB = (0.2, -0.3, 1.0, 1.0)

# sympy, ROTOR at y=(3,4):  nonlinear connection and a few Berwald entries
ROTOR_N = [[1.2, 4.1], [-3.4, -1.2]]
ROTOR_GAMMA_1 = {(0, 0): 0.256, (0, 1): 0.108, (1, 1): 0.944}
ROTOR_B1112 = 0.06912
# sympy, BALL c=2 at P0 (exact rationals, printed to double)
BALL_R = [
    [-0.7091412742382271, 1.2409972299168974],
    [1.2409972299168974, -2.1717451523545708],
]
BALL_RIC = -2.880886426592798
# sympy, CUBIC at y=(1,1)
CUBIC_R = [[12.0, -12.0], [12.0, -12.0]]
CUBIC_TAU = (-12.0, 12.0)
CUBIC_CHI = (72.0, -72.0)


def spray_of(text: str, **overrides) -> geometry.ExprSpray:
    return geometry.ExprSpray(dsl.parse(text, consts=overrides or None))


def bundle_of(text: str, p, order: int = 4, **overrides) -> CurvatureBundle:
    return CurvatureBundle(spray_of(text, **overrides), p, order=order)


def test_flat_spray_is_totally_flat() -> None:
    b = bundle_of(FLAT, P0)
    assert np.allclose(b.N_values, 0.0)
    assert np.allclose(b.Gamma_values, 0.0)
    assert np.allclose(b.B_values, 0.0)
    assert np.allclose(b.R_values, 0.0)
    assert b.Ric_value == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(b.chi_values, 0.0)
    for name, r in geometry.identity_residuals(b)[0].items():
        assert r <= 1e-12, name


def test_rotor_connection_and_berwald_frozen() -> None:
    b = bundle_of(ROTOR, PROT)
    assert np.allclose(b.N_values, ROTOR_N, atol=1e-12)
    for (j, k), want in ROTOR_GAMMA_1.items():
        assert b.Gamma_values[0][j][k] == pytest.approx(want, abs=1e-12)
        assert b.Gamma_values[0][k][j] == pytest.approx(want, abs=1e-12)
    assert b.B_values[0][0][0][1] == pytest.approx(ROTOR_B1112, rel=1e-11)
    # total symmetry of B in the three lower slots
    for h in range(2):
        for j in range(2):
            for k in range(2):
                v = b.B_values[0][h][j][k]
                assert b.B_values[0][j][h][k] == pytest.approx(v, abs=1e-13)
                assert b.B_values[0][k][j][h] == pytest.approx(v, abs=1e-13)


def test_rotor_curvature_split_and_chi_frozen() -> None:
    b = bundle_of(ROTOR, PROT)
    assert b.Ric_value == pytest.approx(25.0, rel=1e-12)
    R, tau, residual = b.splits
    assert residual <= 1e-10
    assert R.value == pytest.approx(25.0, rel=1e-12)
    assert tau[0].value == pytest.approx(3.0, rel=1e-11)
    assert tau[1].value == pytest.approx(4.0, rel=1e-11)
    assert np.allclose(b.R_values, [[16.0, -12.0], [-12.0, 9.0]], atol=1e-10)
    assert np.allclose(b.chi_values, 0.0, atol=1e-9)
    # horizontal derivative of the curvature scalar
    dR = [d.value for d in b.delta_scalar(R)]
    assert dR[0] == pytest.approx(20.0, rel=1e-11)
    assert dR[1] == pytest.approx(-15.0, rel=1e-11)


def test_ball_spray_riemann_frozen() -> None:
    b = bundle_of(BALL, P0)
    assert np.allclose(b.R_values, BALL_R, rtol=1e-12)
    assert b.Ric_value == pytest.approx(BALL_RIC, rel=1e-12)
    x1, x2, y1, y2 = P0
    closed = -4.0 * (y1**2 + y2**2) / (1.0 - x1**2 - x2**2) ** 2
    assert b.Ric_value == pytest.approx(closed, rel=1e-12)
    # at the chart origin with a unit tangent the curvature scalar is -4
    b0 = bundle_of(BALL, (0.0, 0.0, 1.0, 0.0))
    R, _, residual = b0.splits
    assert residual <= 1e-10
    assert R.value == pytest.approx(-4.0, rel=1e-12)


def test_cubic_split_chi_frozen() -> None:
    b = bundle_of(CUBIC, PCUB)
    assert np.allclose(b.R_values, CUBIC_R, atol=1e-10)
    assert b.Ric_value == pytest.approx(0.0, abs=1e-10)
    R, tau, residual = b.splits
    assert residual <= 1e-9
    assert R.value == pytest.approx(0.0, abs=1e-10)
    assert tau[0].value == pytest.approx(CUBIC_TAU[0], rel=1e-10)
    assert tau[1].value == pytest.approx(CUBIC_TAU[1], rel=1e-10)
    assert b.chi_values[0] == pytest.approx(CUBIC_CHI[0], rel=1e-10)
    assert b.chi_values[1] == pytest.approx(CUBIC_CHI[1], rel=1e-10)
    res, = geometry.identity_residuals(b)
    assert res["chi_consistency"] <= 1e-8


def test_induced_spray_matches_hand_derived_coefficients() -> None:
    # L = -2 e^{2 x1^2} |y|^2 induces exactly the WHIRL spray
    m = geometry.ExprMetric(dsl.parse(WHIRL_METRIC))
    hand = spray_of(WHIRL)
    p = (0.25, -0.4, 0.5, -0.3)
    got = geometry.spray_from_metric(m, p, order=4)
    want = hand.coeff_jets(p, 4)
    for gj, wj in zip(got, want):
        assert np.allclose(gj.coeffs, wj.coeffs, atol=1e-9)
    # quadratic in y, hence Berwald
    b = CurvatureBundle(geometry.MetricSpray(m), p)
    assert np.allclose(b.B_values, 0.0, atol=1e-9)


def test_induced_spray_euler_and_compatibility() -> None:
    m = geometry.ExprMetric(dsl.parse(ROUND_METRIC))
    sp = geometry.MetricSpray(m)
    p = (0.2, 0.3, 0.8, -0.5)
    b = CurvatureBundle(sp, p)
    y = np.asarray(p[2:])
    for i in range(2):
        euler = sum(y[j] * b.N_values[i][j] for j in range(2)) - 2.0 * b.G_values[i]
        assert abs(euler) <= 1e-10
    # the metric is parallel under its own spray
    Lj = m.jet(p, 4)
    for dj in b.delta_scalar(Lj):
        assert abs(dj.value) <= 1e-10
    # constant positive curvature: Ric = (n-1) L
    Lval = Lj.value
    assert b.Ric_value == pytest.approx((2 - 1) * Lval, rel=1e-10)


def test_identity_residuals_on_mixed_fixtures() -> None:
    cases = [
        bundle_of(ROTOR, PROT),
        bundle_of(BALL, P0, c=1),
        bundle_of(CUBIC, PCUB),
        CurvatureBundle(
            geometry.MetricSpray(geometry.ExprMetric(dsl.parse(ROUND_METRIC))),
            (0.2, 0.3, 0.8, -0.5),
        ),
    ]
    for b in cases:
        res, = geometry.identity_residuals(b)
        assert res["curvature_contraction"] <= 1e-8
        assert res["bianchi"] <= 1e-8
        assert res["tau_trace"] <= 1e-8
        assert res["chi_consistency"] <= 1e-8


def test_identity_residuals_dimension_three_gradient() -> None:
    sp = geometry.MetricSpray(geometry.ExprMetric(dsl.parse(ROUND_METRIC_3)))
    b = CurvatureBundle(sp, (0.1, 0.2, -0.3, 0.5, 0.6, 0.7))
    res, = geometry.identity_residuals(b)
    assert "scalar_gradient" in res
    assert res["scalar_gradient"] <= 1e-8
    assert res["bianchi"] <= 1e-8


def test_nonscalar_spray_split_fails_loudly() -> None:
    b = bundle_of(NONSCALAR3, (0.1, 0.2, -0.3, 0.5, 0.6, 0.7))
    _, _, residual = b.splits
    assert residual > 0.9
    res, = geometry.identity_residuals(b)
    assert "chi_consistency" not in res
    assert res["bianchi"] <= 1e-8


def test_block_identities_equal_point_calls_bytewise() -> None:
    # a dim-3 scalar spray, whose rows all carry scalar_gradient, and a
    # non-scalar one under a tolerance that half of its rows' splits pass,
    # so that one block mixes rows with and without the split's keys
    def as_bytes(res: dict) -> list:
        return [(k, type(v), float(v).hex()) for k, v in res.items()]

    rng = np.random.default_rng(5)
    block = np.concatenate([rng.uniform(-0.4, 0.4, (6, 3)),
                            rng.uniform(0.5, 1.0, (6, 3))], axis=1)
    round3 = geometry.MetricSpray(geometry.ExprMetric(dsl.parse(ROUND_METRIC_3)))
    nonscalar = spray_of(NONSCALAR3)
    residuals = sorted(float(CurvatureBundle(nonscalar, pt).splits[2]) for pt in block)
    half = Tolerances(abs=residuals[len(block) // 2], rel=0.0)
    for spray, tol, with_gradient in ((round3, TOL, 6), (nonscalar, half, 4)):
        got = geometry.identity_residuals(CurvatureBundle(spray, block), tol)
        want = [r for pt in block
                for r in geometry.identity_residuals(CurvatureBundle(spray, pt), tol)]
        assert [as_bytes(r) for r in got] == [as_bytes(r) for r in want]
        assert sum("scalar_gradient" in r for r in got) == with_gradient


def test_shifted_spray_curvature_closed_form() -> None:
    flat = spray_of(FLAT)
    euclid = geometry.ExprMetric(dsl.parse("dim 2\nmetric L = y1^2 + y2^2\n"))
    sh = geometry.ShiftedSpray(flat, euclid, 1.0)
    p = (0.1, -0.2, 3.0, 4.0)
    G = sh.coeff_jets(p, 4)
    assert G[0].value == pytest.approx(15.0, rel=1e-12)
    assert G[1].value == pytest.approx(20.0, rel=1e-12)
    b = CurvatureBundle(sh, p)
    R, _, residual = b.splits
    assert residual <= 1e-8
    assert R.value == pytest.approx(25.0, rel=1e-10)


def test_shifted_spray_of_a_metric_spray_evaluates_blocks() -> None:
    # the spray projective_shift builds: both parts evaluate a block in one
    # pass, and each row of the block bundle equals the bundle at its point
    metric = geometry.ExprMetric(dsl.parse(ROUND_METRIC))
    shapes = []
    jet = metric.jet
    metric.jet = lambda p, order: shapes.append(np.shape(p)) or jet(p, order)
    sh = geometry.ShiftedSpray(geometry.MetricSpray(metric), metric, 0.5)
    block = np.array([[0.1, -0.2, 0.6, 0.8], [0.3, 0.1, -0.5, 0.4],
                      [-0.2, 0.25, 0.3, -0.9]])
    bb = CurvatureBundle(sh, block)
    bb.G
    # one jet of L for the induced spray and one for the shift
    assert shapes == [block.shape, block.shape]
    for r, pt in enumerate(block):
        b = CurvatureBundle(sh, pt)
        assert np.array_equal(bb.G_values[r], b.G_values)
        assert np.array_equal(bb.R_values[r], b.R_values)
        assert bb.splits[2][r] == b.splits[2]


def test_order_budget_raises_order_error() -> None:
    b = bundle_of(ROTOR, PROT, order=2)
    assert b.R_values.shape == (2, 2)  # still fine at order 2
    with pytest.raises(OrderError):
        _ = b.chi_values
    with pytest.raises(OrderError):
        # a y-gradient of the 3-tensor needs order 4
        bundle_of(ROTOR, PROT, order=3).R3[0][0][0].dy(0)


def test_cov_h_keeps_the_checks_of_jet_arithmetic() -> None:
    # cov_h reads coefficients instead of pairing and differentiating jets,
    # and must still refuse what that arithmetic (the jet loop) refuses
    b = bundle_of(ROTOR, PROT)
    Rj = b.splits[0]
    assert b.cov_h(Rj, ()).shape == (2,)
    elsewhere = jets.space(4, 2).variable(0, (0.0, 0.0, 1.0, 0.0))
    wider = jets.space(6, 2).variable(0, tuple(PROT) + (0.0, 1.0))
    for cov in (b.cov_h, functools.partial(cov_h_jets, b)):
        with pytest.raises(ValueError, match="different centers"):
            cov(elsewhere, ())
        with pytest.raises(ValueError, match="different variable sets"):
            cov(np.array([Rj, wider], dtype=object), ("d",))
        with pytest.raises(OrderError, match="jet order exhausted"):
            cov(Rj.truncated(0), ())
        with pytest.raises(ValueError, match="slot list"):
            cov(Rj, ("d",))


def test_point_tangent_validation_and_layout() -> None:
    # a point bundle checks its point and tangent as a block bundle does
    b = CurvatureBundle(spray_of(ROTOR), PROT)
    assert np.array_equal(b._pa, [0.1, -0.2, 3.0, 4.0])
    assert b.Ric_value == pytest.approx(25.0, rel=1e-12)
    with pytest.raises(DomainError, match="^tangent vector is zero$"):
        CurvatureBundle(spray_of(ROTOR), (0.1, -0.2, 0.0, 0.0))
    with pytest.raises(DomainError, match="^tangent vector is not finite$"):
        CurvatureBundle(spray_of(ROTOR), (0.1, -0.2, np.nan, 1.0))
    with pytest.raises(DomainError, match="expected 4 coordinates"):
        CurvatureBundle(spray_of(ROTOR), (0.1, -0.2, 3.0))


def test_block_bundle_of_an_induced_spray_equals_point_bundles() -> None:
    # the spray of the expression metric evaluates the block in one pass,
    # and every row is the point bundle's
    metric = geometry.ExprMetric(dsl.parse(ROUND_METRIC))
    block = np.array([[0.1, -0.2, 0.6, 0.8], [0.3, 0.1, -0.5, 0.4]])
    sp = geometry.MetricSpray(metric)
    one_pass = CurvatureBundle(sp, block, 3)
    assert one_pass._pa.shape == block.shape
    assert one_pass.R_values.shape == (2, 2, 2)
    for r, p in enumerate(block):
        b = CurvatureBundle(sp, p, 3)
        assert np.array_equal(one_pass.curvature_scalar.coeffs[r],
                              b.curvature_scalar.coeffs)
        assert np.array_equal(one_pass.R_values[r], b.R_values)
        assert np.array_equal(
            one_pass.cov_h(np.array(one_pass.R, dtype=object), ("u", "d"))[r],
            b.cov_h(np.array(b.R, dtype=object), ("u", "d")))


def test_block_bundle_checks_its_points() -> None:
    with pytest.raises(DomainError, match="^tangent vector is zero$"):
        CurvatureBundle(spray_of(ROTOR), np.array([PROT, (0.1, 0.2, 0.0, 0.0)]))
    # the first row that fails names the error
    with pytest.raises(DomainError, match="^tangent vector is not finite$"):
        CurvatureBundle(spray_of(ROTOR), np.array(
            [PROT, (0.1, 0.2, np.nan, 1.0), (0.1, 0.2, 0.0, 0.0)]))
    with pytest.raises(DomainError, match="^tangent vector is zero$"):
        CurvatureBundle(spray_of(ROTOR), np.array(
            [PROT, (0.1, 0.2, 0.0, 0.0), (0.1, 0.2, np.inf, 1.0)]))


EMPTY_BLOCK = r"^expected at least one point, got shape \(0, 4\)$"


@pytest.mark.parametrize("read", ["bundle", "spray", "metric"])
def test_an_empty_block_is_refused_up_front(read) -> None:
    # a (0, 4) block used to reach numpy's reductions, which raised
    # "zero-size array to reduction operation"
    empty = np.empty((0, 4))
    spray = corpus.load_fixture("ex7.3").build()
    calls = {
        "bundle": lambda: CurvatureBundle(spray, empty),
        "spray": lambda: spray.coeff_jets(empty, 2),
        "metric": lambda: corpus.load_fixture("elliptic2").metric().jet(empty, 2),
    }
    with pytest.raises(DomainError, match=EMPTY_BLOCK):
        calls[read]()


def test_folds_equal_the_per_row_loop() -> None:
    # values and types: a row whose fold never leaves 0.0 (nan, -0.0 and
    # 0.0 entries only) is the float 0.0, any other the loop's np.float64
    fixed = [np.array([np.nan, -0.0, 0.0, np.inf, -3.0, -np.inf]),
             np.array([-0.0, np.nan, 2.0, np.nan, np.nan, 5.0])]
    assert [type(v) for v in geometry._folds(fixed, 6)] == [float] * 2 + [np.float64] * 4
    rng = np.random.default_rng(5)
    cases = [(fixed, 6), ([], 4)]
    for rows in (1, 3, 17):
        for count in (1, 2, 5):
            drawn = [rng.standard_normal(rows) for _ in range(count)]
            for acc in drawn:
                hit = rng.random(rows) < 0.5
                acc[hit] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], rows)[hit]
            cases.append((drawn, rows))
    for accs, rows in cases:
        got, want = geometry._folds(accs, rows), loop_folds(accs, rows)
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
