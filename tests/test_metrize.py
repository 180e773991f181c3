"""Metrizability verdicts and metric recovery.

Frozen numbers come from an independent sympy computation: curvature tensors
assembled from the defining formula, covariant derivatives by hand, induced
sprays through an explicit adjugate.  The recovered-metric targets
(lambda = e^{-2 x1^2} and L = -2 e^{2 x1^2} |y|^2 for the whirl spray,
L = -4|y|^2/(1-|x|^2)^2 for the ball family at c=2) were confirmed there to
reproduce the input spray exactly before being trusted as expectations here.
"""

from __future__ import annotations

import numpy as np
import pytest

from spraylab import classify, dsl, geometry, metrize, sampling
from spraylab.errors import PathError, PreconditionError

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


# -- recover_lambda -------------------------------------------------------------


def test_recover_lambda_zero_form() -> None:
    lam = metrize.recover_lambda(lambda x: np.zeros(2), np.zeros(2))
    assert lam(np.array([0.7, -0.3])) == 1.0


def test_recover_lambda_log_derivative() -> None:
    # omega = d ln(x1 + 2) integrates to lambda = (x1 + 2)/2 from x0 = 0
    lam = metrize.recover_lambda(
        lambda x: np.array([1.0 / (x[0] + 2.0), 0.0]), np.zeros(2))
    for x1 in (-0.5, 0.4, 1.5):
        got = lam(np.array([x1, 0.3]))
        assert got == pytest.approx((x1 + 2.0) / 2.0, abs=1e-8)


def test_recover_lambda_gaussian() -> None:
    lam = metrize.recover_lambda(
        lambda x: np.array([-4.0 * x[0], 0.0]), np.zeros(2))
    for x1 in (-0.6, 0.25, 0.8):
        assert lam(np.array([x1, -0.2])) == pytest.approx(
            np.exp(-2.0 * x1 ** 2), abs=1e-10)


def test_recover_lambda_path_exits_chart() -> None:
    lam = metrize.recover_lambda(
        lambda x: np.array([1.0, 0.0]), np.zeros(2),
        accept=lambda x: x[0] < 0.5)
    with pytest.raises(PathError):
        lam(np.array([1.0, 0.0]))


# -- verdict_isotropic ----------------------------------------------------------


def test_rotor_omega_is_y_dependent() -> None:
    # omega = R_{;i}/R = (y2, -y1)/|y| moves with the tangent
    sp = spray_of(ROTOR)
    for y, expected in (((3.0, 4.0), (0.8, -0.6)), ((1.0, 0.0), (0.0, -1.0))):
        b = geometry.CurvatureBundle(sp, (0.1, -0.2) + y, 4)
        Rj, _, _ = geometry.scalar_split(b)
        om = [(d / Rj).value for d in b.delta_scalar(Rj)]
        assert np.allclose(om, expected, atol=1e-9)


def test_verdict_rotor_not_metrizable() -> None:
    v = metrize.verdict_isotropic(spray_of(ROTOR), count=12)
    assert v.outcome == "not_metrizable"
    assert v.rule == "omega y-dependent"
    assert v.residual > 0.1
    assert v.recovered_metric is None


def test_verdict_whirl_recovers_scaled_metric() -> None:
    v = metrize.verdict_isotropic(spray_of(WHIRL), count=12)
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
    v = metrize.verdict_isotropic(spray_of(WHIRL), count=12)
    lam = v.evidence["lambda"]
    for x1 in (-0.5, 0.0, 0.6):
        assert lam(np.array([x1, 0.2])) == pytest.approx(
            np.exp(-2.0 * x1 ** 2), abs=1e-9)


def test_verdict_ball_sweep() -> None:
    for c in (0.5, 1.0, 2.0, 3.0):
        v = metrize.verdict_isotropic(spray_of(BALL, consts={"c": c}), count=12)
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
        Rj, _, _ = geometry.scalar_split(b)
        assert Rj.value == pytest.approx(want_R, rel=1e-8)
        got = [d.value for d in b.delta_scalar(Rj)]
        assert np.allclose(got, want_Rs, rtol=1e-8, atol=1e-10)


def test_verdict_degenerate_family_member() -> None:
    sp = spray_of(DEGEN)
    dec = classify.decompose_scalar(sp, PD)
    assert dec.R == pytest.approx(1.3456, abs=1e-10)
    assert np.allclose(dec.tau, [1.392, -1.856], atol=1e-10)
    v = metrize.verdict_isotropic(sp, count=12)
    assert v.outcome == "not_metrizable"
    assert v.rule == "R is not a Finsler metric"
    vc = metrize.verdict_constant(sp, count=12)
    assert vc.outcome == "not_metrizable"
    assert vc.rule == "Ric is not a Finsler metric"


def test_verdict_expfac_not_metrizable() -> None:
    # R = y1^2/4: 2-homogeneous but rank-1 Hessian
    v = metrize.verdict_isotropic(spray_of(EXPFAC), count=12)
    assert v.outcome == "not_metrizable"
    assert v.rule == "R is not a Finsler metric"


def test_verdict_isotropic_rejects_nonisotropic() -> None:
    with pytest.raises(PreconditionError):
        metrize.verdict_isotropic(spray_of(CUBIC), count=8)


# -- verdict_constant -----------------------------------------------------------


def test_verdict_constant_round_metric() -> None:
    m = metric_of(EQ3)
    v = metrize.verdict_constant(geometry.MetricSpray(m), count=12)
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


def test_verdict_rejects_report_with_sampling_arguments() -> None:
    sp = spray_of(FLAT)
    rep = classify.classify_spray(sp, count=8)
    assert metrize.verdict_constant(sp, report=rep).outcome == "metrizable_locally"
    with pytest.raises(TypeError):
        metrize.verdict_constant(sp, count=8, report=rep)


def test_verdict_constant_flat() -> None:
    v = metrize.verdict_constant(spray_of(FLAT), count=8)
    assert v.outcome == "metrizable_locally"
    assert v.rule == "Ric vanishes on samples"
    assert v.recovered_metric is None
    assert "sample" in v.evidence["note"]


def test_verdict_constant_rejects_nonconstant() -> None:
    with pytest.raises(PreconditionError):
        metrize.verdict_constant(spray_of(ROTOR), count=8)


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
    dec = classify.decompose_scalar(sp, PCUB)
    assert abs(dec.R) <= 1e-10
    assert np.allclose(dec.tau, [-12.0, 12.0], atol=1e-9)
    v = metrize.nonmetrizable_scalar(sp, count=12)
    assert v.outcome == "not_metrizable"
    assert v.rule == "R = 0 but tau != 0"
    assert metrize.decide(sp, count=12).outcome == "not_metrizable"


def test_twist_fails_quotient_constancy() -> None:
    sp = spray_of(TWIST)
    b = geometry.CurvatureBundle(sp, PC, 4)
    Rj, tau, _ = geometry.scalar_split(b)
    assert Rj.value == pytest.approx(-1.2576, abs=1e-10)
    assert np.allclose([t.value for t in tau], [-1.392, -0.24], atol=1e-10)
    t = np.array([tau[i] / Rj for i in range(2)], dtype=object)
    cov = geometry.CurvatureBundle._values(b.cov_h(t, ("d",)))
    assert np.allclose(cov, TWIST_T_COV, atol=1e-9)
    v = metrize.nonmetrizable_scalar(sp, count=12)
    assert v.outcome == "not_metrizable"
    assert v.rule == "tau/R fails covariant-constancy or vertical symmetry"
    assert v.residual > 0.5


def test_drift_stays_inconclusive() -> None:
    sp = spray_of(DRIFT)
    dec = classify.decompose_scalar(sp, PC)
    assert dec.R == pytest.approx(-2.0 * 0.8 * 0.6, abs=1e-10)
    assert np.allclose(dec.tau, [0.0, -1.6], atol=1e-10)
    v = metrize.nonmetrizable_scalar(sp, count=12)
    assert v.outcome == "inconclusive"
    assert metrize.decide(sp, count=12).outcome == "inconclusive"


def test_degen_passes_scalar_tests() -> None:
    v = metrize.nonmetrizable_scalar(spray_of(DEGEN), count=12)
    assert v.outcome == "inconclusive"


def test_flat_scalar_op_is_inconclusive() -> None:
    # the op itself only ever fires negative rules; flatness is decided by
    # the constant-curvature path in decide()
    assert metrize.nonmetrizable_scalar(spray_of(FLAT), count=8).outcome == "inconclusive"
    assert metrize.decide(spray_of(FLAT), count=8).outcome == "metrizable_locally"


def test_scalar_op_rejects_nonscalar() -> None:
    with pytest.raises(PreconditionError):
        metrize.nonmetrizable_scalar(spray_of(NONSCALAR3), count=8)


def test_decide_nonscalar() -> None:
    v = metrize.decide(spray_of(NONSCALAR3), count=8)
    assert v.outcome == "inconclusive"
    assert v.rule == "not of scalar curvature"


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
    v = metrize.nonmetrizable_scalar(sp, count=8, box=box)
    assert v.outcome == "inconclusive"
