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
from pathlib import Path

import numpy as np
import pytest

from spraylab import classify, corpus, dsl, geometry, metrize, sampling
from spraylab.errors import DomainError, PathError, PreconditionError

from conftest import classified

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
    known = [b for _, b, _ in rep.triples]
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


def test_curvature_metrics_check_the_split_of_given_bundles() -> None:
    sp = spray_of(NONSCALAR3)
    pt = (0.1, 0.2, -0.1, 0.7, 0.5, -0.4)
    known = [geometry.CurvatureBundle(sp, pt, 4)]
    lam = metrize.LambdaField(lambda xs: np.zeros_like(xs), (0.0,) * 3)
    for L in (metrize.CurvatureMetric(sp, bundles=known),
              metrize.ScaledCurvatureMetric(sp, lam, bundles=known)):
        with pytest.raises(PreconditionError, match="curvature scalar is undefined"):
            L.jet(pt, 2)


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


# -- verdict_isotropic ----------------------------------------------------------


def test_rotor_omega_is_y_dependent() -> None:
    # omega = R_{;i}/R = (y2, -y1)/|y| moves with the tangent
    sp = spray_of(ROTOR)
    for y, expected in (((3.0, 4.0), (0.8, -0.6)), ((1.0, 0.0), (0.0, -1.0))):
        b = geometry.CurvatureBundle(sp, (0.1, -0.2) + y, 4)
        Rj, _, _ = b.split
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
        Rj, _, _ = b.split
        assert Rj.value == pytest.approx(want_R, rel=1e-8)
        got = [d.value for d in b.delta_scalar(Rj)]
        assert np.allclose(got, want_Rs, rtol=1e-8, atol=1e-10)


def test_verdict_degenerate_family_member() -> None:
    sp = spray_of(DEGEN)
    dec = classify.decompose_scalar(geometry.CurvatureBundle(sp, PD, 4))
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
    dec = classify.decompose_scalar(geometry.CurvatureBundle(sp, PCUB, 4))
    assert abs(dec.R) <= 1e-10
    assert np.allclose(dec.tau, [-12.0, 12.0], atol=1e-9)
    v = metrize.nonmetrizable_scalar(sp, classified(sp, 12))
    assert v.outcome == "not_metrizable"
    assert v.rule == "R = 0 but tau != 0"
    assert metrize.decide(sp, count=12).outcome == "not_metrizable"


def test_twist_fails_quotient_constancy() -> None:
    sp = spray_of(TWIST)
    b = geometry.CurvatureBundle(sp, PC, 4)
    Rj, tau, _ = b.split
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
    dec = classify.decompose_scalar(geometry.CurvatureBundle(sp, PC, 4))
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
    # blocks, and no block falls back to building its samples one at a
    # time; the verdict reads the shifted spray's bundles, drawing nothing
    metrize.projective_shift(metric_of(EQ3), 2.0, count=40)
    rows = classify.BLOCK_ROWS
    one_pass = [(rows, 4), (rows, 4), (40 - 2 * rows, 4)]
    assert tally["draws"] == 1
    assert tally["blocks"] == one_pass * 2
    assert tally["row_blocks"] == one_pass * 2


def test_each_class_is_decided_once_per_classified_sample(monkeypatch) -> None:
    # the verdicts, projective_shift and the structure check read the
    # classification report's flags, so each per-sample class test runs
    # once per classified sample, and each candidate metric is checked for
    # being Finsler once, by the verdict that made it
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

    classified_samples = 0
    for name in corpus.fixture_names():
        report = cli.cmd_metrize(cli.RunConfig(input=name, seed=7))
        assert not report.mismatches
        classified_samples += report.data["sampling"]["used"]
    for c in (0.0, 1.0):
        # a metric per call: each call checks the metric it is given
        metric = corpus.load_fixture("elliptic2").metric()
        metrize.projective_shift(metric, c, count=16, seed=7)
        classified_samples += sampling.draw(metric, count=16, seed=7).count

    assert calls == dict.fromkeys(calls, classified_samples)
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
