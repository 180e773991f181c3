"""Berwald frame, angle derivatives, flag ODE, constant-main-scalar families."""

from __future__ import annotations

import numpy as np
import pytest

from spraylab import classify, dim2, dsl, geometry, sampling
from spraylab.errors import (DegenerateMetric, NegativeMetric, ParamError,
                             PreconditionError)

from conftest import gen_cms_metric

EUC = """
dim 2
metric L = y1^2 + y2^2
"""

EQ3M = """
dim 2
metric L = ((1 + x1^2 + x2^2)*(y1^2 + y2^2) - (x1*y1 + x2*y2)^2) / (1 + x1^2 + x2^2)^2
"""

CMS_BOX = sampling.SampleBox(-0.3, 0.5, 0.1, 1.0)


def metric_of(src: str) -> geometry.ExprMetric:
    return geometry.ExprMetric(dsl.parse(src))


def scalar_jet(expr: str, pt, order: int = 2):
    src = f"dim 2\nmetric L = {expr}\n"
    return geometry.ExprMetric(dsl.parse(src)).jet(np.asarray(pt, float),
                                                   order)


def cms_fixtures():
    return [
        gen_cms_metric(19, p="1", q="1 + x1 + x2", s=1.0 / 3.0),
        gen_cms_metric(20, p="1", q="1 + x1 + x2"),
        gen_cms_metric(21, p="1 + x2^2", q="1", r=1.0),
    ]


def bundle(m, p) -> geometry.CurvatureBundle:
    """The order-4 curvature bundle of the metric's spray at p."""
    return geometry.CurvatureBundle(geometry.MetricSpray(m), p, 4)


def draw(m, count: int, seed: int) -> sampling.SampleSet:
    def accept(pt: np.ndarray) -> bool:
        return all(g > 1e-6 for g in m.guard_values(pt))

    return sampling.sample_points(2, count=count, seed=seed, box=CMS_BOX,
                                  accept=accept)


# -- frame -----------------------------------------------------------------------


def test_frame_euclidean() -> None:
    fr, = dim2.frame(metric_of(EUC), (0.3, -0.2, 0.6, 0.8))
    assert np.allclose(fr.ell_low, [0.6, 0.8], atol=1e-12)
    assert np.allclose(fr.ell_up, [0.6, 0.8], atol=1e-12)
    assert np.allclose(fr.m_up, [-0.8, 0.6], atol=1e-12)
    assert np.allclose(fr.m_low, [-0.8, 0.6], atol=1e-12)
    assert fr.eps == 1.0
    assert fr.det_g == pytest.approx(1.0, abs=1e-12)
    assert abs(fr.main_scalar) <= 1e-10


def test_frame_invariants_on_cms() -> None:
    for cms in cms_fixtures():
        m = cms.metric
        for pt in draw(m, 4, 13).points():
            fr, = dim2.frame(m, pt)
            Lj = m.jet(pt, 3)
            F = np.sqrt(Lj.value)
            g = np.array([[0.5 * Lj.dy(i).dy(j).value for j in range(2)]
                          for i in range(2)])
            recon = (np.outer(fr.ell_low, fr.ell_low)
                     + fr.eps * np.outer(fr.m_low, fr.m_low))
            g_scale = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(g - recon)) <= 1e-10 * g_scale
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        C = 0.25 * Lj.dy(i).dy(j).dy(k).value
                        want = (fr.main_scalar * fr.m_low[i] * fr.m_low[j]
                                * fr.m_low[k])
                        assert F * C == pytest.approx(
                            want, rel=1e-8, abs=1e-10 * g_scale)


def test_main_scalar_predictions() -> None:
    pts = [(0.1, -0.2, 0.4, 0.7), (0.0, 0.3, 0.9, 0.2)]
    for cms in cms_fixtures():
        for pt in pts:
            fr, = dim2.frame(cms.metric, pt)
            assert fr.main_scalar ** 2 == pytest.approx(cms.main_scalar_sq,
                                                        rel=1e-8)
    # the power family at s = 1/3 has an indefinite fundamental tensor
    fr, = dim2.frame(cms_fixtures()[0].metric, pts[0])
    assert fr.eps == -1.0


def test_frame_errors() -> None:
    with pytest.raises(NegativeMetric):
        dim2.frame(metric_of("dim 2\nmetric L = -(y1^2) - y2^2"),
                   (0.0, 0.0, 1.0, 0.5))
    with pytest.raises(DegenerateMetric):
        dim2.frame(metric_of("dim 2\nmetric L = y1^2"),
                   (0.0, 0.0, 1.0, 0.5))
    with pytest.raises(PreconditionError):
        dim2.frame(metric_of("dim 3\nmetric L = y1^2 + y2^2 + y3^2"),
                   (0.0, 0.0, 0.0, 1.0, 0.5, 0.2))


def frame_bits(fr: dim2.BerwaldFrame) -> list:
    return [[float(v).hex() for v in np.ravel(getattr(fr, f))]
            for f in ("ell_low", "ell_up", "m_low", "m_up", "eps", "det_g",
                      "main_scalar")]


def test_block_equals_points_bytewise() -> None:
    # one frame and one flag-ODE residual per row of a block, each with
    # the bits of the call at that row's point alone
    for cms in cms_fixtures():
        m = cms.metric
        pts = draw(m, 8, 21).points()
        frames = dim2.frame(m, pts)
        residuals = dim2.flag_ode_residual(m, bundle(m, pts))
        assert len(frames) == len(residuals) == len(pts)
        for pt, fr, res in zip(pts, frames, residuals):
            at_point, = dim2.frame(m, pt)
            assert frame_bits(fr) == frame_bits(at_point)
            assert type(fr.eps) is type(fr.main_scalar) is float
            assert [res.hex()] == [r.hex() for r in
                                   dim2.flag_ode_residual(m, bundle(m, pt))]


# g = diag(x1, 1): L <= 0 where x1 < 0 and |y2| is small, det g = 0 at x1 = 0
SIGNED = "dim 2\nmetric L = x1*y1^2 + y2^2"
FINE = [(0.5, 0.0, 0.6, 0.8), (0.7, 0.1, 0.6, 0.8)]
NEGATIVE = (-1.0, 0.0, 1.0, 0.5)
DEGENERATE = (0.0, 0.0, 1.0, 0.5)


def point_error(call, pt) -> Exception:
    try:
        call(pt)
    except Exception as exc:
        return exc
    raise AssertionError(f"no error at {pt}")


@pytest.mark.parametrize("third,fourth", [(NEGATIVE, DEGENERATE),
                                          (DEGENERATE, NEGATIVE)])
def test_block_frame_raises_its_first_failing_row(third, fourth) -> None:
    m = metric_of(SIGNED)
    block = np.array(FINE + [third, fourth])
    want = point_error(lambda pt: dim2.frame(m, pt), third)
    assert isinstance(want, (NegativeMetric, DegenerateMetric))
    with pytest.raises(type(want)) as err:
        dim2.frame(m, block)
    assert str(err.value) == str(want)
    # under the row rule the rows before it come first
    got = []
    with pytest.raises(type(want)) as err:
        for fr in classify.rowwise(lambda rows: dim2.frame(m, rows), block):
            got.append(fr)
    assert str(err.value) == str(want)
    assert [frame_bits(fr) for fr in got] == [
        frame_bits(dim2.frame(m, pt)[0]) for pt in FINE]


def test_block_flag_ode_raises_its_first_failing_row() -> None:
    m = metric_of(SIGNED)
    block = np.array(FINE + [NEGATIVE, FINE[0]])
    want = point_error(lambda pt: dim2.flag_ode_residual(m, bundle(m, pt)), NEGATIVE)
    assert isinstance(want, NegativeMetric)
    with pytest.raises(NegativeMetric) as err:
        dim2.flag_ode_residual(m, bundle(m, block))
    assert str(err.value) == str(want)
    got = []
    with pytest.raises(NegativeMetric) as err:
        for res in classify.bundle_rows(lambda b: dim2.flag_ode_residual(m, b),
                                        bundle(m, block)):
            got.append(res)
    assert str(err.value) == str(want)
    assert [r.hex() for r in got] == [
        dim2.flag_ode_residual(m, bundle(m, pt))[0].hex() for pt in FINE]


# -- angle derivatives -----------------------------------------------------------


def test_angle_derivative_polar_angle() -> None:
    m = metric_of(EUC)
    pt = (0.0, 0.0, 0.6, 0.8)
    S = scalar_jet("atan(y2/y1)", pt)
    d1 = dim2.angle_derivative(S, m, pt)
    assert d1.value == pytest.approx(1.0, abs=1e-10)
    d2 = dim2.angle_derivative(d1, m, pt)
    assert abs(d2.value) <= 1e-10


def test_angle_derivative_constant() -> None:
    m = metric_of(EUC)
    pt = (0.0, 0.0, 0.6, 0.8)
    S = scalar_jet("2.5", pt)
    assert abs(dim2.angle_derivative(S, m, pt).value) <= 1e-12


def test_angle_derivative_needs_degree_zero() -> None:
    m = metric_of(EUC)
    pt = (0.0, 0.0, 0.6, 0.8)
    S = scalar_jet("sqrt(y1^2 + y2^2)", pt)
    with pytest.raises(PreconditionError):
        dim2.angle_derivative(S, m, pt)


def test_angle_derivative_at_a_block_equals_the_point_calls() -> None:
    m = metric_of(EQ3M)
    block = np.array([[0.1, -0.2, 0.6, 0.8], [0.3, 0.25, -0.5, 0.7]])
    for expr in ("atan(y2/y1)", "y1*y2/(y1^2 + y2^2) + x1", "2.5"):
        got = dim2.angle_derivative(scalar_jet(expr, block, 3), m, block)
        got2 = dim2.angle_derivative(got, m, block)
        for r, pt in enumerate(block):
            d1 = dim2.angle_derivative(scalar_jet(expr, pt, 3), m, pt)
            d2 = dim2.angle_derivative(d1, m, pt)
            for blk, point in ((got, d1), (got2, d2)):
                assert [v.hex() for v in blk.coeffs[r].tolist()] == \
                    [v.hex() for v in point.coeffs.tolist()]


def test_angle_derivative_at_a_block_raises_its_first_failing_row() -> None:
    # 0-homogeneous in y only where x1 < 0.3: the second row fails
    m = metric_of(EUC)
    expr = "atan(y2/y1) + (x1 - 0.3 + abs(x1 - 0.3))*sqrt(y1^2 + y2^2)"
    block = np.array([[0.0, 0.1, 0.6, 0.8], [0.5, 0.1, 0.6, 0.8], [0.7, 0.1, 0.8, 0.6]])
    dim2.angle_derivative(scalar_jet(expr, block[0]), m, block[0])
    with pytest.raises(PreconditionError) as point:
        dim2.angle_derivative(scalar_jet(expr, block[1]), m, block[1])
    with pytest.raises(PreconditionError) as blk:
        dim2.angle_derivative(scalar_jet(expr, block), m, block)
    assert str(blk.value) == str(point.value)


# -- flag curvature ODE ----------------------------------------------------------


def test_flag_ode_constant_curvature() -> None:
    m = metric_of(EQ3M)
    for pt in ((0.25, -0.3, 0.6, 0.9), (0.1, 0.2, -0.4, 0.8)):
        res, = dim2.flag_ode_residual(m, bundle(m, pt))
        assert res <= 1e-9


def test_flag_ode_cms_families() -> None:
    for cms in cms_fixtures():
        for pt in draw(cms.metric, 4, 17).points():
            res, = dim2.flag_ode_residual(cms.metric, bundle(cms.metric, pt))
            assert res <= 1e-6


# -- generated families vs the 2-form fit ----------------------------------------


def test_cms_closed_forms_specialize() -> None:
    x = (0.2, -0.1)
    q = 1.0 + x[0] + x[1]
    c19 = gen_cms_metric(19, p="1", q="1 + x1 + x2", s=1.0 / 3.0)
    assert c19.omega12(x) == pytest.approx(1.0 / q ** 2, rel=1e-12)
    c20 = gen_cms_metric(20, p="1", q="1 + x1 + x2")
    assert c20.omega12(x) == pytest.approx(-2.0 / q ** 2, rel=1e-12)
    c21 = gen_cms_metric(21, p="1 + x2^2", q="1", r=1.0)
    assert c21.omega12(x) == pytest.approx(2.0, rel=1e-12)


def test_cms_omega_fit_matches_prediction() -> None:
    for cms in cms_fixtures():
        sp = geometry.MetricSpray(cms.metric)
        rep = classify.classify_spray(sp, count=8, seed=7, box=CMS_BOX)
        assert rep.flags["weak_isotropic"]
        for xb, wb in zip(rep.bases, rep.omega):
            want = cms.omega12(xb)
            assert wb[0, 1] == pytest.approx(want, rel=1e-6, abs=1e-9)
            assert wb[1, 0] == pytest.approx(-want, rel=1e-6, abs=1e-9)


def test_gen_cms_param_errors() -> None:
    with pytest.raises(ParamError):
        gen_cms_metric(19, p="1", q="1")
    with pytest.raises(ParamError):
        gen_cms_metric(19, p="1", q="1", s=1.0)
    with pytest.raises(ParamError):
        gen_cms_metric(20, p="1", q="1", s=0.5)
    with pytest.raises(ParamError):
        gen_cms_metric(21, p="1", q="1")
    with pytest.raises(ParamError):
        gen_cms_metric(22, p="1", q="1")
    with pytest.raises(ParamError):
        gen_cms_metric(19, p="1 +", q="1", s=2.0)
