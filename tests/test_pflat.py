"""Quadratic-data generators, admissibility, and the structure test.

Frozen values for the A=I, B=0, C=1 instance come from the same sympy
session as the metrizability fixtures (induced spray and metric evaluated
exactly at rational points).
"""

from __future__ import annotations

import numpy as np
import pytest

from spraylab import classify, dsl, geometry, metrize, pflat, sampling
from spraylab.errors import ParamError, PreconditionError
from spraylab.sampling import SampleBox

from conftest import classified

Q_EQ3 = pflat.QuadraticData(A=((1.0, 0.0), (0.0, 1.0)), B=(0.0, 0.0), C=1.0)
Q_MIX = pflat.QuadraticData(A=((1.0, 0.5), (0.5, 2.0)), B=(0.3, 0.0), C=1.0)
Q_LIN = pflat.QuadraticData(A=((0.0, 0.0), (0.0, 0.0)), B=(1.0, 0.0), C=1.0)

PE = (0.25, -0.3, 0.6, 0.9)

EXPFAC = """
dim 2
spray G1 = -0.5 * y1^2
spray G2 = -0.5 * y1 * y2
"""

WHIRL = """
dim 2
spray G1 = x1 * (y1^2 - y2^2)
spray G2 = 2 * x1 * y1 * y2
"""

PFORM = """
dim 2
spray G1 = (x2*y1) * y1
spray G2 = (x2*y1) * y2
"""


def spray_of(src: str):
    return geometry.ExprSpray(dsl.parse(src))


# -- quadratic data ------------------------------------------------------------


def test_quadratic_data_validation() -> None:
    with pytest.raises(ParamError):
        pflat.QuadraticData(A=((1.0, 2.0), (0.0, 1.0)), B=(0.0, 0.0), C=1.0)
    with pytest.raises(ParamError):
        pflat.QuadraticData(A=((0.0, 0.0), (0.0, 0.0)), B=(0.0, 0.0), C=0.0)
    with pytest.raises(ParamError):
        pflat.QuadraticData(A=((1.0, 0.0), (0.0, 1.0)), B=(0.0, 0.0, 0.0),
                            C=1.0)
    q = pflat.QuadraticData.from_mapping(
        {"A": [1.0, 0.0, 0.0, 1.0], "B": [0.0, 0.0], "C": 1.0})
    assert q == Q_EQ3
    assert q.dim == 2


def test_gen_spray_frozen_values() -> None:
    sp = pflat.gen_spray(Q_EQ3)
    G = sp.coeff_jets(np.array(PE), 0)
    assert G[0].value == pytest.approx(0.062472885032537964, rel=1e-12)
    assert G[1].value == pytest.approx(0.09370932754880694, rel=1e-12)


def test_gen_metric_frozen_value() -> None:
    m = pflat.gen_metric(Q_EQ3)
    assert m.value(PE) == pytest.approx(1.0043431002112733, rel=1e-12)


def test_sources_reparse() -> None:
    spray_src, metric_src = pflat.sources(Q_MIX)
    assert dsl.parse(spray_src).kind == "spray"
    assert dsl.parse(metric_src).kind == "metric"


# -- admissibility -------------------------------------------------------------


def test_admissible_exact_branch() -> None:
    a = pflat.admissible(Q_EQ3)
    assert a and a.mode == "exact"
    assert a.margin == pytest.approx(4.0)

    degen = pflat.admissible(
        pflat.QuadraticData(A=((1.0, 0.0), (0.0, 1.0)), B=(0.0, 0.0), C=0.0))
    assert not degen and degen.mode == "exact"
    assert degen.margin == pytest.approx(0.0, abs=1e-12)

    tuned = pflat.admissible(
        pflat.QuadraticData(A=((1.0, 0.0), (0.0, 1.0)), B=(2.0, 0.0), C=1.0))
    assert not tuned
    assert tuned.margin == pytest.approx(0.0, abs=1e-12)

    indef = pflat.admissible(
        pflat.QuadraticData(A=((1.0, 0.0), (0.0, -1.0)), B=(0.0, 0.0), C=1.0))
    assert indef and indef.mode == "exact"


def test_admissible_empirical_branch() -> None:
    a = pflat.admissible(Q_LIN, count=8, seed=3,
                         box=SampleBox(-0.5, 0.5, -1.0, 1.0))
    assert a.mode == "empirical"
    # L = -y1^2 / (4 u^2) has a rank-1 Hessian
    assert not a
    assert a.margin <= 1e-10


def test_indefinite_metric_passes_finsler_check() -> None:
    q = pflat.QuadraticData(A=((1.0, 0.0), (0.0, -1.0)), B=(0.0, 0.0), C=1.0)
    m = pflat.gen_metric(q)
    pts = np.array([[0.1, -0.2, 0.8, 0.3], [0.0, 0.0, 0.2, 0.9]])
    vals = [m.value(p) for p in pts]
    assert vals[0] * vals[1] < 0.0  # genuinely indefinite
    samples = sampling.draw(m, 8, 5, SampleBox(-0.5, 0.5, -1.0, 1.0))
    fc = metrize.finsler_check(m, samples)
    assert fc.holds


# -- the linear (flat) subfamily -----------------------------------------------


def test_linear_family_is_flat() -> None:
    sp = pflat.gen_spray(Q_LIN)
    b = geometry.CurvatureBundle(sp, (0.2, -0.3, 0.8, 0.5))
    assert float(np.max(np.abs(b.R_values))) <= 1e-10
    v = metrize.decide(sp, count=6, seed=3)
    assert v.outcome == "metrizable_locally"


def test_linear_family_factor_identity() -> None:
    # with R = 0 the factor satisfies delta_k P + P * P_.k = 0
    sp = pflat.gen_spray(Q_LIN)
    n = sp.dim
    for pt in ((0.2, -0.3, 0.8, 0.5), (-0.1, 0.4, 0.3, -0.9)):
        b = geometry.CurvatureBundle(sp, pt)
        S = b.G[0].space
        ys = [S.variable(n + i, b.G[0].center) for i in range(n)]
        P = (b.G[0] * ys[0] + b.G[1] * ys[1]) / (ys[0] * ys[0]
                                                 + ys[1] * ys[1])
        semi = b.delta_scalar(P)
        for k in range(n):
            assert abs(semi[k].value + (P * P.dy(k)).value) <= 1e-9


# -- round trip ----------------------------------------------------------------


def test_round_trip_mixed_instance() -> None:
    sp = pflat.gen_spray(Q_MIX)
    m = pflat.gen_metric(Q_MIX)
    samples = sampling.draw(sp, 6, 11, None)
    for pt in samples.points():
        b = geometry.CurvatureBundle(sp, pt)
        G_ind = geometry.spray_from_metric(m, pt, 0)
        scale = max(1.0, float(np.max(np.abs(b.G_values))))
        worst = max(abs(g.value - v)
                    for g, v in zip(G_ind, b.G_values))
        assert worst <= 1e-8 * scale
        assert b.Ric_value == pytest.approx(m.value(pt), rel=1e-8)
        assert classify.is_berwald(b).holds
        assert classify.is_projective_form(sp, pt).holds
        dec = classify.decompose_scalar(b)
        assert classify.is_constant(dec, b).holds
        assert classify.projective_isotropy_residual(b) <= 1e-8


def test_round_trip_decide() -> None:
    sp = pflat.gen_spray(Q_MIX)
    m = pflat.gen_metric(Q_MIX)
    v = metrize.decide(sp, count=8, seed=3)
    assert v.outcome == "metrizable_with_metric"
    assert v.rule == "L = Ric/(n-1)"
    for pt in sampling.draw(sp, 4, 19, None).points():
        assert v.recovered_metric.value(pt) == pytest.approx(m.value(pt),
                                                             rel=1e-8)


def test_round_trip_dimension_three() -> None:
    q3 = pflat.QuadraticData(
        A=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        B=(0.0, 0.0, 0.0), C=1.0)
    sp = pflat.gen_spray(q3)
    m = pflat.gen_metric(q3)
    assert sp.dim == 3
    pt = (0.1, -0.2, 0.3, 0.5, 0.7, -0.4)
    b = geometry.CurvatureBundle(sp, pt)
    G_ind = geometry.spray_from_metric(m, pt, 0)
    assert max(abs(g.value - v) for g, v in zip(G_ind, b.G_values)) <= 1e-8
    assert b.Ric_value == pytest.approx(2.0 * m.value(pt), rel=1e-10)
    dec = classify.decompose_scalar(b)
    assert classify.is_constant(dec, b).holds


# -- quadratic structure check -------------------------------------------------


def test_structure_check_quadratic_family() -> None:
    sp = pflat.gen_spray(Q_EQ3)
    chk = pflat.quadratic_structure_check(sp, classified(sp, 8, seed=5))
    assert chk.holds
    assert chk.residual <= 1e-8

    sp2 = pflat.gen_spray(Q_MIX)
    chk2 = pflat.quadratic_structure_check(sp2, classified(sp2, 8, seed=5))
    assert chk2.holds


def test_structure_check_linear_family() -> None:
    sp = pflat.gen_spray(Q_LIN)
    chk = pflat.quadratic_structure_check(sp, classified(sp, 8, seed=5))
    assert chk.holds
    assert chk.residual <= 1e-8


def test_structure_check_exponential_potential() -> None:
    # u = e^{x1}: the factor is -y1/2, every third derivative of u is e^{x1}
    sp = spray_of(EXPFAC)
    chk = pflat.quadratic_structure_check(sp, classified(sp, 8, seed=5))
    assert not chk.holds
    assert chk.residual > 0.5
    v = metrize.decide(sp, count=8, seed=5)
    assert v.outcome == "not_metrizable"


def test_structure_check_preconditions() -> None:
    # the draws and bundles are made outside pytest.raises, so only the
    # check itself can raise
    whirl = spray_of(WHIRL)
    drawn = classified(whirl, 6, seed=5)
    with pytest.raises(PreconditionError):
        pflat.quadratic_structure_check(whirl, drawn)
    pform = spray_of(PFORM)
    drawn = classified(pform, 6, seed=5)
    with pytest.raises(PreconditionError):
        # proportional to y but the base form (x2, 0) has nonzero curl
        pflat.quadratic_structure_check(pform, drawn)
