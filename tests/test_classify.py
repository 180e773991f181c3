"""Pointwise structural classification.

Frozen numbers come from an independent sympy computation (N, Gamma, R from
the curvature formula, covariant derivatives assembled by hand); the closed
forms for the constant-main-scalar metric families were checked the same way
before being trusted here.
"""

from __future__ import annotations

import numpy as np
import pytest

from spraylab import classify, dsl, geometry, sampling
from spraylab.errors import (
    DegenerateMetric,
    DomainError,
    PreconditionError,
    RankError,
    SprayLabError,
)

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

CUBIC = """
dim 2
spray G1 = -3 * y2^2
spray G2 = -2 * y2^3 / y1
guard = y1 - 0.45
"""

BALL = """
dim 2
const c = 2
spray G1 = (-(y1^2 + y2^2)*x1 + c*(x1*y1 + x2*y2)*y1) / (1 - x1^2 - x2^2)
spray G2 = (-(y1^2 + y2^2)*x2 + c*(x1*y1 + x2*y2)*y2) / (1 - x1^2 - x2^2)
guard = 0.7 - x1^2 - x2^2
"""

WHIRL = """
dim 2
spray G1 = x1 * (y1^2 - y2^2)
spray G2 = 2 * x1 * y1 * y2
"""

# G^i = P y^i with P = x1*y1 + x2*y2 (a closed 1-form paired with y)
PROJ = """
dim 2
spray G1 = (x1*y1 + x2*y2) * y1
spray G2 = (x1*y1 + x2*y2) * y2
"""

NONSCALAR3 = """
dim 3
spray G1 = x2 * y3^2
spray G2 = 0
spray G3 = 0
"""

# constant-main-scalar families, beta = p(x) y1, gamma = q(x) y2
CMS19 = """
dim 2
metric L = y1^(2/3) * ((1 + x1 + x2) * y2)^(4/3)
guard = y1 - 0.05
guard = y2 - 0.05
guard = 1 + x1 + x2 - 0.2
"""

CMS19_PLAIN = """
dim 2
metric L = y1^(2/3) * ((1 + x1) * y2)^(4/3)
guard = y1 - 0.05
guard = y2 - 0.05
guard = 1 + x1 - 0.2
"""

PROT = (0.1, -0.2, 3.0, 4.0)
PCUB = (0.2, -0.3, 1.0, 1.0)
PW = (0.3, -0.1, 0.5, 0.2)

# sympy-frozen covariant derivatives
ROTOR_TAU_COV = np.array([[1.2, -3.4], [4.1, -1.2]])
WHIRL_TAU_COV = np.array([[1.2, 0.0], [0.48, 0.0]])


def bundle(src: str, p, consts: dict | None = None) -> geometry.CurvatureBundle:
    sp = geometry.ExprSpray(dsl.parse(src, consts=consts))
    return geometry.CurvatureBundle(sp, geometry.PointTangent(p[:len(p) // 2], p[len(p) // 2:]))


def spray_of(src: str, consts: dict | None = None):
    pd = dsl.parse(src, consts=consts)
    if pd.kind == "metric":
        return geometry.MetricSpray(geometry.ExprMetric(pd))
    return geometry.ExprSpray(pd)


def guarded(sp):
    return lambda pt: all(g > 1e-6 for g in sp.guard_values(pt))


# -- scalar decomposition ------------------------------------------------------


def test_decompose_rotor() -> None:
    dec = classify.decompose_scalar(bundle(ROTOR, PROT))
    assert dec.holds
    assert dec.R == pytest.approx(25.0, abs=1e-10)
    assert np.allclose(dec.tau, [3.0, 4.0], atol=1e-10)
    assert dec.residual <= 1e-8


def test_decompose_flat() -> None:
    dec = classify.decompose_scalar(bundle(FLAT, PROT))
    assert dec.holds
    assert dec.R == 0.0
    assert np.allclose(dec.tau, 0.0)
    assert dec.residual == 0.0


def test_decompose_nonscalar() -> None:
    dec = classify.decompose_scalar(bundle(NONSCALAR3, (0.1, 0.4, -0.2, 0.5, 0.8, 0.9)))
    assert not dec.holds
    assert dec.residual > 1e-3


# -- isotropy ------------------------------------------------------------------


def test_isotropic_rotor_and_whirl() -> None:
    for src, p in ((ROTOR, PROT), (WHIRL, PW), (FLAT, PROT)):
        b = bundle(src, p)
        chk = classify.is_isotropic(classify.decompose_scalar(b), b)
        assert chk.holds
        assert chk.residual <= 1e-8


def test_isotropic_cubic_false() -> None:
    b = bundle(CUBIC, PCUB)
    chk = classify.is_isotropic(classify.decompose_scalar(b), b)
    assert not chk.holds
    # R = 0 and tau = (-12, 12) at y=(1,1): residual is max |0 - 2 tau| = 24,
    # and the chi route must agree: |chi_i|/(n+1) = 72/3 = 24
    assert chk.residual == pytest.approx(24.0, rel=1e-9)


# -- constancy -----------------------------------------------------------------


def test_constant_rotor_false_with_frozen_residuals() -> None:
    b = bundle(ROTOR, PROT)
    chk = classify.is_constant(classify.decompose_scalar(b), b)
    assert not chk.holds
    assert chk.residual == pytest.approx(np.max(np.abs(ROTOR_TAU_COV)), rel=1e-9)
    assert chk.ric_residual == pytest.approx(20.0, rel=1e-9)


def test_constant_whirl_false() -> None:
    b = bundle(WHIRL, PW)
    chk = classify.is_constant(classify.decompose_scalar(b), b)
    assert not chk.holds
    assert chk.residual == pytest.approx(np.max(np.abs(WHIRL_TAU_COV)), rel=1e-9)
    assert chk.ric_residual == pytest.approx(0.696, rel=1e-9)


def test_constant_ball_c2_true_c1_false() -> None:
    b2 = bundle(BALL, (0.1, -0.2, 0.7, 0.4))
    chk2 = classify.is_constant(classify.decompose_scalar(b2), b2)
    assert chk2.holds and chk2.residual <= 1e-8

    b1 = bundle(BALL, (0.1, -0.2, 0.7, 0.4), consts={"c": 1.0})
    chk1 = classify.is_constant(classify.decompose_scalar(b1), b1)
    assert not chk1.holds


def test_constant_flat_true() -> None:
    b = bundle(FLAT, PROT)
    chk = classify.is_constant(classify.decompose_scalar(b), b)
    assert chk.holds
    assert chk.ric_residual is None  # Ric = 0, the equivalent test is skipped


def test_cubic_not_constant() -> None:
    b = bundle(CUBIC, PCUB)
    chk = classify.is_constant(classify.decompose_scalar(b), b)
    assert not chk.holds
    assert chk.residual == pytest.approx(144.0, rel=1e-9)


def test_constant_implies_isotropic() -> None:
    b = bundle(BALL, (0.1, -0.2, 0.7, 0.4))
    dec = classify.decompose_scalar(b)
    assert classify.is_constant(dec, b).holds
    assert abs(b.Ric_value) > 1.0
    assert classify.is_isotropic(dec, b).holds


# -- berwald and projective form -----------------------------------------------


def test_berwald() -> None:
    assert classify.is_berwald(bundle(WHIRL, PW)).holds
    assert classify.is_berwald(bundle(BALL, (0.1, -0.2, 0.7, 0.4))).holds
    assert classify.is_berwald(bundle(FLAT, PROT)).holds
    rot = classify.is_berwald(bundle(ROTOR, PROT))
    assert not rot.holds
    assert rot.residual > 0.01


def classified_at(src: str, p) -> classify.ClassificationReport:
    """The classification of the spray at the one sample p."""
    n = len(p) // 2
    one = sampling.SampleSet(np.array([p[:n]], dtype=float),
                             np.array([[p[n:]]], dtype=float))
    return classify.classify_samples(spray_of(src), one)


def test_projective_form() -> None:
    assert not classified_at(WHIRL, PW).flags["projective_form"]

    flat = classified_at(FLAT, PROT)
    assert flat.flags["projective_form"]
    assert classify.projective_factor(flat.triples[0][1]).value == pytest.approx(
        0.0, abs=1e-12)

    p = (0.3, -0.2, 0.7, 0.5)
    proj = classified_at(PROJ, p)
    assert proj.flags["projective_form"]
    assert classify.projective_factor(proj.triples[0][1]).value == pytest.approx(
        0.3 * 0.7 - 0.2 * 0.5, rel=1e-12)

    assert not classified_at(ROTOR, PROT).flags["projective_form"]


# G^i = P y^i with P = x2*y1: the factor pairs a non-closed form with y, so
# tau does not vanish and the gradient identity is exercised off-trivially
PFORM = """
dim 2
spray G1 = (x2*y1) * y1
spray G2 = (x2*y1) * y2
"""

PP = (0.2, -0.4, 0.8, 0.5)


def test_projective_gradient_identity_pform() -> None:
    b = bundle(PFORM, PP)
    dec = classify.decompose_scalar(b)
    assert dec.holds
    assert dec.R == pytest.approx(-0.2976, abs=1e-10)
    assert np.allclose(dec.tau, [0.628, -1.6], atol=1e-10)
    # both sides evaluate to (-3 y2, 3 y1); frozen from the sympy run
    grad = [dec.R_jet.dy(i).value - 2.0 * dec.tau_jets[i].value
            for i in range(2)]
    assert np.allclose(grad, [-1.5, 2.4], atol=1e-10)
    assert np.allclose(b.chi_values, [-4.5, 7.2], atol=1e-9)
    assert classify.projective_isotropy_residual(b) <= 1e-8


def test_projective_gradient_identity_proj_family() -> None:
    assert classify.projective_isotropy_residual(bundle(PROJ, PROT)) <= 1e-8
    assert classify.projective_isotropy_residual(
        bundle(PROJ, (0.3, -0.2, 0.7, 0.5))) <= 1e-8


def test_projective_gradient_identity_needs_form() -> None:
    with pytest.raises(PreconditionError):
        classify.projective_isotropy_residual(bundle(ROTOR, PROT))


# -- homogeneity ---------------------------------------------------------------


def test_euler_degrees() -> None:
    b = bundle(ROTOR, PROT)
    Rj, tau, _ = b.split
    assert classify.euler_residual(Rj, 2) <= 1e-9
    for t in tau:
        assert classify.euler_residual(t, 1) <= 1e-9


# -- weak isotropy -------------------------------------------------------------


def fit_residual(rep) -> float:
    """The worst least-squares residual of the weak-isotropy fit over the
    report's bases, without the antisymmetry defect `residuals` adds."""
    n = rep.samples.bases.shape[1]
    m = rep.samples.ys.shape[1]
    worst = 0.0
    for b, (_, Yd) in enumerate(rep.samples.grouped()):
        rows = np.array([[dec.R_jet.dy(i).value for i in range(n)] - 2.0 * dec.tau
                         for _, _, dec in rep.triples[b * m:(b + 1) * m]])
        worst = max(worst, classify._fit_base_omega(Yd, rows, sampling.TOL)[1])
    return worst


def test_weak_isotropy_isotropic_fixture() -> None:
    rep = classify.classify_spray(spray_of(ROTOR), count=8, seed=7)
    assert rep.flags["weak_isotropic"]
    assert np.max(np.abs(rep.omega)) <= 1e-7


def test_weak_isotropy_cms19() -> None:
    sp = spray_of(CMS19)
    box = sampling.SampleBox(-0.3, 0.5, 0.1, 1.0)
    rep = classify.classify_spray(sp, count=8, seed=7, box=box)
    assert rep.flags["weak_isotropic"]
    for xb, wb in zip(rep.bases, rep.omega):
        q = 1.0 + xb[0] + xb[1]
        assert wb[0, 1] == pytest.approx(1.0 / q**2, rel=1e-6)
        assert wb[1, 0] == pytest.approx(-1.0 / q**2, rel=1e-6)


def test_weak_isotropy_cms19_plain_params_gives_zero_form() -> None:
    sp = spray_of(CMS19_PLAIN)
    box = sampling.SampleBox(-0.3, 0.5, 0.1, 1.0)
    rep = classify.classify_spray(sp, count=4, seed=11, box=box)
    assert rep.flags["weak_isotropic"]
    assert np.max(np.abs(rep.omega)) <= 1e-7


def test_weak_isotropy_cubic_fit_fails() -> None:
    rep = classify.classify_spray(spray_of(CUBIC), count=8, seed=7)
    assert rep.flags["scalar"]
    assert not rep.flags["weak_isotropic"]
    assert rep.omega is None
    assert fit_residual(rep) > 1e-2


def test_weak_isotropy_rank_error() -> None:
    sp = spray_of(ROTOR)
    xb = np.array([0.1, -0.2])
    Yd = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [0.5, 0.5]])
    rows = np.empty((len(Yd), 2))
    for k, y in enumerate(Yd):
        b = geometry.CurvatureBundle(sp, np.concatenate([xb, y]), 4)
        dec = classify.decompose_scalar(b)
        rows[k] = [dec.R_jet.dy(i).value for i in range(2)] - 2.0 * dec.tau
    with pytest.raises(RankError):
        classify._fit_base_omega(Yd, rows, sampling.TOL)


def test_weak_isotropy_needs_scalar() -> None:
    # no fit is taken: the defect is undefined where the split fails
    rep = classify.classify_spray(spray_of(NONSCALAR3), count=6, seed=7)
    assert not rep.flags["scalar"]
    assert not any(pt["weak_isotropic"] for pt in rep.per_point)
    assert np.isnan(rep.residuals["weak_isotropic"])
    assert rep.omega is None


# -- whole-spray reports ---------------------------------------------------------


def test_report_rotor() -> None:
    rep = classify.classify_spray(spray_of(ROTOR), count=16, seed=7)
    assert rep.flags == {
        "scalar": True,
        "isotropic": True,
        "constant": False,
        "berwald": False,
        "projective_form": False,
        "weak_isotropic": True,
    }
    assert rep.residuals["scalar"] <= 1e-8
    assert rep.residuals["berwald"] > 0.01
    assert rep.count == 16
    assert len(rep.per_point) == 16
    assert all(pt["scalar"] for pt in rep.per_point)
    assert any("chart" in note for note in rep.notes)


def test_report_proj_family() -> None:
    rep = classify.classify_spray(spray_of(PROJ), count=8, seed=7)
    assert rep.flags["berwald"]
    assert rep.flags["projective_form"]
    assert rep.flags["scalar"]


def test_report_closed_factor_self_check() -> None:
    # Berwald + projective form + isotropic all hold for the degenerate
    # quadratic-potential spray, which routes the report through the
    # closed-factor cross-check; the factor there is a gradient, so the
    # check must come back quiet instead of raising.
    degen = """
    dim 2
    spray G1 = -((x1*y1 + x2*y2) / (x1^2 + x2^2)) * y1
    spray G2 = -((x1*y1 + x2*y2) / (x1^2 + x2^2)) * y2
    guard = x1^2 + x2^2 - 0.04
    """
    rep = classify.classify_spray(spray_of(degen), count=10, seed=7)
    assert rep.flags["berwald"]
    assert rep.flags["projective_form"]
    assert rep.flags["isotropic"]
    assert rep.flags["constant"]


def test_report_closed_factor_self_check_fires(monkeypatch) -> None:
    # P = x2*y1 is not closed (curl 1), so this Berwald spray in projective
    # form is not isotropic.  An isotropy test that wrongly passed it must
    # trip the closed-factor cross-check instead of yielding a report.
    sp = spray_of("""
    dim 2
    spray G1 = x2*y1*y1
    spray G2 = x2*y1*y2
    """)
    # the 8 samples are one block: the stub gets their decompositions and
    # gives one Check per row
    monkeypatch.setattr(classify, "is_isotropic",
                        lambda decs, bundle, tol=sampling.TOL:
                        [classify.Check(holds=True, residual=0.0)] * len(decs))
    with pytest.raises(SprayLabError, match="closed projective factor"):
        classify.classify_spray(sp, count=8, seed=7)


def test_report_nonscalar() -> None:
    rep = classify.classify_spray(spray_of(NONSCALAR3), count=6, seed=7)
    assert not rep.flags["scalar"]
    assert not rep.flags["weak_isotropic"]
    assert rep.omega is None


def test_report_h_coupling_matches_isotropy() -> None:
    # the H-family skew part equals (n+1)/3 times the tau-curl, so a spray
    # failing isotropy through tau shows it in H as well (and conversely)
    for src, p, iso in ((ROTOR, PROT, True), (CUBIC, PCUB, False)):
        b = bundle(src, p)
        h = geometry.h_tensors(b)
        skew = float(np.max(np.abs(h.Hij - h.Hij.T)))
        chk = classify.is_isotropic(classify.decompose_scalar(b), b)
        assert chk.holds == iso
        if iso:
            assert skew <= 1e-8
        else:
            assert skew > 1e-3


def test_rflat_iff_h_vanishes() -> None:
    for src, p, flat in ((FLAT, PROT, True), (CUBIC, PCUB, False), (ROTOR, PROT, False)):
        b = bundle(src, p)
        h = geometry.h_tensors(b)
        assert (np.max(np.abs(h.Hij)) <= 1e-9) == flat
        assert (np.max(np.abs(b.R_values)) <= 1e-9) == flat


# G1 is evaluated before G2, so a block fails first in G1, at whichever row
# that is, while point by point the earliest failing sample fails first
TWO_DOMAINS = """
dim 2
spray G1 = ln(x1) * y1^2
spray G2 = sqrt(x2) * y2^2
"""

# singular where x1 = 0; the square root fails where x2 < 0, before the
# fundamental tensor exists
DEGENERATE_ROW = """
dim 2
metric L = x1 * (y1^2 + y2^2) + sqrt(x2) * y1^2
"""


def _samples_at(bases) -> sampling.SampleSet:
    """One sample per base, all with the tangent (0.7, 0.7)."""
    bases = np.array(bases, dtype=float)
    return sampling.SampleSet(bases, np.full((len(bases), 1, 2), 0.7))


def test_point_bundles_raise_the_earliest_sample_error() -> None:
    spray = geometry.ExprSpray(dsl.parse(TWO_DOMAINS))
    # sample 1 is fine, sample 2 fails in G2, sample 3 in G1
    samples = _samples_at([[0.5, 0.5], [0.5, -0.2], [-0.3, 0.5]])
    with pytest.raises(DomainError, match="ln of jet"):
        geometry.CurvatureBundle(spray, samples.points(), 4).rows()
    gen = classify.point_bundles(spray, samples)
    pt, b, dec = next(gen)
    assert np.array_equal(pt, samples.points()[0])
    assert dec.holds and b.point == geometry.CurvatureBundle(spray, pt).point
    with pytest.raises(DomainError, match="sqrt of jet with value part -0.2"):
        next(gen)


def test_point_bundles_raise_a_degenerate_metric_before_a_later_domain_error() -> None:
    metric = geometry.ExprMetric(dsl.parse(DEGENERATE_ROW))
    spray = geometry.MetricSpray(metric)
    # sample 1 has a singular fundamental tensor; sample 2 fails earlier in
    # its own evaluation, in the square root
    samples = _samples_at([[0.0, 0.25], [1.0, -0.2]])
    with pytest.raises(DomainError, match="sqrt of jet"):
        geometry.spray_from_metric(metric, samples.points(), 4)
    with pytest.raises(DegenerateMetric, match="numerically singular"):
        list(classify.point_bundles(spray, samples))


def test_block_rank_check_names_the_first_degenerate_row() -> None:
    metric = geometry.ExprMetric(dsl.parse(DEGENERATE_ROW))
    pts = _samples_at([[1.0, 0.25], [0.0, 0.25], [0.0, 0.64]]).points()
    messages = []
    for pt in pts[1:]:
        with pytest.raises(DegenerateMetric) as err:
            geometry.spray_from_metric(metric, pt, 2)
        messages.append(str(err.value))
    assert messages[0] != messages[1]
    with pytest.raises(DegenerateMetric) as err:
        geometry.spray_from_metric(metric, pts, 2)
    assert str(err.value) == messages[0]
