"""The finite-difference oracle must stand on its own feet.

Taylor2 (batched value/gradient/Hessian forward arithmetic) is checked
against jets on a transcendental expression; the FD curvature reconstruction
is checked against the same frozen symbolic values used in test_geometry,
with no engine code in the loop; finally the jets-vs-FD agreement report is
exercised end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from spraylab import cli, corpus, dsl, geometry, jets, oracle
from spraylab.errors import DomainError

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

ROUND_METRIC = """
dim 2
metric L = ((1 + x1^2 + x2^2)*(y1^2 + y2^2) - (x1*y1 + x2*y2)^2) / (1 + x1^2 + x2^2)^2
"""

PROT = (0.1, -0.2, 3.0, 4.0)
PCUB = (0.2, -0.3, 1.0, 1.0)


def fancy(v):
    x1, x2, y1, y2 = v
    return (
        jets.exp(x1 * y2) * jets.sin(y1)
        + jets.sqrt(3.0 + x2 * x2 * y1)
        - jets.atan(y2 / x2)
        + jets.ln(2.0 + x1 * x1) / (1.0 + y1 * y1 * y2)
    )


def test_taylor2_value_gradient_hessian_match_jets() -> None:
    P = np.array([[0.3, -0.7, 0.4, 1.1], [0.1, -0.4, 0.9, -0.2]])
    t = fancy(oracle.Taylor2.variables(P))
    for b in range(P.shape[0]):
        j = jets.lift(fancy, P[b], 2)
        assert t.val[b] == pytest.approx(j.value, rel=1e-12)
        for v in range(4):
            a = [0, 0, 0, 0]
            a[v] = 1
            assert t.grad[b, v] == pytest.approx(j.partial(a), rel=1e-10, abs=1e-13)
        for v in range(4):
            for w in range(4):
                a = [0, 0, 0, 0]
                a[v] += 1
                a[w] += 1
                assert t.hess[b, v, w] == pytest.approx(
                    j.partial(a), rel=1e-10, abs=1e-12
                )


def test_taylor2_division_power_and_abs() -> None:
    P = np.array([[0.5, 2.0, -0.3, 1.5]])
    x1, x2, y1, y2 = oracle.Taylor2.variables(P)
    w = jets.powi(x2, -2)
    assert w.val[0] == pytest.approx(0.25)
    assert w.grad[0, 1] == pytest.approx(-2.0 / 8.0)
    assert w.hess[0, 1, 1] == pytest.approx(6.0 / 16.0)
    q = jets.absval(y1)
    assert q.val[0] == pytest.approx(0.3)
    assert q.grad[0, 2] == pytest.approx(-1.0)
    r = (2.0 * x1 + 1.0) / y2
    assert r.val[0] == pytest.approx(2.0 / 1.5)
    with pytest.raises(DomainError):
        jets.ln(x1 - 0.5)  # zero value part somewhere in the batch


def test_spray_value_batches_expr_route() -> None:
    sp = geometry.ExprSpray(dsl.parse(ROTOR))
    fn = oracle.spray_values(sp)
    P = np.array([PROT, (0.0, 0.1, 0.6, -0.8), (0.3, 0.3, -1.0, 0.5)])
    V = fn(P)
    assert V.shape == (3, 2)
    for b in range(3):
        want = [g.value for g in sp.coeff_jets(P[b], 1)]
        assert np.allclose(V[b], want, rtol=1e-12)


def test_spray_value_batches_metric_route_is_independent() -> None:
    m = geometry.ExprMetric(dsl.parse(ROUND_METRIC))
    sp = geometry.MetricSpray(m)
    fn = oracle.spray_values(sp)
    rng = np.random.default_rng(5)
    X = rng.uniform(-0.6, 0.6, size=(5, 2))
    Y = rng.uniform(0.2, 1.0, size=(5, 2))
    P = np.concatenate([X, Y], axis=1)
    V = fn(P)
    for b in range(5):
        want = [g.value for g in geometry.spray_from_metric(m, P[b], order=2)]
        assert np.allclose(V[b], want, atol=1e-12)


def test_fd_curvature_matches_frozen_symbolic_values() -> None:
    sp = geometry.ExprSpray(dsl.parse(ROTOR))
    fd = oracle.fd_curvature(sp, PROT)
    assert np.allclose(fd["N"], [[1.2, 4.1], [-3.4, -1.2]], atol=1e-7)
    assert np.allclose(fd["R"], [[16.0, -12.0], [-12.0, 9.0]], atol=5e-5)
    assert fd["Ric"] == pytest.approx(25.0, abs=1e-4)
    assert np.allclose(fd["chi"], [0.0, 0.0], atol=2e-4)
    assert fd["B"][0][0][0][1] == pytest.approx(0.06912, abs=5e-6)

    sp2 = geometry.ExprSpray(dsl.parse(CUBIC))
    fd2 = oracle.fd_curvature(sp2, PCUB)
    assert np.allclose(fd2["R"], [[12.0, -12.0], [12.0, -12.0]], atol=1e-4)
    assert np.allclose(fd2["chi"], [72.0, -72.0], atol=5e-3)


def test_agreement_report_jets_vs_fd() -> None:
    for text, pts in [
        (BALL, [(0.1, -0.2, 0.7, 0.4), (0.2, 0.1, -0.6, 0.9)]),
        (ROTOR, [PROT, (0.3, 0.0, 0.8, -0.9)]),
    ]:
        sp = geometry.ExprSpray(dsl.parse(text))
        rep = oracle.agreement_report(geometry.CurvatureBundle(sp, p) for p in pts)
        for key in ("R", "chi", "B"):
            assert rep[key]["ok"], (key, rep[key])
            assert rep[key]["max_err"] <= rep[key]["worst_tol"]


def test_agreement_report_nan_is_no_agreement() -> None:
    # err > tol is False for a NaN error, which used to leave "ok" true
    b = geometry.CurvatureBundle(geometry.ExprSpray(dsl.parse(ROTOR)), PROT)

    class NanR:
        spray = b.spray
        point = b.point
        R_values = np.full_like(b.R_values, np.nan)
        chi_values = b.chi_values
        B_values = b.B_values

    rep = oracle.agreement_report([NanR()])
    assert not rep["R"]["ok"]
    assert rep["chi"]["ok"] and rep["B"]["ok"]


def test_agreement_report_metric_spray() -> None:
    m = geometry.ExprMetric(dsl.parse(ROUND_METRIC))
    sp = geometry.MetricSpray(m)
    rep = oracle.agreement_report([geometry.CurvatureBundle(sp, (0.2, 0.3, 0.8, -0.5))])
    for key in ("R", "chi", "B"):
        assert rep[key]["ok"], (key, rep[key])


# -- the cached stencil plan ---------------------------------------------------

EDGE = """
dim 2
spray G1 = y1^2 * sqrt(x1 + 0.5)
spray G2 = y2^2 * sqrt(x1 + 0.5)
guard = x1 + 0.45
"""


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("h", [1e-3, 2e-3, 0.37])
def test_grouped_derivatives_equal_stencil_sums(n, h) -> None:
    # the grouped pass must round exactly like a sum over one stencil at a
    # time, term by term in _stencil order
    plan = oracle._fd_plan(n, h)
    rows = {tuple(off): r for r, off in enumerate(plan.offsets)}
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((len(plan.offsets), n)) * 10.0 ** rng.integers(
        -3, 4, size=(len(plan.offsets), 1))
    D = plan.derivatives(vals)
    assert D.shape == (len(plan.keys), n)
    for i, (base, alpha) in enumerate(plan.keys):
        acc = np.zeros(n)
        for off, w in oracle._stencil(alpha, h):
            acc = acc + w * vals[rows[tuple(b + o for b, o in zip(base, off))]]
        assert np.array_equal(D[i], acc), (base, alpha)


def test_plan_arrays_are_read_only() -> None:
    plan = oracle._fd_plan(2, 1e-3)
    arrays = [plan.offsets, plan.shifts, plan.g0, plan.dx, plan.dy,
              plan.mixed, plan.hess, plan.third]
    for idx, W in plan.groups:
        arrays += [idx, W]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0


def test_fd_curvature_repeats_exactly() -> None:
    m = geometry.ExprMetric(dsl.parse(ROUND_METRIC))
    for sp, p in [(geometry.ExprSpray(dsl.parse(BALL)), (0.1, -0.2, 0.7, 0.4)),
                  (geometry.MetricSpray(m), (0.2, 0.3, 0.8, -0.5))]:
        first = oracle.fd_curvature(sp, p)
        second = oracle.fd_curvature(sp, p)
        for key in ("N", "R", "Ric", "chi", "B"):
            assert np.array_equal(first[key], second[key]), key


def test_oracle_pass_builds_two_plans_per_dimension(monkeypatch, tmp_path) -> None:
    # one plan per (dim, h) and one per (dim, 2h), however many points and
    # fixtures; _stencil runs only while a plan is built
    builds = []
    stencils = []
    plan_type = oracle._FdPlan
    stencil = oracle._stencil

    def counting_plan(n, h):
        plan = plan_type(n, h)
        builds.append((n, h, len(plan.keys)))
        return plan

    def counting_stencil(alpha, h):
        stencils.append(alpha)
        return stencil(alpha, h)

    monkeypatch.setattr(oracle, "_FdPlan", counting_plan)
    monkeypatch.setattr(oracle, "_stencil", counting_stencil)
    oracle._fd_plan.cache_clear()
    try:
        dims = set()
        for name in corpus.fixture_names():
            dims.add(corpus.load_fixture(name).build().dim)
            out = tmp_path / f"{name}.json"
            assert cli.main(["oracle", name, "--points", "8",
                             "--out", str(out)]) == 0
    finally:
        oracle._fd_plan.cache_clear()
    assert sorted(b[:2] for b in builds) == sorted(
        (n, h) for n in dims for h in (1e-3, 2e-3))
    assert len(stencils) == sum(keys for _, _, keys in builds)


def test_stencil_leaving_the_domain_raises() -> None:
    # both points satisfy the guard, and the jets are fine at both; the
    # stencil at twice h = 0.05 reaches x1 = -0.54 from the second, where
    # sqrt(x1 + 0.5) is NaN, and NaN compares as within tolerance
    sp = geometry.ExprSpray(dsl.parse(EDGE))
    pts = [(0.2, 0.1, 0.6, 0.8), (-0.44, 0.1, 0.6, 0.8)]
    rep = oracle.agreement_report(
        [geometry.CurvatureBundle(sp, p) for p in pts[:1]], h=0.05)
    assert all(np.isfinite(rep[key]["max_err"]) for key in rep)
    with pytest.raises(DomainError, match=r"\(-0\.44, 0\.1, 0\.6, 0\.8\) with "
                       r"step 0\.1 leaves the spray's domain"):
        oracle.agreement_report(
            (geometry.CurvatureBundle(sp, p) for p in pts), h=0.05)
    # |y| is normalized first, so the error names the normalized point
    with pytest.raises(DomainError, match=r"\(-0\.44, 0\.1, 0\.6, 0\.8\) with "
                       r"step 0\.1 leaves the spray's domain"):
        oracle.fd_curvature(sp, (-0.44, 0.1, 1.2, 1.6), h=0.05)


def test_fd_curvature_builds_one_value_map(monkeypatch) -> None:
    built = []
    spray_values = oracle.spray_values
    monkeypatch.setattr(oracle, "spray_values",
                        lambda sp: built.append(sp) or spray_values(sp))
    oracle.fd_curvature(geometry.ExprSpray(dsl.parse(EDGE)), (0.2, 0.1, 1.2, 1.6))
    assert len(built) == 1
