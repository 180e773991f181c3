"""The finite-difference oracle must stand on its own feet.

Taylor2 (batched forward arithmetic on the value, the gradient and the
Hessian's y-columns) is checked against jets on a transcendental
expression; the FD curvature reconstruction is checked against the same
frozen symbolic values used in test_geometry, with no engine code in the
loop; finally the jets-vs-FD agreement report is exercised end to end.  The FD tensors are pinned as float.hex, from point
calls and from block calls, and a block raises the error of its first
failing point.
"""

from __future__ import annotations

import json
from pathlib import Path

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
        # the Hessian's y-columns: hess[b, v, w] = d2/dz^v dy^w
        assert t.hess.shape == (2, 4, 2)
        for v in range(4):
            for w in range(2):
                a = [0, 0, 0, 0]
                a[v] += 1
                a[2 + w] += 1
                assert t.hess[b, v, w] == pytest.approx(
                    j.partial(a), rel=1e-10, abs=1e-12
                )


def test_taylor2_division_power_and_abs() -> None:
    P = np.array([[0.5, 2.0, -0.3, 1.5]])
    x1, x2, y1, y2 = oracle.Taylor2.variables(P)
    w = jets.powi(x2, -2)
    assert w.val[0] == pytest.approx(0.25)
    assert w.grad[0, 1] == pytest.approx(-2.0 / 8.0)
    assert not w.hess.any()  # d2/dx2 dx2 is not a y-column
    w = jets.powi(y2, -2)
    assert w.val[0] == pytest.approx(1.0 / 1.5**2)
    assert w.grad[0, 3] == pytest.approx(-2.0 / 1.5**3)
    assert w.hess[0, 3, 1] == pytest.approx(6.0 / 1.5**4)
    assert np.count_nonzero(w.hess) == 1
    q = jets.absval(y1)
    assert q.val[0] == pytest.approx(0.3)
    assert q.grad[0, 2] == pytest.approx(-1.0)
    r = (2.0 * x1 + 1.0) / y2
    assert r.val[0] == pytest.approx(2.0 / 1.5)
    with pytest.raises(DomainError):
        jets.ln(x1 - 0.5)  # zero value part somewhere in the batch


def test_taylor2_integral_float_power_is_an_integer_power() -> None:
    # y1 < 0: exp(2 ln y1) would raise, and a jet gives the square
    P = np.array([[0.5, 2.0, -0.3, 1.5]])
    y1 = oracle.Taylor2.variables(P)[2]
    t = y1 ** 2.0
    j = jets.lift(lambda v: v[2] ** 2.0, P[0], 2)
    assert t.val[0] == j.value == 0.3 * 0.3
    assert t.grad[0, 2] == j.partial((0, 0, 1, 0)) == -0.6
    assert t.hess[0, 2, 0] == j.partial((0, 0, 2, 0)) == 2.0
    want = y1 ** 2
    for a, b in ((t.val, want.val), (t.grad, want.grad), (t.hess, want.hess)):
        assert a.tobytes() == b.tobytes()
    assert (y1 ** -1.0).val[0] == 1.0 / -0.3


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
        _pa = b._pa
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


def test_fd_curvature_refuses_an_empty_block() -> None:
    # a (0, 4) block used to end in an IndexError
    spray = corpus.load_fixture("ex7.3").build()
    with pytest.raises(DomainError, match=r"^expected at least one point, got shape "
                       r"\(0, 4\)$"):
        oracle.fd_curvature(spray, np.empty((0, 4)))


def test_fd_curvature_builds_one_value_map(monkeypatch) -> None:
    built = []
    spray_values = oracle.spray_values
    monkeypatch.setattr(oracle, "spray_values",
                        lambda sp: built.append(sp) or spray_values(sp))
    oracle.fd_curvature(geometry.ExprSpray(dsl.parse(EDGE)), (0.2, 0.1, 1.2, 1.6))
    assert len(built) == 1


# -- the finite-difference bits, pinned ------------------------------------------

# float.hex of fd_curvature's tensors at chosen points of an expression
# spray (ex7.1, its seed-7 samples 0-15), a metric spray (elliptic2) and its
# projective shift, at the default step and at --fd-step 0.01; recorded
# with `fd_hex`, one point per call, before fd_curvature took blocks.  The
# cms19, cms20 and cms21 cases (seed-7 samples 0-3) and cms20's shift
# (seed-3 samples 0-3) were recorded before Taylor2 kept only the Hessian's
# y-columns: they take ln, exp, atan, real powers and constant factors
# through the metric route.
FD_HEX = Path(__file__).resolve().parent / "data" / "fd_curvature_hex.json"
FD_KEYS = ("N", "R", "Ric", "chi", "B")


def fd_sprays() -> dict:
    """The sprays the record pins, by its labels."""
    out = {"ex7.1": corpus.load_fixture("ex7.1").build()}
    for name in ("elliptic2", "cms19", "cms20", "cms21"):
        out[name] = corpus.load_fixture(name).build()
    for name in ("elliptic2", "cms20"):
        fixture = corpus.load_fixture(name)
        out[f"{name} shifted by 0.5"] = geometry.ShiftedSpray(
            fixture.build(), fixture.metric(), 0.5)
    return out


def fd_hex(fd: dict) -> dict:
    """One point's FD tensors, flattened, as float.hex."""
    return {key: [float(v).hex() for v in np.ravel(fd[key])] for key in FD_KEYS}


def fd_record_cases():
    rec = json.loads(FD_HEX.read_text())
    sprays = fd_sprays()
    for case in rec["cases"]:
        pts = np.array([[float.fromhex(v) for v in p] for p in case["points"]])
        yield sprays[case["spray"]], pts, case["h"], case["fd"]


def test_fd_curvature_bits_match_the_record() -> None:
    for spray, pts, h, want in fd_record_cases():
        assert [fd_hex(oracle.fd_curvature(spray, p, h=h)) for p in pts] == want


def test_fd_record_holds_a_point_where_lam_squared_rounds_two_ways() -> None:
    # ex7.1's seed-7 sample 11: x*x and x**2 differ in the last bit at this
    # |y|, so R and Ric move if the rescale squares |y| another way
    spray, pts, _, _ = next(fd_record_cases())
    lam = float(np.linalg.norm(pts[11, 2:]))
    assert lam == 0.2599902520886824
    assert lam * lam != lam ** 2


def test_block_fd_curvature_rows_match_the_record() -> None:
    for spray, pts, h, want in fd_record_cases():
        fd = oracle.fd_curvature(spray, pts, h=h)
        assert [fd_hex({key: fd[key][r] for key in FD_KEYS})
                for r in range(len(pts))] == want


# -- blocks: the first failing point decides the error ----------------------------

RAGGED = """
dim 2
spray G1 = y1^2 * sqrt(x1 + 0.5) + x2 * y1
spray G2 = y2^2 * sqrt(x1 + 0.5)
"""

# at h = 0.05: a point whose coefficients are not 2-homogeneous (x2 != 0
# and |y| != 1), one whose stencil at h leaves the domain x1 > -0.5, and
# one whose stencil leaves it only at 2h
RAGGED_POINTS = {
    "homogeneity": ((0.2, 0.3, 1.2, 1.6), r"not positively 2-homogeneous"),
    "h": ((-0.47, 0.0, 0.6, 0.8), r"\(-0\.47, 0, 0\.6, 0\.8\) with step 0\.05 leaves"),
    "2h": ((-0.44, 0.0, 0.6, 0.8), r"\(-0\.44, 0, 0\.6, 0\.8\) with step 0\.1 leaves"),
}


def first_error(spray, pts, h) -> str:
    """The error of the first point whose own fd_curvature call fails."""
    for p in pts:
        try:
            oracle.fd_curvature(spray, p, h=h)
        except DomainError as exc:
            return str(exc)
    raise AssertionError("no point fails")


@pytest.mark.parametrize("order", [("2h", "h"), ("2h", "homogeneity"),
                                   ("h", "homogeneity"), ("homogeneity", "h"),
                                   ("h", "2h")])
def test_block_raises_the_error_of_its_first_failing_point(order) -> None:
    # the block evaluates every point's homogeneity pair, then every h
    # stencil, then every 2h stencil, so on its own it would meet a later
    # point's error first in three of these orders
    sp = geometry.ExprSpray(dsl.parse(RAGGED))
    pts = np.array([(0.2, 0.0, 0.6, 0.8)] + [RAGGED_POINTS[k][0] for k in order])
    with pytest.raises(DomainError, match=RAGGED_POINTS[order[0]][1]) as info:
        oracle.fd_curvature(sp, pts, h=0.05)
    assert str(info.value) == first_error(sp, pts, 0.05)


ISLAND = """
dim 2
metric L = (y1^2 + y2^2) * exp(1/(x1 + 0.5)) * sqrt(x2)
"""

# at h = 0.05: the stencils of "sqrt" and "reciprocal" make Taylor2 raise
# for the whole batch; at 2h the one of "leaves" reaches x1 + 0.5 = 7e-4,
# where exp overflows and G is not finite, which Taylor2 does not catch
ISLAND_POINTS = {
    "ok": (0.2, 0.5, 0.6, 0.8),
    "sqrt": (0.2, 0.03, 0.6, 0.8),
    "reciprocal": (-0.45, 0.5, 0.6, 0.8),
    "leaves": (-0.3993, 0.5, 0.6, 0.8),
}


@pytest.mark.parametrize("order, match", [
    (("ok", "sqrt", "reciprocal"), "sqrt of a nonpositive value"),
    (("ok", "reciprocal", "sqrt"), "reciprocal of a value hitting zero"),
    (("leaves", "sqrt"), r"\(-0\.3993, 0\.5, 0\.6, 0\.8\) with step 0\.1 leaves"),
])
def test_block_whose_value_map_raises_is_run_point_by_point(order, match) -> None:
    sp = geometry.MetricSpray(geometry.ExprMetric(dsl.parse(ISLAND)))
    pts = np.array([ISLAND_POINTS[k] for k in order])
    with pytest.raises(DomainError, match=match) as info:
        oracle.fd_curvature(sp, pts, h=0.05)
    assert str(info.value) == first_error(sp, pts, 0.05)


def test_agreement_report_compares_what_it_read_before_the_stream_fails(
        monkeypatch) -> None:
    sp = geometry.ExprSpray(dsl.parse(EDGE))

    def stream(pts):
        for p in pts:
            yield geometry.CurvatureBundle(sp, p)
        raise DomainError("the stream failed")

    # the bundle read first leaves the domain at 2h: its error comes
    # before the stream's, as when each bundle was compared on its own
    with pytest.raises(DomainError, match=r"step 0\.1 leaves the spray's domain"):
        oracle.agreement_report(stream([(0.2, 0.1, 0.6, 0.8),
                                        (-0.44, 0.1, 0.6, 0.8)]), h=0.05)
    rows = []
    fd_curvature = oracle.fd_curvature
    monkeypatch.setattr(oracle, "fd_curvature",
                        lambda sp, p, h: rows.append(len(p)) or fd_curvature(sp, p, h))
    with pytest.raises(DomainError, match="the stream failed"):
        oracle.agreement_report(stream([(0.2, 0.1, 0.6, 0.8)]), h=0.05)
    assert rows == [1]


def test_agreement_report_takes_one_call_per_block_of_one_spray(monkeypatch) -> None:
    ball = geometry.ExprSpray(dsl.parse(BALL))
    rotor = geometry.ExprSpray(dsl.parse(ROTOR))
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.uniform(-0.3, 0.3, (40, 2)),
                          rng.uniform(0.5, 1.0, (40, 2))], axis=1)
    # three block bundles of the ball, a point bundle of the rotor between
    # two of them, and five point bundles of the rotor
    parts = [(ball, pts[:16]), (ball, pts[16:20]), (rotor, pts[0]), (ball, pts[20:35])]
    parts += [(rotor, p) for p in pts[35:]]
    calls = []
    fd_curvature = oracle.fd_curvature
    monkeypatch.setattr(oracle, "fd_curvature",
                        lambda sp, p, h: calls.append((sp, len(p))) or fd_curvature(sp, p, h))
    report = oracle.agreement_report(geometry.CurvatureBundle(sp, p) for sp, p in parts)
    assert calls == [(ball, 16), (ball, 4), (rotor, 1), (ball, 15)] + [(rotor, 1)] * 5
    # the same table as one bundle per call, each built at its point alone,
    # compared in the same order
    calls.clear()
    points = [(sp, pt) for sp, p in parts for pt in np.reshape(p, (-1, 4))]
    one_by_one = [oracle.agreement_report([geometry.CurvatureBundle(sp, pt)])
                  for sp, pt in points]
    assert len(calls) == len(points) == 41
    for key, entry in report.items():
        assert entry["ok"] == all(r[key]["ok"] for r in one_by_one)
        worst = max(one_by_one, key=lambda r: r[key]["max_err"] - r[key]["worst_tol"])
        assert (entry["max_err"], entry["worst_tol"]) == (
            worst[key]["max_err"], worst[key]["worst_tol"])
