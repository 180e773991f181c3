"""Block calls against the row loops they replaced.

The command path takes one numpy call per block where it took one per
row: `geometry.split_holds` takes every row's scale with one row max,
the rank checks of `geometry._fundamental_jets`, `metrize._finsler_rows`
and the weak-isotropy fit take one stacked SVD (`geometry.singular_values`),
`identity_residuals` contracts R^i_k and tau_k with y in one stacked
matmul each, and `oracle.agreement_report` takes each block's errors and
tolerances at once and folds each row's worst spot into the report in row
order.  The loops they replaced are kept below as references.  Each block
call gives what its loop gives, value bits and Python types, or the same
error: at points, at blocks of 1 and 64 rows of every fixture's samples,
at blocks with non-finite rows, and at blocks whose failing row is not the
first.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from spraylab import classify, corpus, dsl, geometry, metrize, oracle
from spraylab.classify import bundle_rows
from spraylab.errors import DegenerateMetric
from spraylab.sampling import TOL


# -- the row loops -------------------------------------------------------------


def loop_split_holds(bundle, tol=TOL) -> list:
    residuals = np.reshape(bundle.split_values[2], -1)
    R_values = bundle.R_values.reshape(len(residuals), -1)
    return [tol.zero(float(res), float(np.max(np.abs(Rv))))
            for res, Rv in zip(residuals, R_values)]


def loop_contractions(bundle) -> list:
    """(R^i_k y^k, and tau_k y^k - R where the split holds) per row."""
    n = bundle.dim
    y = bundle.yvals.reshape(-1, n)
    rows = len(y)
    R_values = bundle.R_values.reshape(rows, n, n)
    out = [[float(np.max(np.abs(R_values[r] @ y[r])))] for r in range(rows)]
    holds = loop_split_holds(bundle)
    if any(holds):
        Rj, tau, _ = bundle.splits
        Rv = np.reshape(Rj.value, -1)
        tau_vals = geometry._stack_values(np.array([u.coeffs for u in tau]), 1).reshape(rows, n)
        for r in np.flatnonzero(holds):
            out[r].append(float(abs(tau_vals[r] @ y[r] - Rv[r])))
    return out


def loop_fundamental_jets(metric, pa, order, tol=TOL):
    Lj = metric.jet(pa, order + 2)
    n, tail = metric.dim, pa.ndim
    sp = Lj.space
    _dys, _lower = geometry._dys, geometry._lower
    dl = _dys(sp, Lj.coeffs, n, tail)
    hessian = _dys(_lower(sp), dl, n, tail)
    stack = np.empty(hessian.shape)
    for i in range(n):
        for j in range(i, n):
            stack[i, j] = stack[j, i] = hessian[i, j] * 0.5
    vals = geometry._stack_values(stack, 2)
    for v in (vals if vals.ndim == 3 else (vals,)):
        s = np.linalg.svd(v, compute_uv=False)
        if s[-1] <= tol.rank * s[0] or s[0] == 0.0:
            raise DegenerateMetric(
                f"fundamental tensor of {metric.name!r} is numerically singular "
                f"(singular values {s})"
            )
    return Lj, dl, (_lower(_lower(sp)), stack), vals


def loop_finsler_rows(field_obj, p, tol=TOL) -> list:
    n = field_obj.dim
    S = field_obj.jet(p, 2)
    euler = np.reshape(classify.euler_residual(S, 2), -1).tolist()
    scales = np.reshape(S.value, -1).tolist()
    H = np.empty(S.coeffs.shape[:-1] + (n, n))
    for i in range(n):
        di = S.dy(i)
        for j in range(n):
            H[..., i, j] = 0.5 * di.dy(j).value
    out = []
    for e, v, h in zip(euler, scales, H.reshape(-1, n, n)):
        sv = np.linalg.svd(h, compute_uv=False)
        ratio = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
        fails = ratio < tol.rank or not tol.zero(e, max(1.0, abs(v)))
        out.append((e, ratio, not fails))
    return out


def loop_fd_rows(b, h: float) -> list:
    """`fd_curvature`'s tensors, one dict per row of the bundle's points;
    a point bundle is a block of one row."""
    P = np.atleast_2d(b._pa)
    fd = oracle.fd_curvature(b.spray, P, h=h)
    return [{key: v[r] for key, v in fd.items()} for r in range(len(P))]


def loop_agreement_report(bundles, h: float = 1e-3) -> dict:
    report = {
        key: {"max_err": 0.0, "worst_tol": float("inf"), "ok": True}
        for key in ("R", "chi", "B")
    }
    for b in bundles:
        for r, fd in enumerate(bundle_rows(loop_fd_rows, b, h)):
            for key, name in (("R", "R_values"), ("chi", "chi_values"),
                              ("B", "B_values")):
                got = np.reshape(getattr(b, name), (-1,) + fd[key].shape)[r]
                err = np.abs(got - fd[key])
                tol = np.maximum(1e-5, 1e-4 * np.abs(got))
                k = np.unravel_index(np.argmax(err - tol), err.shape)
                entry = report[key]
                if err[k] - tol[k] > entry["max_err"] - entry["worst_tol"]:
                    entry["max_err"] = float(err[k])
                    entry["worst_tol"] = float(tol[k])
                if not np.all(err <= tol):
                    entry["ok"] = False
    return report


# -- helpers -------------------------------------------------------------------


def bits(obj):
    """Floats as (type, float.hex); containers and other values as they are."""
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.tobytes())
    if isinstance(obj, float):
        return type(obj), obj.hex()
    return type(obj), obj


def outcome(fn):
    """bits(fn()), or the type and text of the error it raises."""
    with np.errstate(all="ignore"):
        try:
            return bits(fn())
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"


@functools.lru_cache(maxsize=None)
def fixture_blocks(name: str) -> tuple:
    """The 64-row block bundle of the fixture's default classification."""
    fx = corpus.load_fixture(name)
    rep = classify.classify_spray(fx.build(), count=64, seed=7, box=fx.box)
    (points, b, _), = rep.blocks
    return points, b


def shapes(name: str) -> list:
    """The fixture's 64-row block bundle, a one-row block bundle and a
    point bundle at its third sample."""
    points, b = fixture_blocks(name)
    return [b, geometry.CurvatureBundle(b.spray, points[2:3]),
            geometry.CurvatureBundle(b.spray, points[2])]


# x1 = 0, x2 = 0 makes g vanish; x1 = 0.9 overflows L's y1^2 coefficient,
# so g holds an inf and a nan, and an SVD of it raises LinAlgError
ROUGH_METRIC = """
dim 2
metric L = x2*(y1^2 + y2^2) + (1e160*x1)^2 * y1^2
"""
ROUGH_ROWS = {"ok": (0.0, 0.5, 0.6, 0.8), "ok2": (1e-170, 0.3, -0.6, 0.8),
              "singular": (0.0, 0.0, 0.6, 0.8), "nan": (0.9, 0.5, 0.6, 0.8)}
ROUGH_ORDERS = [("ok", "ok2"), ("ok", "singular", "nan"), ("ok", "nan", "singular"),
                ("ok", "ok2", "singular", "ok"), ("nan",), ("singular",)]

# the overflow reaches R at x1 = 0.9 as a nan
ROUGH_SPRAY = """
dim 2
spray G1 = 1e200 * x1 * y1^2
spray G2 = y2^2 * x2
"""


def rough_points(order) -> np.ndarray:
    return np.array([ROUGH_ROWS[k] for k in order])


# -- the scalar split and the contractions --------------------------------------


@pytest.mark.parametrize("name", corpus.fixture_names())
def test_split_holds_and_contractions_equal_the_row_loops(name) -> None:
    for b in shapes(name):
        assert bits(geometry.split_holds(b)) == bits(loop_split_holds(b))
        got = [[res["curvature_contraction"]] + ([res["tau_trace"]] if "tau_trace" in res else [])
               for res in geometry.identity_residuals(b)]
        assert bits(got) == bits(loop_contractions(b))


def test_split_holds_and_contractions_at_non_finite_rows() -> None:
    spray = geometry.spray_of(dsl.parse(ROUGH_SPRAY))
    pts = np.array([[0.0, 0.2, 0.6, 0.8], [0.9, 0.2, 0.6, 0.8], [0.0, 0.3, 0.6, -0.8]])
    with np.errstate(all="ignore"):
        b = geometry.CurvatureBundle(spray, pts)
        assert np.isnan(b.R_values[1]).any()
        assert bits(geometry.split_holds(b)) == bits(loop_split_holds(b)) == \
            bits([True, False, True])
        got = [[res["curvature_contraction"]] + ([res["tau_trace"]] if "tau_trace" in res else [])
               for res in geometry.identity_residuals(b)]
        assert bits(got) == bits(loop_contractions(b))

    class Values:  # the two arrays `split_holds` reads, with inf and nan rows
        R_values = np.array([[[1.0, -2.0], [0.5, 0.0]], [[np.inf, 0.0], [0.0, 1.0]],
                             [[np.nan, 3.0], [0.0, 1.0]], [[-np.inf, np.nan], [0.0, 0.0]],
                             [[1e-300, 0.0], [0.0, -0.0]]])
        split_values = (None, None, np.array([1e-9, 1e300, 0.0, 0.0, np.nan]))

    # residuals between the thresholds of max |R| and of max R
    Values.R_values = np.concatenate(
        [Values.R_values, [[[-1e3, 0.0], [0.0, 1.0]], [[2.0, -0.5], [-1e2, 0.0]]]])
    Values.split_values = (None, None, np.concatenate([Values.split_values[2], [1e-4, 1e-5]]))

    assert bits(geometry.split_holds(Values())) == bits(loop_split_holds(Values()))


# -- rank checks -----------------------------------------------------------------


def test_singular_values_of_a_stack_equal_each_matrix_alone() -> None:
    rng = np.random.default_rng(25)
    for shape in [(1, 2, 2), (64, 2, 2), (64, 3, 3), (64, 4, 4), (16, 4, 2), (11, 6, 3),
                  (3, 1, 2)]:
        mats = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
        mats[0] = 0.0
        mats[-1, 0] = np.inf
        want = [np.linalg.svd(m, compute_uv=False).tobytes() for m in mats]
        assert [s.tobytes() for s in geometry.singular_values(mats)] == want


def test_singular_values_meet_a_nan_matrix_at_its_row() -> None:
    mats = np.array([np.eye(2), [[1.0, 2.0], [3.0, 4.0]], [[np.nan, 0.0], [0.0, 1.0]],
                     np.zeros((2, 2))])
    rows = iter(geometry.singular_values(mats))
    for m in mats[:2]:
        assert next(rows).tobytes() == np.linalg.svd(m, compute_uv=False).tobytes()
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        next(rows)


@pytest.mark.parametrize("name", ["cms19", "cms20", "cms21", "elliptic2"])
def test_fundamental_jets_and_finsler_rows_equal_the_row_loops(name) -> None:
    metric = corpus.load_fixture(name).metric()
    points, _ = fixture_blocks(name)
    for pa in (points, points[5:6], points[5]):
        for order in (0, 2):
            assert outcome(lambda: geometry._fundamental_jets(metric, pa, order, TOL)[1:]) == \
                outcome(lambda: loop_fundamental_jets(metric, pa, order)[1:])
        assert outcome(lambda: metrize._finsler_rows(metric, pa, TOL)) == \
            outcome(lambda: loop_finsler_rows(metric, pa))


@pytest.mark.parametrize("order", ROUGH_ORDERS)
def test_rank_checks_at_singular_and_non_finite_rows(order) -> None:
    metric = geometry.ExprMetric(dsl.parse(ROUGH_METRIC))
    pa = rough_points(order)
    got = outcome(lambda: geometry._fundamental_jets(metric, pa, 2, TOL)[3])
    assert got == outcome(lambda: loop_fundamental_jets(metric, pa, 2)[3])
    assert outcome(lambda: metrize._finsler_rows(metric, pa, TOL)) == \
        outcome(lambda: loop_finsler_rows(metric, pa))
    if order == ("ok", "singular", "nan"):  # the singular row raises before the nan row
        assert got.startswith("DegenerateMetric: ")


# -- the oracle's comparison ------------------------------------------------------


@pytest.mark.parametrize("name", corpus.fixture_names())
def test_agreement_report_equals_the_row_loop(name) -> None:
    bundles = shapes(name)
    assert bits(oracle.agreement_report(iter(bundles))) == \
        bits(loop_agreement_report(iter(bundles)))


def perturbed(b, scale: dict):
    """A stand-in for the bundle b whose value views are b's times
    `scale[name]`, an array broadcast over its rows."""
    class Perturbed:
        spray, _pa = b.spray, b._pa
        R_values = b.R_values * scale.get("R_values", 1.0)
        chi_values = b.chi_values * scale.get("chi_values", 1.0)
        B_values = b.B_values * scale.get("B_values", 1.0)
    return Perturbed()


def row_scale(rows: int, shape: tuple, marks: dict) -> np.ndarray:
    s = np.ones((rows,) + shape)
    for (r, *idx), value in marks.items():
        s[(r, *idx)] = value
    return s


def test_agreement_report_at_non_finite_and_later_worst_rows() -> None:
    points, b = fixture_blocks("ex7.2")
    n = b.dim
    cases = [
        # the worst R error at row 5, a smaller one at row 2
        {"R_values": row_scale(64, (n, n), {(2, 0, 1): 1.01, (5, 1, 1): 1.5})},
        # a nan at row 3 and an inf at row 7 of R; chi worst at the last row
        {"R_values": row_scale(64, (n, n), {(3, 0, 0): np.nan, (7, 1, 0): np.inf}),
         "chi_values": row_scale(64, (n,), {(63, 1): 2.0})},
        # two rows tie at their worst spot: the first is kept
        {"B_values": row_scale(64, (n,) * 4, {(4, 0, 0, 0, 0): 3.0, (9, 0, 0, 0, 0): 3.0})},
        {"B_values": row_scale(64, (n,) * 4, {(0, 1, 0, 1, 1): -np.inf})},
    ]
    for scale in cases:
        bundles = [perturbed(b, scale), b]
        with np.errstate(invalid="ignore"):  # inf - inf
            assert bits(oracle.agreement_report(iter(bundles))) == \
                bits(loop_agreement_report(iter(bundles)))
    # one row repeated: every row ties with the first
    same = geometry.CurvatureBundle(b.spray, np.repeat(points[:1], 5, axis=0))
    assert bits(oracle.agreement_report([same])) == bits(loop_agreement_report([same]))


class Table:
    """A stand-in bundle, and its own spray, of two rows whose finite
    differences are given: `fd` stacks the rows' tensors, which
    `fd_curvature` hands out."""

    def __init__(self, got: list, fd: list):
        rows = len(got)
        self.spray = self
        self._pa = np.zeros((rows, 4))
        self.R_values = np.array(got)
        self.chi_values = np.zeros((rows, 2))
        self.B_values = np.zeros((rows,) + (2,) * 4)
        self.fd = {"R": np.array(fd), "chi": np.zeros((rows, 2)),
                   "B": np.zeros((rows,) + (2,) * 4)}


def test_agreement_report_keeps_the_first_of_tied_rows(monkeypatch) -> None:
    # row a: err 2.8017578125e-05 over tol 1e-05; row b: err 2**-15 over
    # tol 1.25e-05; both exceed their tolerance by 1.8017578125e-05 exactly
    a = (np.zeros((2, 2)), np.full((2, 2), 2.8017578125e-05))
    b = (np.full((2, 2), 0.125), np.full((2, 2), 0.125 + 2.0 ** -15))
    monkeypatch.setattr(oracle, "fd_curvature", lambda t, P, h: t.fd)
    for first, second in ((a, b), (b, a)):
        table = Table([first[0], second[0]], [first[1], second[1]])
        got = oracle.agreement_report([table])
        assert bits(got) == bits(loop_agreement_report([table]))
        assert got["R"]["max_err"] == abs(first[0][0, 0] - first[1][0, 0])


EDGE = """
dim 2
spray G1 = y1^2 * sqrt(x1 + 0.5)
spray G2 = y2^2 * sqrt(x1 + 0.5)
guard = x1 + 0.45
"""


def test_agreement_report_raises_at_the_first_failing_row() -> None:
    spray = geometry.spray_of(dsl.parse(EDGE))
    pts = np.array([(0.2, 0.1, 0.6, 0.8), (0.1, 0.3, 0.6, -0.8), (-0.44, 0.1, 0.6, 0.8)])
    for bundles in ([geometry.CurvatureBundle(spray, pts)],
                    [geometry.CurvatureBundle(spray, p) for p in pts]):
        got = outcome(lambda: oracle.agreement_report(iter(bundles), h=0.05))
        assert got == outcome(lambda: loop_agreement_report(iter(bundles), h=0.05))
        assert got.startswith("DomainError: the finite-difference stencil at (-0.44")


def test_agreement_report_builds_no_bundle_when_a_later_point_fails(tally) -> None:
    # the third point's stencil leaves the domain: the block's error is its
    # error alone, and no one-row bundle is built to find it
    spray = geometry.spray_of(dsl.parse(EDGE))
    pts = np.array([(0.2, 0.1, 0.6, 0.8), (0.1, 0.3, 0.6, -0.8), (-0.44, 0.1, 0.6, 0.8)])
    bundle = geometry.CurvatureBundle(spray, pts)
    alone = outcome(lambda: oracle.fd_curvature(spray, pts[2], h=0.05))
    built = len(tally["blocks"]), sum(tally["bundles"].values())
    got = outcome(lambda: oracle.agreement_report(iter([bundle]), h=0.05))
    assert got == alone
    assert got.startswith("DomainError: the finite-difference stencil at (-0.44")
    assert (len(tally["blocks"]), sum(tally["bundles"].values())) == built
