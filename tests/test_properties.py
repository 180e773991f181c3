"""Property tests over random 2-homogeneous sprays in dimensions 2 and 3.

Each example draws a spray

    G^i = sum_{j<=k} (a_ijk + b_ijk x_l) y^j y^k + (d_i + e_i sin x^i) y^i |y|

with coefficients on a grid of step 1/32 in [-2, 2] (so no example hides in
subnormal underflow), and a sample point with |y| >= 0.3.

The roundoff bounds below were fixed once, from the worst relative residuals
over 3000 adversarial examples of this strategy: 1.1e-14 for the curvature
contraction and 5.8e-14 for the Bianchi identity, both relative to max|R|.
Each bound is that worst case rounded up to the next power of ten, times ten.

The block tests draw blocks of 1 to 5 such points and check that every row
of a block bundle's jets and values, and every row bundle it hands out,
equals the bundle at that point alone, bit for bit.  The same holds for the
spray of a random metric

    L = sum_{j<=k} (a_jk + b_jk x_l) y^j y^k + e y^1 |y|

given as an expression and as a callable (diagonal a_jj in [2, 4], the
other coefficients small, so the fundamental tensor stays nondegenerate),
for the inverse of a matrix of block jets, and for block multiplies taller
than one chunk of `jets.MUL_CHUNK` products.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spraylab import dsl, geometry, jets
from spraylab.geometry import CurvatureBundle

CONTRACTION_BOUND = 1e-12
BIANCHI_BOUND = 1e-12

PROPERTY_SETTINGS = settings(
    max_examples=50, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])


def spray_source(n: int, coeffs: list) -> str:
    it = iter(coeffs)
    norm2 = " + ".join(f"y{j}^2" for j in range(1, n + 1))
    lines = [f"dim {n}"]
    for i in range(1, n + 1):
        terms = []
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                a, b = next(it), next(it)
                terms.append(f"({a!r} + {b!r}*x{1 + (i + j + k) % n})*y{j}*y{k}")
        d, e = next(it), next(it)
        terms.append(f"({d!r} + {e!r}*sin(x{i}))*y{i}*sqrt({norm2})")
        lines.append(f"spray G{i} = " + " + ".join(terms))
    lines.append(f"guard = {norm2} - 0.04")
    return "\n".join(lines) + "\n"


@st.composite
def sprays_at_points(draw):
    n = draw(st.sampled_from([2, 3]))
    count = n * (n * (n + 1) + 2)
    grid = st.integers(-64, 64).map(lambda k: k / 32)
    coeffs = draw(st.lists(grid, min_size=count, max_size=count))
    x = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    assume(float(np.linalg.norm(y)) >= 0.3)
    spray = geometry.ExprSpray(dsl.parse(spray_source(n, coeffs)))
    return CurvatureBundle(spray, np.array(x + y), 4)


@PROPERTY_SETTINGS
@given(sprays_at_points())
def test_cov_h_values_equal_the_jet_loop_bitwise(b) -> None:
    _, tau, _ = geometry.scalar_split(b)
    for tensor, slots in [(b.R, ("u", "d")), (b.V, ("d",)), (tau, ("d",)),
                          (b.Ric, ())]:
        T = np.array(tensor, dtype=object)
        got = b.cov_h(T, slots)
        want = CurvatureBundle._values(b._cov_h_jets(T, slots))
        assert got.shape == want.shape == T.shape + (b.dim,)
        assert np.array_equal(got, want), slots


@PROPERTY_SETTINGS
@given(sprays_at_points())
def test_curvature_identities_vanish_to_roundoff(b) -> None:
    res = geometry.identity_residuals(b)
    scale = float(np.max(np.abs(b.R_values)))
    assert res["curvature_contraction"] <= CONTRACTION_BOUND * scale
    assert res["bianchi"] <= BIANCHI_BOUND * scale


@st.composite
def sprays_at_blocks(draw):
    """A random spray with a block of 1 to 5 points, as (spray, (B, 2n) array)."""
    n = draw(st.sampled_from([2, 3]))
    count = n * (n * (n + 1) + 2)
    grid = st.integers(-64, 64).map(lambda k: k / 32)
    coeffs = draw(st.lists(grid, min_size=count, max_size=count))
    rows = draw(st.integers(1, 5))
    coord = st.floats(-1.0, 1.0)
    block = np.array(draw(st.lists(st.lists(coord, min_size=2 * n, max_size=2 * n),
                                   min_size=rows, max_size=rows)))
    assume(float(np.min(np.linalg.norm(block[:, n:], axis=1))) >= 0.3)
    return geometry.ExprSpray(dsl.parse(spray_source(n, coeffs))), block


def _rows_equal(block_jet, point_jets) -> bool:
    return all(np.array_equal(block_jet.coeffs[r], u.coeffs)
               for r, u in enumerate(point_jets))


@PROPERTY_SETTINGS
@given(sprays_at_blocks())
def test_block_bundle_rows_equal_point_bundles_bitwise(case) -> None:
    spray, block = case
    bb = CurvatureBundle(spray, block, 4)
    pbs = [CurvatureBundle(spray, pt, 4) for pt in block]
    for i in range(spray.dim):
        assert _rows_equal(bb.G[i], [b.G[i] for b in pbs])
    assert _rows_equal(bb.Ric, [b.Ric for b in pbs])
    assert _rows_equal(bb.curvature_scalar, [b.curvature_scalar for b in pbs])
    got = bb.cov_h(bb.curvature_scalar, ())
    assert got.shape == (len(block), spray.dim)
    for r, b in enumerate(pbs):
        assert np.array_equal(got[r], b.cov_h(b.curvature_scalar, ()))


@PROPERTY_SETTINGS
@given(sprays_at_blocks())
def test_block_series_rows_equal_point_series_bitwise(case) -> None:
    spray, block = case
    bb = CurvatureBundle(spray, block, 4)
    pbs = [CurvatureBundle(spray, pt, 4) for pt in block]

    def positive(u):  # value parts of at least 1/4
        return u * u + 0.25

    for op in (lambda u: u.exp(), lambda u: positive(u).ln(),
               lambda u: positive(u).sqrt(), lambda u: positive(u).reciprocal()):
        assert _rows_equal(op(bb.G[0]), [op(b.G[0]) for b in pbs])


def _all_equal(a, b) -> bool:
    """Nested lists of point jets equal coefficient for coefficient."""
    a = np.array(a, dtype=object).ravel()
    b = np.array(b, dtype=object).ravel()
    return len(a) == len(b) and all(
        u.center == v.center and np.array_equal(u.coeffs, v.coeffs)
        for u, v in zip(a, b))


@PROPERTY_SETTINGS
@given(sprays_at_blocks())
def test_row_bundles_equal_point_bundles_bitwise(case) -> None:
    spray, block = case
    rows = CurvatureBundle(spray, block, 4).rows()
    assert len(rows) == len(block)
    for pt, rb in zip(block, rows):
        pb = CurvatureBundle(spray, pt, 4)
        assert rb.point == pb.point
        for name in ("G", "N", "Gamma", "R", "Ric", "curvature_scalar", "R3",
                     "V", "chi"):
            assert _all_equal(getattr(rb, name), getattr(pb, name)), name
        for name in ("G_values", "N_values", "Gamma_values", "B_values",
                     "R_values", "chi_values"):
            assert np.array_equal(getattr(rb, name), getattr(pb, name)), name
        (r_jet, tau, residual), (p_jet, p_tau, p_residual) = rb.split, pb.split
        assert _all_equal(r_jet, p_jet) and _all_equal(tau, p_tau)
        assert residual == p_residual
        assert geometry.identity_residuals(rb) == geometry.identity_residuals(pb)
        assert geometry.h_tensor_residuals(rb) == geometry.h_tensor_residuals(pb)


def metric_terms(n: int, draw) -> tuple:
    """(j, k, a_jk, b_jk, l) per quadratic term, and e."""
    small = st.integers(-8, 8).map(lambda k: k / 32)
    diagonal = st.integers(64, 128).map(lambda k: k / 32)
    terms = []
    for j in range(n):
        for k in range(j, n):
            a = draw(diagonal if j == k else small)
            terms.append((j, k, a, draw(small), (j + k + 1) % n))
    return tuple(terms), draw(small)


def metric_expression(n: int, terms: tuple, e: float) -> geometry.ExprMetric:
    norm2 = " + ".join(f"y{j}^2" for j in range(1, n + 1))
    body = " + ".join(f"({a!r} + {b!r}*x{l + 1})*y{j + 1}*y{k + 1}"
                      for j, k, a, b, l in terms)
    src = f"dim {n}\nmetric L = {body} + {e!r}*y1*sqrt({norm2})\n"
    return geometry.ExprMetric(dsl.parse(src))


def metric_function(n: int, terms: tuple, e: float) -> geometry.FuncMetric:
    def fn(v):
        x, y = v[:n], v[n:]
        acc = 0.0
        for j, k, a, b, l in terms:
            acc = acc + (a + b * x[l]) * y[j] * y[k]
        norm2 = y[0] * y[0]
        for j in range(1, n):
            norm2 = norm2 + y[j] * y[j]
        return acc + e * y[0] * jets.sqrt(norm2)
    return geometry.FuncMetric(n, fn)


@st.composite
def metrics_at_blocks(draw):
    n = draw(st.sampled_from([2, 3]))
    terms, e = metric_terms(n, draw)
    rows = draw(st.integers(1, 5))
    coord = st.floats(-1.0, 1.0)
    block = np.array(draw(st.lists(st.lists(coord, min_size=2 * n, max_size=2 * n),
                                   min_size=rows, max_size=rows)))
    assume(float(np.min(np.linalg.norm(block[:, n:], axis=1))) >= 0.3)
    return n, terms, e, block


@PROPERTY_SETTINGS
@given(metrics_at_blocks())
def test_block_spray_from_metric_rows_equal_point_sprays_bitwise(case) -> None:
    n, terms, e, block = case
    for metric in (metric_expression(n, terms, e), metric_function(n, terms, e)):
        assert geometry.MetricSpray(metric).evaluates_blocks
        got = geometry.spray_from_metric(metric, block, 2)
        want = [geometry.spray_from_metric(metric, pt, 2) for pt in block]
        for i in range(n):
            assert _rows_equal(got[i], [w[i] for w in want]), metric.name


@PROPERTY_SETTINGS
@given(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_jet_matrix_inverse_of_a_stack_equals_point_inverses(centers) -> None:
    def matrix(center):
        sp = jets.space(4, 4)
        vs = [sp.variable(i, center) for i in range(4)]
        m = np.empty((2, 2), dtype=object)
        m[0, 0] = 2.0 + vs[0] * vs[2]
        m[0, 1] = 0.3 * vs[3] + vs[1]
        m[1, 0] = vs[0] - 0.5 * vs[2] * vs[3]
        m[1, 1] = 1.5 + jets.sin(vs[1])
        return m

    block = np.array(centers)
    got = jets.jet_matrix_inverse(matrix(block))
    want = [jets.jet_matrix_inverse(matrix(tuple(c))) for c in block]
    for idx in np.ndindex(2, 2):
        assert _rows_equal(got[idx], [w[idx] for w in want])


@PROPERTY_SETTINGS
@given(st.sampled_from([(6, 6), (8, 5), (8, 6)]), st.data())
def test_block_multiply_taller_than_one_chunk_equals_point_multiplies(shape, data) -> None:
    sp = jets.space(*shape)
    step = jets.MUL_CHUNK // len(sp._mul_table[0])
    rows = data.draw(st.integers(step + 1, 3 * step))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    center = rng.uniform(-1.0, 1.0, size=(rows, sp.nvars))
    a = jets.Jet(sp, center, rng.standard_normal((rows, sp.T)))
    b = jets.Jet(sp, center, rng.standard_normal((rows, sp.T)))
    got = (a * b).coeffs
    assert got.shape == (rows, sp.T)
    for r in range(rows):
        assert np.array_equal(got[r], jets._mul_coeffs(sp, a.coeffs[r], b.coeffs[r]))
