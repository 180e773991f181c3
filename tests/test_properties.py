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
of a block bundle's jets and values equals the bundle at that point alone,
bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spraylab import dsl, geometry
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
