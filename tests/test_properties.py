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
bit for bit.  So do each row's scalar split and decomposition, its
identity residuals, taken in one call for the block, and its isotropy and
constancy checks; a block whose later row meets the reciprocal floor of
the split (the spray without its |y| term, at a tangent of length 1e-13)
attempts the block's split once, yields the rows before it as one-row
entries and raises that row's own error.  The rule for a block that
raises, `classify.rowwise`, is checked on blocks of 1 to 20 rows with
failing rows at random positions, on its own and over a bundle's rows
(`classify.bundle_rows`): the first row that fails alone raises its own
error after exactly the rows before it, each rerun on a one-row block
bundle, and a block that succeeds is computed once.  The same holds for the
spray of a random metric

    L = sum_{j<=k} (a_jk + b_jk x_l) y^j y^k + e y^1 |y|

given as an expression (diagonal a_jj in [2, 4], the other coefficients
small, so the fundamental tensor stays nondegenerate),
for the inverse of a matrix of block jets, and for block multiplies on
operands with signed zeros, compared as bytes: of heights 1, 2, 17 and 64
within one chunk of `jets.MUL_CHUNK` products, and taller than one chunk.
So do block multiplies of finite operands with empty columns, which drop
the table pairs of those columns: at heights on both sides of
`jets.PRUNE_PRODUCTS` and past one chunk of the pruned table; an inf or
nan opposite an empty column keeps the full table and its nan.
The finite-difference oracle's `fd_curvature` over such a block gives
each row the bytes of the call at that point alone, or the error of the
first point that fails alone: on the expression sprays, on the metric
sprays, and on their projective shifts G + c sqrt(L) y.  So does the
metric half of the decision layer: the jets of both recovered-metric
candidates of a random spray at a block, the rows of `finsler_check` for
those candidates and for the random metrics (and `finsler_check` itself
against the loop it ran one point at a time), and `metric_spray_residuals`
over a classified block, against the loop over point bundles it
replaced, for the random metrics and for the candidates.

The class tests (`is_isotropic`, `is_constant`, `is_berwald` and
`_proportional`) at a block bundle, one call for all its rows, give each
row the holds and residual bits of the point tests they replaced, which
are kept here as references, and so do they at each row's point bundle;
`classify_samples` reports, bit for bit, what it reports with every
sample a block of its own and the reference tests at each row's point
bundle.  Their blocks carry an
inf or nan in one coefficient of G at some rows (reaching G's value, R
alone, Gamma and R, or the Berwald tensor), and engine faults at others
(chi off the isotropy defect; tau parallel while Ric is not; both
parallel, without isotropy), so that each self-check fires at some first
row: the block raises there, with the message of the point test.  R^i_jk,
V and chi, taken on stacks, equal the per-component loops they replaced,
and Ric, the curvature scalar, the split, the value views and the y stack,
read off the stacks, equal the jet code they replaced.  Order-0 stacked
products, which skip the kernel, have its bytes on operands with +-0.0,
inf and nan, and a derivative stack taken in one gather has the bytes of
the separate derivatives.  `delta_scalar`, one stacked product, has the
bytes of the loop over jets it replaced (`conftest.cov_h_jets`) at points
and blocks in dims 2 to 4, and the omega and t stages of the verdicts,
once per block, give each sample what their loops over samples gave
(`float.hex` for `float.hex`, which drops the sign of a nan): on
poisoned blocks and on blocks where R is 0.0 at some rows, at floors that
skip no row, some rows or every row, and at blocks whose stage raises.

The prefix tests check that truncation is exact: a jet taken at order K
and truncated to order k, with 1 <= k < K, equals the order-k jet byte for
byte, signed zeros included.  Each coefficient of a truncated product or
series is computed only from coefficients of lower or equal degree, in the
same order at every order, so the low orders of a high-order jet are the
low-order jet; the metric candidates serve their requests by truncating
the classification's bundles on this property.  Order 0 is left out: a
series there returns its value coefficient as it is, while above it the
value is added to the +0.0 a product sum starts from, so atan at a value
of -0.0 gives -0.0 at order 0 and +0.0 above.  The random DSL trees use
all seven functions, division, integer powers and non-integer powers.

Three checks tie the jets to independent arithmetic on random DSL trees.
Value, gradient and the Hessian's y-columns of an order-2 jet agree with
`oracle.Taylor2` to TAYLOR2_BOUND times the largest of Taylor2's entries;
the worst over 7000 examples, taken when Taylor2 carried the full Hessian,
was 5.7e-14.  The series laws exp(ln u) = u and
u * u.reciprocal() = 1 hold per row to LAW_BOUND times the condition
max(1, max|u| / |u(0)|)^k of the order-k jet (times max|u| for the first
law); the worst over 14000 examples was 8.6e-16 in those units.  The first
and second partials of an order-4 jet agree with `conftest.fd_partial` at step
FD_STEP to FD_BOUND times the largest partial of order at most 4 at the
point (the step's truncation error is h^2 times a fourth partial, and its
roundoff at most eps/h^2 times the value); the worst over 3000 examples
was 4.1e-7.  The three bounds follow the rule above.  Examples where either
side raises, or a coefficient overflows, are skipped, and so are those
where the differences at FD_STEP and FD_STEP/2 disagree by more than the
bound: a kink of abs, or a pole, lies inside the stencil.

The tape tests check that sharing changes no bit: one `dsl.Tape` over
roots with repeated subtrees gives each root the bytes of that root's own
tape, over floats, arrays, point and block jets and `oracle.Taylor2`, and
when a root fails, the first failing root raises the same error.  The
induced-route test checks that Taylor2, which carries only the Hessian's
y-columns, gives `oracle.spray_values` of a random metric the bytes, or
the error, of the full-Hessian route kept in `conftest` (`loop_induced`
on `loop_taylor2`), at blocks of 1 to 1024 points with an inf or nan at
some rows, and every subtree of the metric the bytes of each entry it
carries, signed zeros included.  The
round-trip test checks that `pretty` text parses back to a tree with the
same float bits, negative numbers and -0.0 included, and the node test
that `dsl.Node`'s `==`, `hash` and `repr` and `dsl.pretty`, which walk by
explicit stacks, give what the dataclass methods and the recursive
printer kept in `conftest` give (`DataclassNode`, `loop_pretty`), on
random trees with shared subtrees, signed zeros and nans, and on equal
trees of other objects.

The parser test checks `dsl.parse` against the recursive descent kept in
`conftest` (`loop_parse`), on printed random trees and on runs of random
tokens: characters that start no token, unbalanced parentheses, 1e999,
variables out of range, unknown names, calls of other than one argument,
bad `dim` headers and comments, with and without const overrides.  Each
source gives an equal problem with an equal repr, or an error of the same
type and text.  The one exception is a `const` named like a chart variable
or declared twice, which `dsl.parse` refuses and the recursive descent
took: the lines before it must parse there, and the name must be one of
those.

The mask test evaluates tapes of random trees, in charts of dim 1 to 4,
over variable jets of order 0 to 4 at blocks of 1 to 64 rows, with an
inf, -inf or nan at some entries and numbers that may be inf, -inf or
nan, one of them a factor of a root.  The jets it gives, or the error,
have the bytes of the same evaluation with the masks stripped
(`conftest.unmasked_evaluate`); every jet made along the way is +-0.0
outside its mask; a product by a jet holding an inf or nan, or by such a
number, carries no mask; and where every jet is finite, every jet the
tape gives carries one.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
import struct
import types
from functools import cached_property

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spraylab import (classify, corpus, dsl, geometry, jets, metrize, oracle,
                      sampling)
from spraylab.errors import DomainError, ParamError, SprayLabError, SpraySyntaxError
from spraylab.geometry import CurvatureBundle
from spraylab.sampling import TOL

from conftest import (FullTaylor2, cov_h_jets, dataclass_tree, fd_partial, jet_inverse,
                      loop_compose, loop_induced, loop_inverse, loop_parse, loop_pretty,
                      loop_reciprocal, loop_tape, loop_taylor2, unmasked_evaluate)

CONTRACTION_BOUND = 1e-12
BIANCHI_BOUND = 1e-12
TAYLOR2_BOUND = 1e-12
LAW_BOUND = 1e-14
FD_STEP = 1e-3
FD_BOUND = 1e-5

PROPERTY_SETTINGS = settings(
    max_examples=50, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])


def spray_source(n: int, coeffs: list, radial: bool = True) -> str:
    """The spray of the module docstring; without its |y| term when not
    `radial`, so that it is defined at tangents of any length."""
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
        if radial:
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
    _, tau, _ = b.splits
    for tensor, slots in [(b.R, ("u", "d")), (b.V, ("d",)), (tau, ("d",)),
                          (b.Ric, ())]:
        T = np.array(tensor, dtype=object)
        got = b.cov_h(T, slots)
        want = np.vectorize(lambda u: u.value, otypes=[float])(cov_h_jets(b, T, slots))
        assert got.shape == want.shape == T.shape + (b.dim,)
        assert np.array_equal(got, want), slots


@PROPERTY_SETTINGS
@given(sprays_at_points())
def test_curvature_identities_vanish_to_roundoff(b) -> None:
    res, = geometry.identity_residuals(b)
    scale = float(np.max(np.abs(b.R_values)))
    assert res["curvature_contraction"] <= CONTRACTION_BOUND * scale
    assert res["bianchi"] <= BIANCHI_BOUND * scale


@st.composite
def sprays_at_blocks(draw, radial: bool = True):
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
    return geometry.ExprSpray(dsl.parse(spray_source(n, coeffs, radial))), block


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


def split_bytes(split) -> tuple:
    """A point's split, its jets and residual, as bytes."""
    r_jet, tau, residual = split
    return (r_jet.coeffs.tobytes(), [t.coeffs.tobytes() for t in tau],
            float(residual).hex())


def row_split(split, r: int) -> tuple:
    """Row r of a block bundle's `splits`, as a point's split: jets at the
    row's center over the row's coefficients, and the row's residual."""
    r_jet, tau, residual = split
    center = tuple(r_jet.center[r])
    return (jets.Jet(r_jet.space, center, r_jet.coeffs[r]),
            [jets.Jet(t.space, center, t.coeffs[r]) for t in tau], float(residual[r]))


def identity_bytes(res: dict) -> list:
    """An identity dict's keys in order, with each value's type and bits."""
    return [(k, type(v), float(v).hex()) for k, v in res.items()]


def dec_bytes(dec) -> tuple:
    """A ScalarDecomposition's fields, with the types of R and the residual."""
    return (type(dec.R), float(dec.R).hex(), dec.tau.tobytes(), type(dec.residual),
            float(dec.residual).hex(), dec.holds)


def check_bytes(decs, b) -> list:
    """The isotropy and constancy checks of each row of the bundle."""
    iso, con = classify.is_isotropic(decs, b), classify.is_constant(decs, b)
    return [[i.holds, float(i.residual).hex(), c.holds, float(c.residual).hex(),
             None if c.ric_residual is None else float(c.ric_residual).hex()]
            for i, c in zip(iso, con)]


@PROPERTY_SETTINGS
@given(sprays_at_blocks())
def test_block_split_and_identities_equal_point_calls_bytewise(case) -> None:
    spray, block = case
    bb = CurvatureBundle(spray, block, 4)
    block_res = geometry.identity_residuals(bb)
    assert len(block_res) == len(block)
    decs = classify.decompose_scalar(bb)
    assert len(decs) == len(block)
    points = [CurvatureBundle(spray, pt, 4) for pt in block]
    for r, pb in enumerate(points):
        assert split_bytes(row_split(bb.splits, r)) == split_bytes(pb.splits)
        assert identity_bytes(block_res[r]) == \
            identity_bytes(geometry.identity_residuals(pb)[0])
        assert dec_bytes(decs[r]) == dec_bytes(classify.decompose_scalar(pb)[0])
    assert check_bytes(decs, bb) == [
        row for pb in points for row in check_bytes(classify.decompose_scalar(pb), pb)]


class PoisonedSpray:
    """A spray whose G jets at the marked points carry an inf or a nan in
    one coefficient: marks[point bytes] = (component, monomial, value)."""

    def __init__(self, spray, marks: dict):
        self.spray, self.dim, self.name = spray, spray.dim, spray.name
        self.marks = marks

    def coeff_jets(self, p, order: int) -> list:
        G = [jets.Jet(u.space, u.center, u.coeffs.copy())
             for u in self.spray.coeff_jets(p, order)]
        for r, pt in enumerate(np.reshape(p, (-1, 2 * self.dim))):
            if pt.tobytes() in self.marks:
                i, alpha, value = self.marks[pt.tobytes()]
                c = G[i].coeffs
                np.reshape(c, (-1, c.shape[-1]))[r, G[i].space.index[alpha]] = value
        return G

    def guard_values(self, p) -> list:
        return self.spray.guard_values(p)


def poison_monomial(n: int, name: str) -> tuple:
    """The exponent of a monomial of G whose coefficient, made non-finite,
    reaches G's value ("1"), R alone ("x1"), Gamma and R ("y1^2") or the
    Berwald tensor ("y1^3")."""
    alpha = [0] * (2 * n)
    if name == "x1":
        alpha[0] = 1
    elif name != "1":
        alpha[n] = int(name[-1])
    return tuple(alpha)


# enough examples that each self-check fires at some first row, in dim 2,
# where every spray is of scalar curvature
CLASS_TEST_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=200)

# the engine faults each self-check of the class tests is there to catch,
# as factors on a bundle's tensor values: chi off the isotropy defect; tau
# parallel while Ric is not; both parallel, so that the curvature is
# constant, with Ric != 0, though not isotropic
FAULTS = {
    "isotropy": {"chi_values": 2.0},
    "constancy": {"tau_cov": 0.0},
    "constant, not isotropic": {"tau_cov": 0.0, "ric_cov": 0.0},
}


@st.composite
def poisoned_blocks(draw):
    """(spray, block, faults): a random spray, with or without its |y|
    term, whose G carries an inf or nan at some rows of the block, and
    some rows' engine faults (see `faulty`), as factors by tensor name."""
    spray, block = draw(st.booleans().flatmap(lambda radial: sprays_at_blocks(radial)))
    n = spray.dim
    marks, faults = {}, {}
    rows = st.integers(0, len(block) - 1)
    for r in draw(st.sets(rows, max_size=2)):
        name = draw(st.sampled_from(["1", "x1", "y1^2", "y1^3"]))
        value = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        marks[block[r].tobytes()] = (draw(st.integers(0, n - 1)),
                                     poison_monomial(n, name), value)
    # one kind of fault at every faulty row, or two in turn
    kinds = draw(st.lists(st.sampled_from(sorted(FAULTS)), min_size=1, max_size=2))
    for k, r in enumerate(sorted(draw(st.sets(rows, min_size=1, max_size=3)))):
        faults[block[r].tobytes()] = FAULTS[kinds[k % len(kinds)]]
    return PoisonedSpray(spray, marks), block, faults


@contextlib.contextmanager
def faulty(faults: dict):
    """Scale the values of the bundle tensors named in `faults` at its
    points, at a point bundle and row by row at a block bundle, while the
    block runs."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("chi_values", "tau_cov", "ric_cov"):
            fn = CurvatureBundle.__dict__[name].func

            @functools.wraps(fn)
            def scaled(b, _name=name, _fn=fn):
                v = _fn(b)
                pts = np.reshape(b._pa, (-1, b._pa.shape[-1]))
                k = [faults.get(pt.tobytes(), {}).get(_name, 1.0) for pt in pts]
                return v * np.reshape(k, (-1,) + (1,) * (v.ndim - 1))

            prop = cached_property(scaled)
            prop.__set_name__(CurvatureBundle, name)
            mp.setattr(CurvatureBundle, name, prop)
        yield


# The class tests at one point, as they were written before they took
# blocks: the references of the block tests below.


def point_is_isotropic(dec, bundle, tol=TOL):
    n = bundle.dim
    rdot = bundle.rdot_values
    defect = float(np.max(np.abs(rdot - 2.0 * dec.tau)))
    chi_defect = float(np.max(np.abs(bundle.chi_values))) / (n + 1)
    scale = max(abs(dec.R), float(np.max(np.abs(dec.tau))), 1.0)
    if dec.holds and abs(defect - chi_defect) > 1e3 * (tol.abs + tol.rel * scale):
        raise SprayLabError(
            "isotropy defect and chi-curvature disagree on a scalar spray: "
            f"{defect:.3e} vs {chi_defect:.3e}"
        )
    residual = max(defect, chi_defect)
    return classify.Check(holds=dec.holds and tol.zero(residual, scale), residual=residual)


def point_is_constant(dec, bundle, tol=TOL):
    residual = float(np.max(np.abs(bundle.tau_cov)))
    scale = max(1.0, float(np.max(np.abs(dec.tau))))
    holds = dec.holds and tol.zero(residual, scale)
    ric_residual = None
    ric = bundle.Ric_value
    if not tol.zero(ric, max(1.0, abs(ric))):
        ric_residual = float(np.max(np.abs(bundle.ric_cov)))
        if holds and not tol.zero(ric_residual, 1e3 * max(1.0, abs(ric))):
            raise SprayLabError(
                "tau_{i;k} vanishes but Ric_{;i} does not; the two "
                "constancy tests must agree on a scalar spray"
            )
    return classify.ConstantCheck(holds=holds, residual=residual,
                                  ric_residual=ric_residual)


def point_is_berwald(b, tol=TOL):
    residual = float(np.max(np.abs(b.B_values)))
    scale = max(1.0, float(np.max(np.abs(b.Gamma_values))))
    return classify.Check(holds=tol.zero(residual, scale), residual=residual)


def point_proportional(Gv, yv, tol):
    n = len(yv)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, abs(Gv[i] * yv[j] - Gv[j] * yv[i]))
    scale = max(1.0, float(np.max(np.abs(Gv))) * float(np.max(np.abs(yv))))
    return tol.zero(worst, scale), worst


# taking the one-row decompositions of a point bundle
POINT_CLASS_TESTS = {"is_isotropic": lambda decs, b, tol: point_is_isotropic(decs[0], b, tol),
                     "is_constant": lambda decs, b, tol: point_is_constant(decs[0], b, tol),
                     "is_berwald": point_is_berwald,
                     "_proportional": point_proportional}


def point_bundle(b, r: int) -> CurvatureBundle:
    """The bundle built at row r of the block bundle b alone."""
    return CurvatureBundle(b.spray, b._pa[r], b.order)


# the reference tests as a block's class tests, one point test per row, at
# each row's point bundle
ROW_CLASS_TESTS = {
    "is_isotropic": lambda decs, b, tol: [
        point_is_isotropic(d, point_bundle(b, r), tol) for r, d in enumerate(decs)],
    "is_constant": lambda decs, b, tol: [
        point_is_constant(d, point_bundle(b, r), tol) for r, d in enumerate(decs)],
    "is_berwald": lambda b, tol: [
        point_is_berwald(point_bundle(b, r), tol) for r in range(len(b._pa))],
    "_proportional": lambda Gv, yv, tol: [
        point_proportional(g, y, tol) for g, y in zip(Gv, yv)],
}


def check_rows(results) -> list:
    """Per result, its holds and the bits of its residuals."""
    rows = []
    for c in results:
        if isinstance(c, tuple):  # _proportional's (holds, worst)
            rows.append((c[0], float(c[1]).hex()))
            continue
        ric = getattr(c, "ric_residual", None)
        rows.append((c.holds, float(c.residual).hex(),
                     None if ric is None else float(ric).hex()))
    return rows


def rows_or_error(results) -> list:
    """`check_rows` of the results that `results()` gives, or the error it
    raises."""
    try:
        return check_rows(results())
    except SprayLabError as exc:
        return [type(exc), str(exc)]


@CLASS_TEST_SETTINGS
@given(poisoned_blocks())
def test_block_class_tests_equal_point_calls_bytewise(case) -> None:
    """Each class test at a block bundle, one call for all rows, and at
    each row's point bundle, gives every row the holds and residual bits
    of the point test it replaced, at the row's point alone, and raises
    the error of the first row at which that test raises."""
    spray, block, faults = case
    with np.errstate(all="ignore"), faulty(faults):
        bb = CurvatureBundle(spray, block, 4)
        decs = classify.decompose_scalar(bb)
        points = [CurvatureBundle(spray, pt, 4) for pt in block]
        point_decs = [classify.decompose_scalar(b) for b in points]
        calls = {
            "is_isotropic": ((decs, bb), [(d, b) for d, b in zip(point_decs, points)]),
            "is_constant": ((decs, bb), [(d, b) for d, b in zip(point_decs, points)]),
            "is_berwald": ((bb,), [(b,) for b in points]),
            "_proportional": ((bb.G_values, bb.yvals),
                              [(b.G_values, b.yvals) for b in points]),
        }
        for name, (block_args, point_args) in calls.items():
            test, reference = getattr(classify, name), POINT_CLASS_TESTS[name]
            want = rows_or_error(lambda: [reference(*args, TOL) for args in point_args])
            assert rows_or_error(lambda: test(*block_args, TOL)) == want, name
            assert rows_or_error(lambda: [row for args in point_args
                                          for row in test(*args, TOL)]) == want, name


def report_bytes(spray, samples) -> list:
    """A classification's flags, residual bits and per-sample flags, or
    its error."""
    try:
        rep = classify.classify_samples(spray, samples)
    except SprayLabError as exc:
        return [type(exc), str(exc)]
    return [rep.flags, {k: float(v).hex() for k, v in rep.residuals.items()},
            list(rep.per_point)]


@CLASS_TEST_SETTINGS
@given(poisoned_blocks())
def test_classification_of_a_block_equals_one_sample_at_a_time(case) -> None:
    """`classify_samples` on blocks of `BLOCK_ROWS` samples reports, flag
    and residual bits, what it reports with every sample a block of its
    own and the point tests the class tests replaced, taken at each row's
    point bundle, or raises the same error at the same first sample."""
    spray, block, faults = case
    samples = samples_at(block)
    with np.errstate(all="ignore"), faulty(faults):
        got = report_bytes(spray, samples)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classify, "BLOCK_ROWS", 1)
            for name, reference in ROW_CLASS_TESTS.items():
                mp.setattr(classify, name, reference)
            want = report_bytes(spray, samples)
    assert got == want


@PROPERTY_SETTINGS
@given(sprays_at_blocks(radial=False), st.integers(1, 3))
def test_block_split_past_the_reciprocal_floor_fails_at_that_row(case, k) -> None:
    # a row whose largest |y^i| is below jets.VALUE_FLOOR: its split cannot
    # divide by y^{i0}, so the block's split raises, the rows before it
    # become one-row entries, and that row raises what it raises alone
    spray, block = case
    n = spray.dim
    bad = block[0].copy()
    bad[n:] = 0.0
    bad[n + k % n] = 1e-13
    full = np.vstack([block, bad, block[:1]])
    with pytest.raises(DomainError) as alone:
        CurvatureBundle(spray, bad, 4).splits
    with pytest.raises(DomainError):
        CurvatureBundle(spray, full, 4).splits
    got = []
    # the block's split is attempted once, then one split per row up to
    # the bad one; `split_values` is where a split is computed and fails
    attempts = []
    splits = CurvatureBundle.__dict__["split_values"]
    split_of = splits.func

    def counted(b):
        attempts.append(b._pa.shape)
        return split_of(b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splits, "func", counted)
        with pytest.raises(DomainError) as in_block:
            for pts, b, decs in classify.block_bundles(spray, samples_at(full)):
                assert len(pts) == len(decs) == 1 and b._pa.shape == (1, 2 * n)
                got.append((split_bytes(row_split(b.splits, 0)), dec_bytes(decs[0])))
    assert attempts == [full.shape] + [(1, 2 * n)] * (len(block) + 1)
    assert str(in_block.value) == str(alone.value)
    points = [CurvatureBundle(spray, pt, 4) for pt in block]
    assert got == [(split_bytes(b.splits), dec_bytes(classify.decompose_scalar(b)[0]))
                   for b in points]


# tangent entries past the reciprocal floor, subnormal, huge, and nan
SPLIT_SPECIALS = np.array([1e-12, -1e-13, 1e-300, 5e-324, -2.5e-320, 1e150, -1e200,
                           1.7e308, np.nan])


@st.composite
def split_cases(draw):
    """(spray, point or block, order): a random polynomial spray of the
    module docstring, without its |y| term, in dim 2-4, at an order of 2-4,
    at a point or a block of 1-64 rows.  Rows are scaled to tiny, subnormal
    or huge tangents, and some entries are replaced by `SPLIT_SPECIALS`,
    or by nan in x."""
    n = draw(st.sampled_from([2, 3, 4]))
    count = n * (n * (n + 1) + 2)
    grid = st.integers(-64, 64).map(lambda k: k / 32)
    coeffs = draw(st.lists(grid, min_size=count, max_size=count))
    spray = geometry.ExprSpray(dsl.parse(spray_source(n, coeffs, radial=False)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 64))
    scales = np.array([1.0, 1e-13, 1e-310, 1e100, 1e200])[
        rng.choice(5, rows, p=draw(st.sampled_from([(1, 0, 0, 0, 0), (0.6, 0.1, 0.1, 0.1, 0.1),
                                                   (0.92, 0.02, 0.02, 0.02, 0.02),
                                                   (0.5, 0, 0, 0.25, 0.25)])))]
    y = rng.uniform(-1.0, 1.0, (rows, n)) * scales[:, None]
    spoil = rng.random((rows, n)) < draw(st.sampled_from([0.0, 0.005, 0.05]))
    y[spoil] = rng.choice(SPLIT_SPECIALS, int(spoil.sum()))
    x = rng.uniform(-1.0, 1.0, (rows, n))
    x[rng.random((rows, n)) < draw(st.sampled_from([0.0, 0.0, 0.02]))] = np.nan
    pts = np.hstack([x, y])
    return spray, pts[0] if draw(st.booleans()) else pts, draw(st.integers(2, 4))


def split_outcome(case, read):
    """`read` of a new bundle at the case's points, or the type and text of
    the error that raises."""
    spray, pts, order = case
    try:
        with np.errstate(all="ignore"):
            return read(CurvatureBundle(spray, pts, order))
    except Exception as exc:
        return type(exc), str(exc)


def hex_parts(*parts) -> list:
    """Each array's shape and the `float.hex` of its entries."""
    return [(np.shape(p), [float(v).hex() for v in np.ravel(p)]) for p in parts]


@settings(PROPERTY_SETTINGS, max_examples=120)
@given(split_cases())
def test_split_values_are_the_value_slots_of_the_split_jets(case) -> None:
    """`split_values` gives R, tau and the residual with the bits of the
    value slots of the jets of `splits`, at points and blocks, or raises
    the error `splits` raises, of the same row.  About 2 s."""
    def jet_values(b):
        Rj, tau, residual = b.splits
        return hex_parts(Rj.value, np.stack([u.coeffs[..., 0] for u in tau], axis=-1),
                         residual)

    assert split_outcome(case, lambda b: hex_parts(*b.split_values)) == \
        split_outcome(case, jet_values)


@st.composite
def blocks_with_failures(draw):
    """A block of 1 to 20 rows, row r holding (r, 2r), and the set of rows
    that fail alone."""
    rows = draw(st.integers(1, 20))
    failing = draw(st.sets(st.integers(0, rows - 1), max_size=3))
    return np.arange(rows, dtype=float)[:, None] * [1.0, 2.0], failing


def failing_run(failing: set, calls: list):
    """A run over rows that fails with the last failing row's error, so
    that only the row rule finds the first; one entry per row."""
    def run(points):
        calls.append(len(points))
        ids = [int(p[0]) for p in points]
        bad = [i for i in ids if i in failing]
        if bad:
            raise DomainError(f"row {bad[-1]}")
        return [float(i) for i in ids]
    return run


@PROPERTY_SETTINGS
@given(blocks_with_failures())
def test_rowwise_yields_the_rows_before_the_first_failing_row(case) -> None:
    block, failing = case
    calls, got = [], []
    entries = classify.rowwise(failing_run(failing, calls), block)
    if not failing:
        assert list(entries) == list(range(len(block)))
        assert calls == [len(block)]  # computed once
        return
    first = min(failing)
    with pytest.raises(DomainError, match=f"^row {first}$"):
        for entry in entries:
            got.append(entry)
    assert got == list(range(first))
    assert calls == [len(block)] + [1] * (first + 1)


FLAT_SPRAY = geometry.ExprSpray(dsl.parse("dim 2\nspray G1 = 0\nspray G2 = 0\n"))


@PROPERTY_SETTINGS
@given(blocks_with_failures(), st.integers(-3, 3))
def test_bundle_rows_reads_the_rows_before_the_first_failing_row(case, shift) -> None:
    block, failing = case
    # the rows' points hold (r, 2r) in x, so fn can tell them apart
    pts = np.concatenate([block, np.full_like(block, 0.6)], axis=1)
    calls, shapes, got = [], [], []
    run = failing_run(failing, calls)

    def fn(b, plus):
        shapes.append(b._pa.shape)
        return [r + plus for r in run(np.reshape(b._pa, (-1, 4)))]

    bb = CurvatureBundle(FLAT_SPRAY, pts, 2)
    if not failing:
        assert list(classify.bundle_rows(fn, bb, shift)) == [
            r + shift for r in range(len(block))]
        assert calls == [len(block)]  # computed once
        # a point bundle is one row
        assert list(classify.bundle_rows(fn, CurvatureBundle(FLAT_SPRAY, pts[0], 2),
                                         shift)) == [shift]
        assert calls == [len(block), 1]
        return
    first = min(failing)
    with pytest.raises(DomainError, match=f"^row {first}$"):
        for entry in classify.bundle_rows(fn, bb, shift):
            got.append(entry)
    assert got == [r + shift for r in range(first)]
    # the block, then a one-row block bundle per row up to the first failing
    assert calls == [len(block)] + [1] * (first + 1)
    assert shapes == [pts.shape] + [(1, 4)] * (first + 1)


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
    metric = metric_expression(n, terms, e)
    got = geometry.spray_from_metric(metric, block, 2)
    want = [geometry.spray_from_metric(metric, pt, 2) for pt in block]
    for i in range(n):
        assert _rows_equal(got[i], [w[i] for w in want])


FD_KEYS = ("N", "R", "Ric", "chi", "B")


def fd_outcome(fn):
    """What fn returns, or the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except (DomainError, ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


def fd_rows_agree(spray, block, h) -> None:
    """One block fd_curvature call gives each row the bytes of the call at
    that point alone, or the error of the first point that fails alone."""
    def rows():
        fd = oracle.fd_curvature(spray, block, h=h)
        return [[fd[key][r].tobytes() for key in FD_KEYS] for r in range(len(block))]

    def points():
        return [[np.float64(fd[key]).tobytes() if key == "Ric" else fd[key].tobytes()
                 for key in FD_KEYS]
                for fd in (oracle.fd_curvature(spray, p, h=h) for p in block)]

    assert fd_outcome(rows) == fd_outcome(points)


@PROPERTY_SETTINGS
@given(sprays_at_blocks(), st.sampled_from([1e-3, 0.01]))
def test_block_fd_curvature_rows_equal_point_calls_bitwise(case, h) -> None:
    fd_rows_agree(*case, h)


@PROPERTY_SETTINGS
@given(metrics_at_blocks(), st.sampled_from([None, 0.5, -1.0]),
       st.sampled_from([1e-3, 0.01]))
def test_block_fd_curvature_of_metric_sprays_equals_point_calls_bitwise(
        case, c, h) -> None:
    n, terms, e, block = case
    metric = metric_expression(n, terms, e)
    spray = geometry.MetricSpray(metric)
    if c is not None:  # the projective shift G + c sqrt(L) y
        spray = geometry.ShiftedSpray(spray, metric, c)
    fd_rows_agree(spray, block, h)


def as_bytes(obj):
    """Floats, arrays and jets as their bytes, in nested lists; None kept."""
    if isinstance(obj, (list, tuple)):
        return [as_bytes(o) for o in obj]
    if isinstance(obj, jets.Jet):
        return (obj.order, obj.coeffs.tobytes())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.ndarray)):
        return np.asarray(obj, dtype=float).tobytes()
    return obj


def rows_agree(block_rows, point_rows) -> None:
    """The block call gives each row the bytes of the call at that point
    alone, or the error of the first point that fails alone."""
    def outcome(fn):
        try:
            with np.errstate(all="ignore"):
                return as_bytes(fn())
        except (SprayLabError, ArithmeticError, ValueError,
                np.linalg.LinAlgError) as exc:
            return (type(exc), str(exc))

    assert outcome(block_rows) == outcome(point_rows)


def samples_at(block: np.ndarray) -> sampling.SampleSet:
    """A sample set whose points are the rows of the block."""
    n = block.shape[1] // 2
    return sampling.SampleSet(block[:, :n].copy(), block[:, None, n:].copy())


def candidates(spray, bundles=()) -> list:
    """Both metric candidates of the spray, lambda from a fixed x-form."""
    n = spray.dim
    lam = metrize.LambdaField(lambda xs: 0.25 * np.cos(xs[:, ::-1]), np.zeros(n))
    return [metrize.CurvatureMetric(spray, bundles),
            metrize.ScaledCurvatureMetric(spray, lam, bundles)]


@PROPERTY_SETTINGS
@given(sprays_at_blocks(), st.sampled_from([0, 1, 2]))
def test_block_candidate_jets_equal_point_jets_bitwise(case, order) -> None:
    spray, block = case
    for k in range(2):
        rows_agree(lambda: list(candidates(spray)[k].jet(block, order).coeffs),
                   lambda: [candidates(spray)[k].jet(pt, order).coeffs
                            for pt in block])


@PROPERTY_SETTINGS
@given(sprays_at_blocks(), metrics_at_blocks())
def test_block_finsler_rows_equal_point_rows_bitwise(spray_case, metric_case) -> None:
    spray, block = spray_case
    for k in range(2):
        rows_agree(lambda: metrize._finsler_rows(candidates(spray)[k], block, TOL),
                   lambda: [metrize._finsler_rows(candidates(spray)[k], pt, TOL)[0]
                            for pt in block])
    n, terms, e, block = metric_case
    metric = metric_expression(n, terms, e)
    rows_agree(lambda: metrize._finsler_rows(metric, block, TOL),
               lambda: [metrize._finsler_rows(metric, pt, TOL)[0] for pt in block])
    fc = metrize.finsler_check(metric, samples_at(block))
    assert as_bytes([fc.holds, fc.euler_residual, fc.rank_ratio]) == \
        as_bytes(point_finsler_check(metric, block))


def point_finsler_check(field_obj, points) -> list:
    """finsler_check as it ran one point at a time: [holds, worst Euler
    residual, least rank ratio]."""
    n = field_obj.dim
    worst_euler, min_ratio, holds = 0.0, float("inf"), True
    for pt in points:
        S = field_obj.jet(pt, 2)
        e = classify.euler_residual(S, 2)
        worst_euler = max(worst_euler, e)
        H = np.array([[0.5 * S.dy(i).dy(j).value for j in range(n)]
                      for i in range(n)])
        sv = np.linalg.svd(H, compute_uv=False)
        ratio = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
        min_ratio = min(min_ratio, ratio)
        if ratio < TOL.rank or not TOL.zero(e, max(1.0, abs(S.value))):
            holds = False
    return [holds, worst_euler, min_ratio]


def residuals(L, blocks, parallel=True) -> list:
    return [row[2:] for row in metrize.metric_spray_residuals(L, blocks, parallel)]


def point_residuals(L, points, parallel=True) -> list:
    """`metric_spray_residuals`' (L value, max |L_{;i}|, max |G_L - G|) as
    it took them at one point bundle at a time."""
    out = []
    for b in points:
        value = semi = None
        if parallel:
            Lj = L.jet(b._pa, 1)
            value = Lj.value
            semi = max(abs(d) for d in b.cov_h(Lj, ()).tolist())
        gv = np.array([g.value for g in geometry.spray_from_metric(L, b._pa, 0)])
        out.append((value, semi, float(np.max(np.abs(gv - b.G_values)))))
    return out


def block_and_point_bundles(spray, block) -> tuple:
    """The classification's entries of the block, and point bundles built
    at each row alone."""
    blocks = tuple(classify.block_bundles(spray, samples_at(block)))
    return blocks, [CurvatureBundle(spray, pt, 4) for pt in block]


@PROPERTY_SETTINGS
@given(metrics_at_blocks(), st.booleans())
def test_block_metric_spray_residuals_equal_point_rows_bitwise(case, parallel) -> None:
    n, terms, e, block = case
    metric = metric_expression(n, terms, e)
    try:
        blocks, points = block_and_point_bundles(geometry.MetricSpray(metric), block)
    except SprayLabError:
        assume(False)
    assert len(blocks) == 1  # no row of the block fell back
    rows_agree(lambda: residuals(metric, blocks, parallel),
               lambda: point_residuals(metric, points, parallel))


@PROPERTY_SETTINGS
@given(sprays_at_blocks())
def test_block_candidate_residuals_equal_point_rows_bitwise(case) -> None:
    spray, block = case
    blocks, points = block_and_point_bundles(spray, block)
    for k in range(2):
        rows_agree(
            lambda: residuals(candidates(spray, [b for _, b, _ in blocks])[k], blocks),
            lambda: point_residuals(candidates(spray, points)[k], points))


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
    got = jet_inverse(matrix(block))
    want = [jet_inverse(matrix(tuple(c))) for c in block]
    for idx in np.ndindex(2, 2):
        assert _rows_equal(got[idx], [w[idx] for w in want])


def assert_rows_are_point_products(sp: jets.JetSpace, a: np.ndarray, b: np.ndarray) -> None:
    """The block multiply of (rows, T) operands gives each row the bytes of
    the point multiply of that row."""
    center = np.zeros((len(a), sp.nvars))
    got = (jets.Jet(sp, center, a) * jets.Jet(sp, center, b)).coeffs
    assert got.shape == a.shape
    for r in range(len(a)):
        assert got[r].tobytes() == jets._mul_coeffs(sp, a[r], b[r]).tobytes()


def _assert_rows_are_point_products(sp: jets.JetSpace, rows: int, seed: int) -> None:
    """On `rows` rows of operands with a fifth of the entries +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((rows, sp.T)) for _ in range(2))
    for x in (a, b):
        zero = rng.random(x.shape) < 0.2
        x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
    assert_rows_are_point_products(sp, a, b)


@PROPERTY_SETTINGS
@given(st.sampled_from([(6, 6), (8, 5), (8, 6)]), st.data())
def test_block_multiply_taller_than_one_chunk_equals_point_multiplies(shape, data) -> None:
    sp = jets.space(*shape)
    step = jets.MUL_CHUNK // len(sp._mul_table[0])
    rows = data.draw(st.integers(step + 1, 3 * step))
    _assert_rows_are_point_products(sp, rows, data.draw(st.integers(0, 2**32 - 1)))


@PROPERTY_SETTINGS
@given(st.sampled_from([(4, 2), (4, 4), (6, 4)]), st.sampled_from([1, 2, 17, 64]),
       st.integers(0, 2**32 - 1))
def test_block_multiply_in_one_chunk_equals_point_multiplies(shape, rows, seed) -> None:
    sp = jets.space(*shape)
    assert rows <= jets.MUL_CHUNK // len(sp._mul_table[0])
    _assert_rows_are_point_products(sp, rows, seed)


def pruned_height(sp: jets.JetSpace) -> int:
    """The lowest block height whose multiplies may drop empty columns."""
    return -(-jets.PRUNE_PRODUCTS // len(sp._mul_table[0]))


def sparse_block(sp: jets.JetSpace, rows: int, filled: np.ndarray,
                 rng: np.random.Generator, one_row: float = 0.3) -> np.ndarray:
    """A finite (rows, T) operand whose columns `filled` (a mask) hold
    standard normals with a fifth +0.0 or -0.0, each in one random row with
    probability `one_row` and else in every row; every other entry is +0.0
    or -0.0."""
    x = np.where(rng.random((rows, sp.T)) < 0.5, 0.0, -0.0)
    for col in np.flatnonzero(filled):
        at = rng.integers(rows) if rng.random() < one_row else slice(None)
        x[at, col] = rng.standard_normal(rows)[at]
    zero = rng.random(x.shape) < 0.2
    x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
    return x


DENSITIES = st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9, 1.0])


@PROPERTY_SETTINGS
@given(st.sampled_from([(4, 4), (6, 4), (8, 4)]), DENSITIES, DENSITIES,
       st.sampled_from(["below", "at", "above"]), st.integers(0, 2**32 - 1))
def test_sparse_block_multiply_equals_point_multiplies(shape, da, db, height, seed) -> None:
    """At heights on both sides of `jets.PRUNE_PRODUCTS`."""
    sp = jets.space(*shape)
    rng = np.random.default_rng(seed)
    low = pruned_height(sp)
    rows = {"below": max(1, low - 1), "at": low, "above": 4 * low}[height]
    a, b = (sparse_block(sp, rows, rng.random(sp.T) < d, rng) for d in (da, db))
    assert_rows_are_point_products(sp, a, b)


@PROPERTY_SETTINGS
@given(st.sampled_from([(4, 4), (6, 4), (8, 4)]), st.floats(0.7, 1.0), st.floats(0.7, 1.0),
       st.integers(1, 100), st.integers(0, 2**32 - 1))
def test_sparse_block_multiply_past_a_pruned_chunk_equals_point_multiplies(
        shape, da, db, extra, seed) -> None:
    """Taller than one `MUL_CHUNK` chunk of the pruned table."""
    sp = jets.space(*shape)
    rng = np.random.default_rng(seed)
    fa, fb = rng.random(sp.T) < da, rng.random(sp.T) < db
    ia, ib, _ = sp._mul_table
    rows = jets.MUL_CHUNK // max(1, np.count_nonzero(fa[ia] & fb[ib])) + extra
    assume(rows <= 1000)
    a, b = (sparse_block(sp, rows, f, rng, one_row=0.0) for f in (fa, fb))
    assert_rows_are_point_products(sp, a, b)


@PROPERTY_SETTINGS
@given(st.sampled_from([(4, 4), (6, 4), (8, 4)]), st.sampled_from([np.inf, -np.inf, np.nan]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_a_nonfinite_entry_opposite_an_empty_column_keeps_its_nan(shape, bad, scale, seed) -> None:
    """A constant operand times one with an inf or nan at a first-order
    column j: the pair (j, j) multiplies it by the constant's empty column,
    so bin 2j is nan, as in the point multiply."""
    sp = jets.space(*shape)
    rng = np.random.default_rng(seed)
    rows = scale * pruned_height(sp)
    a = sparse_block(sp, rows, sp._deg == 0, rng, one_row=0.0)
    b = sparse_block(sp, rows, sp._deg >= 0, rng)
    j = rng.choice(np.flatnonzero(sp._deg == 1))
    r = rng.integers(rows)
    b[r, j] = bad
    with np.errstate(invalid="ignore"):
        got = jets._mul_coeffs(sp, a, b)
        want = [jets._mul_coeffs(sp, a[k], b[k]) for k in range(rows)]
    assert np.isnan(got[r, sp.index[tuple(2 * e for e in sp.alphas[j])]])
    assert got.tobytes() == np.stack(want).tobytes()


# -- stacks ----------------------------------------------------------------------


def signed_zero_stack(sp: jets.JetSpace, shape: tuple, rng: np.random.Generator,
                      empty: float = 0.0) -> np.ndarray:
    """Standard normals of `shape` + (T,), a fifth of them +0.0 or -0.0,
    and each column empty (+0.0 or -0.0) with probability `empty`."""
    x = rng.standard_normal(shape + (sp.T,))
    x[..., rng.random(sp.T) < empty] = 0.0
    zero = (x == 0.0) | (rng.random(x.shape) < 0.2)
    x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
    return x


STACK_SPACES = st.sampled_from([(4, 2), (4, 4), (6, 4), (8, 2)])


@PROPERTY_SETTINGS
@given(STACK_SPACES, st.integers(1, 40), st.sampled_from([0, 1, 16, 17]),
       st.sampled_from([0.0, 0.5]), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_product_equals_its_separate_multiplies(
        shape, k, rows, empty, broadcast, seed) -> None:
    """K components, at a point (rows == 0) or at a block, folded into the
    rows of kernel calls of any size, past `jets.STACK_PRODUCTS` and
    `jets.PRUNE_PRODUCTS` included: each component has the bytes of its own
    `_mul_coeffs` call.  A broadcast left factor is one jet for all K."""
    sp = jets.space(*shape)
    rng = np.random.default_rng(seed)
    lead = (k,) + ((rows,) if rows else ())
    a = signed_zero_stack(sp, (1,) + lead[1:] if broadcast else lead, rng, empty)
    b = signed_zero_stack(sp, lead, rng, empty)
    got = jets.stacked_product(sp, a, b)
    assert got.shape == b.shape
    for c in range(k):
        want = jets._mul_coeffs(sp, a[0 if broadcast else c], b[c])
        assert got[c].tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(STACK_SPACES, st.integers(1, 6), st.sampled_from([0, 1, 16, 17]),
       st.integers(0, 2**32 - 1))
def test_contract_adds_the_separate_multiplies_in_order(shape, n, rows, seed) -> None:
    sp = jets.space(*shape)
    rng = np.random.default_rng(seed)
    tail = ((rows,) if rows else ())
    a = signed_zero_stack(sp, (n, 3, 1) + tail, rng, 0.3)
    b = signed_zero_stack(sp, (n, 1, 2) + tail, rng, 0.3)
    want = None
    for k in range(n):
        term = np.array([[jets._mul_coeffs(sp, a[k, i, 0], b[k, 0, j]) for j in range(2)]
                         for i in range(3)])
        want = term if want is None else want + term
    assert jets.contract(sp, a, b).tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(STACK_SPACES, st.sampled_from([0, 1, 16]), st.booleans(),
       st.sampled_from([0.0, np.inf, np.nan]), st.integers(0, 2**32 - 1))
def test_constant_product_has_the_kernel_bytes(shape, rows, left, spoil, seed) -> None:
    """c * d + 0.0 for finite operands, the kernel for an inf or nan, at
    signed-zero values of the constant as well."""
    sp = jets.space(*shape)
    rng = np.random.default_rng(seed)
    tail = ((rows,) if rows else ())
    d = signed_zero_stack(sp, (3,) + tail, rng, 0.3)
    c = np.where(rng.random((3,) + tail) < 0.3, -0.0, rng.standard_normal((3,) + tail))
    if spoil:
        d[(-1,) * (d.ndim - 1) + (sp.T - 1,)] = spoil
    const = np.zeros(c.shape + (sp.T,))
    const[..., 0] = c
    with np.errstate(invalid="ignore"):
        got = jets.constant_product(sp, c, d, left)
        want = [jets._mul_coeffs(sp, const[i], d[i]) if left
                else jets._mul_coeffs(sp, d[i], const[i]) for i in range(3)]
    assert got.tobytes() == np.array(want).tobytes()


def loop_R(b) -> list:
    """R^i_k by the formula's loops over jets, one component at a time."""
    n = b.dim
    ys = geometry._var_jets(n, b._pa, b.order)[n:]
    out = []
    for i in range(n):
        dGx = [b.G[i].dx(j) for j in range(n)]
        row = []
        for k in range(n):
            acc = 2.0 * dGx[k]
            for j in range(n):
                acc = acc - ys[j] * dGx[j].dy(k)
                acc = acc + 2.0 * (b.G[j] * b.Gamma[i][j][k])
                acc = acc - b.N[i][j] * b.N[j][k]
            row.append(acc)
        out.append(row)
    return out


def loop_tau(b) -> list:
    """The split's tau_k one k at a time, from `loop_R`."""
    n = b.dim
    R = loop_R(b)
    Rj = (1.0 / (n - 1)) * functools.reduce(lambda u, v: u + v, [R[i][i] for i in range(n)])
    sp, center = Rj.space, Rj.center
    i0 = np.argmax(np.abs(b.yvals), axis=-1)

    def pick(column):
        c = np.stack([u.coeffs for u in column])
        return c[i0] if c.ndim == 2 else c[i0, np.arange(c.shape[1])]

    inv = jets.Jet(sp, center, pick([sp.variable(n + i, center) for i in range(n)])).reciprocal()
    tau = []
    for k in range(n):
        Rk = jets.Jet(sp, center, pick([R[i][k] for i in range(n)]))
        num = np.where(np.expand_dims(i0, -1) == k, (Rj - Rk).coeffs, (-1.0 * Rk).coeffs)
        tau.append(jets.Jet(sp, center, num) * inv)
    return tau


def loop_inverse(m: np.ndarray) -> np.ndarray:
    """The inverse by object-array matmuls of jets, every product through
    the kernel, the constant ones included."""
    n = m.shape[0]
    order = min(int(u.order) for u in m.ravel())
    jm = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            jm[i, j] = m[i, j].truncated(order)
    sp, center = jm[0, 0].space, jm[0, 0].center
    vals = np.empty(jm[0, 0].coeffs.shape[:-1] + (n, n))
    for i in range(n):
        for j in range(n):
            vals[..., i, j] = jm[i, j].coeffs[..., 0]
    w0 = np.linalg.inv(vals)
    const = np.empty((n, n), dtype=object)
    dm = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            const[i, j] = sp.constant(w0[..., i, j], center)
            d = jets.Jet(sp, center, jm[i, j].coeffs.copy())
            d.coeffs[..., 0] -= vals[..., i, j]
            dm[i, j] = d
    w = const
    for _ in range(order):
        w = const - (const @ dm) @ w
    return w


def same_jets(got, want) -> bool:
    got, want = np.array(got, dtype=object).ravel(), np.array(want, dtype=object).ravel()
    return len(got) == len(want) and all(
        u.order == v.order and u.coeffs.tobytes() == v.coeffs.tobytes()
        for u, v in zip(got, want))


@PROPERTY_SETTINGS
@given(sprays_at_blocks(), st.sampled_from([2, 3, 4]), st.booleans())
def test_stacked_R_and_tau_equal_the_component_loops(case, order, at_block) -> None:
    """At a block bundle and at the bundle of its first point."""
    spray, block = case
    b = CurvatureBundle(spray, block if at_block else block[0], order)
    assert same_jets(b.R, loop_R(b))
    assert same_jets(b.splits[1], loop_tau(b))


@PROPERTY_SETTINGS
@given(st.booleans().flatmap(lambda radial: sprays_at_blocks(radial)), st.booleans())
def test_closed_factor_curl_at_order_2_equals_the_full_order_curl(case, at_block) -> None:
    """The curl of the projective factor, taken from G truncated to order
    2, has the bits of the curl taken from the order-4 jets of G, at a
    block bundle and at the one-row block of its first point."""
    spray, block = case
    b = CurvatureBundle(spray, block if at_block else block[:1], 4)
    n = b.dim
    P = classify.projective_factor(b)
    assert P.order == 4
    sig = [P.dy(i) for i in range(n)]
    curls = [np.reshape(sig[i].dx(j).value - sig[j].dx(i).value, -1)
             for i in range(n) for j in range(i + 1, n)]
    want = geometry._folds(curls, len(np.reshape(b.yvals, (-1, n))))
    got = classify._closed_factor_residual(b)
    assert [float(v).hex() for v in np.reshape(got, -1)] == \
        [float(v).hex() for v in want]


def loop_R3_V_chi(b) -> tuple:
    """R^i_jk, V and chi one component at a time, each y-derivative of R
    a `Jet.diff`, as the bundle took them before they were stacked."""
    n = b.dim
    third = 1.0 / 3.0
    R3 = [[[third * (b.R[i][k].dy(j) - b.R[i][j].dy(k)) for k in range(n)]
           for j in range(n)] for i in range(n)]
    V = []
    for k in range(n):
        acc = R3[0][k][0]
        for m in range(1, n):
            acc = acc + R3[m][k][m]
        V.append(acc)
    chi = []
    for i in range(n):
        acc = b.Ric.dy(i)
        for m in range(n):
            acc = acc + 2.0 * b.R[m][i].dy(m)
        chi.append(acc)
    return R3, V, chi


@PROPERTY_SETTINGS
@given(sprays_at_blocks(), st.sampled_from([3, 4]), st.booleans())
def test_stacked_R3_V_and_chi_equal_the_component_loops(case, order, at_block) -> None:
    """At a block bundle and at the bundle of its first point."""
    spray, block = case
    b = CurvatureBundle(spray, block if at_block else block[0], order)
    R3, V, chi = loop_R3_V_chi(b)
    assert same_jets(b.R3, R3)
    assert same_jets(b.V, V)
    assert same_jets(b.chi, chi)


@PROPERTY_SETTINGS
@given(metrics_at_blocks(), st.sampled_from([0, 1, 2]), st.booleans())
def test_stacked_inverse_and_metric_spray_equal_the_component_loops(
        case, order, at_block) -> None:
    """The inverse of the fundamental tensor, and the induced spray's
    contractions one component at a time, at a block and at a point."""
    n, terms, e, block = case
    metric = metric_expression(n, terms, e)
    p = block if at_block else block[0]
    Lj, _, (sp, g), _ = geometry._fundamental_jets(metric, p, order, TOL)
    w = np.array(geometry._unstack(sp, Lj.center, jets.jet_matrix_inverse(sp, g), 2),
                 dtype=object)
    assert same_jets(w, loop_inverse(np.array(geometry._unstack(sp, Lj.center, g, 2),
                                              dtype=object)))
    ys = geometry._var_jets(n, p, order)[n:]
    v = []
    for l in range(n):
        dl = Lj.dy(l)
        acc = dl.dx(0) * ys[0]
        for k in range(1, n):
            acc = acc + dl.dx(k) * ys[k]
        v.append(acc - Lj.dx(l))
    want = []
    for i in range(n):
        acc = w[i, 0] * v[0]
        for l in range(1, n):
            acc = acc + w[i, l] * v[l]
        want.append(0.25 * acc)
    assert same_jets(geometry.spray_from_metric(metric, p, order), want)


# references for the order-0 products, the one-gather derivatives and the
# tensors read off the R stack: the code they replaced

# one nan: numpy's multiply gives either operand of a product of two nans,
# by the loop it takes for the layout and length, in the kernel as well
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def special_stack(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Standard normals, each entry +-0.0, +-inf or nan with probability
    0.4."""
    x = rng.standard_normal(shape)
    odd = rng.random(shape) < 0.4
    x[odd] = rng.choice(SPECIALS, size=shape)[odd]
    return x


@PROPERTY_SETTINGS
@given(st.sampled_from([2, 4, 6, 8]), st.integers(1, 6), st.sampled_from([0, 1, 16, 17]),
       st.sampled_from([1, 5]), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_order_0_products_have_the_kernel_bytes(nvars, k, rows, width, broadcast,
                                                 strided, seed) -> None:
    """`stacked_product` and `contract` over an order-0 space skip the
    kernel: every entry, +-0.0, inf and nan included, has the bytes of its
    own `_mul_coeffs` call, and the result is C-contiguous.  Operands may
    hold more coefficients than T = 1, broadcast, and be laid out in
    Fortran order."""
    sp = jets.space(nvars, 0)
    rng = np.random.default_rng(seed)
    tail = ((rows,) if rows else ())
    a = special_stack((1 if broadcast else k,) + tail + (width,), rng)
    b = special_stack((k,) + tail + (width,), rng)
    if strided:  # the same entries, laid out in Fortran order
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    with np.errstate(invalid="ignore"):
        got = jets.stacked_product(sp, a, b)
        want = np.array([jets._mul_coeffs(sp, a[0 if broadcast else c, ..., :1],
                                          b[c, ..., :1]) for c in range(k)])
        acc = jets.contract(sp, a, b)
        summed = want[0]
        for c in range(1, k):
            summed = summed + want[c]
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert acc.tobytes() == summed.tobytes()


@PROPERTY_SETTINGS
@given(st.sampled_from([2, 4, 6]), st.integers(1, 4), st.sampled_from([(), (3,), (2, 3)]),
       st.sampled_from([0, 1, 5]), st.data(), st.integers(0, 2**32 - 1))
def test_one_gather_derivatives_equal_the_stacked_diff_coeffs(nvars, order, lead, rows,
                                                               data, seed) -> None:
    """At points and blocks, for any sequence of variables, repeats included."""
    sp = jets.space(nvars, order)
    vs = data.draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=nvars + 1))
    c = special_stack(lead + ((rows,) if rows else ()) + (sp.T,),
                      np.random.default_rng(seed))
    tail = 2 if rows else 1
    with np.errstate(invalid="ignore"):
        got = geometry._derivatives(sp, c, vs, tail)
        want = np.stack([jets.diff_coeffs(sp, c, v) for v in vs], axis=c.ndim - tail)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def loop_y_stack(n: int, pa: np.ndarray, sp: jets.JetSpace) -> np.ndarray:
    center = pa if pa.ndim == 2 else tuple(pa)
    return np.array([sp.variable(n + i, center).coeffs for i in range(n)])


def loop_values(obj) -> np.ndarray:
    """The value parts of an array of jets, block axis first, C-contiguous."""
    arr = np.asarray(obj, dtype=object)
    vals = [u.value for u in arr.ravel()]
    if vals and not isinstance(vals[0], float):
        return np.ascontiguousarray(
            np.moveaxis(np.array(vals), -1, 0).reshape(vals[0].shape + arr.shape))
    return np.array(vals, dtype=float).reshape(arr.shape)


def loop_split(b) -> tuple:
    """Ric by adding the jets of R, the curvature scalar, and the scalar
    split with tau from `loop_tau`, its residual from their values."""
    n = b.dim
    R = b.R
    ric = R[0][0]
    for i in range(1, n):
        ric = ric + R[i][i]
    Rj = (1.0 / (n - 1)) * ric
    tau = loop_tau(b)
    tau_vals = loop_values(tau)
    recon = (np.multiply.outer(Rj.value, np.eye(n))
             - b.yvals[..., :, None] * tau_vals[..., None, :])
    residual = np.max(np.abs(loop_values(R) - recon), axis=(-2, -1))
    return ric, Rj, tau, residual


@PROPERTY_SETTINGS
@given(sprays_at_blocks(), st.sampled_from([2, 3, 4]), st.booleans())
def test_Ric_split_and_values_read_off_the_stacks_equal_the_jet_code(
        case, order, at_block) -> None:
    """Ric, the curvature scalar, the split and the value views of G, chi
    and R_.i, at a block bundle and at the bundle of its first point, and
    the y stack at each order below the bundle's."""
    spray, block = case
    b = CurvatureBundle(spray, block if at_block else block[0], order)
    ric, Rj, tau, residual = loop_split(b)
    assert same_jets([b.Ric, b.curvature_scalar], [ric, Rj])
    got = b.splits
    assert same_jets([got[0]] + got[1], [Rj] + tau)
    assert np.asarray(got[2]).tobytes() == np.asarray(residual).tobytes()
    assert b.G_values.tobytes() == loop_values(b.G).tobytes()
    if order >= 3:  # R is of order 1 or more
        assert b.rdot_values.tobytes() == loop_values(
            [Rj.dy(i) for i in range(b.dim)]).tobytes()
        assert b.chi_values.tobytes() == loop_values(b.chi).tobytes()
    for k in range(order + 1):
        sp = jets.space(2 * b.dim, k)
        assert (geometry._y_stack(b.dim, b._pa, sp).tobytes()
                == loop_y_stack(b.dim, b._pa, sp).tobytes())


# references for delta_scalar and the quotients by R: the jet loop
# (`conftest.cov_h_jets`) and the omega and t stages' loops over samples


@PROPERTY_SETTINGS
@given(st.integers(2, 4), st.integers(1, 3), st.integers(-2, 1), st.sampled_from([0, 1, 5]),
       st.integers(0, 2**32 - 1))
def test_stacked_delta_scalar_equals_the_jet_loop(n, order, shift, rows, seed) -> None:
    """At a point and at a block, in dims 2 to 4, for a jet S of order 1
    to 3 and an N of the order below S's, or one more or less: finite
    coefficients with signed zeros."""
    rng = np.random.default_rng(seed)
    pa = rng.uniform(-1.0, 1.0, ((rows,) if rows else ()) + (2 * n,))
    b = CurvatureBundle(types.SimpleNamespace(dim=n), pa, 4)
    nsp = jets.space(2 * n, max(0, order - 1 + shift))
    b.__dict__["_N_stack"] = (nsp, signed_zero_stack(nsp, (n, n) + pa.shape[:-1], rng))
    sp = jets.space(2 * n, order)
    S = jets.Jet(sp, b._center, signed_zero_stack(sp, pa.shape[:-1], rng))
    got = b.delta_scalar(S)
    assert all(u.coeffs.base is got[0].coeffs.base for u in got)  # one stack
    assert same_jets(got, cov_h_jets(b, S, ()))


@PROPERTY_SETTINGS
@given(st.integers(2, 3), st.integers(0, 3), st.sampled_from([0, 1, 5]),
       st.integers(0, 2**32 - 1))
def test_quotients_by_R_equal_the_jet_divisions(n, order, rows, seed) -> None:
    """`metrize._divided` at a floor of 0.0, as the scaled candidate takes
    it, gives each u / R, jet for jet, at a point and at a block, for
    numerators of order 0 to 3 and an R one order above them."""
    rng = np.random.default_rng(seed)
    pa = rng.uniform(-1.0, 1.0, ((rows,) if rows else ()) + (2 * n,))
    center = pa if rows else tuple(pa)
    sp, rsp = jets.space(2 * n, order), jets.space(2 * n, order + 1)
    R = jets.Jet(rsp, center, signed_zero_stack(rsp, pa.shape[:-1], rng))
    R.coeffs[..., 0] = rng.choice([-1.0, 1.0], pa.shape[:-1]) * rng.uniform(0.5, 2.0, pa.shape[:-1])
    nums = [jets.Jet(sp, center, signed_zero_stack(sp, pa.shape[:-1], rng)) for _ in range(n)]
    divided, got = metrize._divided(R, nums, 0.0)
    assert divided.all() and same_jets(got, [u / R for u in nums])


def first_orders(u) -> list:
    """[u, d_0 u, ..., d_{m-1} u], each derivative a `Jet.diff`."""
    return [u.value] + [u.diff(v).value for v in range(u.space.nvars)]


def loop_omega_rows(points, floor: float) -> list:
    """Per sample, what the omega stage read when it took one sample at a
    time, at its point bundle: None where |R| < floor, else `first_orders`
    of each delta_a R / R, delta R from the jet loop."""
    out = []
    for b in points:
        Rj = b.splits[0]
        out.append(None if abs(Rj.value) < floor else
                   [first_orders(d / Rj) for d in cov_h_jets(b, Rj, ())])
    return out


def loop_t_rows(points, floor: float) -> list:
    """The same for the t stage: `first_orders` of each t_i = tau_i / R and
    max |t_{i;j}|, from the sample's own `cov_h`."""
    out = []
    for b in points:
        Rj, tau, _ = b.splits
        if abs(Rj.value) < floor:
            out.append(None)
            continue
        t = [u / Rj for u in tau]
        cov = b.cov_h(np.array(t, dtype=object), ("d",))
        out.append(([first_orders(u) for u in t], float(np.max(np.abs(cov)))))
    return out


@st.composite
def vanishing_R_blocks(draw):
    """(spray, block): G^i = x1 y1 y^i, whose R = (x1^2 - 1) y1^2 is 0.0
    where y1 = 0, as it is at some rows of the block."""
    n = draw(st.sampled_from([2, 3]))
    src = f"dim {n}\n" + "".join(f"spray G{i} = x1*y1*y{i}\n" for i in range(1, n + 1))
    rows = draw(st.integers(1, 5))
    block = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2 * n,
                                            max_size=2 * n), min_size=rows, max_size=rows)))
    # y2 away from 0, so that y is not where y1 = 0
    block[:, n + 1] = np.where(np.abs(block[:, n + 1]) < 0.3, 0.5, block[:, n + 1])
    block[draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), n] = 0.0
    return geometry.ExprSpray(dsl.parse(src)), block


def hex_outcome(fn):
    """fn()'s floats as `float.hex`, in nested lists, or its error.  A hex
    keeps the sign of a zero and drops that of a nan: a product of two nans
    has either one's sign, by the loop numpy takes (see SPECIALS), and no
    reader of omega or t sees it."""
    def as_hex(obj):
        if isinstance(obj, (list, tuple)):
            return [as_hex(o) for o in obj]
        return obj if obj is None else float(obj).hex()

    try:
        return as_hex(fn())
    except (SprayLabError, ArithmeticError) as exc:
        return (type(exc), str(exc))


@contextlib.contextmanager
def failing_at(bundles, names):
    """The bundle methods `names` raise at the given bundles, so that a
    stage taken there falls back to one-row block bundles."""
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            def elsewhere(b, *args, _fn=getattr(CurvatureBundle, name)):
                if any(b is x for x in bundles):
                    raise SprayLabError("not at this block")
                return _fn(b, *args)
            mp.setattr(CurvatureBundle, name, elsewhere)
        yield


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(st.one_of(poisoned_blocks().map(lambda case: case[:2]), vanishing_R_blocks()),
       st.sampled_from(["0", "row", "inf"]), st.integers(0, 4), st.booleans())
def test_quotient_stages_equal_the_loops_over_samples(case, floor_kind, k, fails) -> None:
    """The omega and t stages, read per block through
    `classify.bundle_rows` as the verdicts read them, give each sample the
    `float.hex` of the loop over samples they replaced, or raise its first
    error: on sprays with an inf or nan at some rows, or with R = 0.0 at
    some, for a floor of 0.0 (every row divided), the |R| of a row (the
    rows under it skipped) or inf (no row divided); with the block's stage
    failing, each row is taken on a one-row block bundle.  A block that
    succeeds takes one reciprocal of R; the split's jets, whose tau the t
    stage reads, are taken before, with their own reciprocal of y^{i0}."""
    spray, block = case
    with np.errstate(all="ignore"):
        blocks = tuple(classify.block_bundles(spray, samples_at(block)))
        for _, b, _ in blocks:
            b.splits
        decs = [dec for _, _, ds in blocks for dec in ds]
        floor = {"0": 0.0, "row": abs(decs[k % len(decs)].R),
                 "inf": np.inf}[floor_kind]
        points = [CurvatureBundle(spray, pt, 4) for pt in block]
        for stage, loop, names in ((metrize._omega_rows, loop_omega_rows, ["delta_scalar"]),
                                   (metrize._t_rows, loop_t_rows, ["cov_h"])):
            recips = []
            reciprocal = jets.Jet.reciprocal
            with pytest.MonkeyPatch.context() as mp, \
                    failing_at([b for _, b, _ in blocks], names if fails else []):
                mp.setattr(jets.Jet, "reciprocal", lambda u: recips.append(u) or reciprocal(u))
                got = hex_outcome(lambda: [row for _, b, _ in blocks
                                           for row in classify.bundle_rows(stage, b, floor)])
            assert got == hex_outcome(lambda: loop(points, floor))
            if not fails and isinstance(got, list):
                assert [len(u.coeffs) for u in recips] == [len(block)]


# -- prefix property of truncation --------------------------------------------


def dsl_trees(numbers=st.integers(-14, 14).map(lambda k: k / 7),
              names=("x1", "x2", "y1", "y2")):
    """Random expression trees in the variables `names`, by default those
    of a dim-2 chart."""
    leaves = st.one_of(
        numbers.map(dsl.num),
        st.sampled_from(names).map(dsl.var))

    def extend(children):
        binary = st.sampled_from([dsl.add, dsl.sub, dsl.mul, dsl.div])
        real_power = st.sampled_from([0.5, -0.5, 1.5, 2.5])
        return st.one_of(
            children.map(dsl.neg),
            st.tuples(binary, children, children).map(lambda t: t[0](t[1], t[2])),
            st.tuples(children, st.integers(-3, 4)).map(lambda t: dsl.powi(*t)),
            st.tuples(children, real_power).map(
                lambda t: dsl.Node("pow", a=t[0], b=dsl.num(t[1]))),
            st.tuples(st.sampled_from(dsl.FUNCTIONS), children).map(
                lambda t: dsl.call(*t)))

    return st.recursive(leaves, extend, max_leaves=8)


def tree_jet(tree, order: int, center):
    sp = jets.space(4, order)
    env = [sp.variable(v, center) for v in range(4)]
    return geometry._as_jet(dsl.evaluate(tree, env, dim=2), env[0])


@st.composite
def centers(draw):
    """A point center (a tuple) or a block center of 1 to 4 rows."""
    coord = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        return tuple(draw(st.lists(coord, min_size=4, max_size=4)))
    rows = draw(st.integers(1, 4))
    return np.array(draw(st.lists(st.lists(coord, min_size=4, max_size=4),
                                  min_size=rows, max_size=rows)))


@st.composite
def orders(draw):
    """(K, k) with 1 <= k < K <= 4."""
    high = draw(st.integers(2, 4))
    return high, draw(st.integers(1, high - 1))


def same_bytes(high, low) -> bool:
    cut = high.truncated(low.order)
    return (cut.space is low.space
            and cut.coeffs.tobytes() == low.coeffs.tobytes())


PREFIX_SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@PREFIX_SETTINGS
@given(dsl_trees(), centers(), orders())
def test_truncated_jets_of_dsl_trees_equal_lower_order_jets_bytewise(
        tree, center, ks) -> None:
    high_order, low_order = ks
    try:
        high = tree_jet(tree, high_order, center)
    except (DomainError, ArithmeticError):
        assume(False)
    # an overflow in a high coefficient reaches the low ones as inf * 0
    assume(bool(np.all(np.isfinite(high.coeffs))))
    assert same_bytes(high, tree_jet(tree, low_order, center)), dsl.pretty(tree)


@settings(PREFIX_SETTINGS, max_examples=100)
@given(st.lists(dsl_trees(), min_size=4, max_size=4), centers(), orders())
def test_truncated_jet_matrix_inverse_equals_lower_order_inverse_bytewise(
        trees, center, ks) -> None:
    high_order, low_order = ks

    def matrix(order):
        m = np.empty((2, 2), dtype=object)
        for idx, tree in zip(np.ndindex(2, 2), trees):
            m[idx] = tree_jet(tree, order, center) + (3.0 if idx[0] == idx[1] else 0.0)
        return m

    try:
        high = jet_inverse(matrix(high_order))
    except (DomainError, ArithmeticError):
        assume(False)
    assume(all(bool(np.all(np.isfinite(u.coeffs))) for u in high.ravel()))
    low = jet_inverse(matrix(low_order))
    for idx in np.ndindex(2, 2):
        assert same_bytes(high[idx], low[idx])


# -- Horner passes on prefix spaces against the full passes ----------------------


# the exponent k of the magnitude 2**k of a sweep operand's derivative
# coefficients: half the draws small, half from small to past overflow, so
# that operands fall on both sides of the bound of `jets._sweep_finite`
SWEEP_EXPONENTS = st.one_of(st.integers(-8, 16), st.integers(-8, 600))
SWEEP_SPOILS = st.sampled_from([0.0, 0.0, 0.0, np.inf, -np.inf, np.nan])


def sweep_coeffs(sp: jets.JetSpace, rows: int, seed: int, k: int,
                 spoil: float) -> np.ndarray:
    """(rows, T) coefficients, or (T,) for rows == 0: value parts of
    magnitude 0.5 to 2, and standard-normal derivative coefficients times
    2**k, a third of them +0.0 or -0.0; `spoil`, if nonzero, sits at one
    derivative coefficient of one row."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((max(rows, 1), sp.T)) * 2.0 ** k
    zero = rng.random(x.shape) < 0.33
    x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
    x[:, 0] = rng.uniform(0.5, 2.0, len(x)) * rng.choice([-1.0, 1.0], len(x))
    if spoil and sp.order:
        x[rng.integers(len(x)), rng.integers(1, sp.T)] = spoil
    return x if rows else x[0]


def nan_blind_bytes(x: np.ndarray) -> bytes:
    """The bytes of x with every nan made one nan.  numpy's float64 loops
    return either operand of an operation on two nans, by the loop they
    take for the arrays' length and layout, so a nan's sign is not the
    arithmetic's: the same order-1 inverse at a point, on the path the
    prefix passes leave alone, gave a nan of either sign by what the
    process had run before it."""
    return np.where(np.isnan(x), np.nan, x).tobytes()


def sweep_center(nvars: int, rows: int):
    center = np.linspace(-1.0, 1.0, max(rows, 1) * nvars).reshape(-1, nvars)
    return center if rows else tuple(center[0])


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.sampled_from([(2, 7), (4, 6), (6, 4), (8, 3)]).flatmap(
           lambda space: st.tuples(st.just(space[0]), st.integers(0, space[1]))),
       st.sampled_from([0, 1, 2, 17, 64]), st.integers(0, 2**32 - 1),
       SWEEP_EXPONENTS, SWEEP_SPOILS, SWEEP_EXPONENTS)
def test_reciprocal_and_series_passes_equal_the_full_passes_bytewise(
        space, rows, seed, k, spoil, kc) -> None:
    sp = jets.space(*space)
    u = jets.Jet(sp, sweep_center(sp.nvars, rows), sweep_coeffs(sp, rows, seed, k, spoil))
    c = [np.where(np.arange(max(rows, 1)) % 5 == j % 5, -0.0,
                  np.linspace(-1.0, 2.0, max(rows, 1)) * 2.0 ** kc / (j + 1))
         for j in range(sp.order + 1)]
    c = c if rows else [float(x[0]) for x in c]
    with np.errstate(all="ignore"):
        assert u.reciprocal().coeffs.tobytes() == loop_reciprocal(u).coeffs.tobytes()
        assert u._compose(c).coeffs.tobytes() == loop_compose(u, c).coeffs.tobytes()


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.sampled_from([(2, 6), (3, 4)]).flatmap(
           lambda space: st.tuples(st.just(space[0]), st.integers(0, space[1]))),
       st.sampled_from([0, 1, 17, 64]), st.integers(0, 2**32 - 1),
       SWEEP_EXPONENTS, SWEEP_SPOILS)
def test_jet_matrix_inverse_passes_equal_the_full_passes_bytewise(
        shape, rows, seed, k, spoil) -> None:
    n, order = shape
    sp = jets.space(2 * n, order)
    m = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        spoilt = spoil if (i, j) == (seed % n, (seed // n) % n) else 0.0
        x = sweep_coeffs(sp, rows, seed + n * i + j, k, spoilt)
        x[..., 0] = np.abs(x[..., 0]) * (2.0 * n if i == j else 0.25)
        m[i, j] = jets.Jet(sp, sweep_center(2 * n, rows), x)
    with np.errstate(all="ignore"):
        got, want = jet_inverse(m), loop_inverse(m)
    for idx in np.ndindex(n, n):
        assert nan_blind_bytes(got[idx].coeffs) == nan_blind_bytes(want[idx].coeffs)


# -- jets against the oracle's Taylor2, and the series laws ----------------------

# first and second partials in the order of a gradient and of the upper
# triangle of a Hessian
FIRST_AND_SECOND = [tuple(int(v == i) for v in range(4)) for i in range(4)] + [
    tuple(int(v == i) + int(v == j) for v in range(4))
    for i in range(4) for j in range(i, 4)]
# first and second partials in the order of Taylor2's gradient and of its
# Hessian's entries, d2/dz^i dy^j for i in 0..3 and j in 0..1
TAYLOR2_PARTIALS = FIRST_AND_SECOND[:4] + [
    tuple(int(v == i) + int(v == 2 + j) for v in range(4))
    for i in range(4) for j in range(2)]


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(dsl_trees(), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_jet_value_gradient_and_hessian_match_taylor2(tree, point) -> None:
    try:
        with np.errstate(all="ignore"):
            jet = tree_jet(tree, 2, tuple(point))
            env = oracle.Taylor2.variables(np.array([point]))
            t = dsl.evaluate(tree, env, dim=2)
    except (DomainError, ArithmeticError, ValueError):
        assume(False)
    t = t if isinstance(t, oracle.Taylor2) else env[0]._lift(t)
    want = np.concatenate([t.val, t.grad[0], t.hess[0].ravel()])
    got = np.array([jet.value] + [jet.partial(a) for a in TAYLOR2_PARTIALS])
    assume(bool(np.all(np.isfinite(want)) and np.all(np.isfinite(got))))
    assert np.max(np.abs(got - want)) <= TAYLOR2_BOUND * np.max(np.abs(want)), \
        dsl.pretty(tree)


@st.composite
def metric_trees(draw):
    """y1 y1 + y2^2 + t, with t a dsl tree or c a^2 + b b + d of dsl trees
    a, b and numbers c, d: constant factors and addends, and both kinds of
    square.  The y-squares keep most fundamental tensors regular."""
    y1, y2 = dsl.var("y1"), dsl.var("y2")
    t = draw(dsl_trees())
    if draw(st.booleans()):
        b = draw(dsl_trees())
        c, d = (dsl.num(draw(st.integers(-14, 14)) / 7) for _ in range(2))
        t = dsl.add(dsl.add(dsl.mul(c, dsl.powi(t, 2)), dsl.mul(b, b)), d)
    return dsl.add(dsl.add(dsl.mul(y1, y1), dsl.powi(y2, 2)), t)


def spray_outcome(fn, P):
    """The bytes of fn(P), or the type and text of its error."""
    try:
        with np.errstate(all="ignore"):
            return fn(P).tobytes()
    except (DomainError, ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(metric_trees(), st.one_of(st.integers(1, 64), st.integers(1, 1024)),
       st.sampled_from([-1.0, 0.1]), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=3))
def test_induced_route_equals_the_full_hessian_route_bytewise(
        tree, rows, low, seed, spoils) -> None:
    # points in [-1, 1] or [0.1, 1], where fewer rows leave a domain, with
    # an inf or nan at some rows
    rng = np.random.default_rng(seed)
    P = rng.uniform(low, 1.0, size=(rows, 4))
    for v in spoils:
        P[rng.integers(rows), rng.integers(4)] = v
    metric = geometry.ExprMetric(dsl.ProblemDef(dim=2, kind="metric", exprs=(tree,)))
    got = spray_outcome(oracle.spray_values(geometry.MetricSpray(metric)), P)
    assert got == spray_outcome(lambda Q: loop_induced(metric, Q), P), \
        dsl.pretty(tree)

    # and every subtree of L: each entry Taylor2 carries, signed zeros
    # included, which the spray's values can hide
    subtrees, todo = [], [tree]
    while todo:
        node = todo.pop()
        subtrees.append(node)
        todo += [c for c in (node.a, node.b) if c is not None]
    tape = dsl.Tape(subtrees, 2)

    def taylor2(env):
        out = []
        for t in dsl.evaluate(tape, env):
            t = t if isinstance(t, (oracle.Taylor2, FullTaylor2)) else env[0]._lift(t)
            hess = t.hess[:, :, 2:] if isinstance(t, FullTaylor2) else t.hess
            out += [t.val, t.grad.ravel(), hess.ravel()]
        return np.concatenate(out)

    got = spray_outcome(lambda Q: taylor2(oracle.Taylor2.variables(Q)), P)
    assert got == spray_outcome(lambda Q: taylor2(loop_taylor2(Q)), P), \
        dsl.pretty(tree)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(dsl_trees(), centers(), st.integers(1, 4))
def test_exp_of_ln_and_u_times_its_reciprocal(tree, center, order) -> None:
    try:
        with np.errstate(all="ignore"):
            u = tree_jet(tree, order, center)
            one = u * u.reciprocal()
            back = jets.exp(jets.ln(u)) if np.all(u.coeffs.T[0] > 0.0) else u
    except (DomainError, ArithmeticError, ValueError):
        assume(False)
    C, one, back = (np.atleast_2d(v.coeffs) for v in (u, one, back))
    assume(bool(np.all(np.isfinite(np.concatenate([C, one, back])))))
    # per row: the largest coefficient, and the condition (scale / |value|)^k
    scale = np.max(np.abs(C), axis=1)
    cond = np.maximum(1.0, scale / np.abs(C[:, 0])) ** order
    one[:, 0] -= 1.0
    assert np.all(np.max(np.abs(one), axis=1) <= LAW_BOUND * cond), dsl.pretty(tree)
    assert np.all(np.max(np.abs(back - C), axis=1) <= LAW_BOUND * scale * cond), \
        dsl.pretty(tree)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(dsl_trees(), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_jet_partials_match_fd_partial(tree, point) -> None:
    def f(env):
        return dsl.evaluate(tree, env, dim=2)

    try:
        with np.errstate(all="ignore"):
            jet = tree_jet(tree, 4, tuple(point))
            fd, half = (np.array([fd_partial(f, point, a, h)
                                  for a in FIRST_AND_SECOND])
                        for h in (FD_STEP, FD_STEP / 2))
    except (DomainError, ArithmeticError, ValueError):
        assume(False)
    got = np.array([jet.partial(a) for a in FIRST_AND_SECOND])
    # every partial of order at most 4 at the point
    partials = jet.coeffs * jet.space._fact
    assume(bool(np.all(np.isfinite(partials)) and np.all(np.isfinite(fd))))
    scale = max(1.0, float(np.max(np.abs(partials))))
    # a kink of abs or a pole inside the stencil: the differences at h and
    # h/2 disagree, whatever the jet says
    assume(bool(np.max(np.abs(fd - half)) <= FD_BOUND * scale))
    assert np.max(np.abs(got - fd)) <= FD_BOUND * scale, dsl.pretty(tree)


def _bundle_jets(b) -> list:
    """G, N, R and the curvature scalar of a bundle, as one flat list."""
    flat = list(b.G) + [u for row in b.N for u in row]
    flat += [u for row in b.R for u in row]
    return flat + [b.curvature_scalar]


@pytest.mark.parametrize("name", corpus.fixture_names())
def test_order_4_bundles_truncate_to_order_3_bundles_bytewise(name) -> None:
    # the rows of the report's order-4 block bundles against the order-3
    # point bundles the metric candidates and the witness check once built
    # at each sample
    fx = corpus.load_fixture(name)
    spray = fx.build()
    samples = sampling.draw(spray, count=64, seed=7, box=fx.box)
    for points, b4, _ in classify.block_bundles(spray, samples, 4):
        for r, pt in enumerate(points):
            b3 = CurvatureBundle(spray, pt, 3)
            pairs = list(zip(_bundle_jets(b4), _bundle_jets(b3)))
            assert len(pairs) == spray.dim * (1 + 2 * spray.dim) + 1
            for high, low in pairs:
                assert same_bytes(jets.Jet(high.space, tuple(pt), high.coeffs[r]), low), (
                    name, pt)


# -- the expression tape -------------------------------------------------------


@st.composite
def shared_roots(draw):
    """Roots built from a few random trees, so that subtrees repeat within
    a root and across roots, and some roots repeat whole."""
    trees = draw(st.lists(dsl_trees(), min_size=1, max_size=3))
    pick = st.sampled_from(trees)
    binary = st.sampled_from([dsl.add, dsl.sub, dsl.mul, dsl.div])
    root = st.one_of(
        pick,
        st.tuples(binary, pick, pick).map(lambda t: t[0](t[1], t[2])),
        st.tuples(st.sampled_from(dsl.FUNCTIONS), pick).map(lambda t: dsl.call(*t)),
        pick.map(lambda t: dsl.Node("pow", a=dsl.mul(t, t), b=t)))
    return draw(st.lists(root, min_size=2, max_size=6))


def environments(kind: str, center):
    """The variable values of a chart point or block, as `kind`."""
    if kind == "floats":
        return [float(v) for v in center[0]]
    if kind == "arrays":
        return [center[:, v].copy() for v in range(4)]
    if kind == "taylor2":
        return oracle.Taylor2.variables(center)
    sp = jets.space(4, 3)
    at = tuple(center[0]) if kind == "point jets" else center
    return [sp.variable(v, at) for v in range(4)]


def value_bytes(v) -> bytes:
    if isinstance(v, jets.Jet):
        return v.coeffs.tobytes()
    if isinstance(v, oracle.Taylor2):
        return v.val.tobytes() + v.grad.tobytes() + v.hess.tobytes()
    if isinstance(v, np.ndarray):
        return v.tobytes()
    return struct.pack("<d", v)


def outcome(fn):
    """The bytes of each value fn returns, or the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return [value_bytes(v) for v in fn()]
    except (DomainError, ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


TAPE_ENVS = ["floats", "arrays", "point jets", "block jets", "taylor2"]


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(shared_roots(), st.sampled_from(TAPE_ENVS),
       st.lists(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_one_tape_gives_each_root_the_bytes_of_its_own_tape(roots, kind, rows) -> None:
    center = np.array(rows)
    env = environments(kind, center)
    shared = outcome(lambda: dsl.evaluate(dsl.Tape(roots, 2), env))
    # root by root, in order: the first root that fails decides the error
    alone = outcome(lambda: [dsl.evaluate(dsl.Tape((r,), 2), env)[0] for r in roots])
    assert shared == alone


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(shared_roots())
def test_a_tape_has_the_ops_of_the_recursive_walk(roots) -> None:
    # the explicit stack emits each node in the post-order of the recursion
    tape = dsl.Tape(roots, 2)
    consts, loads, outputs, ops = loop_tape(roots, 2)
    assert [c if c is None else (type(c), float(c).hex()) for c in tape.consts] == \
        [c if c is None else (type(c), float(c).hex()) for c in consts]
    assert (tape.loads, tape.outputs) == (loads, outputs)
    assert [o[:4] for o in tape.ops] == ops


# dsl_trees' numbers plus negative numbers of every size, -0.0 among them
SIGNED_NUMBERS = st.one_of(
    st.integers(-14, 14).map(lambda k: k / 7),
    st.floats(max_value=-0.0, allow_nan=False, allow_infinity=False))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(dsl_trees(SIGNED_NUMBERS),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_pretty_text_parses_back_to_the_same_float_bits(tree, point) -> None:
    text = dsl.pretty(tree)
    again = dsl.parse(f"dim 2\nmetric L = {text}\n").exprs[0]
    assert (outcome(lambda: [dsl.evaluate(again, point)])
            == outcome(lambda: [dsl.evaluate(tree, point)])), text


def rebuilt(node):
    """An equal tree of new node objects, each field but the operands the
    same object."""
    if node.__class__ is not dsl.Node:
        return node
    return dsl.Node(node.kind, rebuilt(node.a), rebuilt(node.b), node.value, node.name, node.k)


# few numbers, so that random trees often compare equal: signed zeros, and
# nans that are one object or new ones
NODE_NUMBERS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan]),
                         st.integers(0, 1).map(lambda _: float("nan")))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.lists(dsl_trees(NODE_NUMBERS, names=("x1", "y1")), min_size=1, max_size=3),
       st.data())
def test_node_methods_are_the_dataclass_methods(trees, data) -> None:
    # subtrees shared within and across trees, equal trees of new nodes, and
    # operations of operations, so that sums and quotients nest
    binary = st.sampled_from([dsl.add, dsl.sub, dsl.mul, dsl.div])
    for _ in range(2):
        pick = st.sampled_from(trees)
        trees += data.draw(st.lists(st.one_of(
            pick.map(rebuilt),
            st.tuples(binary, pick, pick).map(lambda t: t[0](t[1], t[2])),
            st.tuples(binary, pick, pick).map(lambda t: t[0](rebuilt(t[1]), t[2]))),
            max_size=4))
    made: dict = {}
    refs = [dataclass_tree(t, made) for t in trees]
    for t, r in zip(trees, refs):
        assert repr(t) == repr(r)
        assert hash(t) == hash(r)
        assert dsl.pretty(t) == loop_pretty(t)
    for t, r in zip(trees, refs):
        for u, q in zip(trees, refs):
            assert (t == u, t != u) == (r == q, r != q), (repr(t), repr(u))


# -- the parser against the recursive descent -----------------------------------


# tokens of every kind: numbers (one beyond float range, one in other digits),
# chart variables in and out of range, consts, names no rule reads,
# functions, operators, keywords, characters that start no token, comments
SOURCE_TOKENS = st.sampled_from([
    "0", "2", "2.5", ".5", "3.", "1e3", "2.5E-1", "1e999", "\u0663",
    "x1", "x2", "y1", "y2", "x3", "y0", "x01", "c", "r", "bogus", "G1", "L", "_",
    *dsl.FUNCTIONS, "+", "-", "*", "/", "^", "(", ")", "=", ",",
    "dim", "const", "spray", "metric", "guard", "@", "$", "\u00e9", ".", "# note"])
FRAGMENTS = st.sampled_from([
    "sqrt(x1, y1)", "exp(y1, y2, 2)", "ln()", "cos(x1", "(x1 + (y1)", "x1 ^ -2 ^ 0.5",
    "-(-y1)^-2", "2^3^2", "1e999 * y1", "c*y1^2", "r^c", "y1 y2", "+y1", "x1^(-0)",
    "x3 + y1", "y0*y1", "x01^2", "sin(c)^-c"])
HEADERS = st.sampled_from(["dim 2"] * 4 + [
    "dim 1", "  dim 2", "dim 0", "dim 2.0", "dim 1e0", "dim 2.5", "dim 1e999", "dim",
    "dim 2 x1", "dim x", "dims 2", "dim @", "", "# only a comment"])
HEADS = st.sampled_from(["spray G1 =", "spray G2 =", "metric L =", "guard ="] * 2 + [
    "spray G3 =", "spray G01 =", "spray G0 =", "spray G =", "spray 1 =", "spray G1",
    "metric =", "guard", "  spray G2 =", "dim 2", "bogus =", ""])
# whole const statements, some of which no parse takes
CONSTS = st.sampled_from([
    "const r = 2", "const r = -0.5", "const x1 = 3", "const y2 = 1", "const c = 0.25",
    "const r =", "const r = -", "const r = 1e999", "const r = -1e999", "const r = 2 2",
    "const r", "const 1 = 2", "const r = x1", "  const r = .5e1 # note"])
# the trees of a dim-2 chart, with the const c among their variables
SOURCE_TREES = dsl_trees(SIGNED_NUMBERS, ("x1", "x2", "y1", "y2", "c")).map(dsl.pretty)


@st.composite
def spray_texts(draw):
    """(text, consts): a header and statements, or a spray or metric file
    with a const and a guard, with statements put in; the bodies of the
    statements other than const are printed trees, fragments, runs of
    random tokens, or empty."""
    body = st.one_of(st.just(""), SOURCE_TREES, SOURCE_TREES, FRAGMENTS, FRAGMENTS,
                     st.lists(SOURCE_TOKENS, max_size=10).map(" ".join),
                     st.lists(SOURCE_TOKENS, max_size=10).map("".join))
    statement = st.one_of(CONSTS, st.tuples(HEADS, body).map(" ".join))
    if draw(st.booleans()):
        lines = [draw(HEADERS)]
        for _ in range(draw(st.integers(0, 6))):
            lines.append(draw(statement))
    else:
        exprs = (["spray G1", "spray G2"] if draw(st.booleans()) else ["metric L"]) + ["guard"]
        tree = st.one_of(SOURCE_TREES, SOURCE_TREES, SOURCE_TREES, FRAGMENTS)
        lines = ["dim 2", "const c = 0.5"] + [f"{e} = {draw(tree)}" for e in exprs]
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(1, len(lines))), draw(statement))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["\n", ""]))
    consts = draw(st.sampled_from([None] * 4 + [{"c": 0.25}, {"c": -0.0}, {"r": 3},
                                                {"nope": 1.0}, {"c": float("nan")}]))
    return text, consts


def parsed(parse, text: str, consts):
    """The problem `parse` gives and its repr, or its error's type and text."""
    try:
        problem = parse(text, consts, "p")
    except Exception as exc:
        return type(exc), str(exc)
    return problem, repr(problem)


# what `dsl.parse` refuses and the recursive descent took
REFUSED = re.compile(r"line (\d+), col \d+: expected (a constant name that is not a chart "
                     r"variable|a single declaration of \w+), found '(\w+)'")


@settings(PROPERTY_SETTINGS, max_examples=600)
@given(spray_texts())
def test_parse_gives_the_trees_and_errors_of_the_recursive_descent(case) -> None:
    text, consts = case
    got = parsed(dsl.parse, text, consts)
    want = parsed(loop_parse, text, consts)
    refused = got[0] is SpraySyntaxError and REFUSED.fullmatch(got[1])
    if not refused:
        assert got == want, text
        return
    # a refusal: the lines before it and its own parse in the recursive
    # descent, and its const is named like a chart variable or declared twice
    line, reason, const = refused.groups()
    head = text.splitlines()[:int(line)]
    before = parsed(loop_parse, "\n".join(head), consts)
    assert (isinstance(before[0], dsl.ProblemDef) or before[0] is ParamError
            or before[0] is SpraySyntaxError and "expected definitions for" in before[1])
    if "chart" in reason:
        assert re.fullmatch(r"[xy][0-9]+", const)
    else:
        assert sum(re.match(rf"\s*const\s+{const}\b", t) is not None for t in head) == 2


# -- column masks ----------------------------------------------------------------


# dsl_trees' numbers, and inf, -inf and nan at about one number in eleven
MASK_NUMBERS = st.integers(-17, 14).map(
    lambda k: k / 7 if k >= -14 else (np.inf, -np.inf, np.nan)[k + 17])


@st.composite
def masked_evaluations(draw):
    """(tape, dim, env): a tape of 1 to 3 random trees in a chart of dim 1
    to 4, and the first times a number that may be inf, -inf or nan, and
    the variable jets of order 0 to 4 at a block of 1 to 64 rows in
    [-1, 1], with an inf, -inf or nan at up to 3 entries."""
    n = draw(st.sampled_from([4, 3, 2, 1]))
    names = tuple(f"{c}{i}" for c in "xy" for i in range(1, n + 1))
    trees = draw(st.lists(dsl_trees(MASK_NUMBERS, names), min_size=1, max_size=3))
    scalar = draw(st.sampled_from([0.5, np.inf, -np.inf, np.nan]))
    trees.append(dsl.mul(trees[0], dsl.num(scalar)))
    rows, order = draw(st.integers(1, 64)), draw(st.sampled_from([4, 3, 2, 1, 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = rng.uniform(-1.0, 1.0, size=(rows, 2 * n))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        center[rng.integers(rows), rng.integers(2 * n)] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan]))
    sp = jets.space(2 * n, order)
    return dsl.Tape(trees, n), n, [sp.variable(v, center) for v in range(2 * n)]


def finite(x) -> bool:
    return bool(np.all(np.isfinite(x.coeffs if isinstance(x, jets.Jet) else x)))


@contextlib.contextmanager
def recorded_jets(created: list, products: list):
    """Record every jet made while the block runs, and each product by a
    jet or a scalar as (left factor, right factor, result)."""
    init, mul = jets.Jet.__init__, jets.Jet.__mul__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    def recording_mul(self, other):
        out = mul(self, other)
        products.append((self, other, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets.Jet, "__init__", recording_init)
        mp.setattr(jets.Jet, "__mul__", recording_mul)
        mp.setattr(jets.Jet, "__rmul__", recording_mul)
        yield


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(masked_evaluations())
def test_masked_jets_are_zero_outside_their_masks_and_keep_every_bit(case) -> None:
    tape, n, env = case
    created, products = [], []
    with recorded_jets(created, products):
        got = outcome(lambda: dsl.evaluate(tape, env, dim=n))
    assert got == outcome(lambda: unmasked_evaluate(tape, env, n))
    # every jet of the evaluation, intermediates included, in its final state
    for u in created:
        if u.mask is not None:
            outside = ~jets._columns(u.mask, u.space.T)
            assert np.all(u.coeffs[..., outside] == 0.0)
    # a product by a jet with an inf or nan, or by such a scalar, has no
    # mask; a finite scalar keeps every +-0.0 of a jet a +-0.0
    for a, b, out in products:
        T = out.space.T
        factors = [a.coeffs[..., :T], b.coeffs[..., :T]] if isinstance(b, jets.Jet) else [b]
        if not all(map(finite, factors)):
            assert out.mask is None
    # and with none anywhere, every jet the tape gives has one
    if isinstance(got, list) and all(map(finite, created)):
        outs = dsl.evaluate(tape, env, dim=n)
        assert all(u.mask is not None for u in outs if isinstance(u, jets.Jet))
