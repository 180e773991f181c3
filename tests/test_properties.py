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
equals the bundle at that point alone, bit for bit.  So do each row's
scalar split (a view of the block's), its identity residuals, taken in
one call for the block, and its isotropy and constancy checks; a block
whose later row meets the reciprocal floor of the split (the spray
without its |y| term, at a tangent of length 1e-13) attempts the block's
split once, yields the rows before it and raises that row's own error.
The two rules for a block that raises, `classify.rowwise` and
`geometry.RowReader`, are checked on blocks of 1 to 20 rows with failing
rows at random positions: the first row that fails alone raises its own
error after exactly the rows before it, and a block that succeeds is
computed once.  The same holds for the
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
over the triples of a classified block, for the random metrics and for
the candidates.

The class tests (`is_isotropic`, `is_constant`, `is_berwald` and
`_proportional`) at a block bundle, one call for all its rows, give each
row the holds and residual bits of the point tests they replaced, which
are kept here as references, and so do they at each row's point bundle;
`classify_samples` reports, bit for bit, what it reports with every
sample a block of its own and the reference tests.  Their blocks carry an
inf or nan in one coefficient of G at some rows (reaching G's value, R
alone, Gamma and R, or the Berwald tensor), and engine faults at others
(chi off the isotropy defect; tau parallel while Ric is not; both
parallel, without isotropy), so that each self-check fires at some first
row: the block raises there, with the message of the point test.  R^i_jk,
V and chi, taken on stacks, equal the per-component loops they replaced.

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
Value, gradient and Hessian of an order-2 jet agree with `oracle.Taylor2`
to TAYLOR2_BOUND times the largest of Taylor2's entries; the worst over
7000 examples was 5.7e-14.  The series laws exp(ln u) = u and
u * u.reciprocal() = 1 hold per row to LAW_BOUND times the condition
max(1, max|u| / |u(0)|)^k of the order-k jet (times max|u| for the first
law); the worst over 14000 examples was 8.6e-16 in those units.  The first
and second partials of an order-4 jet agree with `jets.fd_partial` at step
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
round-trip test checks that `pretty` text parses back to a tree with the
same float bits, negative numbers and -0.0 included.
"""

from __future__ import annotations

import contextlib
import functools
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spraylab import (classify, corpus, dsl, geometry, jets, metrize, oracle,
                      sampling)
from spraylab.errors import DomainError, SprayLabError
from spraylab.geometry import CurvatureBundle
from spraylab.sampling import TOL

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
    _, tau, _ = b.split
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


def split_bytes(split) -> tuple:
    """A split's jets and residual as bytes, the residual's type kept."""
    r_jet, tau, residual = split
    return (r_jet.coeffs.tobytes(), [t.coeffs.tobytes() for t in tau],
            type(residual), float(residual).hex())


def identity_bytes(res: dict) -> list:
    """An identity dict's keys in order, with each value's type and bits."""
    return [(k, type(v), float(v).hex()) for k, v in res.items()]


def check_bytes(dec, b) -> list:
    """The isotropy and constancy checks of a sample, or the error of the
    first that raises."""
    try:
        iso = classify.is_isotropic(dec, b)
        con = classify.is_constant(dec, b)
    except SprayLabError as exc:
        return [type(exc), str(exc)]
    return [iso.holds, float(iso.residual).hex(), con.holds,
            float(con.residual).hex(),
            None if con.ric_residual is None else float(con.ric_residual).hex()]


@PROPERTY_SETTINGS
@given(sprays_at_blocks())
def test_block_split_and_identities_equal_point_calls_bytewise(case) -> None:
    spray, block = case
    bb = CurvatureBundle(spray, block, 4)
    block_res = geometry.identity_residuals(bb)
    assert len(block_res) == len(block)
    block_jet, block_tau, _ = bb.splits
    for r, (pt, rb) in enumerate(zip(block, bb.rows())):
        pb = CurvatureBundle(spray, pt, 4)
        # the row's split is row r of the block's, not a split of its own
        r_jet, tau, _ = rb.split
        assert np.shares_memory(r_jet.coeffs, block_jet.coeffs)
        assert all(np.shares_memory(t.coeffs, u.coeffs)
                   for t, u in zip(tau, block_tau))
        assert split_bytes(rb.split) == split_bytes(pb.split)
        want = identity_bytes(geometry.identity_residuals(pb))
        assert identity_bytes(block_res[r]) == want
        assert identity_bytes(geometry.identity_residuals(rb)) == want
        assert check_bytes(classify.decompose_scalar(rb), rb) == \
            check_bytes(classify.decompose_scalar(pb), pb)


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
    points, at a point bundle and row by row at a block bundle, whose rows
    read them, while the block runs."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("chi_values", "tau_cov", "ric_cov"):
            fn = CurvatureBundle.__dict__[name].func.__wrapped__

            @functools.wraps(fn)
            def scaled(b, _name=name, _fn=fn):
                v = _fn(b)
                pts = np.reshape(b._pa, (-1, b._pa.shape[-1]))
                k = [faults.get(pt.tobytes(), {}).get(_name, 1.0) for pt in pts]
                if b.point is not None:
                    return v * k[0]
                return v * np.reshape(k, (-1,) + (1,) * (v.ndim - 1))

            prop = geometry._per_row(scaled)
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


POINT_CLASS_TESTS = {"is_isotropic": point_is_isotropic,
                     "is_constant": point_is_constant,
                     "is_berwald": point_is_berwald,
                     "_proportional": point_proportional}


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
        decs = [classify.decompose_scalar(rb) for rb in bb.rows()]
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
            assert rows_or_error(lambda: [test(*args, TOL) for args in point_args]) == want, name


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
    own and the point tests the class tests replaced, or raises the same
    error at the same first sample."""
    spray, block, faults = case
    samples = samples_at(block)
    with np.errstate(all="ignore"), faulty(faults):
        got = report_bytes(spray, samples)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classify, "BLOCK_ROWS", 1)
            for name, reference in POINT_CLASS_TESTS.items():
                mp.setattr(classify, name, reference)
            want = report_bytes(spray, samples)
    assert got == want


@PROPERTY_SETTINGS
@given(sprays_at_blocks(radial=False), st.integers(1, 3))
def test_block_split_past_the_reciprocal_floor_fails_at_that_row(case, k) -> None:
    # a row whose largest |y^i| is below jets.VALUE_FLOOR: its split cannot
    # divide by y^{i0}, so the block's split raises, the rows before it
    # read their own, and that row raises what it raises alone
    spray, block = case
    n = spray.dim
    bad = block[0].copy()
    bad[n:] = 0.0
    bad[n + k % n] = 1e-13
    full = np.vstack([block, bad, block[:1]])
    with pytest.raises(DomainError) as alone:
        CurvatureBundle(spray, bad, 4).split
    with pytest.raises(DomainError):
        CurvatureBundle(spray, full, 4).splits
    got = []
    # the block's split is attempted once, however many rows read it
    attempts = []
    splits = CurvatureBundle.__dict__["splits"]
    split_of = splits.func

    def counted(b):
        if b._block is None and b.point is None:
            attempts.append(len(b._pa))
        return split_of(b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splits, "func", counted)
        with pytest.raises(DomainError) as in_block:
            for pt, b, dec in classify.point_bundles(spray, samples_at(full)):
                assert b._block is not None
                got.append(split_bytes(b.split))
    assert attempts == [len(full)]
    assert str(in_block.value) == str(alone.value)
    assert got == [split_bytes(CurvatureBundle(spray, pt, 4).split)
                   for pt in block]


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
def test_row_reader_reads_the_rows_before_the_first_failing_row(case, shift) -> None:
    block, failing = case
    # the rows' points hold (r, 2r) in x, so fn can tell them apart
    pts = np.concatenate([block, np.full_like(block, 0.6)], axis=1)
    calls, got = [], []
    run = failing_run(failing, calls)

    def fn(b, plus):
        rows = [r + plus for r in run(np.reshape(b._pa, (-1, 4)))]
        return rows if b.point is None else rows[0]

    reader = geometry.RowReader(fn, shift)
    bundles = CurvatureBundle(FLAT_SPRAY, pts, 2).rows()
    if not failing:
        assert [reader(b) for b in bundles] == [r + shift for r in range(len(block))]
        assert calls == [len(block)]  # computed once
        # a point bundle takes its own
        assert reader(CurvatureBundle(FLAT_SPRAY, pts[0], 2)) == shift
        assert calls == [len(block), 1]
        return
    first = min(failing)
    with pytest.raises(DomainError, match=f"^row {first}$"):
        for b in bundles:
            got.append(reader(b))
    assert got == [r + shift for r in range(first)]
    assert calls == [len(block)] + [1] * (first + 1)


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


def residuals(L, triples, parallel=True) -> list:
    return [row[2:] for row in metrize.metric_spray_residuals(L, triples, parallel)]


def block_and_point_triples(spray, block) -> tuple:
    """The classification's triples of the block (rows of one block
    bundle), and triples of point bundles built at each row alone."""
    rows = tuple(classify.point_bundles(spray, samples_at(block)))
    points = tuple((pt, CurvatureBundle(spray, pt, 4), None) for pt in block)
    return rows, points


@PROPERTY_SETTINGS
@given(metrics_at_blocks(), st.booleans())
def test_block_metric_spray_residuals_equal_point_rows_bitwise(case, parallel) -> None:
    n, terms, e, block = case
    metric = metric_expression(n, terms, e)
    try:
        rows, points = block_and_point_triples(geometry.MetricSpray(metric), block)
    except SprayLabError:
        assume(False)
    assert all(b._block is not None for _, b, _ in rows)
    rows_agree(lambda: residuals(metric, rows, parallel),
               lambda: residuals(metric, points, parallel))


@PROPERTY_SETTINGS
@given(sprays_at_blocks())
def test_block_candidate_residuals_equal_point_rows_bitwise(case) -> None:
    spray, block = case
    rows, points = block_and_point_triples(spray, block)
    for k in range(2):
        rows_agree(
            lambda: residuals(candidates(spray, [b for _, b, _ in rows])[k], rows),
            lambda: residuals(candidates(spray, [b for _, b, _ in points])[k], points))


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
    2, has the bits of the curl taken from the order-4 jets of G."""
    spray, block = case
    b = CurvatureBundle(spray, block if at_block else block[0], 4)
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
    Lj, g, _ = geometry._fundamental_jets(metric, p, order, TOL)
    w = jets.jet_matrix_inverse(g)
    assert same_jets(w, loop_inverse(g))
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


# -- prefix property of truncation --------------------------------------------


def dsl_trees(numbers=st.integers(-14, 14).map(lambda k: k / 7)):
    """Random expression trees in the variables of a dim-2 chart."""
    leaves = st.one_of(
        numbers.map(dsl.num),
        st.sampled_from(["x1", "x2", "y1", "y2"]).map(dsl.var))

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
        high = jets.jet_matrix_inverse(matrix(high_order))
    except (DomainError, ArithmeticError):
        assume(False)
    assume(all(bool(np.all(np.isfinite(u.coeffs))) for u in high.ravel()))
    low = jets.jet_matrix_inverse(matrix(low_order))
    for idx in np.ndindex(2, 2):
        assert same_bytes(high[idx], low[idx])


# -- jets against the oracle's Taylor2, and the series laws ----------------------

# first and second partials in the order of Taylor2's gradient and of the
# upper triangle of its Hessian
FIRST_AND_SECOND = [tuple(int(v == i) for v in range(4)) for i in range(4)] + [
    tuple(int(v == i) + int(v == j) for v in range(4))
    for i in range(4) for j in range(i, 4)]


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
    want = np.concatenate([t.val, t.grad[0], t.hess[0][np.triu_indices(4)]])
    got = np.array([jet.value] + [jet.partial(a) for a in FIRST_AND_SECOND])
    assume(bool(np.all(np.isfinite(want)) and np.all(np.isfinite(got))))
    assert np.max(np.abs(got - want)) <= TAYLOR2_BOUND * np.max(np.abs(want)), \
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
            fd, half = (np.array([jets.fd_partial(f, point, a, h)
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
    # the report's order-4 row bundles against the order-3 point bundles
    # the metric candidates and the witness check once built at each sample
    fx = corpus.load_fixture(name)
    spray = fx.build()
    samples = sampling.draw(spray, count=64, seed=7, box=fx.box)
    for pt, b4, _ in classify.point_bundles(spray, samples, 4):
        b3 = CurvatureBundle(spray, pt, 3)
        pairs = list(zip(_bundle_jets(b4), _bundle_jets(b3)))
        assert len(pairs) == spray.dim * (1 + 2 * spray.dim) + 1
        for high, low in pairs:
            assert same_bytes(high, low), (name, pt)


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
