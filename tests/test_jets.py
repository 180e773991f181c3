"""Truncated Taylor arithmetic against an independent symbolic oracle.

The frozen numbers below were produced once with sympy (exact differentiation,
then float evaluation) for

    f = exp(x1*y2)*sin(y1) + sqrt(3 + x2^2*y1) - atan(y2/x2)
        + ln(2 + x1^2) / (1 + y1^2*y2)

at (x1, x2, y1, y2) = (0.3, -0.7, 0.4, 1.1). They are deliberately pasted as
literals so the test never depends on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spraylab import classify, corpus, dsl, geometry, jets
from spraylab.errors import DomainError, OrderError

from conftest import fd_partial, jet_inverse, loop_compose, loop_reciprocal

P = (0.3, -0.7, 0.4, 1.1)

FROZEN = {
    (0, 0, 0, 0): 3.9603118026259194,
    (1, 0, 0, 0): 0.8399521385397535,
    (0, 0, 1, 0): 0.9491472410922632,
    (0, 1, 0, 1): -0.2491349480968862,
    (0, 0, 2, 0): -1.0228336761061727,
    (1, 0, 1, 1): 1.5875923694701903,
    (0, 0, 0, 4): -1.5835419772107686,
}


def fancy(v):
    x1, x2, y1, y2 = v
    num = jets.ln(2.0 + x1 * x1)
    den = 1.0 + y1 * y1 * y2
    return (
        jets.exp(x1 * y2) * jets.sin(y1)
        + jets.sqrt(3.0 + x2 * x2 * y1)
        - jets.atan(y2 / x2)
        + num / den
    )


def test_partials_match_frozen_symbolic_values() -> None:
    for alpha, want in FROZEN.items():
        got = jets.lift(fancy, P, sum(alpha)).partial(alpha)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11), alpha


def test_lift_carries_all_orders_at_once() -> None:
    jet = jets.lift(fancy, P, order=4)
    for alpha, want in FROZEN.items():
        assert jet.partial(alpha) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_polynomial_lift_is_exact() -> None:
    def poly(v):
        x1, x2, y1, y2 = v
        return 2.0 * x1 * x1 * y2 - 3.0 * x2 * y1 * y1 * y1 + 0.5

    jet = jets.lift(poly, (0.1, 0.2, -0.3, 0.4), order=4)
    # d^2/dx1^2 d/dy2 -> 4, exact
    assert jet.partial((2, 0, 0, 1)) == pytest.approx(4.0, abs=1e-13)
    assert jet.partial((0, 1, 3, 0)) == pytest.approx(-18.0, abs=1e-13)
    assert jet.partial((0, 0, 4, 0)) == 0.0


def test_fd_partial_agrees_with_jets_on_smooth_field() -> None:
    rng = np.random.default_rng(7)
    for _ in range(32):
        p = tuple(rng.uniform(0.2, 0.8, size=4) * np.array([1, -1, 1, 1]))
        for alpha in [(1, 0, 0, 0), (0, 0, 2, 0), (1, 0, 1, 0), (0, 1, 1, 1)]:
            exact = jets.lift(fancy, p, sum(alpha)).partial(alpha)
            fd = fd_partial(fancy, p, alpha)
            assert abs(fd - exact) <= max(1e-5, 1e-4 * abs(exact))


def test_fd_partial_zero_order_is_plain_evaluation() -> None:
    assert fd_partial(fancy, P, (0, 0, 0, 0)) == pytest.approx(
        FROZEN[(0, 0, 0, 0)], rel=1e-12
    )


def test_product_and_quotient_rules_random_sweep() -> None:
    rng = np.random.default_rng(11)

    def u(v):
        return v[0] * v[2] + 2.0 * v[3] + 0.7

    def w(v):
        return v[1] * v[1] + v[2] * v[3] + 1.3

    for _ in range(16):
        p = tuple(rng.uniform(-0.8, 0.8, size=4))
        ju = jets.lift(u, p, 3)
        jw = jets.lift(w, p, 3)
        prod = ju * jw
        quot = ju / jw
        for i in range(4):
            a = tuple(1 if k == i else 0 for k in range(4))
            du, dw = ju.partial(a), jw.partial(a)
            assert prod.partial(a) == pytest.approx(du * jw.value + ju.value * dw, rel=1e-12, abs=1e-12)
            assert quot.partial(a) == pytest.approx(
                (du * jw.value - ju.value * dw) / jw.value**2, rel=1e-11, abs=1e-11
            )


def test_mixed_order_arithmetic_truncates() -> None:
    sp4 = jets.space(4, 4)
    sp2 = jets.space(4, 2)
    a = sp4.variable(0, P)
    b = sp2.variable(2, P)
    out = a * b
    assert out.order == 2


def test_graded_lex_prefix_property() -> None:
    lo = jets.space(4, 3)
    hi = jets.space(4, 5)
    assert hi.alphas[: lo.T] == lo.alphas


def test_diff_consumes_order_and_raises_at_zero() -> None:
    jet = jets.lift(fancy, P, 2)
    d1 = jet.diff(0)
    assert d1.order == 1
    assert d1.value == pytest.approx(FROZEN[(1, 0, 0, 0)], rel=1e-11)
    d2 = d1.diff(2)
    assert d2.order == 0
    with pytest.raises(OrderError):
        d2.diff(0)


def test_domain_errors() -> None:
    sp = jets.space(2, 3)
    c = (0.0, 0.0)
    x = sp.variable(0, c)
    with pytest.raises(DomainError):
        jets.sqrt(x)  # value part 0
    with pytest.raises(DomainError):
        jets.ln(x - 1.0)  # value part -1
    with pytest.raises(DomainError):
        (x + 1.0) / x  # divide by value part 0
    with pytest.raises(DomainError):
        jets.absval(x)  # |.| straddling zero


DISPATCHERS = [  # (dispatcher, its name, the method it calls, numpy's, math's)
    (jets.exp, "exp", "exp", np.exp, math.exp),
    (jets.ln, "ln", "ln", np.log, math.log),
    (jets.sqrt, "sqrt", "sqrt", np.sqrt, math.sqrt),
    (jets.sin, "sin", "sin", np.sin, math.sin),
    (jets.cos, "cos", "cos", np.cos, math.cos),
    (jets.atan, "atan", "atan", np.arctan, math.atan),
    (jets.absval, "absval", "absolute", np.abs, abs),
]


@pytest.mark.parametrize("fn, name, method, array_fn, float_fn", DISPATCHERS)
def test_each_dispatcher_keeps_its_name_and_its_routes(fn, name, method, array_fn,
                                                       float_fn) -> None:
    from spraylab.oracle import Taylor2

    assert fn.__name__ == name
    for u in (0.7, 2.5):
        got = fn(u)
        assert type(got) is float and got.hex() == float_fn(u).hex()
    arr = np.array([0.3, 0.7, 1.9])
    assert fn(arr).tobytes() == array_fn(arr).tobytes()
    point = jets.space(2, 3).variable(0, (0.6, 0.2)) + 0.4
    block = jets.space(2, 3).variable(1, np.array([[0.1, 0.5], [0.3, 1.2]])) * 2.0
    for u in (point, block):
        assert fn(u).coeffs.tobytes() == getattr(u, method)().coeffs.tobytes()
    t = Taylor2.variables(np.array([[0.6, 0.2, 0.9, -0.4]]))[2] + 0.1
    want = getattr(t, method)()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(
        (fn(t).val, fn(t).grad, fn(t).hess), (want.val, want.grad, want.hess)))


@pytest.mark.parametrize("fn, name", [(jets.ln, "ln"), (jets.sqrt, "sqrt")])
def test_ln_and_sqrt_of_numbers_at_zero_and_below_raise(fn, name) -> None:
    for u in (0.0, -0.0, -1.5, 0, -3):
        with pytest.raises(DomainError) as err:
            fn(u)
        assert str(err.value) == f"{name}({u!r})"


def test_abs_takes_the_sign_of_the_value_part() -> None:
    def f(v):
        return jets.absval(v[0] - v[1])

    jet = jets.lift(f, (0.3, 0.5), 1)
    assert jet.value == pytest.approx(0.2)
    assert jet.partial((1, 0)) == pytest.approx(-1.0)


def test_integer_powers_work_at_zero_value_part() -> None:
    def f(v):
        return jets.powi(v[1], 2)

    jet = jets.lift(f, (0.5, 0.0), 2)
    assert jet.value == 0.0
    assert jet.partial((0, 2)) == pytest.approx(2.0)


def test_real_power_matches_exp_ln_route() -> None:
    def direct(v):
        return jets.pow_real(v[0], 1.7)

    def routed(v):
        return jets.exp(1.7 * jets.ln(v[0]))

    a = jets.lift(direct, (1.9, 0.2), 4)
    b = jets.lift(routed, (1.9, 0.2), 4)
    np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-12, atol=1e-13)


def test_jet_matrix_inverse_roundtrip() -> None:
    rng = np.random.default_rng(3)
    sp = jets.space(4, 4)
    for _ in range(5):
        center = tuple(rng.uniform(-0.5, 0.5, size=4))
        vs = [sp.variable(i, center) for i in range(4)]
        m = np.empty((2, 2), dtype=object)
        m[0, 0] = 2.0 + vs[0] * vs[2]
        m[0, 1] = 0.3 * vs[3] + vs[1]
        m[1, 0] = vs[0] - 0.5 * vs[2] * vs[3]
        m[1, 1] = 1.5 + jets.sin(vs[1])
        w = jet_inverse(m)
        eye = m @ w  # object-dtype matmul multiplies and adds jets
        for i in range(2):
            for j in range(2):
                want = 1.0 if i == j else 0.0
                got = eye[i, j]
                assert abs(got.value - want) < 1e-12
                # every derivative coefficient of M @ M^{-1} must vanish
                assert np.max(np.abs(got.coeffs[1:])) < 1e-11


# -- block jets -----------------------------------------------------------------

BLOCK = np.array([P, (-0.5, 0.2, 1.3, -0.4), (0.9, 0.1, -0.6, 0.8)])


def test_block_lift_rows_equal_point_lifts_bitwise() -> None:
    # the frozen function exercises every series and the multiply kernel
    block = jets.lift(fancy, BLOCK, 4)
    assert block.coeffs.shape == (3, block.space.T)
    assert np.array_equal(block.value, block.coeffs[:, 0])
    for r, p in enumerate(BLOCK):
        point = jets.lift(fancy, tuple(p), 4)
        assert np.array_equal(block.coeffs[r], point.coeffs)
        assert np.array_equal(block.dx(1).dy(0).coeffs[r], point.dx(1).dy(0).coeffs)


def test_order_3_block_lift_equals_its_point_lifts_stacked() -> None:
    rows = [jets.lift(fancy, tuple(p), 3) for p in BLOCK]
    block = jets.lift(fancy, BLOCK, 3)
    assert np.array_equal(block.coeffs, np.stack([row.coeffs for row in rows]))


def test_block_abs_takes_each_row_sign() -> None:
    u = jets.lift(lambda v: v[0] * v[3], BLOCK, 2)
    out = jets.absval(u)
    for r in range(3):
        sign = 1.0 if u.value[r] > 0 else -1.0
        assert np.array_equal(out.coeffs[r], sign * u.coeffs[r])


def test_block_floor_check_names_the_first_failing_row() -> None:
    u = jets.lift(lambda v: v[0] - 0.5 * v[0], np.array([[1.0, 0.0], [0.0, 1.0], [1e-13, 1.0]]), 2)
    with pytest.raises(DomainError, match=r"value part 0\.0$"):
        u.reciprocal()
    with pytest.raises(DomainError, match=r"ln of jet with value part 0\.0$"):
        u.ln()


def test_block_and_point_jets_do_not_mix() -> None:
    block = jets.lift(lambda v: v[0], BLOCK, 2)
    with pytest.raises(ValueError, match="different centers"):
        block * jets.lift(lambda v: v[0], P, 2)
    with pytest.raises(ValueError, match="different centers"):
        block + jets.lift(lambda v: v[0], BLOCK + 1.0, 2)
    # an equal block center, though another array, pairs
    assert np.array_equal((block * jets.lift(lambda v: v[1], BLOCK.copy(), 2)).coeffs,
                          (block * jets.lift(lambda v: v[1], BLOCK, 2)).coeffs)


# -- the first Horner step ------------------------------------------------------


def signed_zero_jet(rows: int, order: int, seed, spoil: float, nvars: int = 4) -> jets.Jet:
    """A jet of `nvars` variables at a point (rows == 0) or a block, with a
    third of its derivative coefficients +0.0 or -0.0 and value parts away
    from 0; `spoil`, if nonzero, is put at a first-order coefficient of the
    last row."""
    rng = np.random.default_rng(seed)
    sp = jets.space(nvars, order)
    x = rng.standard_normal((max(rows, 1), sp.T))
    zero = rng.random(x.shape) < 0.33
    x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
    x[:, 0] = rng.uniform(0.5, 2.0, len(x)) * rng.choice([-1.0, 1.0], len(x))
    if spoil and order:
        x[-1, 1] = spoil
    center = rng.uniform(-1.0, 1.0, (len(x), nvars))
    return jets.Jet(sp, center if rows else tuple(center[0]), x if rows else x[0])


@pytest.mark.parametrize("rows", [0, 1, 16])
@pytest.mark.parametrize("order", [0, 1, 4])
@pytest.mark.parametrize("spoil", [0.0, np.inf, np.nan])
def test_first_horner_step_has_the_kernel_bytes(rows, order, spoil) -> None:
    u = signed_zero_jet(rows, order, seed=rows * 10 + order, spoil=spoil)
    c = [np.where((np.arange(max(rows, 1)) + k) % 3 == 0, -0.0, 0.75 - k)
         for k in range(order + 1)]
    c = [x if rows else float(x[0]) for x in c]
    with np.errstate(invalid="ignore"):  # a spoiled jet makes nans
        assert u.reciprocal().coeffs.tobytes() == loop_reciprocal(u).coeffs.tobytes()
        assert u._compose(c).coeffs.tobytes() == loop_compose(u, c).coeffs.tobytes()


# -- the multiply kernel's bits -------------------------------------------------

# SHA-256 of the product bytes of `_mul_coeffs`, recorded with the row-major
# block kernel (one scalar gather per product) before the pair-major one:
# the spaces the benchmark workloads build, at a point, at block heights
# 1, 2, 16, 17 and 64, and at one height past a `MUL_CHUNK` chunk.  These
# cases put an inf, -inf or nan in every row, so they never take the
# pruned path of a block multiply.  The sparse cases below were recorded
# with the pair-major kernel before it dropped the table pairs of empty
# columns; their operands are finite but for the "nonfinite" one.
MUL_HEX = Path(__file__).resolve().parent / "data" / "mul_coeffs_hex.json"
MUL_SPACES = [(4, 2), (4, 4), (4, 6), (4, 7), (6, 4), (8, 4)]


def mul_cases() -> list[str]:
    out = []
    for nvars, order in MUL_SPACES:
        step = jets.MUL_CHUNK // len(jets.space(nvars, order)._mul_table[0])
        out += [f"{nvars},{order} point"] + [
            f"{nvars},{order} rows {rows}" for rows in (1, 2, 16, 17, 64, step + 1)]
    return out


def mul_operands(sp: jets.JetSpace, rows: int) -> list[np.ndarray]:
    """Two seeded operands, (rows, T), or (T,) for rows == 0: standard
    normals with a fifth of the entries +0.0 or -0.0, one inf, -inf or nan
    per row at a top-degree coefficient (which pairs only with the value
    coefficient, so it spoils a few bins), and, in a block of two rows or
    more, a nan value in the last row of the first operand."""
    rng = np.random.default_rng([sp.nvars, sp.order, rows])
    top = np.flatnonzero(sp._deg == sp.order)
    out = []
    for k in range(2):
        x = rng.standard_normal((max(rows, 1), sp.T))
        zero = rng.random(x.shape) < 0.2
        x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
        x[np.arange(len(x)), rng.choice(top, len(x))] = rng.choice(
            [np.inf, -np.inf, np.nan], len(x))
        if k == 0 and rows >= 2:
            x[-1, 0] = np.nan
        out.append(x if rows else x[0])
    return out


SPARSE_SPACES = [(4, 4), (6, 4), (8, 4)]
SPARSE_PAIRS = ["constant*dense", "variable*dense", "affine*dense", "monomial*dense",
                "zero*dense", "affine*affine", "constant*monomial", "constant*nonfinite"]


def sparse_mul_cases() -> list[str]:
    out = []
    for nvars, order in SPARSE_SPACES:
        step = jets.MUL_CHUNK // len(jets.space(nvars, order)._mul_table[0])
        out += [f"{nvars},{order} {pair} rows {rows}"
                for pair in SPARSE_PAIRS for rows in (1, 16, 17, 64, step + 1)]
    return out


def sparse_operand(sp: jets.JetSpace, kind: str, rows: int,
                   rng: np.random.Generator) -> np.ndarray:
    """A (rows, T) operand of one sparsity `kind`.  Every entry it leaves
    empty is +0.0 or -0.0, and a fifth of the entries it fills are too:
    "dense" fills every column, "constant" the value column, "variable" the
    value and one first-order column (1.0), "affine" the columns of degree
    at most one, "monomial" one column of degree 1 to `order`, and "zero"
    none.  "nonfinite" is dense, with an inf and a nan in two first-order
    columns, which a constant operand leaves empty."""
    signed_zeros = np.where(rng.random((rows, sp.T)) < 0.5, 0.0, -0.0)
    full = rng.standard_normal((rows, sp.T))
    full[rng.random(full.shape) < 0.2] = 0.0
    full = np.where(full == 0.0, signed_zeros, full)
    first = np.flatnonzero(sp._deg == 1)
    filled = {"dense": np.arange(sp.T), "nonfinite": np.arange(sp.T),
              "constant": [0], "variable": [0], "affine": np.flatnonzero(sp._deg <= 1),
              "monomial": [rng.choice(np.flatnonzero(sp._deg >= 1))], "zero": []}[kind]
    x = signed_zeros.copy()
    x[:, filled] = full[:, filled]
    if kind == "variable":
        x[:, rng.choice(first)] = 1.0
    if kind == "nonfinite":
        j, k = rng.choice(first, 2, replace=False)
        x[0, j] = np.inf
        x[-1, k] = np.nan
    return x


def mul_digest(case: str) -> str:
    space_key, rest = case.split(" ", 1)
    sp = jets.space(*map(int, space_key.split(",")))
    rows = 0 if rest == "point" else int(rest.split()[-1])
    if "*" in rest:
        pair = rest.split()[0]
        rng = np.random.default_rng([sp.nvars, sp.order, rows, SPARSE_PAIRS.index(pair)])
        a, b = (sparse_operand(sp, kind, rows, rng) for kind in pair.split("*"))
    else:
        a, b = mul_operands(sp, rows)
    with np.errstate(invalid="ignore"):  # inf * 0.0 and inf - inf make nans
        got = jets._mul_coeffs(sp, a, b)
    assert got.shape == a.shape and got.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(got).tobytes()).hexdigest()


@pytest.mark.parametrize("case", mul_cases() + sparse_mul_cases())
def test_mul_coeffs_bits_match_record(case) -> None:
    assert mul_digest(case) == json.loads(MUL_HEX.read_text())[case]


# -- the matrix inverse's bits ---------------------------------------------------

# SHA-256 of the stacked coefficient bytes of `jet_matrix_inverse`, recorded
# with the inverse that multiplied every entry through the kernel, one
# component at a time: n x n matrices over 2n variables, at a point and at
# 1, 16 and 17 rows, orders 0 to 4.  The two spoiled cases put an inf or a
# nan at a derivative coefficient, which the constant products must leave
# to the kernel.  The cases at 64 rows, at orders 5 and 6 and the spoiled
# ones at orders 2, 4 and 6 (an inf, a nan or 1e150, whose powers
# overflow) were recorded with every Horner pass at the full order, before
# the passes ran on prefix spaces.
INVERSE_HEX = Path(__file__).resolve().parent / "data" / "jet_inverse_hex.json"
SPOILS = {"inf": np.inf, "nan": np.nan, "huge": 1e150}


def inverse_cases() -> list[str]:
    out = [f"n {n} order {order} rows {rows}"
           for n in (2, 3, 4) for order in range(5) for rows in (0, 1, 16, 17)]
    out += ["n 2 order 3 rows 16 inf", "n 3 order 2 rows 0 nan"]
    out += [f"n {n} order {order} rows 64" for n in (2, 3) for order in range(5)]
    out += [f"n {n} order {order} rows {rows}" for n, orders in ((2, (5, 6)), (3, (5,)))
            for order in orders for rows in (0, 1, 16, 17, 64)]
    return out + [f"n 2 order {order} rows {rows} {spoil}" for order in (2, 4, 6)
                  for rows in (0, 17, 64) for spoil in ("inf", "nan", "huge")]


def inverse_operand(n: int, order: int, rows: int, spoil: float) -> np.ndarray:
    """An n x n matrix of jets over 2n variables at a point (rows == 0) or
    a block: value parts n on the diagonal plus uniform noise, derivative
    coefficients standard normal with a third of them +0.0 or -0.0.  Entry
    (0, 1) has only signed-zero derivative coefficients, entry (0, 0) is
    one order higher, so the inverse truncates it, and `spoil`, if
    nonzero, sits at a first-order coefficient of entry (1, 0)'s last row."""
    rng = np.random.default_rng([n, order, rows])
    center = rng.uniform(-1.0, 1.0, (max(rows, 1), 2 * n))
    m = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            sp = jets.space(2 * n, order + (i == j == 0))
            x = rng.standard_normal((len(center), sp.T))
            zero = rng.random(x.shape) < (1.0 if (i, j) == (0, 1) else 0.33)
            x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
            x[:, 0] = rng.uniform(-0.5, 0.5, len(x)) + (n if i == j else 0.0)
            if spoil and (i, j) == (1, 0) and order:
                x[-1, 1] = spoil
            m[i, j] = jets.Jet(sp, center if rows else tuple(center[0]),
                               x if rows else x[0])
    return m


def inverse_digest(case: str) -> str:
    words = case.split()
    n, order, rows = int(words[1]), int(words[3]), int(words[5])
    spoil = SPOILS.get(words[-1], 0.0)
    with np.errstate(all="ignore"):  # a spoiled entry makes infs and nans
        w = jet_inverse(inverse_operand(n, order, rows, spoil))
    coeffs = np.stack([w[i, j].coeffs for i in range(n) for j in range(n)])
    assert coeffs.shape[-1] == jets.space(2 * n, order).T
    return hashlib.sha256(coeffs.tobytes()).hexdigest()


@pytest.mark.parametrize("case", inverse_cases())
def test_jet_matrix_inverse_bits_match_record(case) -> None:
    assert inverse_digest(case) == json.loads(INVERSE_HEX.read_text())[case]


# -- the series' bits ------------------------------------------------------------

# SHA-256 of the coefficient bytes of `Jet.reciprocal` and of the seven
# series, recorded with every Horner pass at the full order, before the
# passes ran on prefix spaces.  One digest per function, space and spoil
# covers the jet at a point and at blocks of 1, 16, 17 and 64 rows
# (`signed_zero_jet`, positive value parts for ln, sqrt and the real
# power).  The spoil puts an inf, a nan or 1e150, whose powers overflow,
# at a first-order coefficient of the last row, so those cases keep the
# full passes.
SERIES_HEX = Path(__file__).resolve().parent / "data" / "series_hex.json"
SERIES_SPACES = [(4, order) for order in range(8)] + [(6, 3), (6, 6), (8, 2), (8, 4)]
SERIES = {"reciprocal": jets.Jet.reciprocal, "exp": jets.exp, "ln": jets.ln,
          "sqrt": jets.sqrt, "sin": jets.sin, "cos": jets.cos, "atan": jets.atan,
          "pow_real": lambda u: jets.pow_real(u, -1.35)}


def series_cases() -> list[str]:
    return [f"{fn} {nvars},{order} {spoil}" for nvars, order in SERIES_SPACES
            for spoil in ("signed zeros", *SPOILS) for fn in SERIES]


def series_digest(case: str) -> str:
    fn, space_key, spoil = case.split(" ", 2)
    nvars, order = map(int, space_key.split(","))
    digest = hashlib.sha256()
    for rows in (0, 1, 16, 17, 64):
        seed = [nvars, order, rows, ["signed zeros", *SPOILS].index(spoil)]
        u = signed_zero_jet(rows, order, seed, SPOILS.get(spoil, 0.0), nvars)
        if fn in ("ln", "sqrt", "pow_real"):
            u.coeffs[..., 0] = np.abs(u.coeffs[..., 0])
        with np.errstate(all="ignore"):  # a spoiled row makes infs and nans
            out = SERIES[fn](u)
        assert out.coeffs.shape == u.coeffs.shape and out.coeffs.dtype == np.float64
        digest.update(out.coeffs.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", series_cases())
def test_series_bits_match_record(case) -> None:
    assert series_digest(case) == json.loads(SERIES_HEX.read_text())[case]


# -- the kernel work of the Horner passes ----------------------------------------


def kernel_work(monkeypatch, run, prefix: bool) -> int:
    """Table pairs x rows over the multiply kernel calls of run(), a point
    operand one row, with the Horner passes on prefix spaces, or all at
    the full order."""
    work = 0
    mul = jets._mul_coeffs

    def counting(sp, a, b):
        nonlocal work
        work += len(sp._mul_table[0]) * (a.shape[0] if a.ndim == 2 else 1)
        return mul(sp, a, b)

    with monkeypatch.context() as mp:
        mp.setattr(jets, "_mul_coeffs", counting)
        if not prefix:
            mp.setattr(jets, "_sweep_finite", lambda *args, **kwargs: False)
        run()
    return work


def cms20_inverse_operand() -> tuple:
    """The (space, stack) that cms20's order-4 metric spray inverts at a
    64-row block: g = 1/2 d_y d_y L of order 4."""
    seen = []
    metric = corpus.load_fixture("cms20").metric()
    rng = np.random.default_rng(7)
    block = np.column_stack([rng.uniform(0.0, 0.3, (64, 2)), rng.uniform(0.5, 1.0, 64),
                             rng.uniform(-0.3, 0.3, 64)])
    with pytest.MonkeyPatch.context() as mp:
        inverse = jets.jet_matrix_inverse
        mp.setattr(jets, "jet_matrix_inverse",
                   lambda sp, g: seen.append((sp, g)) or inverse(sp, g))
        geometry.spray_from_metric(metric, block, 4)
    return seen[0]


def dense_jet(nvars: int, order: int, rows: int) -> jets.Jet:
    rng = np.random.default_rng([nvars, order, rows])
    x = rng.standard_normal((rows, jets.space(nvars, order).T)) * 0.3
    x[:, 0] = rng.uniform(0.5, 2.0, rows)
    return jets.Jet(jets.space(nvars, order), rng.uniform(-1.0, 1.0, (rows, nvars)), x)


# per row (and per entry product of the inverse's n^3): the table pairs of
# the passes on space(4, k), against those of the passes at the full order;
# a point's passes (row 0 of the block) stay at the full order
@pytest.mark.parametrize("case, prefix_pairs, full_pairs", [
    ("exp order 6", 45 + 165 + 495 + 1287 + 3003, 5 * 3003),
    ("reciprocal order 4", 45 + 165 + 495, 3 * 495),
    ("cms20 inverse order 4", 8 * (45 + 165 + 495), 8 * 3 * 495),
    ("exp order 6 point", 5 * 3003, 5 * 3003),
    ("reciprocal order 4 point", 3 * 495, 3 * 495),
    ("cms20 inverse order 4 point", 8 * 3 * 495, 8 * 3 * 495),
])
def test_prefix_passes_take_the_predicted_kernel_work(
        monkeypatch, case, prefix_pairs, full_pairs) -> None:
    rows = 1 if case.endswith("point") else 64
    if case.startswith("cms20"):
        sp, g = cms20_inverse_operand()
        assert (sp.nvars, sp.order, g.shape[:3]) == (4, 4, (2, 2, 64))
        g = g[:, :, 0] if rows == 1 else g

        def run():
            jets.jet_matrix_inverse(sp, g)
    else:
        u = dense_jet(4, int(case.split()[2]), 64)
        if rows == 1:
            u = jets.Jet(u.space, tuple(u.center[0]), u.coeffs[0])
        run = {"exp": u.exp, "reciprocal": u.reciprocal}[case.split()[0]]
    counts = [kernel_work(monkeypatch, run, prefix) for prefix in (True, False, True, False)]
    assert counts == [rows * prefix_pairs, rows * full_pairs] * 2


# -- the kernel work of masked products ------------------------------------------


def random_spray_source(n: int, rng: np.random.Generator) -> str:
    """A 2-homogeneous spray: quadratic y-terms with x-linear coefficients
    plus y^i |y|, guarded where |y|^2 stays away from zero."""
    norm2 = " + ".join(f"y{j}^2" for j in range(1, n + 1))
    lines = [f"dim {n}"]
    for i in range(1, n + 1):
        terms = [f"({a:.4f} + {b:.4f}*x{rng.integers(1, n + 1)})*y{j}*y{k}"
                 for j in range(1, n + 1) for k in range(j, n + 1)
                 for a, b in [rng.uniform(-0.5, 0.5, size=2)]]
        terms.append(f"{rng.uniform(0.1, 0.5):.4f}*y{i}*sqrt({norm2})")
        lines.append(f"spray G{i} = " + " + ".join(terms))
    lines.append(f"guard = {norm2} - 0.04")
    return "\n".join(lines) + "\n"


def test_dsl_block_products_run_from_masks_and_scan_nothing(monkeypatch) -> None:
    # every (8, 4) block product of a dim-4 spray's tape multiplies by the
    # table of its operands' masks, and no kernel call looks for empty
    # columns
    spray = geometry.spray_of(dsl.parse(random_spray_source(4, np.random.default_rng(7))))
    evaluate, mul, kept = dsl.evaluate, jets._mul_coeffs, jets.JetSpace._kept_pairs
    inside, scans, calls = [False], [0], []

    def in_evaluate(*args, **kwargs):
        inside[0] = True
        try:
            return evaluate(*args, **kwargs)
        finally:
            inside[0] = False

    def counting_kept(sp, in_a, in_b):
        scans[0] += 1
        return kept(sp, in_a, in_b)

    def counting_mul(sp, a, b):
        space = sp.space if isinstance(sp, jets.ProductTable) else sp
        if not (inside[0] and a.ndim == 2 and (space.nvars, space.order) == (8, 4)):
            return mul(sp, a, b)
        before = scans[0]
        out = mul(sp, a, b)
        calls.append((isinstance(sp, jets.ProductTable), scans[0] - before))
        return out

    monkeypatch.setattr(dsl, "evaluate", in_evaluate)
    monkeypatch.setattr(jets, "_mul_coeffs", counting_mul)
    monkeypatch.setattr(jets.JetSpace, "_kept_pairs", counting_kept)
    classify.classify_spray(spray, count=64, seed=7)
    assert len(calls) > 50
    assert calls == [(True, 0)] * len(calls)
