"""Truncated multivariate Taylor (jet) arithmetic.

A `Jet` holds the Taylor coefficients of a scalar function of m chart variables
at a fixed center, truncated at total degree `order`. Coefficients are stored
densely in graded-lex order (degree first, then lexicographic on the exponent
tuple), so the space of order k-1 is literally a prefix of the space of order k
and truncation is a slice.

Throughout the package the m = 2n variables of a chart on the tangent bundle
are ordered x1..xn, y1..yn.

A jet may also carry a leading block axis: `coeffs` of shape (B, T) holds
the jets of one function at the B points of a (B, m) block center, one
row per point.  Every operation acts on the last axis, so the jets of a
whole block of points come from one walk through an expression.  Row r of
a block result equals, bit for bit, the jet computed at point r alone.
`_mul_coeffs` multiplies a block pair-major: it transposes the operands to
(T, rows), gathers whole rows of them per pair of the multiply table, and
bins product p of row r at r*T + ic[p], so one `np.bincount` sums each
coefficient from 0.0 in ascending p, the single-point order.  A block of
at least `PRUNE_PRODUCTS` products whose operands are both finite drops
the table pairs whose `a` or `b` column is zero in every row: such a pair
adds only +0.0 or -0.0 to a sum that starts from +0.0 and is never -0.0,
so no bit moves.  An inf or nan keeps the full table, since inf * 0.0 is
nan.

The jets of a tensor, all of one space, may also be held as one
coefficient array, a stack, shaped (components..., [rows,] T): the
tensor's index axes, then a block's row axis, then the coefficients.
`stacked_product` multiplies two stacks entry by entry with the components
folded into the rows of `_mul_coeffs` calls, so the kernel is unchanged,
each bin is still summed in table order, and every entry has the bits of
the product of its own jets.  `contract` adds such products over an index
in ascending order, as a loop over the jets adds them.  A product by a
constant jet is taken as c * d + 0.0 while both operands are finite
(`constant_product`): the kernel's other products are then +-0.0, which
leave every partial sum from +0.0 as it is, and only a -0.0 product turns
to +0.0.  A non-finite operand keeps the kernel.  `diff_coeffs`
differentiates a stack with one gather.  The series
coefficients and value-floor checks of the transcendental functions are
taken row by row with `math`.  A failed floor check names the first
failing row of that operation.  A point jet's center is a tuple; a block
jet's center is the (B, m) array itself, and jets combine only with jets
at the same center.

The finite-difference oracle `fd_partial` lives here as well. It never touches
jet coefficients: it evaluates the callable over plain floats with nested
central differences, one step per derivative level, and is kept deliberately
naive so it can serve as an independent cross-check of the jet pipeline.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, OrderError

# Value parts closer to zero than this cannot be divided by, square-rooted, etc.
VALUE_FLOOR = 1e-12

# A block multiply gathers one product per (row, pair of the multiply table);
# it runs over chunks of rows holding about this many products, so its
# temporaries (the transposed chunk, its products and their bins, cached
# per height for the full table and built per call for a pruned one) stay
# bounded however tall the block is.  The 66-row block of a dim-3 metric
# spray, lifted to order 6 in 6 variables (18564 pairs), runs in ten
# chunks of the full table.
MUL_CHUNK = 1 << 17

# A block multiply of at least this many products (table pairs x rows)
# drops the pairs of empty columns.  Finding them costs about 15-20 us a
# call, which the smaller multiplies do not win back: on 2-vCPU x86 with
# numpy 2.4, operands of seed-7 benchmark runs took 9 -> 24 us at (4, 2)
# with 16 rows (720 products), about even at (4, 4) with 16 rows (7920),
# and 115 -> 48 us at (6, 4) with 16 rows (29120).
PRUNE_PRODUCTS = 1 << 13

# A product of stacked jets (`stacked_product`, `contract`) folds at most
# this many products into one kernel call, because the kernel's
# temporaries grow with the products of a call, up to `MUL_CHUNK`.  Peak
# memory of one in-process `highdim` pass (seeds 921, 922; 2-vCPU x86,
# numpy 2.4): 46.2 MB with one component per call, 46.4-46.6 MB at this
# bound, 47.1-47.3 MB at 1 << 15 and 50.9-51.2 MB at `MUL_CHUNK`.  The R of a
# dim-2 spray and the inverse of a dim-2 metric's order-2 Hessian fold
# whole; larger stacks fold by steps and entries.
STACK_PRODUCTS = 1 << 14

_EXHAUSTED = "jet order exhausted: cannot differentiate an order-0 jet"


def _alphas(nvars: int, order: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        block = set()
        for combo in combinations_with_replacement(range(nvars), deg):
            a = [0] * nvars
            for v in combo:
                a[v] += 1
            block.add(tuple(a))
        out.extend(sorted(block))
    return tuple(out)


class JetSpace:
    """Coefficient bookkeeping for jets in `nvars` variables at a given order."""

    def __init__(self, nvars: int, order: int):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        self.nvars = nvars
        self.order = order
        self.alphas = _alphas(nvars, order)
        self.T = len(self.alphas)
        self.index = {a: i for i, a in enumerate(self.alphas)}
        arr = np.array(self.alphas, dtype=np.int64)
        self._deg = arr.sum(axis=1)
        # integer encoding of exponent tuples, unique for entries <= order
        base = order + 1
        self._enc = arr @ (base ** np.arange(nvars, dtype=np.int64))
        self._enc_sorted = np.sort(self._enc)
        self._enc_perm = np.argsort(self._enc)
        self._fact = np.array(
            [math.prod(math.factorial(e) for e in a) for a in self.alphas], dtype=float
        )
        self._mul_table = self._build_mul_table(arr)
        self._pair_bins: dict[int, np.ndarray] = {}
        self._dmaps: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _locate(self, enc: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._enc_sorted, enc)
        return self._enc_perm[pos]

    def _build_mul_table(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ia, ib = np.nonzero(self._deg[:, None] + self._deg[None, :] <= self.order)
        ic = self._locate(self._enc[ia] + self._enc[ib])
        return ia, ib, ic

    def _bins(self, rows: int) -> np.ndarray:
        """The bins of a pair-major (pairs, rows) block of products of the
        full table, flattened: product p of row r sits at p*rows + r and
        goes to bin r*T + ic[p].  Kept per height, one int64 per product of
        a chunk: at most `MUL_CHUNK` of them (1 MiB), or one row's pairs
        where a single row has more.  A pruned multiply builds its own."""
        try:
            return self._pair_bins[rows]
        except KeyError:
            ic = self._mul_table[2]
            bins = self._pair_bins[rows] = (ic[:, None] + self.T * np.arange(rows)).ravel()
            return bins

    def _dmap(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Maps coefficients of this space onto d/dv coefficients in the space
        one order down: (source indices, scale factors)."""
        try:
            return self._dmaps[v]
        except KeyError:
            lower = space(self.nvars, self.order - 1)
            step = (self.order + 1) ** v
            src = self._locate(lower._enc_unclipped(self) + step)
            scale = np.array([self.alphas[s][v] for s in src], dtype=float)
            self._dmaps[v] = (src, scale)
            return src, scale

    def _enc_unclipped(self, parent: "JetSpace") -> np.ndarray:
        # encodings of this (lower-order) space in the parent's base
        arr = np.array(self.alphas, dtype=np.int64)
        base = parent.order + 1
        return arr @ (base ** np.arange(self.nvars, dtype=np.int64))

    # -- constructors -------------------------------------------------------

    def constant(self, value, center) -> "Jet":
        """The constant jet; at a block center `value` may hold one value
        per row."""
        center = _as_center(center)
        if isinstance(center, np.ndarray):
            coeffs = np.zeros((center.shape[0], self.T))
            coeffs[:, 0] = value
        else:
            coeffs = np.zeros(self.T)
            coeffs[0] = float(value)
        return Jet(self, center, coeffs)

    def variable(self, v: int, center) -> "Jet":
        if not 0 <= v < self.nvars:
            raise ValueError(f"variable index {v} out of range")
        center = _as_center(center)
        if isinstance(center, np.ndarray):
            coeffs = np.zeros((center.shape[0], self.T))
            coeffs[:, 0] = center[:, v]
        else:
            coeffs = np.zeros(self.T)
            coeffs[0] = float(center[v])
        if self.order >= 1:
            e = tuple(1 if k == v else 0 for k in range(self.nvars))
            coeffs.T[self.index[e]] = 1.0
        return Jet(self, center, coeffs)


@lru_cache(maxsize=None)
def space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


def _as_center(center):
    """A block center (a 2-d array) is kept as it is; a point's becomes a tuple."""
    if isinstance(center, np.ndarray) and center.ndim == 2:
        return center
    return tuple(center)


def _same_center(a, b) -> bool:
    if a is b:
        return True
    if isinstance(a, tuple) and isinstance(b, tuple):
        return a == b
    return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.shape == b.shape and bool(np.array_equal(a, b)))


def _mul_coeffs(sp: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coefficients of the product of two jets of `sp`: (T,) for a
    point, (B, T) for a block.

    A point multiply sums the products a[ia[p]] * b[ib[p]] of the table
    `sp._mul_table` into bins ic[p] with one `np.bincount`.  A block runs
    over chunks of at most `MUL_CHUNK` products, pair-major: the chunk's
    rows are transposed to C-contiguous (T, rows) arrays, so gathering a
    table entry copies one whole row of `rows` doubles, and product p of
    row r lands at flat position p*rows + r with bin r*T + ic[p]
    (`JetSpace._bins`).  The sums come out in (rows, T) order.

    Every row has the bits of the point multiply: `bincount` adds the
    weights of each bin in the order they appear, starting from 0.0, and
    bin (r, c) receives the products a[r, ia[p]] * b[r, ib[p]] with
    ic[p] == c in ascending p, as the point multiply of row r does.

    A block of at least `PRUNE_PRODUCTS` products whose operands both have
    a finite sum keeps only the pairs whose `a` column and `b` column are
    nonzero in some row, in their table order, with bins built for this
    call.  That keeps every bit:

    - with finite operands, a dropped pair contributes +0.0 or -0.0;
    - each bin is summed from +0.0 in ascending p, and such a partial sum
      is never -0.0 (x + (-x) rounds to +0.0), so adding +-0.0 to it
      never changes its bits;
    - a bin whose pairs are all dropped comes out +0.0, as the full table
      gives it.

    An inf or nan makes its operand's sum non-finite and keeps the full
    table, since inf * 0.0 = nan must stay; a finite sum that overflows
    only sends the call to the full table too.  Below the size gate
    finding the empty columns costs more than it saves.
    """
    ia, ib, ic = sp._mul_table
    if a.ndim == 1:
        return np.bincount(ic, weights=a[ia] * b[ib], minlength=sp.T)
    rows = a.shape[0]
    bins = sp._bins
    if (len(ic) * rows >= PRUNE_PRODUCTS
            and math.isfinite(a.sum()) and math.isfinite(b.sum())):
        keep = np.flatnonzero(a.any(axis=0)[ia] & b.any(axis=0)[ib])
        ia, ib, ic = ia[keep], ib[keep], ic[keep]

        def bins(height: int) -> np.ndarray:
            return (ic[:, None] + sp.T * np.arange(height)).ravel()
    step = max(1, MUL_CHUNK // max(1, len(ic)))
    out = np.empty((rows, sp.T))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        at = np.ascontiguousarray(a[lo:hi].T)
        bt = np.ascontiguousarray(b[lo:hi].T)
        w = at.take(ia, axis=0) * bt.take(ib, axis=0)
        out[lo:hi] = np.bincount(bins(hi - lo), weights=w.ravel(),
                                 minlength=(hi - lo) * sp.T).reshape(hi - lo, sp.T)
    return out


def stacked_product(sp: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products of two stacks of jets of `sp`, entry by entry.

    `a` and `b` are coefficient arrays (components..., [rows,] T') with
    at least one component axis and T' >= sp.T, truncated to sp.T here,
    whose leading axes broadcast against each other.  The components are
    folded into the rows of `_mul_coeffs` calls, so entry (c, r) has the
    bits of the product of component c at row r alone, and the result is
    shaped like the broadcast stack.  The operand order is kept: `a` is
    the left factor of every product, as in `Jet.__mul__`.

    A call folds whole entries of the first axis while they hold at most
    `STACK_PRODUCTS` products, else the entries of the next axis in turn,
    down to one (rows, T) stack, which is one call whatever its size.
    """
    a, b = a[..., :sp.T], b[..., :sp.T]
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape)
    _fold_products(sp, np.broadcast_to(a, shape), np.broadcast_to(b, shape), out)
    return out


def _fold_products(sp: JetSpace, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    per_entry = math.prod(out.shape[1:-1]) * len(sp._mul_table[0])
    if out.ndim > 2 and per_entry > STACK_PRODUCTS:
        for x, y, o in zip(a, b, out):
            _fold_products(sp, x, y, o)
        return
    # a (rows, T) stack, a block jet's or point jets', is one call
    step = len(out) if out.ndim == 2 else max(1, STACK_PRODUCTS // per_entry)
    for lo in range(0, len(out), step):
        part = out[lo:lo + step]
        part[...] = _mul_coeffs(sp, a[lo:lo + step].reshape(-1, sp.T),
                                b[lo:lo + step].reshape(-1, sp.T)).reshape(part.shape)


def step_groups(sp: JetSpace, steps: int, rows: int) -> list:
    """The ranges [lo, hi) of `steps` steps that share a stacked product,
    where one step multiplies `rows` rows of jets of `sp`: as many steps
    as hold at most `STACK_PRODUCTS` products, and at least one."""
    size = max(1, STACK_PRODUCTS // (rows * len(sp._mul_table[0])))
    return [(lo, min(lo + size, steps)) for lo in range(0, steps, size)]


def contract(sp: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over k of the products a[k] * b[k] of two stacks whose first
    axis is k, as `stacked_product` gives them, added from k = 0 up: the
    order in which a loop over k, or an object-array matmul, adds them.
    Each group of `step_groups` is one stacked product."""
    shape = np.broadcast_shapes(a[..., :sp.T].shape, b[..., :sp.T].shape)
    acc = None
    for lo, hi in step_groups(sp, shape[0], math.prod(shape[1:-1])):
        for p in stacked_product(sp, a[lo:hi], b[lo:hi]):
            acc = p if acc is None else acc + p
    return acc


def constant_product(sp: JetSpace, c: np.ndarray, d: np.ndarray,
                     left: bool) -> np.ndarray:
    """The kernel's products of the constant jets of values `c` with the
    jets of the stack `d`, the constant the left factor if `left`; `c`
    broadcasts against d's leading axes.

    For finite operands that is c * d + 0.0.  Each bin of the kernel sums
    from +0.0 the one product c * d[k] and products of an empty
    coefficient of the constant, which are +-0.0 and change no partial sum
    (see `_mul_coeffs`), so only the -0.0 of c * d[k] turns to +0.0.  An
    inf or nan, which an empty coefficient turns into nan, keeps the
    kernel."""
    if math.isfinite(np.sum(c)) and math.isfinite(d.sum()):
        return c[..., None] * d[..., :sp.T] + 0.0
    const = np.zeros(np.shape(c) + (sp.T,))
    const[..., 0] = c
    return stacked_product(sp, const, d) if left else stacked_product(sp, d, const)


def diff_coeffs(sp: JetSpace, c: np.ndarray, v: int) -> np.ndarray:
    """The coefficients of d/dv of the jets of `sp` in the stack `c`,
    (..., T), in the space one order down."""
    if sp.order == 0:
        raise OrderError(_EXHAUSTED)
    src, scale = sp._dmap(v)
    return c[..., src] * scale


class Jet:
    __slots__ = ("space", "center", "coeffs")

    def __init__(self, sp: JetSpace, center: tuple, coeffs: np.ndarray):
        self.space = sp
        self.center = center
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self):
        """The value part: a float, or one value per row of a block."""
        if self.coeffs.ndim == 1:
            return float(self.coeffs[0])
        return self.coeffs[:, 0].copy()

    def __repr__(self) -> str:
        if self.coeffs.ndim == 2:
            return f"Jet(order={self.order}, rows={self.coeffs.shape[0]})"
        return f"Jet(order={self.order}, value={self.value:.6g})"

    # -- plumbing -----------------------------------------------------------

    def truncated(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise OrderError(f"cannot extend a jet of order {self.order} to {order}")
        lower = space(self.space.nvars, order)
        return Jet(lower, self.center, self.coeffs[..., : lower.T].copy())

    def _pair(self, other: "Jet") -> tuple["Jet", "Jet"]:
        if self.space.nvars != other.space.nvars:
            raise ValueError("jets live over different variable sets")
        if self.center is not other.center and not _same_center(self.center, other.center):
            raise ValueError("jets have different centers")
        k = min(self.order, other.order)
        return self.truncated(k), other.truncated(k)

    def _const(self, value) -> "Jet":
        return self.space.constant(value, self.center)

    def _check_values(self, bad: Callable[[float], bool], message: str) -> None:
        """Raise DomainError(message.format(v)) at the first row whose value
        part v is `bad`."""
        for v in self.coeffs[:, 0].tolist() if self.coeffs.ndim == 2 else [self.value]:
            if bad(v):
                raise DomainError(message.format(v))

    def _series(self, coefficients: Callable[[float], list]) -> "Jet":
        """Compose with the series `coefficients(v)`, taken at each row's value."""
        if self.coeffs.ndim == 1:
            return self._compose(coefficients(self.value))
        per_row = [coefficients(v) for v in self.coeffs[:, 0].tolist()]
        return self._compose([np.array(c) for c in zip(*per_row)])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            return Jet(a.space, a.center, a.coeffs + b.coeffs)
        c = self.coeffs.copy()
        if c.ndim == 1:
            c[0] += float(other)
        else:  # one addend for every row, or one per row
            c[:, 0] += other if np.ndim(other) == 1 else float(other)
        return Jet(self.space, self.center, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, self.center, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            return Jet(a.space, a.center, _mul_coeffs(a.space, a.coeffs, b.coeffs))
        if self.coeffs.ndim == 2 and np.ndim(other) == 1:  # one factor per row
            return Jet(self.space, self.center, self.coeffs * other[:, None])
        return Jet(self.space, self.center, self.coeffs * float(other))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        self._check_values(lambda v: abs(v) <= VALUE_FLOOR,
                         "division by jet with value part {!r}")
        # 1/u = (1/v) * sum_k (-e)^k with e = u/v - 1 nilpotent; Horner form.
        if self.coeffs.ndim == 2:
            v = self.coeffs[:, 0].copy()
            e = Jet(self.space, self.center, self.coeffs / v[:, None])
            e.coeffs[:, 0] -= 1.0
        else:
            v = self.value
            e = Jet(self.space, self.center, self.coeffs / v)
            e.coeffs[0] -= 1.0
        s, steps = self._const(1.0), self.order
        if steps and math.isfinite(e.coeffs.sum()):
            # the kernel's e * 1.0 for finite e: e, with -0.0 summed to +0.0
            s, steps = 1.0 - Jet(self.space, self.center, e.coeffs + 0.0), steps - 1
        for _ in range(steps):
            s = 1.0 - e * s
        return s * (1.0 / v)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            return a * b.reciprocal()
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def __pow__(self, k):
        if isinstance(k, int) or (isinstance(k, float) and k.is_integer()):
            return powi(self, int(k))
        return pow_real(self, float(k))

    # -- composition with scalar series --------------------------------------

    def _compose(self, c: Sequence) -> "Jet":
        """Evaluate sum_k c[k] * (u - u0)^k by Horner; c[k] = f^(k)(u0)/k!
        (for a block, c[k] holds one coefficient per row)."""
        h = Jet(self.space, self.center, self.coeffs.copy())
        h.coeffs.T[0] = 0.0  # the value part, of every row of a block
        top = self.order
        out = self._const(c[top])
        if top and math.isfinite(np.sum(c[top])) and math.isfinite(h.coeffs.sum()):
            # the kernel's out * h for finite factors: h * c[top], with -0.0
            # summed to +0.0
            out = Jet(self.space, self.center, (h * c[top]).coeffs + 0.0) + c[top - 1]
            top -= 1
        for k in range(top - 1, -1, -1):
            out = out * h + c[k]
        return out

    def exp(self) -> "Jet":
        def series(v: float) -> list:
            c = [math.exp(v)]
            for k in range(1, self.order + 1):
                c.append(c[-1] / k)
            return c
        return self._series(series)

    def ln(self) -> "Jet":
        self._check_values(lambda v: v <= VALUE_FLOOR, "ln of jet with value part {!r}")

        def series(v: float) -> list:
            c = [math.log(v)]
            for k in range(1, self.order + 1):
                c.append((-1.0) ** (k - 1) / (k * v**k))
            return c
        return self._series(series)

    def sqrt(self) -> "Jet":
        self._check_values(lambda v: v <= VALUE_FLOOR, "sqrt of jet with value part {!r}")

        def series(v: float) -> list:
            c = [math.sqrt(v)]
            for k in range(1, self.order + 1):
                c.append(c[-1] * (0.5 - (k - 1)) / (k * v))
            return c
        return self._series(series)

    def sin(self) -> "Jet":
        return self._series(lambda v: [math.sin(v + 0.5 * math.pi * k) / math.factorial(k)
                                       for k in range(self.order + 1)])

    def cos(self) -> "Jet":
        return self._series(lambda v: [math.cos(v + 0.5 * math.pi * k) / math.factorial(k)
                                       for k in range(self.order + 1)])

    def atan(self) -> "Jet":
        def series(v: float) -> list:
            # Taylor coefficients of atan at v: integrate the reciprocal of
            # the quadratic (1+v^2) + 2v t + t^2 term by term.
            q0, q1, q2 = 1.0 + v * v, 2.0 * v, 1.0
            r = [1.0 / q0]
            for k in range(1, self.order):
                acc = q1 * r[k - 1] + (q2 * r[k - 2] if k >= 2 else 0.0)
                r.append(-acc / q0)
            return [math.atan(v)] + [r[k - 1] / k for k in range(1, self.order + 1)]
        return self._series(series)

    def absolute(self) -> "Jet":
        self._check_values(lambda v: abs(v) <= VALUE_FLOOR,
                         "abs of jet with value part at 0 is not differentiable")
        if self.coeffs.ndim == 2:
            positive = self.coeffs[:, :1] > 0
            return Jet(self.space, self.center,
                       np.where(positive, self.coeffs, -self.coeffs))
        return self if self.value > 0 else -self

    # -- derivatives ---------------------------------------------------------

    def diff(self, v: int) -> "Jet":
        c = diff_coeffs(self.space, self.coeffs, v)
        return Jet(space(self.space.nvars, self.order - 1), self.center, c)

    def dx(self, i: int) -> "Jet":
        """d/dx^i, with variables ordered x1..xn, y1..yn."""
        return self.diff(i)

    def dy(self, i: int) -> "Jet":
        """d/dy^i, with variables ordered x1..xn, y1..yn."""
        return self.diff(self.space.nvars // 2 + i)

    def partial(self, alpha: Sequence[int]) -> float:
        a = tuple(alpha)
        if sum(a) > self.order:
            raise OrderError(f"partial {a} exceeds jet order {self.order}")
        i = self.space.index[a]
        return float(self.coeffs[i] * self.space._fact[i])


# -- generic numeric dispatchers ----------------------------------------------
#
# Expression evaluation is written once against these; they route floats
# through math, numpy arrays through numpy, and any object with the matching
# method (Jet, the oracle's Taylor2) through that method.


def exp(u):
    if isinstance(u, np.ndarray):
        return np.exp(u)
    if hasattr(u, "exp"):
        return u.exp()
    return math.exp(u)


def ln(u):
    if isinstance(u, np.ndarray):
        return np.log(u)
    if hasattr(u, "ln"):
        return u.ln()
    if u <= 0:
        raise DomainError(f"ln({u!r})")
    return math.log(u)


def sqrt(u):
    if isinstance(u, np.ndarray):
        return np.sqrt(u)
    if hasattr(u, "sqrt"):
        return u.sqrt()
    if u <= 0:
        raise DomainError(f"sqrt({u!r})")
    return math.sqrt(u)


def sin(u):
    if isinstance(u, np.ndarray):
        return np.sin(u)
    if hasattr(u, "sin"):
        return u.sin()
    return math.sin(u)


def cos(u):
    if isinstance(u, np.ndarray):
        return np.cos(u)
    if hasattr(u, "cos"):
        return u.cos()
    return math.cos(u)


def atan(u):
    if isinstance(u, np.ndarray):
        return np.arctan(u)
    if hasattr(u, "atan"):
        return u.atan()
    return math.atan(u)


def absval(u):
    if isinstance(u, np.ndarray):
        return np.abs(u)
    if hasattr(u, "absolute"):
        return u.absolute()
    return abs(u)


def powi(u, k: int):
    """Integer power by repeated squaring; works at zero value parts for k >= 0."""
    if isinstance(u, (int, float)):
        return float(u) ** k
    if isinstance(u, np.ndarray):
        return u**k
    if k < 0:
        return powi(u.reciprocal(), -k)
    if k == 0:
        return u * 0.0 + 1.0
    acc = None
    base = u
    while k:
        if k & 1:
            acc = base if acc is None else acc * base
        k >>= 1
        if k:
            base = base * base
    return acc


def pow_real(u, p: float):
    """Real power u**p for positive value parts (binomial series)."""
    if isinstance(u, (int, float)):
        if u <= 0:
            raise DomainError(f"{u!r} ** {p}")
        return u**p
    if isinstance(u, np.ndarray):
        return u**p
    if isinstance(u, Jet):
        u._check_values(lambda v: v <= VALUE_FLOOR,
                      f"power {p} of jet with value part {{!r}}")

        def series(v: float) -> list:
            c = [v**p]
            for k in range(1, u.order + 1):
                c.append(c[-1] * (p - (k - 1)) / (k * v))
            return c
        return u._series(series)
    return exp(p * ln(u))


# -- the public operations -----------------------------------------------------


def lift(fn: Callable, p, order: int) -> Jet:
    """Evaluate `fn` over variable jets centered at p (a point, or a (B, m)
    block of points); returns the jet of fn."""
    p = _as_center(p)
    nvars = p.shape[1] if isinstance(p, np.ndarray) else len(p)
    sp = space(nvars, order)
    env = [sp.variable(v, p) for v in range(nvars)]
    out = fn(env)
    if not isinstance(out, Jet):  # constant expressions
        out = sp.constant(float(out), p)
    return out


def partial(fn: Callable, p: Sequence[float], alpha: Sequence[int]) -> float:
    """Exact partial derivative d^alpha fn at p via a lift of order |alpha|."""
    return lift(fn, p, sum(alpha)).partial(alpha)


@lru_cache(maxsize=None)
def _first_order_columns(nvars: int) -> np.ndarray:
    # the degree <= 1 block sits at the same places in every space of order
    # >= 1, since each space is a prefix of the next
    sp = space(nvars, 1)
    cols = np.array([0] + [sp.index[tuple(int(k == v) for k in range(nvars))]
                           for v in range(nvars)])
    cols.flags.writeable = False  # shared by every caller through the cache
    return cols


def first_order(entries: Sequence[Jet], like: Jet) -> np.ndarray:
    """Rows [u, d_0 u, ..., d_{m-1} u] of values for each jet u in `entries`.

    Shaped (len(entries), 1 + m), or (len(entries), B, 1 + m) for jets at a
    block center of B points.  Reads only the coefficients of degree at
    most 1, which equal the values of `u.diff(v)` exactly.  Raises what
    differentiating u and pairing it with `like` would: OrderError for an
    order-0 jet, ValueError for a jet over other variables or at another
    center.
    """
    m = like.space.nvars
    cols = _first_order_columns(m)
    out = np.empty((len(entries),) + like.coeffs.shape[:-1] + (1 + m,))
    for k, u in enumerate(entries):
        if u.space.order == 0:
            raise OrderError(_EXHAUSTED)
        if u.space.nvars != m:
            raise ValueError("jets live over different variable sets")
        if not _same_center(u.center, like.center):
            raise ValueError("jets have different centers")
        out[k] = u.coeffs[cols] if u.coeffs.ndim == 1 else u.coeffs[:, cols]
    return out


def quotients(nums: Sequence[Jet], den: Jet) -> list[Jet]:
    """[u / den for u in nums] with one reciprocal of `den` per order.

    u / den is u * den.reciprocal() once both are truncated to the lower
    of their orders, so each quotient has those bits; a value part of
    `den` at the floor raises the DomainError of `reciprocal` before any
    product is taken.
    """
    inverse: dict[int, Jet] = {}
    out = []
    for u in nums:
        k = min(u.order, den.order)
        if k not in inverse:
            inverse[k] = den.truncated(k).reciprocal()
        out.append(u * inverse[k])
    return out


def _eval_float(fn: Callable, p: Sequence[float]) -> float:
    try:
        out = fn(list(map(float, p)))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"float evaluation failed at {tuple(p)}: {exc}") from exc
    out = float(out)
    if not math.isfinite(out):
        raise DomainError(f"non-finite value at {tuple(p)}")
    return out


def fd_partial(fn: Callable, p: Sequence[float], alpha: Sequence[int], h: float = 1e-3) -> float:
    """Nested central-difference estimate of d^alpha fn at p.

    One central difference per derivative level with a fixed step, no
    extrapolation: the error is O(h^2) per level. |alpha| <= 4 is the
    supported range.
    """
    a = list(alpha)
    total = sum(a)
    if total > 4:
        raise ValueError("fd_partial supports |alpha| <= 4")
    if total == 0:
        return _eval_float(fn, p)
    v = next(i for i, e in enumerate(a) if e > 0)
    a[v] -= 1
    pp = list(p)
    pm = list(p)
    pp[v] += h
    pm[v] -= h
    return (fd_partial(fn, pp, a, h) - fd_partial(fn, pm, a, h)) / (2.0 * h)


def jet_matrix_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix of jets.

    The value part is inverted by LAPACK (partial pivoting); derivative parts
    follow from (M^-1)' = -M^-1 M' M^-1, applied order by order in Horner form:
    W <- W0 - (W0 dM) W gains one valid order per pass.  The jets may be
    block jets: their (B, n, n) value parts are inverted as one stack, and
    each row of the result equals the inverse at that point alone.

    The entries are computed as one (n, n, [B,] T) stack.  W0 dM is taken
    once, and so is the first pass's product with the constant W0, by
    `constant_product`; a later pass multiplies its n^3 entry pairs by
    `contract`.  Each sum over k adds the products in ascending k, the
    order of an object-array matmul, so every entry has the bits of the
    entry-by-entry loop.  The entries of the result are views of the
    stack.
    """
    n = m.shape[0]
    order = min(int(m[i, j].order) for i in range(n) for j in range(n))
    sp = space(m[0, 0].space.nvars, order)
    center = m[0, 0].center
    dm = np.array([[m[i, j].coeffs[..., :sp.T] for j in range(n)] for i in range(n)])
    # (B, n, n) at a block, C-contiguous as LAPACK saw it entry by entry
    vals = np.ascontiguousarray(np.moveaxis(dm[..., 0], (0, 1), (-2, -1)))
    try:
        w0 = np.linalg.inv(vals)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"matrix value part is singular: {exc}") from exc
    dm[..., 0] -= np.moveaxis(vals, (-2, -1), (0, 1))
    w0 = np.moveaxis(w0, (-2, -1), (0, 1))  # (n, n, [B]), like the stack

    def constant_step(c: np.ndarray, d: np.ndarray, left: bool) -> np.ndarray:
        acc = constant_product(sp, c[0], d[0], left)
        for k in range(1, n):
            acc = acc + constant_product(sp, c[k], d[k], left)
        return acc

    w = np.zeros(dm.shape)
    w[..., 0] = w0
    if order:
        # [k, i, j] = W0[i, k] and the entries M'[k, j], then W0 M' [i, k]
        # and the constant W0[k, j], each summed over k
        w0_k = np.moveaxis(w0, 1, 0)[:, :, None]
        w0_dm = constant_step(w0_k, dm[:, None], left=True)
        x_k = np.moveaxis(w0_dm, 1, 0)[:, :, None]
        step = constant_step(w0[:, None], x_k, left=False)
        const = w
        for _ in range(order - 1):
            w = const + -step
            step = contract(sp, x_k, w[:, None])
        w = const + -step
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = Jet(sp, center, w[i, j])
    return out
