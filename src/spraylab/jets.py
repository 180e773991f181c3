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
coefficient from 0.0 in ascending p, the single-point order.

A block jet built from `JetSpace.variable` and `constant` carries a
column mask, `Jet.mask`: an int whose bit c is set for each coefficient c
that may be nonzero in some row, and every coefficient outside it is
+-0.0 in every row.  A point jet has none (None), and neither has a jet
made from a stack (`geometry._unstack`) or by `diff`.  So the jets that
`dsl.evaluate` gives at a block carry masks, and those of the geometry
stacks do not.

- `variable` sets {0, its variable's column}, and `constant` sets {0}.
- Negation, `abs`, truncation (cut to the lower space) and a product by
  a finite scalar or by finite per-row factors keep the mask.
- `+` and `-` of two jets take the union; adding a number adds column 0.
- A product of two masked jets (`_product`) takes the `ProductTable` of
  the two masks: the table pairs inside both, in table order.  It gathers
  only the mask columns, checks that they are finite, and multiplies them
  by the kept pairs; the product's mask is the bins those pairs reach.
- `reciprocal` and the series (`_compose`) carry masks through their
  Horner steps, the factor e or h without column 0, which holds an exact
  0.0, so powi, division and the seven functions keep masks too.
- An inf or nan drops the mask.  A product of jets with a non-finite
  mask column takes the full table, since inf * 0.0 = nan can land
  outside any mask, and gives no mask; a product by a non-finite scalar
  or per-row factor turns a +-0.0 into nan and gives no mask.  A finite
  scalar keeps every +-0.0 a +-0.0, whatever else the jet holds.

No bit moves, by the argument for any pruned pair.  With finite operands
a pair whose `a` or `b` column is +-0.0 in every row adds +-0.0 to its
bin.  Each bin is summed from +0.0 in ascending p, and such a partial sum
is never -0.0 (x + (-x) rounds to +0.0), so adding +-0.0 leaves its bits
as they are, and a bin whose pairs are all dropped comes out +0.0, as the
full table gives it.  So the product of finite operands has the same bits
for any kept set that holds every pair of two nonzero columns: the full
table, the pairs inside both masks (which may be wider than the nonzero
columns), or those of a scan.  Operands without masks, the stacks, find
their nonzero columns by a scan, `any` over the rows, under the same rule
(`JetSpace._kept_pairs`), when the product has at least `PRUNE_PRODUCTS`
products and both operands have a finite sum.

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
to +0.0.  A non-finite operand keeps the kernel.  Over an order-0 space
the table is one pair, which the kernel bins as 0.0 + a * b, so
`stacked_product` takes a * b + 0.0 there, which has those bits for any
operands.  `diff_coeffs` differentiates a stack with one gather, and
`JetSpace._dmap` concatenates the maps of several variables, so their
derivatives are one gather too (`geometry._derivatives`).  The series
coefficients and value-floor checks of the transcendental functions are
taken row by row with `math`.  A failed floor check names the first
failing row of that operation.  A point jet's center is a tuple; a block
jet's center is the (B, m) array itself, and jets combine only with jets
at the same center.

Three routines are Horner sweeps, each one loop of passes that make one
more Taylor degree valid: `Jet.reciprocal` (1/u = (1/v) sum_k (-e)^k with
e = u/v - 1), `Jet._compose` (sum_k c[k] h^k with h = u - u0) and
`jet_matrix_inverse` (W <- W0 - X W with X = W0 dM).  The factor e, h or
X has an exact 0.0 value slot, so degree d of a pass's product reads the
previous iterate up to degree d - 1, but for the products factor[0] *
iterate[d].  The pass rule (`_pass_space`): the pass that makes degree d
valid runs on space(nvars, d) over a block within `_sweep_finite`, else
on the routine's own space, and writes into the iterate in place.  Every
bit stays that of the full passes:

- the prefix table is the full table's pairs whose bin lies in the
  prefix, in the same order (graded-lex order nests the spaces), so each
  kept coefficient is summed from the same products in the same order;
- the one product a prefix pass computes differently is factor[0] times
  an iterate coefficient of the pass's top degree, not yet valid; the
  prefix pass reads a stale coefficient there, left over from the
  first, full pass, and the full pass its current one.  Both are finite,
  so both products are +-0.0, which leave a partial sum from +0.0 as it
  is (see `_mul_coeffs`);
- the coefficients above the prefix are not computed until their pass.

The finiteness is what `_sweep_finite` bounds.  A pass X' = c + F X
(a sum over k of such products, for the inverse) has
|X'|_1 <= |c| + |F|_1 |X|_1 in exact arithmetic, with |.|_1 the l1 norm
over a row's coefficients (and, for a matrix, the largest row sum of its
entries' norms), since a truncated product drops terms.  Each kernel
bin, each product and the addition of c round by a factor below 2 over
the whole pass, so after p passes
|X_p|_1 <= M^p (|X_0|_1 + 2 p C) <= (2p + 1) S M^p, with M = max(1, 2|F|_1),
C the largest |c| and S = max(C, |X_0|_1, 1).  `_sweep_finite` asks
(2p + 1) S M^p to stay at most 2**SWEEP_LOG2_BOUND, for the largest norms
over the rows: every coefficient and every partial sum of the full
passes is then finite.
An inf or nan, an operand over the bound, or a point keeps the full
passes: a point's pass is one kernel call either way, and prefix passes
made a metric's 64 point reads about 10 % slower.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
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

# A block multiply of operands without masks (the stacks) and of at least
# this many products (table pairs x rows) scans for the empty columns and
# drops their pairs; jets with masks never scan.  The scan costs 15-20 us
# a call.  Stack products of seed-7 passes of the four benchmark workloads
# (2-vCPU x86, numpy 2.4), full table against scan and pruned table, mean
# per call: 7.4 against 19.7 us at 1024-2047 products, 23.1 against 34.3 us
# at 4096-8191, 39.0 against 55.4 us at 8192-16383, and 95.8 against
# 90.3 us at 16384-32767.  In-process passes, best of 10, with this gate at
# 1 << 13 / 1 << 14 / 1 << 15: `recover` 307.7 / 296.5 / 315.2 ms,
# `corpus` 280.0 / 271.8 / 275.2 ms, `oracle` 160.2 / 156.7 / 157.7 ms.
PRUNE_PRODUCTS = 1 << 14

# A product of stacked jets (`stacked_product`, `contract`) folds at most
# this many products into one kernel call, because the kernel's
# temporaries grow with the products of a call, up to `MUL_CHUNK`.  Peak
# memory of one in-process `highdim` pass (seeds 921, 922; 2-vCPU x86,
# numpy 2.4): 46.2 MB with one component per call, 46.4-46.6 MB at this
# bound, 47.1-47.3 MB at 1 << 15 and 50.9-51.2 MB at `MUL_CHUNK`.  The R of a
# dim-2 spray and the inverse of a dim-2 metric's order-2 Hessian fold
# whole; larger stacks fold by steps and entries.
STACK_PRODUCTS = 1 << 14

# A space keeps the `ProductTable`s of at most this many pairs of masks,
# the oldest dropped first.  A seed-7 pass of `highdim` keeps 78 at (8, 4)
# and 215 over all its spaces, 0.2 MB of kept pairs.
PRODUCT_TABLES = 1 << 8

# A Horner sweep over a block runs its passes on prefix spaces only while
# log2 of its bound on every coefficient of the full passes stays at most
# this (`_sweep_finite`), 24 binades below the overflow threshold 2**1024,
# which absorbs the bound's rounding factors.
SWEEP_LOG2_BOUND = 1000.0

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
        self._tables: dict[tuple[int, int], ProductTable] = {}
        self._dmaps: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _locate(self, enc: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._enc_sorted, enc)
        return self._enc_perm[pos]

    def _build_mul_table(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ia, ib = np.nonzero(self._deg[:, None] + self._deg[None, :] <= self.order)
        ic = self._locate(self._enc[ia] + self._enc[ib])
        return ia, ib, ic

    def _bins(self, rows: int) -> np.ndarray:
        """The full table's `_flat_bins`, kept per height, one int64 per
        product of a chunk: at most `MUL_CHUNK` of them (1 MiB), or one
        row's pairs where a single row has more.  A pruned multiply builds
        its own."""
        try:
            return self._pair_bins[rows]
        except KeyError:
            bins = self._pair_bins[rows] = _flat_bins(self._mul_table[2], self.T, rows)
            return bins

    def _kept_pairs(self, in_a: np.ndarray, in_b: np.ndarray) -> np.ndarray:
        """The one pruning rule: the places, in table order, of the pairs
        whose `a` column is in `in_a` and `b` column in `in_b` (boolean
        (T,) supports, carried or scanned)."""
        ia, ib, _ = self._mul_table
        return np.flatnonzero(in_a[ia] & in_b[ib])

    def product_table(self, mask_a: int, mask_b: int) -> "ProductTable":
        """The `ProductTable` of a pair of masks, kept for the next product
        of the same masks; the oldest is dropped past `PRODUCT_TABLES`."""
        key = (mask_a, mask_b)
        try:
            return self._tables[key]
        except KeyError:
            if len(self._tables) >= PRODUCT_TABLES:
                del self._tables[next(iter(self._tables))]
            table = self._tables[key] = ProductTable(self, mask_a, mask_b)
            return table

    def _dmap(self, vs: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Maps coefficients of this space onto the d/dv coefficients of the
        space one order down, for each v in `vs` in turn, concatenated:
        (source indices, scale factors)."""
        try:
            return self._dmaps[vs]
        except KeyError:
            if self.order == 0:
                raise OrderError(_EXHAUSTED) from None
            # the space one order down is a prefix of this one
            enc = self._enc[:space(self.nvars, self.order - 1).T]
            srcs = [self._locate(enc + (self.order + 1) ** v) for v in vs]
            scale = np.array([self.alphas[s][v] for v, src in zip(vs, srcs) for s in src],
                             dtype=float)
            out = self._dmaps[vs] = np.concatenate(srcs), scale
            return out

    # -- constructors -------------------------------------------------------

    def constant(self, value, center) -> "Jet":
        """The constant jet; at a block center `value` may hold one value
        per row."""
        center = _as_center(center)
        if isinstance(center, np.ndarray):
            coeffs = np.zeros((center.shape[0], self.T))
            coeffs[:, 0] = value
            return Jet(self, center, coeffs, 1)
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
        mask = 1  # the value column
        if self.order >= 1:
            e = self.index[tuple(1 if k == v else 0 for k in range(self.nvars))]
            coeffs.T[e] = 1.0
            mask |= 1 << e
        return Jet(self, center, coeffs, mask if coeffs.ndim == 2 else None)


def _flat_bins(ic: np.ndarray, T: int, rows: int) -> np.ndarray:
    """The bins of a pair-major (pairs, rows) block of the products of
    table pairs with bins `ic` in a space of T coefficients, flattened:
    product p of row r sits at p*rows + r and goes to bin r*T + ic[p]."""
    return (ic[:, None] + T * np.arange(rows)).ravel()


def _columns(mask: int, T: int) -> np.ndarray:
    """The columns of a mask, as a boolean (T,) array."""
    raw = np.frombuffer(mask.to_bytes((T + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=T, bitorder="little").astype(bool)


def _mask(columns: np.ndarray) -> int:
    """The mask of a boolean (T,) array of columns."""
    return int.from_bytes(np.packbits(columns, bitorder="little").tobytes(), "little")


class ProductTable:
    """The multiply table of a space kept for a pair of column masks, as
    `_mul_coeffs` takes it in place of the space.

    `_mul_table` holds the kept pairs (`JetSpace._kept_pairs`) in table
    order, with each `a` and `b` column given by its place among the
    mask's columns `cols`: the kernel's operands are a block's mask
    columns alone, (rows, len(cols[0])) and (rows, len(cols[1])).  The
    bins stay those of `space`, so the product comes out (rows, T), and
    `mask` is the mask of the bins the kept pairs reach.
    """

    __slots__ = ("space", "T", "cols", "mask", "_mul_table")

    def __init__(self, sp: JetSpace, mask_a: int, mask_b: int):
        in_a, in_b = _columns(mask_a, sp.T), _columns(mask_b, sp.T)
        keep = sp._kept_pairs(in_a, in_b)
        ia, ib, ic = (x[keep] for x in sp._mul_table)
        self.space, self.T = sp, sp.T
        self.cols = np.flatnonzero(in_a), np.flatnonzero(in_b)
        self._mul_table = np.cumsum(in_a)[ia] - 1, np.cumsum(in_b)[ib] - 1, ic
        reached = np.zeros(sp.T, dtype=bool)
        reached[ic] = True
        self.mask = _mask(reached)

    def _bins(self, rows: int) -> np.ndarray:
        return _flat_bins(self._mul_table[2], self.T, rows)


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


def _mul_coeffs(sp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coefficients of the product of two jets of the space `sp`: (T,)
    for a point, (B, T) for a block; or of two masked block jets, whose
    mask columns alone a and b hold, by `sp` their `ProductTable`.

    A point multiply sums the products a[ia[p]] * b[ib[p]] of the table
    `sp._mul_table` into bins ic[p] with one `np.bincount`.  A block runs
    over chunks of at most `MUL_CHUNK` products, pair-major: the chunk's
    rows are transposed to C-contiguous (columns, rows) arrays, so
    gathering a table entry copies one whole row of `rows` doubles, and
    product p of row r lands at flat position p*rows + r with bin
    r*T + ic[p] (`_flat_bins`).  The sums come out in (rows, T) order.

    Every row has the bits of the point multiply: `bincount` adds the
    weights of each bin in the order they appear, starting from 0.0, and
    bin (r, c) receives the products a[r, ia[p]] * b[r, ib[p]] with
    ic[p] == c in ascending p, as the point multiply of row r does.

    A product table's operands are finite (`_product`), and it keeps the
    pairs inside both masks.  A space's block of at least `PRUNE_PRODUCTS`
    products whose operands both have a finite sum scans for the columns
    that are nonzero in some row and keeps the pairs inside both, in table
    order, with bins built for this call.  Either keeps every bit (see the
    module docstring).  An inf or nan makes its operand's sum non-finite
    and keeps the full table, since inf * 0.0 = nan must stay; a finite sum
    that overflows only sends the call to the full table too.  Below the
    size gate finding the empty columns costs more than it saves.
    """
    ia, ib, ic = sp._mul_table
    if a.ndim == 1:
        return np.bincount(ic, weights=a[ia] * b[ib], minlength=sp.T)
    rows = a.shape[0]
    bins = sp._bins
    if (isinstance(sp, JetSpace) and len(ic) * rows >= PRUNE_PRODUCTS
            and math.isfinite(a.sum()) and math.isfinite(b.sum())):
        keep = sp._kept_pairs(a.any(axis=0), b.any(axis=0))
        ia, ib, ic = ia[keep], ib[keep], ic[keep]
        bins = partial(_flat_bins, ic, sp.T)
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


def _product(sp: JetSpace, a: np.ndarray, mask_a, b: np.ndarray, mask_b) -> tuple:
    """The coefficients and the mask of the product of the jets of `sp`
    with coefficients a and b and masks mask_a and mask_b (None for no
    mask).  Masked operands whose mask columns are finite multiply by
    their `ProductTable`; any other pair by the space, with no mask."""
    if mask_a is None or mask_b is None:
        return _mul_coeffs(sp, a, b), None
    table = sp.product_table(mask_a, mask_b)
    ga, gb = a.take(table.cols[0], axis=1), b.take(table.cols[1], axis=1)
    if math.isfinite(ga.sum()) and math.isfinite(gb.sum()):
        return _mul_coeffs(table, ga, gb), table.mask
    return _mul_coeffs(sp, a, b), None


def _truncate(mask, T: int):
    """A mask cut to the first T columns, or None."""
    return None if mask is None else mask & ((1 << T) - 1)


def _union(mask_a, mask_b):
    """The mask of a sum: the union, or None if either has none."""
    return None if mask_a is None or mask_b is None else mask_a | mask_b


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
    Order-0 products are a * b + 0.0, C-contiguous as the kernel's are.
    """
    a, b = a[..., :sp.T], b[..., :sp.T]
    if sp.T == 1:  # the kernel's one pair, binned from 0.0
        out = np.multiply(a, b, order="C")
        out += 0.0
        return out
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


def check_divisor(values) -> None:
    """Raise the DomainError of `Jet.reciprocal` at the first of the value
    parts `values` (one, or one per row) within VALUE_FLOOR of zero: the
    floor check of a division, for a reader that needs the quotient's
    value alone."""
    for v in np.reshape(values, -1).tolist():
        if abs(v) <= VALUE_FLOOR:
            raise DomainError(f"division by jet with value part {v!r}")


def _sweep_finite(scale: float, start: np.ndarray, factor: np.ndarray, passes: int,
                  axes=-1) -> bool:
    """Whether `passes` full Horner passes X <- c + F X (or c - F X) keep
    every coefficient of X finite, so that they may run on prefix spaces
    (see the module docstring): X starts as the block `start`, each c is
    at most `scale` in magnitude, and F is the block `factor`.  Norms are
    l1 over `axes` (the coefficients, and for a matrix of jets its row's
    entries too), the largest over rows; a nan or inf anywhere fails."""
    norm = float(np.abs(factor).sum(axis=axes).max())
    size = max(float(scale), float(np.abs(start).sum(axis=axes).max()), 1.0)
    if not (math.isfinite(norm) and math.isfinite(size)):
        return False
    return (math.log2(size * (2 * passes + 1))
            + passes * math.log2(max(1.0, 2.0 * norm)) <= SWEEP_LOG2_BOUND)


def _pass_space(sp: JetSpace, degree: int, prefix: bool) -> JetSpace:
    """The space of the Horner pass that makes `degree` valid, by the pass
    rule of the module docstring: its prefix space if `prefix`, else `sp`."""
    return space(sp.nvars, degree) if prefix else sp


def diff_coeffs(sp: JetSpace, c: np.ndarray, v: int) -> np.ndarray:
    """The coefficients of d/dv of the jets of `sp` in the stack `c`,
    (..., T), in the space one order down."""
    src, scale = sp._dmap((v,))
    return c[..., src] * scale


class Jet:
    __slots__ = ("space", "center", "coeffs", "mask")

    def __init__(self, sp: JetSpace, center: tuple, coeffs: np.ndarray, mask=None):
        self.space = sp
        self.center = center
        self.coeffs = coeffs
        self.mask = mask  # a block's column mask (module docstring), or None

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
        return Jet(lower, self.center, self.coeffs[..., : lower.T].copy(),
                   _truncate(self.mask, lower.T))

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
            return Jet(a.space, a.center, a.coeffs + b.coeffs, _union(a.mask, b.mask))
        c = self.coeffs.copy()
        if c.ndim == 1:
            c[0] += float(other)
            return Jet(self.space, self.center, c)
        # one addend for every row, or one per row
        c[:, 0] += other if np.ndim(other) == 1 else float(other)
        return Jet(self.space, self.center, c, _union(self.mask, 1))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, self.center, -self.coeffs, self.mask)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            if a.mask is None or b.mask is None:  # points take no mask work
                return Jet(a.space, a.center, _mul_coeffs(a.space, a.coeffs, b.coeffs))
            return Jet(a.space, a.center, *_product(a.space, a.coeffs, a.mask,
                                                    b.coeffs, b.mask))
        # a finite factor keeps every +-0.0 a +-0.0, and so the mask
        mask = self.mask
        if self.coeffs.ndim == 2 and np.ndim(other) == 1:  # one factor per row
            if mask is not None and not math.isfinite(other.sum()):
                mask = None
            return Jet(self.space, self.center, self.coeffs * other[:, None], mask)
        other = float(other)
        if mask is not None and not math.isfinite(other):
            mask = None
        return Jet(self.space, self.center, self.coeffs * other, mask)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        """1/u, by Horner steps s <- 1 - e s from s = 1, e = u/v - 1; step
        m makes degree m valid (see the module docstring)."""
        check_divisor(self.coeffs[..., 0])
        # 1/u = (1/v) * sum_k (-e)^k with e = u/v - 1 nilpotent; Horner form.
        if self.coeffs.ndim == 2:
            v = self.coeffs[:, 0].copy()
            e = Jet(self.space, self.center, self.coeffs / v[:, None])
            e.coeffs[:, 0] -= 1.0
        else:
            v = self.value
            e = Jet(self.space, self.center, self.coeffs / v)
            e.coeffs[0] -= 1.0
        s, first, prefix = self._const(1.0), 1, False
        if self.order and math.isfinite(e.coeffs.sum()):
            # a finite e has the exact value slot 0.0 = v/v - 1
            e.mask = None if self.mask is None else self.mask & ~1
            # the kernel's e * 1.0 for finite e: e, with -0.0 summed to +0.0
            s, first = 1.0 - Jet(self.space, self.center, e.coeffs + 0.0, e.mask), 2
            prefix = e.coeffs.ndim == 2 and _sweep_finite(1.0, s.coeffs, e.coeffs,
                                                          self.order - 1)
        c = s.coeffs
        for m in range(first, self.order + 1):
            sp = _pass_space(self.space, m, prefix)
            prod, mask = _product(sp, e.coeffs[..., :sp.T], _truncate(e.mask, sp.T),
                                  c[..., :sp.T], _truncate(s.mask, sp.T))
            c[..., :sp.T] = -prod
            c.T[0] += 1.0
            s.mask = _union(s.mask, mask)
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
        (for a block, c[k] holds one coefficient per row).  The step toward
        c[k] makes degree K - k valid (see the module docstring)."""
        h = Jet(self.space, self.center, self.coeffs.copy(),
                None if self.mask is None else self.mask & ~1)
        h.coeffs.T[0] = 0.0  # the value part, of every row of a block
        top, prefix = self.order, False
        out = self._const(c[top])
        if top and math.isfinite(np.sum(c[top])) and math.isfinite(h.coeffs.sum()):
            # the kernel's out * h for finite factors: h * c[top], with -0.0
            # summed to +0.0
            first = h * c[top]
            out = Jet(self.space, self.center, first.coeffs + 0.0, first.mask) + c[top - 1]
            top -= 1
            prefix = h.coeffs.ndim == 2 and _sweep_finite(np.abs(c).max(), out.coeffs,
                                                          h.coeffs, top)
        acc = out.coeffs
        for k in range(top - 1, -1, -1):
            sp = _pass_space(self.space, self.order - k, prefix)
            acc[..., :sp.T], mask = _product(sp, acc[..., :sp.T], _truncate(out.mask, sp.T),
                                             h.coeffs[..., :sp.T], _truncate(h.mask, sp.T))
            acc.T[0] += c[k]
            out.mask = _union(out.mask, mask)
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
                       np.where(positive, self.coeffs, -self.coeffs), self.mask)
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


def _unary(name: str, method: str, array_fn: Callable, float_fn: Callable,
           positive: bool = False) -> Callable:
    """The dispatcher `name`: an array goes to `array_fn`, an object with
    the method `method` to that method, and a number to `float_fn`, which
    a `positive` function takes above 0 only."""
    def fn(u):
        if isinstance(u, np.ndarray):
            return array_fn(u)
        if hasattr(u, method):
            return getattr(u, method)()
        if positive and u <= 0:
            raise DomainError(f"{name}({u!r})")
        return float_fn(u)
    fn.__name__ = fn.__qualname__ = name
    return fn


exp = _unary("exp", "exp", np.exp, math.exp)
ln = _unary("ln", "ln", np.log, math.log, positive=True)
sqrt = _unary("sqrt", "sqrt", np.sqrt, math.sqrt, positive=True)
sin = _unary("sin", "sin", np.sin, math.sin)
cos = _unary("cos", "cos", np.cos, math.cos)
atan = _unary("atan", "atan", np.arctan, math.atan)
absval = _unary("absval", "absolute", np.abs, abs)


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


def jet_matrix_inverse(sp: JetSpace, m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix of jets of `sp`, given and returned as a
    stack (n, n, [B,] T); m's coefficients past sp.T are not read.

    The value part is inverted by LAPACK (partial pivoting); derivative parts
    follow from (M^-1)' = -M^-1 M' M^-1, applied order by order in Horner form:
    W <- W0 - (W0 dM) W gains one valid order per pass.  At a block the
    (B, n, n) value parts are inverted as one stack, and each row of the
    result equals the inverse at that point alone.

    W0 dM is taken once, and so is the first pass's product with the
    constant W0, as `constant_product` takes them, with the finiteness of
    each step's two operand stacks checked once: finite stacks are finite
    entry by entry, and any other keeps `constant_product` per k.  A
    later pass multiplies its n^3 entry pairs by `contract`.  Each sum
    over k adds the products in ascending k, the order of an object-array
    matmul, so every entry has the bits of the entry-by-entry loop over
    jets.  The j-th `contract`
    makes degree j + 2 valid (see the module docstring); X's value slot
    is the exact 0.0 of W0 times dM's +0.0 value slot.
    """
    n, order = m.shape[0], sp.order
    dm = m[..., :sp.T].copy()
    # the value parts' axes: (n, n, [B]) in the stack, ([B,] n, n) for LAPACK
    rank = dm.ndim - 1
    to_lapack = tuple(range(2, rank)) + (0, 1)
    to_stack = (rank - 2, rank - 1) + tuple(range(rank - 2))
    # C-contiguous, as LAPACK saw it entry by entry
    vals = np.ascontiguousarray(dm[..., 0].transpose(to_lapack))
    try:
        w0 = np.linalg.inv(vals)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"matrix value part is singular: {exc}") from exc
    dm[..., 0] -= vals.transpose(to_stack)
    w0 = w0.transpose(to_stack)  # (n, n, [B]), like the stack

    def constant_step(c: np.ndarray, d: np.ndarray, left: bool) -> np.ndarray:
        if math.isfinite(c.sum()) and math.isfinite(d.sum()):
            terms = (c[k, ..., None] * d[k, ..., :sp.T] + 0.0 for k in range(n))
        else:
            terms = (constant_product(sp, c[k], d[k], left) for k in range(n))
        acc = next(terms)
        for term in terms:
            acc = acc + term
        return acc

    w = np.zeros(dm.shape)
    w[..., 0] = w0
    if order:
        # [k, i, j] = W0[i, k] and the entries M'[k, j], then W0 M' [i, k]
        # and the constant W0[k, j], each summed over k
        w0_k = w0.swapaxes(0, 1)[:, :, None]
        w0_dm = constant_step(w0_k, dm[:, None], left=True)
        x_k = w0_dm.swapaxes(0, 1)[:, :, None]
        step = constant_step(w0[:, None], x_k, left=False)
        const, w = w, w + -step
        prefix = dm.ndim == 4 and _sweep_finite(np.abs(w0).sum(axis=1).max(), w, w0_dm,
                                                order - 1, axes=(1, -1))
        for j in range(order - 1):
            sub = _pass_space(sp, j + 2, prefix)
            w[..., :sub.T] = const[..., :sub.T] + -contract(sub, x_k, w[:, None])
    return w
