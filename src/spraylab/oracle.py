"""Independent check path: batched Taylor arithmetic and FD curvature.

Everything here reconstructs what the jet engine computes, by different
means: Taylor2 carries (value, gradient, the Hessian's y-columns) with
longhand forward rules over numpy batches, and the curvature
reconstruction uses classical central-difference stencils on the spray
coefficient *values* only.  The point is to be an oracle, so none of this
calls into the jet pipeline.

Coefficient values come from one of three routes, all jet-free:
  expression sprays   vectorized float evaluation of the parse tree
  induced sprays      Taylor2 through the metric, then dense linear algebra
  shifted sprays      the base route plus a metric value term

Finite differences use integer offsets of a single step h, composed per
variable (tensor-product stencils).  The stencil plan depends only on the
dimension and h, so it is built once per (dim, h) and cached: the offsets
of every stencil row, and per stencil length the row indices and weights
of each derivative.  The oracle works on blocks of points: for a block,
one batched evaluation on the stencil rows of each chunk of its points
(`FD_STENCIL_ROWS` bounds a chunk's rows) and one grouped pass over the
index and weight arrays give every derivative, and the curvature
formulas run as stacked array operations.  Each row of a block equals
the computation at that point alone, bit for bit, and the first point
that fails alone decides the error.  `agreement_report` reads its
bundles one at a time, and takes the differences at the rows of a block
bundle in one `fd_curvature` call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import dsl, jets
from .classify import rowwise
from .errors import DomainError
from .geometry import ExprMetric, ExprSpray, MetricSpray, ShiftedSpray, _point_array

_FLOOR = 1e-12


class Taylor2:
    """Value, gradient and the Hessian's y-columns of a scalar over a batch
    of B points z = (x, y) in a chart of dim n.

    `val` is (B,), `grad` (B, 2n) and `hess` (B, 2n, n), with hess[:, i, j]
    = d2/dz^i dy^j: the columns the induced spray reads (L_{yy} and
    L_{xy}), and no others.  `variables` stores grad and hess batch-last
    in memory, and numpy's elementwise operations keep that layout, so each
    runs its inner loop along the batch instead of along 2n or n entries.

    Each entry has the bits it had when the full 2n x 2n Hessian was
    carried, with every product taken and every sum written out.  Entry
    (i, j) of every rule (product, reciprocal, chain) reads only entry
    (i, j) of its operands' Hessians and their gradient entries i and j, so
    dropping the x-columns leaves the operations of every kept entry as
    they were, and an elementwise operation rounds each entry alone,
    whatever the layout.
    The rules skip work without changing a bit:
      u * u      takes each of its equal products once and adds it to
                 itself: equal products are the same rounded values
      constants  a constant operand of +, - or * enters as the scalar 0.0
                 (-0.0 when subtracted) in the operations its zero gradient
                 and Hessian entered, which give the same x + 0.0, 0.0 * x
                 and x + (-0.0)
      sums       the Hessian's terms are added in place, in the order the
                 sums were written; a reciprocal takes inv * inv once
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.val = val
        self.grad = grad
        self.hess = hess

    @classmethod
    def variables(cls, P: np.ndarray) -> list["Taylor2"]:
        P = np.asarray(P, dtype=float)
        nb, m = P.shape
        out = []
        for v in range(m):
            g = np.zeros((m, nb))  # batch-last in memory
            g[v] = 1.0
            hess = np.zeros((m, m // 2, nb)).transpose(2, 0, 1)
            out.append(cls(P[:, v].copy(), g.T, hess))
        return out

    def _lift(self, other) -> "Taylor2":
        if isinstance(other, Taylor2):
            return other
        val = np.broadcast_to(np.asarray(other, dtype=float), self.val.shape).copy()
        return Taylor2(val, np.zeros_like(self.grad), np.zeros_like(self.hess))

    def _outer(self, other: "Taylor2") -> np.ndarray:
        """grad(self)^i grad(other)^j over the Hessian's entries."""
        return self.grad[:, :, None] * other.grad[:, None, self.hess.shape[2]:]

    # -- ring ----------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Taylor2):
            return Taylor2(self.val + other.val, self.grad + other.grad,
                           self.hess + other.hess)
        return self._shifted(float(other), 0.0)

    __radd__ = __add__

    def _shifted(self, c: float, zero: float) -> "Taylor2":
        """self + c, where the constant's gradient and Hessian are `zero`."""
        return Taylor2(self.val + c, self.grad + zero, self.hess + zero)

    def __neg__(self):
        return Taylor2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Taylor2):
            return self + (-other)
        return self._shifted(-float(other), -0.0)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        u, v = self, other
        if not isinstance(v, Taylor2):
            c = float(v)
            grad = u.grad * c
            grad += 0.0 * u.val[:, None]
            hess = u.hess * c
            hess += 0.0 * u.val[:, None, None]
            hess += u.grad[:, :, None] * 0.0
            hess += 0.0 * u.grad[:, None, u.hess.shape[2]:]
            return Taylor2(u.val * c, grad, hess)
        if v is u:  # each of the equal products once, added to itself
            grad = u.grad * u.val[:, None]
            grad += grad
            hess = u.hess * u.val[:, None, None]
            hess += hess
            outer = u._outer(u)
            hess += outer
            hess += outer
            return Taylor2(u.val * u.val, grad, hess)
        grad = u.grad * v.val[:, None]
        grad += v.grad * u.val[:, None]
        hess = u.hess * v.val[:, None, None]
        hess += v.hess * u.val[:, None, None]
        hess += u._outer(v)
        hess += v._outer(u)
        return Taylor2(u.val * v.val, grad, hess)

    __rmul__ = __mul__

    def reciprocal(self) -> "Taylor2":
        if np.any(np.abs(self.val) <= _FLOOR):
            raise DomainError("reciprocal of a value hitting zero in the batch")
        inv = 1.0 / self.val
        inv2 = inv * inv
        grad = -self.grad
        grad *= inv2[:, None]
        hess = -self.hess
        hess *= inv2[:, None, None]
        outer = 2.0 * self._outer(self)
        outer *= (inv**3)[:, None, None]
        hess += outer
        return Taylor2(inv, grad, hess)

    def __truediv__(self, other):
        o = self._lift(other)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        if isinstance(k, int) or (isinstance(k, float) and k.is_integer()):
            return jets.powi(self, int(k))
        return (self.ln() * float(k)).exp()

    # -- chain rule ------------------------------------------------------------

    def _chain(self, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> "Taylor2":
        grad = f1[:, None] * self.grad
        hess = f1[:, None, None] * self.hess
        outer = self._outer(self)
        outer *= f2[:, None, None]
        hess += outer
        return Taylor2(f0, grad, hess)

    def exp(self) -> "Taylor2":
        e = np.exp(self.val)
        return self._chain(e, e, e)

    def ln(self) -> "Taylor2":
        if np.any(self.val <= _FLOOR):
            raise DomainError("ln of a nonpositive value in the batch")
        inv = 1.0 / self.val
        return self._chain(np.log(self.val), inv, -inv * inv)

    def sqrt(self) -> "Taylor2":
        if np.any(self.val <= _FLOOR):
            raise DomainError("sqrt of a nonpositive value in the batch")
        s = np.sqrt(self.val)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.val))

    def sin(self) -> "Taylor2":
        return self._chain(np.sin(self.val), np.cos(self.val), -np.sin(self.val))

    def cos(self) -> "Taylor2":
        return self._chain(np.cos(self.val), -np.sin(self.val), -np.cos(self.val))

    def atan(self) -> "Taylor2":
        d = 1.0 + self.val * self.val
        return self._chain(np.arctan(self.val), 1.0 / d, -2.0 * self.val / (d * d))

    def absolute(self) -> "Taylor2":
        s = np.sign(self.val)
        if np.any(s == 0.0):
            raise DomainError("absolute value at zero in the batch")
        return self._chain(np.abs(self.val), s, np.zeros_like(s))


# -- jet-free coefficient values ------------------------------------------------


def _expr_batch(problem: dsl.ProblemDef, P: np.ndarray) -> np.ndarray:
    env = [P[:, v] for v in range(P.shape[1])]
    cols = [np.broadcast_to(np.asarray(out, dtype=float), (P.shape[0],))
            for out in dsl.evaluate(problem.tape, env, dim=problem.dim)]
    return np.stack(cols, axis=1)


def _metric_taylor(metric, P: np.ndarray) -> Taylor2:
    env = Taylor2.variables(P)
    if not isinstance(metric, ExprMetric):
        raise DomainError(f"no oracle route through metric type {type(metric).__name__}")
    out = dsl.evaluate(metric.problem.tape, env, dim=metric.dim)[0]
    return out if isinstance(out, Taylor2) else env[0]._lift(out)


def _metric_values(metric, P: np.ndarray) -> np.ndarray:
    if isinstance(metric, ExprMetric):
        env = [P[:, v] for v in range(P.shape[1])]
        out = dsl.evaluate(metric.problem.tape, env, dim=metric.dim)[0]
        return np.broadcast_to(np.asarray(out, dtype=float), (P.shape[0],))
    return _metric_taylor(metric, P).val


def spray_values(spray):
    """A batched G-value callable (B, 2n) -> (B, n) that never touches jets."""
    if isinstance(spray, ExprSpray):
        return lambda P: _expr_batch(spray.problem, np.asarray(P, dtype=float))
    if isinstance(spray, MetricSpray):
        n = spray.dim

        def induced(P: np.ndarray) -> np.ndarray:
            P = np.asarray(P, dtype=float)
            t = _metric_taylor(spray.metric, P)
            g = 0.5 * t.hess[:, n:]
            try:
                w = np.linalg.inv(g)
            except np.linalg.LinAlgError as exc:
                raise DomainError(
                    "the metric's fundamental tensor is singular at a point "
                    f"of the finite-difference batch: {exc}") from exc
            # v_l = L_{x^k y^l} y^k - L_{x^l}
            v = np.einsum("bkl,bk->bl", t.hess[:, :n], P[:, n:]) - t.grad[:, :n]
            return 0.25 * np.einsum("bil,bl->bi", w, v)

        return induced
    if isinstance(spray, ShiftedSpray):
        base = spray_values(spray.base)

        def shifted(P: np.ndarray) -> np.ndarray:
            P = np.asarray(P, dtype=float)
            L = _metric_values(spray.metric, P)
            if np.any(L <= 0.0):
                raise DomainError("projective shift needs a positive metric value")
            return base(P) + spray.c * np.sqrt(L)[:, None] * P[:, spray.dim:]

        return shifted
    raise DomainError(f"no oracle route for spray type {type(spray).__name__}")


# -- central-difference curvature -------------------------------------------------

# one-dimensional central stencils, offset -> weight, per derivative order
_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}

def _stencil(alpha: tuple, h: float) -> list[tuple[tuple, float]]:
    """Tensor-product stencil for a multi-index: [(offset vector, weight)]."""
    out = [((), 1.0)]
    for a in alpha:
        grown = []
        for off, w in out:
            for o, wo in _STENCILS[a].items():
                grown.append((off + (o,), w * wo))
        out = grown
    scale = h ** sum(alpha)
    return [(off, w / scale) for off, w in out]


def _alpha(m: int, *slots: int) -> tuple:
    a = [0] * m
    for s in slots:
        a[s] += 1
    return tuple(a)


def _frozen(a, dtype=None) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


class _FdPlan:
    """Every central difference `fd_curvature` takes, for one (dim, h).

    A derivative is keyed (base, alpha): the multi-index alpha of the
    stencil centred at the point shifted by `base` steps.  `offsets` holds
    the stencil rows, in steps of h from the point, in the order the keys
    first use them.  `keys` lists the derivatives grouped by stencil length
    k, and `groups` holds per k the (K, k) row-index and weight arrays of
    its K keys; `derivatives` stacks the groups into one table whose row i
    is `keys[i]`.  The integer arrays below select the table rows the
    curvature formulas read, per base b (0 the point, 1 + 2m and 2 + 2m the
    y^m shifts by +h and -h):

      g0[b]          G
      dx[b, k]       dG/dx^k
      dy[b, j]       dG/dy^j            (the columns of N)
      mixed[b, k, j] d2G/dx^j dy^k
      hess[b, k, j]  d2G/dy^j dy^k
      third[i, j, k] d3G/dy^i dy^j dy^k at the point

    Every array is read-only: plans are shared through the cache.
    """

    def __init__(self, n: int, h: float):
        # the stencils scale their weights by h^-1 to h^-3, so h^3 and h^-3
        # must both be finite and nonzero; Python's float power raises on
        # overflow
        try:
            in_range = h ** 3 > 0.0 and h ** -3 > 0.0
        except OverflowError:
            in_range = False
        if not in_range:
            raise DomainError(
                f"finite-difference step {h:g} is out of range: h^3 and h^-3 "
                "must be finite and nonzero")
        m = 2 * n
        zero = (0,) * m
        bases = [zero]
        for mm in range(n):
            for s in (+1, -1):
                b = [0] * m
                b[n + mm] = s
                bases.append(tuple(b))

        wants = []
        for base in bases:
            wants.append((base, _alpha(m)))
            for k in range(n):
                wants.append((base, _alpha(m, k)))
                wants.append((base, _alpha(m, n + k)))
                for j in range(n):
                    wants.append((base, _alpha(m, j, n + k)))
                    if j <= k:
                        wants.append((base, _alpha(m, n + j, n + k)))
        for hh in range(n):
            for j in range(hh, n):
                for k in range(j, n):
                    wants.append((zero, _alpha(m, n + hh, n + j, n + k)))

        rows: dict[tuple, int] = {}
        by_length: dict[int, list] = {}
        for base, alpha in wants:
            terms = []
            for off, w in _stencil(alpha, h):
                merged = tuple(b + o for b, o in zip(base, off))
                terms.append((rows.setdefault(merged, len(rows)), w))
            by_length.setdefault(len(terms), []).append(((base, alpha), terms))

        self.offsets = _frozen(list(rows), float)
        self.shifts = _frozen([b[n:] for b in bases], float)
        entries = [by_length[k] for k in sorted(by_length)]
        self.keys = tuple(key for group in entries for key, _ in group)
        self.groups = tuple(
            (_frozen([[r for r, _ in terms] for _, terms in group]),
             _frozen([[w for _, w in terms] for _, terms in group]))
            for group in entries)

        slot = {key: i for i, key in enumerate(self.keys)}

        def at(base, *slots):
            return slot[(base, _alpha(m, *slots))]

        self.g0 = _frozen([at(b) for b in bases])
        self.dx = _frozen([[at(b, k) for k in range(n)] for b in bases])
        self.dy = _frozen([[at(b, n + j) for j in range(n)] for b in bases])
        self.mixed = _frozen([[[at(b, j, n + k) for j in range(n)]
                               for k in range(n)] for b in bases])
        self.hess = _frozen([[[at(b, n + j, n + k) for j in range(n)]
                              for k in range(n)] for b in bases])
        self.third = _frozen([[[at(zero, n + i, n + j, n + k) for k in range(n)]
                               for j in range(n)] for i in range(n)])

    def derivatives(self, vals: np.ndarray) -> np.ndarray:
        """(..., keys, n) table of derivatives from the (..., rows, n)
        stencil values of one point or of a block of points.

        Each derivative sums its terms in stencil order, one rounded
        multiply and add per term, as a sum over one stencil at a time
        would.
        """
        parts = []
        for idx, W in self.groups:
            acc = np.zeros(vals.shape[:-2] + (idx.shape[0], vals.shape[-1]))
            for t in range(idx.shape[1]):
                acc = acc + W[:, t, None] * vals[..., idx[:, t], :]
            parts.append(acc)
        return np.concatenate(parts, axis=-2)


# one plan per (dim, h) in use; capped, since h comes from --fd-step
@lru_cache(maxsize=8)
def _fd_plan(n: int, h: float) -> _FdPlan:
    return _FdPlan(n, h)


# A block's stencils are evaluated in chunks of points holding at most this
# many stencil rows (at least one point), because the spray's evaluation
# on the rows, a metric spray's Taylor2 Hessians above all, grows with
# them: 14 points of a dim-2 plan (73 rows each), 4 of a dim-3 plan (207).
# On elliptic2's 64-point block (2-vCPU x86, numpy 2.4), `fd_curvature`
# peaks at 0.66, 1.16, 2.04 and 4.41 MB traced (tracemalloc) with bounds of
# 1 << 9, 10, 11 and 13 (one chunk), in 14.7, 11.3, 12.7 and 12.9 ms (best
# of 15).  The `oracle` benchmark's peak RSS reads 44.5-45.0 MB at each of
# 1 << 9, 10 and 11.
FD_STENCIL_ROWS = 1 << 10


def fd_curvature(spray, p, h: float = 1e-3) -> dict:
    """N, R, Ric, chi and B from central differences of G values.

    `p` is one point (2n,) or a block of points (B, 2n).  A point gives N
    (n, n), R (n, n), Ric a float, chi (n,) and B (n, n, n, n); a block
    gives the same tensors stacked on a leading axis of B rows, and each
    row equals the call at that point alone, bit for bit.

    Every stencil is central, so the error expands in even powers of h;
    one Richardson step (4 f(h) - f(2h))/3 cancels the h^2 term across the
    whole reconstruction, which matters for chi (a difference of an already
    differenced tensor) near points with large higher derivatives.

    The y argument is normalized to unit length first and the results are
    rescaled by the homogeneity degree of each tensor (N: 1, R and Ric: 2,
    chi: 1, B: -1).  Step sizes in y are then relative, which keeps both
    cancellation error at large |y| and truncation error at small |y| in
    check.  Positive 2-homogeneity of the spray coefficients is asserted
    numerically rather than assumed.

    A block is evaluated as a whole: one spray evaluation for the
    homogeneity pairs, and at each step h one on the stencil rows of each
    chunk of its points (the cached plan for (dim, h); at most
    `FD_STENCIL_ROWS` rows a chunk), which the plan turns into every
    derivative in one grouped pass.  A stencil row outside the
    spray's domain gives a non-finite value, and that raises DomainError
    naming the point and h: a step too large for the domain is refused,
    not compared.  When a block raises, its points are run one at a time
    (`classify.rowwise`), so the first point that fails alone raises its
    own error.
    """
    n = spray.dim
    P = _point_array(p, n)
    fn = spray_values(spray)
    if P.ndim == 1:
        fd = _fd_stacked(fn, n, P[None, :], h)
        return {key: float(v[0]) if key == "Ric" else v[0] for key, v in fd.items()}
    parts = list(rowwise(lambda Q: [_fd_stacked(fn, n, Q, h)], P))
    if len(parts) == 1:
        return parts[0]
    return {key: np.concatenate([r[key] for r in parts]) for key in parts[0]}


def _fd_stacked(fn, n: int, P: np.ndarray, h: float) -> dict:
    """`fd_curvature` over the (B, 2n) block P, stacked; raises at the
    first failure it meets, which in a block of several points may not be
    the first point's."""
    # the norm of each y alone: a norm along an axis of the stack sums
    # another way
    lam = [float(np.linalg.norm(pt[n:])) for pt in P]
    lam = [1.0 if abs(v - 1.0) <= 1e-12 else v for v in lam]  # 1.0 is exact
    Q = P.copy()
    moved = [i for i, v in enumerate(lam) if v != 1.0]
    if moved:
        Q[moved, n:] /= np.array([lam[i] for i in moved])[:, None]
        gp, gq = np.split(fn(np.concatenate([P[moved], Q[moved]])), 2)
        scale = np.maximum(1.0, np.max(np.abs(gp), axis=1))
        sq = np.array([lam[i] * lam[i] for i in moved])[:, None]
        if np.any(np.max(np.abs(gp - sq * gq), axis=1) > 1e-9 * scale):
            raise DomainError(
                "spray coefficients are not positively 2-homogeneous in y; "
                "the finite-difference oracle requires homogeneity to "
                "normalize |y|"
            )

    nb = len(P)
    steps = []
    for hs in (h, 2.0 * h):
        plan = _fd_plan(n, hs)
        chunk = max(1, FD_STENCIL_ROWS // len(plan.offsets))
        D = np.concatenate([_fd_derivatives(fn, n, plan, Q[lo:lo + chunk], hs)
                            for lo in range(0, nb, chunk)])  # (nb, keys, n)

        def columns(idx) -> np.ndarray:
            # (nb, n, n) with [b, i, j] = D[b, idx[j], i], C-contiguous: a
            # strided operand of @ can round differently
            return D[:, idx].transpose(0, 2, 1).copy()

        def riemann_at(b: int) -> np.ndarray:
            y = (Q[:, n:] + hs * plan.shifts[b])[:, :, None]
            G0 = D[:, plan.g0[b], :, None]
            N = columns(plan.dy[b])
            R = np.empty((nb, n, n))
            for k in range(n):
                Nk = N[:, :, k, None].copy()
                R[:, :, k] = (2.0 * D[:, plan.dx[b, k]]
                              - (columns(plan.mixed[b, k]) @ y)[:, :, 0]
                              + (2.0 * columns(plan.hess[b, k]) @ G0)[:, :, 0]
                              - (N @ Nk)[:, :, 0])
            return R

        R0 = riemann_at(0)
        chi = np.zeros((nb, n))
        for mm in range(n):
            dR = (riemann_at(1 + 2 * mm) - riemann_at(2 + 2 * mm)) / (2.0 * hs)
            chi += (2.0 * dR[:, mm, :]
                    + np.trace(dR, axis1=1, axis2=2)[:, None] * _unit(n, mm))
        steps.append({"N": columns(plan.dy[0]), "R": R0,
                      "Ric": np.trace(R0, axis1=1, axis2=2), "chi": chi,
                      "B": np.moveaxis(D[:, plan.third], -1, 1).copy()})

    a, b = steps
    out = {k: (4.0 * a[k] - b[k]) / 3.0 for k in a}
    L = np.array(lam)
    # Python's lam ** 2 per point: numpy squares an array as lam * lam,
    # which can differ in the last bit
    L2 = np.array([v ** 2 for v in lam])
    return {
        "N": out["N"] * L[:, None, None],
        "R": out["R"] * L2[:, None, None],
        "Ric": out["Ric"] * L2,
        "chi": out["chi"] * L[:, None],
        "B": out["B"] / L[:, None, None, None, None],
    }


def _fd_derivatives(fn, n: int, plan: _FdPlan, Q: np.ndarray, hs: float) -> np.ndarray:
    """The plan's derivatives at the points Q, (len(Q), keys, n), from one
    evaluation of the spray on all their stencil rows."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        rows = Q[:, None, :] + hs * plan.offsets  # (points, rows, 2n)
        vals = fn(rows.reshape(-1, 2 * n)).reshape(len(Q), -1, n)
    finite = np.isfinite(vals).all(axis=2)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        point = ", ".join(f"{v:.6g}" for v in Q[i])
        raise DomainError(
            f"the finite-difference stencil at ({point}) with step "
            f"{hs:g} leaves the spray's domain: G is not finite on "
            f"{int(np.sum(~finite[i]))} of {vals.shape[1]} stencil rows")
    return plan.derivatives(vals)


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def agreement_report(bundles, h: float = 1e-3) -> dict:
    """Worst-case jets-vs-FD disagreement for R, chi, B over the bundles.

    Each CurvatureBundle, at a point or a block, supplies the jet side;
    the finite differences read only its spray's coefficient values around
    its points.  `bundles` may be a generator: each bundle is compared as
    it is read, and the rows of a bundle share one `fd_curvature` call (a
    point bundle is a block of one row), which raises the error of the
    first point that fails alone.  A tensor passes when every component
    error is at most max(1e-5, 1e-4 |component|); the report carries the
    worst error and the tolerance in force at the worst spot.  A block's
    errors and tolerances are taken at once, and each row's worst spot
    (its first, when several tie) is folded into the report in row order.
    """
    report = {
        key: {"max_err": 0.0, "worst_tol": float("inf"), "ok": True}
        for key in ("R", "chi", "B")
    }
    for b in bundles:
        P = np.atleast_2d(b._pa)
        fd = fd_curvature(b.spray, P, h)
        for key, name in (("R", "R_values"), ("chi", "chi_values"),
                          ("B", "B_values")):
            want = fd[key].reshape(len(P), -1)
            got = np.reshape(getattr(b, name), want.shape)
            err = np.abs(got - want)
            tol = np.maximum(1e-5, 1e-4 * np.abs(got))
            over = err - tol
            k = np.argmax(over, axis=1)[:, None]
            entry = report[key]
            # each row's worst spot, folded over the rows in order
            for d, e, t in zip(*(np.take_along_axis(a, k, 1)[:, 0].tolist()
                                 for a in (over, err, tol))):
                if d > entry["max_err"] - entry["worst_tol"]:
                    entry["max_err"], entry["worst_tol"] = e, t
            if not np.all(err <= tol):  # a NaN error is no agreement
                entry["ok"] = False
        del b, fd  # so that the next block is built without this one
    return report
