"""Independent check path: batched Taylor arithmetic and FD curvature.

Everything here reconstructs what the jet engine computes, by different
means: Taylor2 carries (value, gradient, Hessian) with longhand forward
rules over numpy batches, and the curvature reconstruction uses classical
central-difference stencils on the spray coefficient *values* only.  The
point is to be an oracle, so none of this calls into the jet pipeline.

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
that fails alone decides the error.  `agreement_report`
reads its bundles one at a time, and takes the differences of the rows
of a block bundle once, through a `geometry.RowReader`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import dsl, jets
from .errors import DomainError
from .geometry import (ExprMetric, ExprSpray, MetricSpray, RowReader,
                       ShiftedSpray, _point_array)

_FLOOR = 1e-12


class Taylor2:
    """Value, gradient and Hessian of a scalar over a batch of points."""

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
            g = np.zeros((nb, m))
            g[:, v] = 1.0
            out.append(cls(P[:, v].copy(), g, np.zeros((nb, m, m))))
        return out

    def _lift(self, other) -> "Taylor2":
        if isinstance(other, Taylor2):
            return other
        val = np.broadcast_to(np.asarray(other, dtype=float), self.val.shape).copy()
        return Taylor2(val, np.zeros_like(self.grad), np.zeros_like(self.hess))

    # -- ring ----------------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        return Taylor2(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Taylor2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        u, v = self, o
        grad = u.grad * v.val[:, None] + v.grad * u.val[:, None]
        hess = (
            u.hess * v.val[:, None, None]
            + v.hess * u.val[:, None, None]
            + u.grad[:, :, None] * v.grad[:, None, :]
            + v.grad[:, :, None] * u.grad[:, None, :]
        )
        return Taylor2(u.val * v.val, grad, hess)

    __rmul__ = __mul__

    def reciprocal(self) -> "Taylor2":
        if np.any(np.abs(self.val) <= _FLOOR):
            raise DomainError("reciprocal of a value hitting zero in the batch")
        inv = 1.0 / self.val
        grad = -self.grad * (inv * inv)[:, None]
        hess = -self.hess * (inv * inv)[:, None, None] + 2.0 * (
            self.grad[:, :, None] * self.grad[:, None, :]
        ) * (inv**3)[:, None, None]
        return Taylor2(inv, grad, hess)

    def __truediv__(self, other):
        o = self._lift(other)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        if isinstance(k, int):
            return jets.powi(self, k)
        return (self.ln() * float(k)).exp()

    # -- chain rule ------------------------------------------------------------

    def _chain(self, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> "Taylor2":
        grad = f1[:, None] * self.grad
        hess = f1[:, None, None] * self.hess + f2[:, None, None] * (
            self.grad[:, :, None] * self.grad[:, None, :]
        )
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
            g = 0.5 * t.hess[:, n:, n:]
            try:
                w = np.linalg.inv(g)
            except np.linalg.LinAlgError as exc:
                raise DomainError(
                    "the metric's fundamental tensor is singular at a point "
                    f"of the finite-difference batch: {exc}") from exc
            # v_l = L_{x^k y^l} y^k - L_{x^l}
            v = np.einsum("bkl,bk->bl", t.hess[:, :n, n:], P[:, n:]) - t.grad[:, :n]
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
# Peak memory of the `oracle` benchmark (2-vCPU x86, numpy 2.4, 64-sample
# blocks): 45.1-45.4 MB at this bound and 46.0-46.2 MB at 1 << 11; 44.0 MB
# with blocks of 16 samples.
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
    not compared.  When a block raises, its points are run one at a time,
    so the first point that fails alone raises its own error.
    """
    n = spray.dim
    P = _point_array(p, n)
    fn = spray_values(spray)
    if P.ndim == 1:
        fd = _fd_stacked(fn, n, P[None, :], h)
        return {key: float(v[0]) if key == "Ric" else v[0] for key, v in fd.items()}
    try:
        return _fd_stacked(fn, n, P, h)
    except Exception:
        # whatever the block raised, a point that fails alone raises its
        # own error again below
        rows = [_fd_stacked(fn, n, P[i:i + 1], h) for i in range(len(P))]
        return {key: np.concatenate([r[key] for r in rows]) for key in rows[0]}


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


def _fd_rows(b, h: float):
    """`fd_curvature`'s tensors at the bundle's point, or one dict of them
    per row of a block bundle; a point is taken as a block of one row."""
    P = np.reshape(b._pa, (-1, b._pa.shape[-1]))
    fd = fd_curvature(b.spray, P, h=h)
    rows = [{key: v[r] for key, v in fd.items()} for r in range(len(P))]
    return rows if b._pa.ndim == 2 else rows[0]


def agreement_report(bundles, h: float = 1e-3) -> dict:
    """Worst-case jets-vs-FD disagreement for R, chi, B over the bundles.

    Each CurvatureBundle supplies the jet side; the finite differences
    read only its spray's coefficient values around its point.  `bundles`
    may be a generator: each bundle is compared as it is read, in order,
    and the rows of one block bundle share one `fd_curvature` call (see
    `geometry.RowReader`).  A tensor passes when every component error is
    at most max(1e-5, 1e-4 |component|); the report carries the worst
    error and the tolerance in force at the worst spot.
    """
    report = {
        key: {"max_err": 0.0, "worst_tol": float("inf"), "ok": True}
        for key in ("R", "chi", "B")
    }
    fd_at = RowReader(_fd_rows, h)
    for b in bundles:
        fd = fd_at(b)
        for key, got in (("R", b.R_values), ("chi", b.chi_values),
                         ("B", b.B_values)):
            err = np.abs(got - fd[key])
            tol = np.maximum(1e-5, 1e-4 * np.abs(got))
            k = np.unravel_index(np.argmax(err - tol), err.shape)
            entry = report[key]
            if err[k] - tol[k] > entry["max_err"] - entry["worst_tol"]:
                entry["max_err"] = float(err[k])
                entry["worst_tol"] = float(tol[k])
            if not np.all(err <= tol):  # a NaN error is no agreement
                entry["ok"] = False
    return report
