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
variable (tensor-product stencils), so one batched evaluation per base
point serves every requested derivative.
"""

from __future__ import annotations

import numpy as np

from . import dsl, jets
from .errors import DomainError
from .geometry import ExprMetric, ExprSpray, FuncMetric, MetricSpray, ShiftedSpray

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
    cols = []
    for e in problem.exprs:
        out = dsl.evaluate(e, env, dim=problem.dim)
        cols.append(np.broadcast_to(np.asarray(out, dtype=float), (P.shape[0],)))
    return np.stack(cols, axis=1)


def _metric_taylor(metric, P: np.ndarray) -> Taylor2:
    env = Taylor2.variables(P)
    if isinstance(metric, ExprMetric):
        out = dsl.evaluate(metric.problem.exprs[0], env, dim=metric.dim)
    elif isinstance(metric, FuncMetric):
        out = metric.fn(env)
    else:
        raise DomainError(f"no oracle route through metric type {type(metric).__name__}")
    return out if isinstance(out, Taylor2) else env[0]._lift(out)


def _metric_values(metric, P: np.ndarray) -> np.ndarray:
    if isinstance(metric, ExprMetric):
        env = [P[:, v] for v in range(P.shape[1])]
        out = dsl.evaluate(metric.problem.exprs[0], env, dim=metric.dim)
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
            w = np.linalg.inv(g)
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


class _FdTable:
    """Gathers every needed (base offset + stencil) row for one batch call."""

    def __init__(self, dim: int, h: float):
        self.m = 2 * dim
        self.h = h
        self.rows: dict[tuple, int] = {}

    def _row(self, off: tuple) -> int:
        if off not in self.rows:
            self.rows[off] = len(self.rows)
        return self.rows[off]

    def want(self, base: tuple, alpha: tuple) -> list[tuple[int, float]]:
        plan = []
        for off, w in _stencil(alpha, self.h):
            merged = tuple(b + o for b, o in zip(base, off))
            plan.append((self._row(merged), w))
        return plan

    def evaluate(self, fn, p: np.ndarray) -> np.ndarray:
        offs = np.array(sorted(self.rows, key=self.rows.get), dtype=float)
        return fn(p[None, :] + self.h * offs)


def _alpha(m: int, *slots: int) -> tuple:
    a = [0] * m
    for s in slots:
        a[s] += 1
    return tuple(a)


def fd_curvature(spray, p, h: float = 1e-3, richardson: bool = True) -> dict:
    """N, R, Ric, chi and B at p from central differences of G values.

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
    """
    n = spray.dim
    m = 2 * n
    pa = np.asarray(p, dtype=float)
    if pa.shape != (m,):
        pa = np.asarray(p.array(), dtype=float)
    fn = spray_values(spray)
    lam = float(np.linalg.norm(pa[n:]))
    if abs(lam - 1.0) > 1e-12:
        q = pa.copy()
        q[n:] /= lam
        gp, gq = fn(np.stack([pa, q]))
        scale = max(1.0, float(np.max(np.abs(gp))))
        if np.max(np.abs(gp - lam * lam * gq)) > 1e-9 * scale:
            raise DomainError(
                "spray coefficients are not positively 2-homogeneous in y; "
                "the finite-difference oracle requires homogeneity to "
                "normalize |y|"
            )
        out = fd_curvature(spray, q, h=h, richardson=richardson)
        return {
            "N": out["N"] * lam,
            "R": out["R"] * lam ** 2,
            "Ric": out["Ric"] * lam ** 2,
            "chi": out["chi"] * lam,
            "B": out["B"] / lam,
        }
    if richardson:
        a = fd_curvature(spray, p, h=h, richardson=False)
        b = fd_curvature(spray, p, h=2.0 * h, richardson=False)
        return {k: (4.0 * a[k] - b[k]) / 3.0 for k in a}
    tab = _FdTable(n, h)
    zero = (0,) * m

    # bases: the point itself plus the y-shifts used for the chi derivative
    bases = [zero]
    for mm in range(n):
        for s in (+1, -1):
            b = [0] * m
            b[n + mm] = s
            bases.append(tuple(b))

    plans: dict[tuple, list[tuple[int, float]]] = {}

    def want(base: tuple, alpha: tuple) -> None:
        plans[(base, alpha)] = tab.want(base, alpha)

    for base in bases:
        want(base, _alpha(m))
        for k in range(n):
            want(base, _alpha(m, k))
            want(base, _alpha(m, n + k))
            for j in range(n):
                want(base, _alpha(m, j, n + k))
                if j <= k:
                    want(base, _alpha(m, n + j, n + k))
    for hh in range(n):
        for j in range(hh, n):
            for k in range(j, n):
                want(zero, _alpha(m, n + hh, n + j, n + k))

    vals = tab.evaluate(fn, pa)  # (rows, n)

    def D(base: tuple, alpha: tuple) -> np.ndarray:
        acc = np.zeros(n)
        for row, w in plans[(base, alpha)]:
            acc = acc + w * vals[row]
        return acc

    def riemann_at(base: tuple) -> np.ndarray:
        y = pa[n:] + h * np.asarray(base[n:], dtype=float)
        G0 = D(base, _alpha(m))
        N = np.stack([D(base, _alpha(m, n + j)) for j in range(n)], axis=1)
        R = np.empty((n, n))
        for k in range(n):
            dk = D(base, _alpha(m, k))
            mixed = np.stack([D(base, _alpha(m, j, n + k)) for j in range(n)], axis=1)
            hess = np.stack(
                [
                    D(base, _alpha(m, *sorted((n + j, n + k))))
                    for j in range(n)
                ],
                axis=1,
            )
            R[:, k] = 2.0 * dk - mixed @ y + 2.0 * hess @ G0 - N @ N[:, k]
        return R

    R0 = riemann_at(zero)
    N0 = np.stack([D(zero, _alpha(m, n + j)) for j in range(n)], axis=1)

    chi = np.zeros(n)
    for mm in range(n):
        plus = [0] * m
        plus[n + mm] = 1
        minus = [0] * m
        minus[n + mm] = -1
        dR = (riemann_at(tuple(plus)) - riemann_at(tuple(minus))) / (2.0 * h)
        chi += 2.0 * dR[mm, :] + np.trace(dR) * _unit(n, mm)

    B = np.zeros((n, n, n, n))
    for hh in range(n):
        for j in range(hh, n):
            for k in range(j, n):
                col = D(zero, _alpha(m, n + hh, n + j, n + k))
                for perm in {(hh, j, k), (hh, k, j), (j, hh, k), (j, k, hh), (k, hh, j), (k, j, hh)}:
                    B[:, perm[0], perm[1], perm[2]] = col

    return {"N": N0, "R": R0, "Ric": float(np.trace(R0)), "chi": chi, "B": B}


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def agreement_report(bundles, h: float = 1e-3) -> dict:
    """Worst-case jets-vs-FD disagreement for R, chi, B over the bundles.

    Each CurvatureBundle supplies the jet side; the finite differences
    read only its spray's coefficient values around its point.  `bundles`
    may be a generator, so a caller can stream one bundle at a time.  A
    tensor passes when every component error is at most
    max(1e-5, 1e-4 |component|); the report carries the worst error and the
    tolerance in force at the worst spot.
    """
    report = {
        key: {"max_err": 0.0, "worst_tol": float("inf"), "ok": True}
        for key in ("R", "chi", "B")
    }
    for b in bundles:
        fd = fd_curvature(b.spray, b.point.array(), h=h)
        for key, got in (("R", b.R_values), ("chi", b.chi_values), ("B", b.B_values)):
            err = np.abs(got - fd[key])
            tol = np.maximum(1e-5, 1e-4 * np.abs(got))
            k = np.unravel_index(np.argmax(err - tol), err.shape)
            entry = report[key]
            if err[k] - tol[k] > entry["max_err"] - entry["worst_tol"]:
                entry["max_err"] = float(err[k])
                entry["worst_tol"] = float(tol[k])
            if np.any(err > tol):
                entry["ok"] = False
    return report
