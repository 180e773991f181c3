"""Tensor fields of spray geometry, evaluated pointwise through jets.

The central object is the CurvatureBundle: all derived tensors of one spray
at one point of the slit tangent bundle, computed lazily from the jets of
the spray coefficients and cached.  Conventions:

  G^i            spray coefficients, positively 2-homogeneous in y
  N^i_j          nonlinear connection, the y-gradient of G^i
  Gamma^i_jk     Berwald connection coefficients, second y-gradient
  B^i_hjk        Berwald curvature, third y-gradient (kept as values only)
  R^i_k          Riemann curvature of the spray:
                 2 d_k G^i - y^j d_j dot_k G^i + 2 G^j dot_j dot_k G^i
                 - (dot_j G^i)(dot_k G^j)
  Ric            trace of R^i_k
  R^i_jk         curvature 3-tensor, (dot_j R^i_k - dot_k R^i_j)/3, so that
                 contracting with y on the first lower slot recovers R^i_k
  chi_i          2 dot_m R^m_i + dot_i Ric
  H family       third-order invariants built from y-gradients of the
                 3-tensor; H^{ i}_{j kl} = dot_j R^i_{kl}

The horizontal derivative is delta_j = d_j - N^r_j dot_r; covariant
derivatives of tensors add Gamma terms with sign by slot variance.  Every
vertical or horizontal derivative consumes one order of the jet budget, and
exhausting it raises OrderError rather than returning a wrong value.

A covariant derivative at a point needs only the 1-jets of the tensor and
the values of N and Gamma, so `cov_h` returns values and builds no jets.
The jet-level loop `_cov_h_jets` stays for `delta_scalar`, whose results
are differentiated again and so need the higher coefficients.

A bundle may also be built at a (B, 2n) block of points: its jets then
carry a leading block axis (see `jets`), its value views and `cov_h`
results gain a leading axis of length B, and row r of each equals, bit
for bit, what the bundle at point r alone gives.  Every spray and metric
evaluates a block in one pass.  `rows` turns a block bundle into one
point bundle per row, which reads its tensors off the block's rows: the
tensors of many points come from one walk through the formulas, and every
consumer of point bundles reads them unchanged.  The scalar split
(`splits`), the covariant derivatives the class tests take of its parts,
and `identity_residuals` are likewise taken once for a block, with each
row's numbers those of its point alone.  A consumer that takes a result
of its own per row bundle reads it through a `RowReader`, which states
the rule for a block that raises.

N, Gamma, R^i_k and its y-gradient, the 3-tensor R^i_jk, V and chi, the
split's tau_k, the Berwald values and the induced spray of a metric are
computed on stacks (see `jets`): one array per tensor, (components...,
[B,] T), differentiated by gathers and multiplied with the components
folded into the rows of the kernel.  Each sum over an index adds whole
stacks in the order the formula's loop over the index added jets, so
every entry keeps its bits: the bins of each product are summed in the
kernel's order, and products by constant jets get + 0.0
(`jets.constant_product`).  The bundle hands N, Gamma, R, R3, V and chi
out as nested lists of jets whose coefficients are views of its stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from . import dsl, jets
from .errors import DegenerateMetric, DomainError, PreconditionError, SprayLabError
from .sampling import TOL, Tolerances


@dataclass(frozen=True)
class PointTangent:
    """A chart point with a nonzero tangent vector attached."""

    x: tuple
    y: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise DomainError("chart point and tangent vector lengths differ")
        if max(abs(v) for v in self.y) == 0.0:
            raise DomainError("tangent vector is zero")

    @property
    def dim(self) -> int:
        return len(self.x)

    def array(self) -> np.ndarray:
        return np.asarray(self.x + self.y)


def _point_array(p, dim: int) -> np.ndarray:
    """A point as a (2n,) array, or a block of points as a (B, 2n) array."""
    if isinstance(p, PointTangent):
        pa = p.array()
    else:
        pa = np.asarray(p, dtype=float)
    if pa.shape[-1:] != (2 * dim,) or pa.ndim not in (1, 2):
        raise DomainError(f"expected {2 * dim} coordinates, got shape {pa.shape}")
    return pa


def _var_jets(dim: int, pa: np.ndarray, order: int) -> list:
    sp = jets.space(2 * dim, order)
    center = pa if pa.ndim == 2 else tuple(pa)
    return [sp.variable(v, center) for v in range(2 * dim)]


def _as_jet(v, like) -> "jets.Jet":
    if isinstance(v, jets.Jet):
        return v
    return like.space.constant(float(v), like.center)


# -- fields -----------------------------------------------------------------


class ExprSpray:
    """Spray coefficients given as parsed expressions."""

    def __init__(self, problem: dsl.ProblemDef):
        if problem.kind != "spray":
            raise PreconditionError(f"problem {problem.name!r} is not a spray")
        self.problem = problem
        self.dim = problem.dim
        self.name = problem.name or "spray"

    def coeff_jets(self, p, order: int) -> list:
        pa = _point_array(p, self.dim)
        env = _var_jets(self.dim, pa, order)
        return [_as_jet(v, env[0])
                for v in dsl.evaluate(self.problem.tape, env, dim=self.dim)]

    def guard_values(self, p) -> list[float]:
        return self.problem.guard_values(list(_point_array(p, self.dim)))


class ExprMetric:
    """A candidate Finsler function given as a parsed expression."""

    def __init__(self, problem: dsl.ProblemDef):
        if problem.kind != "metric":
            raise PreconditionError(f"problem {problem.name!r} is not a metric")
        self.problem = problem
        self.dim = problem.dim
        self.name = problem.name or "metric"

    def jet(self, p, order: int):
        pa = _point_array(p, self.dim)
        env = _var_jets(self.dim, pa, order)
        return _as_jet(dsl.evaluate(self.problem.tape, env, dim=self.dim)[0], env[0])

    def value(self, p) -> float:
        pa = _point_array(p, self.dim)
        return float(dsl.evaluate(self.problem.tape, list(pa), dim=self.dim)[0])

    def guard_values(self, p) -> list[float]:
        return self.problem.guard_values(list(_point_array(p, self.dim)))


def spray_of(problem: dsl.ProblemDef):
    """The spray a problem defines: its expression spray, or the spray
    that its expression metric induces."""
    if problem.kind == "metric":
        return MetricSpray(ExprMetric(problem))
    return ExprSpray(problem)


class MetricSpray:
    """The spray induced by a metric via its geodesic equations."""

    def __init__(self, metric):
        self.metric = metric
        self.dim = metric.dim
        self.name = f"induced({metric.name})"

    def coeff_jets(self, p, order: int) -> list:
        return spray_from_metric(self.metric, p, order)

    def guard_values(self, p) -> list[float]:
        return self.metric.guard_values(p)


class ShiftedSpray:
    """A projective shift of a base spray along a metric: G^i + c sqrt(L) y^i."""

    def __init__(self, base, metric, c: float):
        if base.dim != metric.dim:
            raise PreconditionError("base spray and metric dimensions differ")
        self.base = base
        self.metric = metric
        self.c = float(c)
        self.dim = base.dim
        self.name = f"{base.name}+{self.c}*F*y"

    def coeff_jets(self, p, order: int) -> list:
        G = self.base.coeff_jets(p, order)
        if self.c == 0.0:
            return G
        pa = _point_array(p, self.dim)
        F = jets.sqrt(self.metric.jet(pa, order))
        ys = _var_jets(self.dim, pa, order)[self.dim:]
        return [G[i] + self.c * (F * ys[i]) for i in range(self.dim)]

    def guard_values(self, p) -> list[float]:
        return list(self.base.guard_values(p)) + list(self.metric.guard_values(p))


# -- metric pipeline ---------------------------------------------------------


def _fundamental_jets(metric, pa: np.ndarray, order: int, tol: Tolerances):
    """Jets of L and of g_ij = half the y-Hessian, with a rank check.

    At a block of points the values are (B, n, n) and the rank is checked
    row by row; the first failing row names the error.  The entries of g
    are views of one (n, n, [B,] T) stack.
    """
    Lj = metric.jet(pa, order + 2)
    n, tail = metric.dim, pa.ndim
    sp = Lj.space
    hessian = _dys(_lower(sp), _dys(sp, Lj.coeffs, n, tail), n, tail)
    stack = np.empty(hessian.shape)
    for i in range(n):
        for j in range(i, n):
            stack[i, j] = stack[j, i] = hessian[i, j] * 0.5
    g = np.empty((n, n), dtype=object)
    lower = _lower(_lower(sp))
    for i in range(n):
        for j in range(n):
            g[i, j] = jets.Jet(lower, Lj.center, stack[i, j])
    vals = _stack_values(stack, 2)
    for v in (vals if vals.ndim == 3 else (vals,)):
        s = np.linalg.svd(v, compute_uv=False)
        if s[-1] <= tol.rank * s[0] or s[0] == 0.0:
            raise DegenerateMetric(
                f"fundamental tensor of {metric.name!r} is numerically singular "
                f"(singular values {s})"
            )
    return Lj, g, vals


def spray_from_metric(metric, p, order: int = 4, tol: Tolerances = TOL) -> list:
    """Jets of the induced spray coefficients at p (a point or a block).

    The metric is lifted two orders above the requested spray order, since
    the geodesic coefficients consume one x- and one y-derivative of L.
    Each sum over an index is a `jets.contract`, with the terms added in
    ascending order.
    """
    pa = _point_array(p, metric.dim)
    n, tail = metric.dim, pa.ndim
    Lj, g, _ = _fundamental_jets(metric, pa, order, tol)
    try:
        w = jets.jet_matrix_inverse(g)
    except DomainError as exc:
        raise DegenerateMetric(f"fundamental tensor of {metric.name!r}: {exc}") from exc
    sp = jets.space(2 * n, min(order, w[0, 0].order))
    W = np.array([[w[i, l].coeffs for l in range(n)] for i in range(n)])
    top = Lj.space
    dl = _dys(top, Lj.coeffs, n, tail)                  # [l] = L_{y^l}
    dlx = _dxs(_lower(top), dl, n, tail)
    # v_l = sum_k L_{y^l x^k} y^k - L_{x^l}, then sum_l g^{il} v_l / 4
    v = (jets.contract(sp, np.moveaxis(dlx, 1, 0), _y_stack(n, pa, sp)[:, None])
         + -_dxs(top, Lj.coeffs, n, tail)[..., :sp.T])
    out = jets.contract(sp, np.moveaxis(W, 1, 0), v[:, None]) * 0.25
    return [jets.Jet(sp, Lj.center, out[i]) for i in range(n)]


# -- stacked tensors --------------------------------------------------------------
#
# A stack (see `jets`) holds a tensor's jets as one C-contiguous array,
# (components..., [rows,] T), so each entry is laid out as its own jet.
# `tail` is the number of trailing axes: 1 at a point, 2 at a block.


def _lower(sp):
    return jets.space(sp.nvars, sp.order - 1)


def _derivatives(sp, c: np.ndarray, vs, tail: int) -> np.ndarray:
    """The stack of d/dv c for v in `vs`, jets of `sp`, with the new
    component axis last among c's."""
    return np.stack([jets.diff_coeffs(sp, c, v) for v in vs], axis=c.ndim - tail)


def _dxs(sp, c: np.ndarray, n: int, tail: int) -> np.ndarray:
    return _derivatives(sp, c, range(n), tail)


def _dys(sp, c: np.ndarray, n: int, tail: int) -> np.ndarray:
    return _derivatives(sp, c, range(n, 2 * n), tail)


def _y_stack(n: int, pa: np.ndarray, sp) -> np.ndarray:
    """The stack of the jets of y^1..y^n, of `sp`, at the point or block pa."""
    center = pa if pa.ndim == 2 else tuple(pa)
    return np.array([sp.variable(n + i, center).coeffs for i in range(n)])


def _unstack(sp, center, c: np.ndarray, depth: int):
    """The jets of the stack c over its first `depth` axes, as nested lists
    of jets whose coefficients are views of c."""
    if depth == 0:
        return jets.Jet(sp, center, c)
    return [_unstack(sp, center, x, depth - 1) for x in c]


def _stack_values(c: np.ndarray, depth: int) -> np.ndarray:
    """The value parts of the stack c with `depth` component axes, as
    `CurvatureBundle._values` gives them: block axis first, C-contiguous."""
    vals = c[..., 0]
    if vals.ndim > depth:
        vals = np.moveaxis(vals, -1, 0)
    return np.ascontiguousarray(vals)


# -- the bundle ---------------------------------------------------------------


def _row_of(value, r: int, center: tuple):
    """Row r of a block bundle's tensor: block jets, in nested lists or
    tuples, become point jets at `center` over the same coefficients;
    value arrays lose the block axis."""
    if isinstance(value, jets.Jet):
        return jets.Jet(value.space, center, value.coeffs[r])
    if isinstance(value, (list, tuple)):
        return type(value)(_row_of(v, r, center) for v in value)
    return value[r]


def _per_row(fn):
    """A cached tensor that a row bundle (see `CurvatureBundle.rows`) reads
    off its block's instead of computing it.  When the block's raises (the
    scalar split of a later row meets the reciprocal floor, say), the
    block records the failure, so that it is attempted once, and each row
    computes its own: a row that fails alone raises its own error, in its
    turn."""
    name = fn.__name__

    @wraps(fn)
    def get(self):
        if self._block is None:
            return fn(self)
        block, r, center = self._block
        if name in block._failed:
            return fn(self)
        try:
            value = getattr(block, name)
        except SprayLabError:
            block._failed = block._failed | {name}
            return fn(self)
        return _row_of(value, r, center)

    return cached_property(get)


def _pick(c: np.ndarray, i0) -> np.ndarray:
    """The stack whose row r is row r of entry i0[r] of the stack c, for
    jets at a block; entry i0 at a point.  c's first axis is picked from,
    and the rest keep their order."""
    if np.ndim(i0) == 0:
        return c[i0]
    rows = np.arange(len(i0))
    return np.ascontiguousarray(np.moveaxis(c[i0, ..., rows, :], 0, -2))


class CurvatureBundle:
    """Every derived tensor of one spray at one point, lazily computed.

    `order` is the jet budget K: the spray coefficients are lifted to order
    K, and each derived tensor sits as many orders lower as it has taken
    derivatives.  K=4 supports the full H family and second covariant
    derivatives of the curvature scalar.

    `p` may be a (B, 2n) block of points instead of one point; see the
    module docstring.  A block bundle has no `point`.
    """

    # (block bundle, row, center of the row's jets) for a row bundle made
    # by `rows`, else None
    _block = None
    # the names of the `_per_row` tensors whose computation at this block
    # bundle raised
    _failed = frozenset()

    def __init__(self, spray, p, order: int = 4):
        self.spray = spray
        self.dim = spray.dim
        self.order = order
        pa = _point_array(p, spray.dim)
        if pa.ndim == 2:
            if not np.all(np.max(np.abs(pa[:, self.dim:]), axis=1) > 0.0):
                raise DomainError("tangent vector is zero")
            # the block is every jet's center, so it must not change
            pa = pa.copy()
            pa.flags.writeable = False
            self.point = None
        else:
            self.point = (
                p
                if isinstance(p, PointTangent)
                else PointTangent(tuple(pa[: self.dim]), tuple(pa[self.dim:]))
            )
        self._pa = pa
        self.yvals = pa[..., self.dim:]

    def rows(self) -> list:
        """One point bundle per row of this block bundle, in row order.

        Row r's bundle reads its jets and value views off row r of this
        bundle's, so every tensor is computed once for the whole block,
        and each equals, bit for bit, what the bundle built at that point
        alone computes.  Each row bundle takes its own scalar split.  G is
        evaluated here, so an error in evaluating the spray is raised
        before any row is returned.
        """
        if self._pa.ndim != 2:
            raise PreconditionError("only a block bundle has rows")
        self.G  # evaluated now, so its errors come before any row
        out = []
        for r, pa in enumerate(self._pa):
            b = CurvatureBundle(self.spray, pa, self.order)
            b._block = (self, r, tuple(pa))
            out.append(b)
        return out

    # ---- raw jets

    @_per_row
    def G(self) -> list:
        return self.spray.coeff_jets(self._pa, self.order)

    def _G_stack(self) -> tuple:
        """(space, stack) of the spray coefficients G^i, taken when needed
        rather than kept, so that a bundle holds G once."""
        sp = jets.space(2 * self.dim, min(u.order for u in self.G))
        return sp, np.array([u.coeffs[..., :sp.T] for u in self.G])

    @cached_property
    def _N_stack(self) -> tuple:
        """(space, stack) of N^i_j = dot_j G^i."""
        sp, G = self._G_stack()
        return _lower(sp), _dys(sp, G, self.dim, self._pa.ndim)

    @cached_property
    def _Gamma_stack(self) -> tuple:
        """(space, stack) of Gamma^i_jk = dot_k N^i_j."""
        sp, N = self._N_stack
        return _lower(sp), _dys(sp, N, self.dim, self._pa.ndim)

    @cached_property
    def _R_stack(self) -> tuple:
        """(space, stack) of R^i_k.

        The steps j of the sum over j are taken in the groups of
        `jets.step_groups`: each of the three products of the terms is one
        stacked product over every (i, j, k) of the group, and the terms
        are added to the (i, k) stack one j at a time, in the order of the
        formula."""
        n, tail = self.dim, self._pa.ndim
        sp, G = self._G_stack()
        mid, low = _lower(sp), _lower(_lower(sp))
        ys = _y_stack(n, self._pa, low)
        N, Gamma = self._N_stack[1], self._Gamma_stack[1]
        # 2 d_k G^i, truncated: G's x-derivatives have the low
        # coefficients of G's own up to `mid`
        acc = _dxs(mid, G[..., :mid.T], n, tail) * 2.0
        for lo, hi in jets.step_groups(low, n, acc.size // low.T):
            js = slice(lo, hi)
            dGx = _derivatives(sp, G, range(lo, hi), tail)     # [i, j] = d_j G^i
            dGxy = _dys(mid, dGx, n, tail)                      # [i, j, k]
            terms = zip(
                np.moveaxis(jets.stacked_product(low, ys[None, js, None], dGxy), 1, 0),
                np.moveaxis(jets.stacked_product(low, G[None, js, None], Gamma[:, js]), 1, 0),
                np.moveaxis(jets.stacked_product(low, N[:, js, None], N[None, js]), 1, 0))
            for y_dGxy, G_Gamma, N_N in terms:
                acc = acc + -y_dGxy
                acc = acc + G_Gamma * 2.0
                acc = acc + -N_N
        return low, acc

    def _tensor(self, stack: tuple, depth: int) -> list:
        sp, c = stack
        return _unstack(sp, self.G[0].center, c, depth)

    @_per_row
    def N(self) -> list:
        return self._tensor(self._N_stack, 2)

    @_per_row
    def Gamma(self) -> list:
        return self._tensor(self._Gamma_stack, 3)

    @_per_row
    def R(self) -> list:
        return self._tensor(self._R_stack, 2)

    @_per_row
    def Ric(self):
        acc = self.R[0][0]
        for i in range(1, self.dim):
            acc = acc + self.R[i][i]
        return acc

    @_per_row
    def curvature_scalar(self):
        """The jet of R = Ric/(n-1), the R of the scalar split."""
        if self.dim < 2:
            raise PreconditionError("scalar decomposition needs dimension at least 2")
        return (1.0 / (self.dim - 1)) * self.Ric

    @_per_row
    def splits(self) -> tuple:
        """The scalar split of the point, or of every row of a block at
        once: (R jet, [tau_k jets], residual), with block jets and one
        residual per row at a block.  `split` is a point's.

        At each point i0 is the index of the largest |y^i|.  y^{i0} is one
        jet, whose rows each have their own value and unit slot, and its
        one reciprocal serves every tau_k, as `Jet.__truediv__` would take
        it; each row's numerator is picked with np.where, and the n
        quotients are one stacked product.
        """
        n = self.dim
        Rj = self.curvature_scalar
        sp, center = Rj.space, Rj.center
        i0 = np.argmax(np.abs(self.yvals), axis=-1)
        yj = jets.Jet(sp, center, _pick(_y_stack(n, self._pa, sp), i0))
        inv = yj.reciprocal()
        Rk = _pick(np.array([[u.coeffs for u in row] for row in self.R]), i0)
        k = np.arange(n).reshape((n,) + (1,) * np.ndim(i0) + (1,))
        num = np.where(np.expand_dims(i0, -1) == k, Rj.coeffs + -Rk, Rk * -1.0)
        tau = _unstack(sp, center, jets.stacked_product(sp, num, inv.coeffs), 1)
        tau_vals = self._values(tau)
        recon = (np.multiply.outer(Rj.value, np.eye(n))
                 - self.yvals[..., :, None] * tau_vals[..., None, :])
        residual = np.max(np.abs(self.R_values - recon), axis=(-2, -1))
        return Rj, tau, residual

    @cached_property
    def split(self) -> tuple:
        """Split R^i_k as R delta^i_k - tau_k y^i: (R jet, [tau_k jets],
        residual).

        R = Ric/(n-1); tau is read off the row with the largest |y^i| (best
        conditioned division); the residual is the worst value-level
        violation of the reconstruction over all (i,k).  It is exactly zero
        on the chosen row, so the residual measures whether the remaining
        rows agree, which is the scalar-curvature property.  A row bundle
        reads its row of its block's `splits`.
        """
        if self._pa.ndim == 2:
            raise PreconditionError("the scalar split is taken at one point, "
                                    "not on a block; `splits` holds each row's")
        Rj, tau, residual = self.splits
        return Rj, tau, float(residual)

    @_per_row
    def rdot_values(self) -> np.ndarray:
        """Values of R_.i, the y-gradient of the split's R."""
        Rj = self.curvature_scalar
        return self._values([Rj.dy(i) for i in range(self.dim)])

    @_per_row
    def tau_cov(self) -> np.ndarray:
        """Values of tau_{i;k}, from the split's tau jets."""
        return self.cov_h(np.array(self.splits[1], dtype=object), ("d",))

    @_per_row
    def ric_cov(self) -> np.ndarray:
        """Values of Ric_{;i}."""
        return self.cov_h(self.Ric, ())

    @cached_property
    def _dR_stack(self) -> tuple:
        """(space, stack) of dot_j R^i_k, [i, k, j]: the y-gradient of R,
        which R3, V and chi read."""
        sp, R = self._R_stack
        dR = _dys(sp, R, self.dim, self._pa.ndim)  # an order-0 R raises OrderError
        return _lower(sp), dR

    @cached_property
    def _R3_stack(self) -> tuple:
        """(space, stack) of R^i_jk = (dot_j R^i_k - dot_k R^i_j)/3, [i, j, k]."""
        sp, dR = self._dR_stack
        return sp, (np.swapaxes(dR, 1, 2) + -dR) * (1.0 / 3.0)

    @_per_row
    def R3(self) -> list:
        return self._tensor(self._R3_stack, 3)

    @_per_row
    def V(self) -> list:
        """The contracted 3-tensor V_k = R^m_{km}."""
        sp, R3 = self._R3_stack
        acc = R3[0, :, 0]
        for m in range(1, self.dim):
            acc = acc + R3[m, :, m]
        return self._tensor((sp, acc), 1)

    @_per_row
    def chi(self) -> list:
        """chi_i = dot_i Ric + sum_m 2 dot_m R^m_i, the terms added in
        ascending m."""
        sp, dR = self._dR_stack
        acc = _dys(self._R_stack[0], self.Ric.coeffs, self.dim, self._pa.ndim)
        for m in range(self.dim):
            acc = acc + dR[m, :, m] * 2.0
        return self._tensor((sp, acc), 1)

    # ---- derivatives

    def delta_scalar(self, S) -> list:
        """Horizontal derivatives delta_j S of a scalar jet, as jets."""
        return list(self._cov_h_jets(S, ()))

    def cov_h(self, T, slots: tuple) -> np.ndarray:
        """Values of the horizontal covariant derivative of a jet tensor.

        `T` is an object array of jets (0-d for scalars); `slots` marks each
        axis 'u' or 'd'.  The result is a float array with one extra trailing
        'd' axis.  Only the 1-jets of T's entries and the values of N and
        Gamma enter, combined elementwise in the order of `_cov_h_jets`, so
        each value equals that jet's value bit for bit, up to the sign of a
        zero.  A block bundle puts its block axis first.
        """
        T = np.asarray(T, dtype=object)
        if T.ndim != len(slots):
            raise ValueError("slot list does not match tensor rank")
        n = self.dim
        J = jets.first_order(T.ravel(), self.G[0])
        # a leading block axis, of length 1 at a single point
        J = np.moveaxis(J, 0, 1) if J.ndim == 3 else J[None]
        J = J.reshape(J.shape[:1] + T.shape + (2 * n + 1,))
        T0 = J[..., 0]
        Dy = J[..., n + 1:]
        out = J[..., 1:n + 1]
        N0 = self.N_values.reshape(-1, n, n)
        for r in range(n):
            out = out - N0[:, r].reshape((-1,) + (1,) * T.ndim + (n,)) * Dy[..., r, None]
        Gam = self.Gamma_values.reshape(-1, n, n, n)
        for a, s in enumerate(slots):
            # Gamma^{idx[a]}_{rj} ('u') or Gamma^r_{idx[a] j} ('d'),
            # broadcast along axis a and the trailing j axis
            shape = [-1] + [1] * T.ndim + [n]
            shape[a + 1] = n
            for r in range(n):
                swapped = np.take(T0, [r], axis=a + 1)[..., None]
                if s == "u":
                    out = out + Gam[:, :, r, :].reshape(shape) * swapped
                else:
                    out = out - Gam[:, r].reshape(shape) * swapped
        return out if self._pa.ndim == 2 else out[0]

    def _cov_h_jets(self, T, slots: tuple) -> np.ndarray:
        """Horizontal covariant derivative of a jet tensor, as jets.

        The reference for `cov_h`, and the path for chains of derivatives,
        which need the higher coefficients.  Returns an object array shaped
        like `cov_h`'s result.
        """
        T = np.asarray(T, dtype=object)
        if T.ndim != len(slots):
            raise ValueError("slot list does not match tensor rank")
        n = self.dim
        out = np.empty(T.shape + (n,), dtype=object)
        for idx in np.ndindex(*T.shape):
            base = T[idx]
            for j in range(n):
                acc = base.dx(j)
                for r in range(n):
                    acc = acc - self.N[r][j] * base.dy(r)
                for a, s in enumerate(slots):
                    ia = idx[a]
                    for r in range(n):
                        swapped = idx[:a] + (r,) + idx[a + 1:]
                        if s == "u":
                            acc = acc + self.Gamma[ia][r][j] * T[swapped]
                        else:
                            acc = acc - self.Gamma[r][ia][j] * T[swapped]
                out[idx + (j,)] = acc
        return out

    # ---- value views

    @staticmethod
    def _values(obj) -> np.ndarray:
        """The value parts of an array of jets; block jets put the block axis
        first.  The result is C-contiguous, so a row of a block's values is
        laid out as a point's: numpy reductions and products over a
        strided array may round differently."""
        arr = np.asarray(obj, dtype=object)
        vals = [u.value for u in arr.ravel()]
        if vals and not isinstance(vals[0], float):
            return np.ascontiguousarray(
                np.moveaxis(np.array(vals), -1, 0).reshape(vals[0].shape + arr.shape))
        return np.array(vals, dtype=float).reshape(arr.shape)

    @_per_row
    def G_values(self) -> np.ndarray:
        return self._values(self.G)

    @_per_row
    def N_values(self) -> np.ndarray:
        return _stack_values(self._N_stack[1], 2)

    @_per_row
    def Gamma_values(self) -> np.ndarray:
        return _stack_values(self._Gamma_stack[1], 3)

    @_per_row
    def B_values(self) -> np.ndarray:
        # the Berwald tensor is read only through its values, so its n^4
        # jets are not kept: bundles stay small while a report holds them
        sp, Gamma = self._Gamma_stack
        return _stack_values(_dys(sp, Gamma, self.dim, self._pa.ndim), 4)

    @_per_row
    def R_values(self) -> np.ndarray:
        return _stack_values(self._R_stack[1], 2)

    @cached_property
    def Ric_value(self):
        return self.Ric.value

    @_per_row
    def chi_values(self) -> np.ndarray:
        return self._values(self.chi)


class RowReader:
    """`fn(bundle, *args)` read one bundle at a time, a block's once.

    `fn` gives, at a point bundle, its result, and at a block bundle, a
    sequence of one result per row.  Called with a row bundle (see
    `CurvatureBundle.rows`), the reader gives row r of `fn` at the row's
    block, computed at the first row read of that block and held until a
    row of another block is read; called with any other bundle, `fn` at
    that bundle.

    This is the rule for a block that raises, for every consumer of row
    bundles: when `fn` at the block raises, each of its rows takes `fn` at
    its own bundle instead, so a row that fails alone raises its own
    error, in its turn, after the rows before it are read.  Each row's
    result equals, bit for bit, what `fn` at that row's point alone gives,
    and the results live in the reader, not on the bundles.
    """

    def __init__(self, fn, *args):
        self.fn = fn
        self.args = args
        self._block = None  # the block whose rows `_rows` holds
        self._rows = None   # fn's rows at that block; None when it raised

    def __call__(self, bundle):
        if bundle._block is None:
            return self.fn(bundle, *self.args)
        block, r, _ = bundle._block
        if block is not self._block:
            self._block, self._rows = block, None
            try:
                self._rows = self.fn(block, *self.args)
            except Exception:
                pass  # each row takes its own below; one that fails raises
        if self._rows is None:
            return self.fn(bundle, *self.args)
        return self._rows[r]


# -- scalar decomposition ------------------------------------------------------


def split_holds(bundle: CurvatureBundle, tol: Tolerances = TOL):
    """Does the bundle's scalar split hold, relative to max |R^i_k|?  At a
    block bundle, a list of one answer per row."""
    residuals = np.reshape(bundle.splits[2], -1)
    R_values = bundle.R_values.reshape(len(residuals), -1)
    out = [tol.zero(float(res), float(np.max(np.abs(Rv))))
           for res, Rv in zip(residuals, R_values)]
    return out if bundle.point is None else out[0]


# -- identity residuals --------------------------------------------------------


def _folds(accs: list, rows: int) -> list:
    """Per row, max |acc| over the arrays of `accs`, folded with Python max
    from 0.0 in list order, as one point's loop folds its sums."""
    out = []
    for r in range(rows):
        worst = 0.0
        for acc in accs:
            worst = max(worst, abs(acc[r]))
        out.append(worst)
    return out


def identity_residuals(bundle: CurvatureBundle, tol: Tolerances = TOL):
    """Structural identities as value-level residuals at the bundle's point.

    Always present: 'curvature_contraction' (R^i_k y^k) and 'bianchi'.
    When the scalar split holds at the point, also 'tau_trace',
    'chi_consistency', and for n >= 3 'scalar_gradient'.  Identities whose
    hypothesis fails are omitted, not reported as violations.

    At a block bundle, a list of one such dict per row, each equal, key
    order and bits, to the call at that row's point: the covariant
    derivatives are taken once for the block and the sums over their
    slots run elementwise over its rows, while the two dot products and
    each row's worst-case fold are taken row by row, as at a point.
    """
    n = bundle.dim
    y = bundle.yvals.reshape(-1, n)
    rows = len(y)
    R_values = bundle.R_values.reshape(rows, n, n)
    out = [{"curvature_contraction": float(np.max(np.abs(R_values[r] @ y[r])))}
           for r in range(rows)]

    Rcov = bundle.cov_h(np.array(bundle.R, dtype=object), ("u", "d"))
    Vcov = bundle.cov_h(np.array(bundle.V, dtype=object), ("d",))
    Rcov = Rcov.reshape(rows, n, n, n)
    Vcov = Vcov.reshape(rows, n, n)
    ric_cov = bundle.ric_cov.reshape(rows, n)
    accs = []
    for k in range(n):
        acc = -ric_cov[:, k]
        for m in range(n):
            acc = acc + Rcov[:, m, k, m]
        for j in range(n):
            acc = acc + y[:, j] * Vcov[:, k, j]
        accs.append(acc)
    for res, worst in zip(out, _folds(accs, rows)):
        res["bianchi"] = worst

    holds = np.reshape(split_holds(bundle, tol), -1)
    if not holds.any():
        return out if bundle.point is None else out[0]
    Rj, tau, _ = bundle.splits
    Rv = np.reshape(Rj.value, -1)
    tau_vals = CurvatureBundle._values(tau).reshape(rows, n)
    rdot = bundle.rdot_values.reshape(rows, n)
    chi = np.max(np.abs(bundle.chi_values.reshape(rows, n)
                        - (n + 1) * (rdot - 2.0 * tau_vals)), axis=-1)
    for r in np.flatnonzero(holds):
        out[r]["tau_trace"] = float(abs(tau_vals[r] @ y[r] - Rv[r]))
        out[r]["chi_consistency"] = float(chi[r])

    if n >= 3:
        rdot_jets = np.array([Rj.dy(i) for i in range(n)], dtype=object)
        rdot_cov = bundle.cov_h(rdot_jets, ("d",)).reshape(rows, n, n)
        tau_cov = bundle.tau_cov.reshape(rows, n, n)
        rsemi = bundle.cov_h(Rj, ()).reshape(rows, n)
        accs = []
        for i in range(n):
            acc = -3.0 * rsemi[:, i]
            for j in range(n):
                acc = acc + y[:, j] * (rdot_cov[:, i, j] + tau_cov[:, i, j])
            accs.append(acc)
        worst = _folds(accs, rows)
        for r in np.flatnonzero(holds):
            out[r]["scalar_gradient"] = worst[r]
    return out if bundle.point is None else out[0]


# -- H family -------------------------------------------------------------------


@dataclass(frozen=True)
class HTensors:
    H4: np.ndarray  # [j, i, k, l] = H^{ i}_{j kl}
    Hij: np.ndarray
    H0i: np.ndarray
    Hi0: np.ndarray
    Hi: np.ndarray


def h_tensors(b: CurvatureBundle) -> HTensors:
    """The hh-curvature family at a point (values)."""
    n = b.dim
    H4 = np.empty((n, n, n, n))
    for i in range(n):
        for k in range(n):
            for l in range(n):
                jet = b.R3[i][k][l]
                for j in range(n):
                    H4[j, i, k, l] = jet.dy(j).value
    Hij = np.einsum("imjm->ij", H4)
    H0i = b.yvals @ Hij
    Hi0 = Hij @ b.yvals
    Hi = (n * H0i + Hi0) / (n - 1)
    return HTensors(H4, Hij, H0i, Hi0, Hi)


def h_tensor_residuals(bundle: CurvatureBundle, tol: Tolerances = TOL) -> dict:
    """Residuals of the H-family identities for scalar-curvature sprays.

    Empty when the scalar split fails (the identities presuppose it).
    """
    if not split_holds(bundle, tol):
        return {}
    _, tau, _ = bundle.split
    n = bundle.dim
    h = h_tensors(bundle)
    rdot = bundle.rdot_values
    tau_vals = np.array([t.value for t in tau])
    tau_curl = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            tau_curl[i, j] = tau[j].dy(i).value - tau[i].dy(j).value
    third = (n + 1) / 3.0
    return {
        "h_curl": float(np.max(np.abs(h.Hij - h.Hij.T - third * tau_curl))),
        "h_contract_left": float(
            np.max(np.abs(h.H0i - ((n - 2) * rdot + (n + 1) * tau_vals) / 3.0))
        ),
        "h_contract_right": float(
            np.max(np.abs(h.Hi0 - ((2 * n - 1) * rdot - (n + 1) * tau_vals) / 3.0))
        ),
        "h_mean": float(np.max(np.abs(h.Hi - third * (rdot + tau_vals)))),
    }
