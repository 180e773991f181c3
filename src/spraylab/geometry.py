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

The horizontal derivative is delta_j = d_j - N^r_j dot_r; covariant
derivatives of tensors add Gamma terms with sign by slot variance.  Every
vertical or horizontal derivative consumes one order of the jet budget, and
exhausting it raises OrderError rather than returning a wrong value.

A covariant derivative at a point needs only the 1-jets of the tensor and
the values of N and Gamma, so `cov_h` returns values and builds no jets.
`delta_scalar` returns jets, whose higher coefficients omega = delta R / R
reads, from one stacked product of N with the scalar's y-gradient.

A bundle may also be built at a (B, 2n) block of points: its jets then
carry a leading block axis (see `jets`), its value views and `cov_h`
results gain a leading axis of length B, and row r of each equals, bit
for bit, what the bundle at point r alone gives.  Every spray and metric
evaluates a block in one pass, so the tensors of many points come from
one walk through the formulas.  The scalar split (`split_values`, and
its jets `splits`), the covariant derivatives the class tests take of its
parts, and `identity_residuals` are likewise taken once for a block, with
each row's numbers those of its point alone.  Every reader of a bundle that gives
per-sample results (`split_holds`, `identity_residuals` and the class
tests of `classify`) returns one entry per row, and a point bundle is one
row; `classify.rowwise` states the rule for a block that raises.

G, N, Gamma, R^i_k and its y-gradient, the 3-tensor R^i_jk, V and chi,
Ric, the split, the Berwald values and the induced spray of a metric are
computed on stacks (see `jets`): one array per tensor, (components...,
[B,] T), differentiated by one gather per derivative stack and multiplied
with the components folded into the rows of the kernel, or without it at
order 0.  Each sum over an index adds whole stacks in the order the
formula's loop over the index added jets, so every entry keeps its bits:
the bins of each product are summed in the kernel's order, and products
by constant jets get + 0.0 (`jets.constant_product`).  The inverse of a
metric's fundamental tensor is taken on its stack.  The bundle hands G, N,
Gamma, R, R3, V and chi out as nested lists of jets whose coefficients are
views of its stacks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import dsl, jets
from .errors import DegenerateMetric, DomainError, PreconditionError
from .sampling import TOL, Tolerances


def _point_array(p, dim: int) -> np.ndarray:
    """A point as a (2n,) array, or a block of points as a (B, 2n) array
    with B >= 1."""
    pa = np.asarray(p, dtype=float)
    if pa.shape[-1:] != (2 * dim,) or pa.ndim not in (1, 2):
        raise DomainError(f"expected {2 * dim} coordinates, got shape {pa.shape}")
    if not len(pa):
        raise DomainError(f"expected at least one point, got shape {pa.shape}")
    return pa


def point_key(pa: np.ndarray) -> tuple:
    """The key of a point, or of a block of points, in a table of kept
    bundles or jets; a block of one row keys apart from its point."""
    return pa.shape, pa.tobytes()


def _var_jets(dim: int, pa: np.ndarray, order: int) -> list:
    sp = jets.space(2 * dim, order)
    center = jets._as_center(pa)
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
    """A projective shift of a base spray along a metric: G^i + c sqrt(L) y^i.

    `bundles` are curvature bundles of the base spray, such as the block
    bundles of its classification.  A request at the point or block of one
    of them, of its order, reads the base G off that bundle's stack
    instead of asking the base spray again, so a metric's spray is lifted
    once per block; the jets are the ones the base spray gives there, bit
    for bit.
    """

    def __init__(self, base, metric, c: float, bundles=()):
        if base.dim != metric.dim:
            raise PreconditionError("base spray and metric dimensions differ")
        self.base = base
        self.metric = metric
        self.c = float(c)
        self.dim = base.dim
        self.name = f"{base.name}+{self.c}*F*y"
        self._bundles = {point_key(b._pa): b for b in bundles}

    def coeff_jets(self, p, order: int) -> list:
        pa = _point_array(p, self.dim)
        b = self._bundles.get(point_key(pa))
        G = b.G if b is not None and b.order == order else self.base.coeff_jets(pa, order)
        if self.c == 0.0:
            return G
        F = jets.sqrt(self.metric.jet(pa, order))
        ys = _var_jets(self.dim, pa, order)[self.dim:]
        return [G[i] + self.c * (F * ys[i]) for i in range(self.dim)]

    def guard_values(self, p) -> list[float]:
        return list(self.base.guard_values(p)) + list(self.metric.guard_values(p))


# -- metric pipeline ---------------------------------------------------------


def singular_values(mats: np.ndarray):
    """The singular values of each matrix of the (B, m, n) stack, in order.

    One stacked `np.linalg.svd`, whose rows equal, bit for bit, each
    matrix's own call.  A matrix holding a nan makes the stacked call raise
    LinAlgError; then each matrix is taken alone, lazily, so a caller that
    judges the rows in order meets that error at the matrix that raises it.
    """
    try:
        return np.linalg.svd(mats, compute_uv=False)
    except np.linalg.LinAlgError:
        return (np.linalg.svd(m, compute_uv=False) for m in mats)


def _fundamental_jets(metric, pa: np.ndarray, order: int, tol: Tolerances):
    """The jet of L, the stack of its y-gradient, and (space, stack) and
    values of g_ij = half the y-Hessian, with a rank check.

    g is symmetric by construction: entry (i, j) and (j, i) both hold the
    upper triangle's half of the Hessian, i <= j.  At a block of points
    the values are (B, n, n) and the rank is checked row by row; the first
    failing row names the error.
    """
    Lj = metric.jet(pa, order + 2)
    n, tail = metric.dim, pa.ndim
    sp = Lj.space
    dl = _dys(sp, Lj.coeffs, n, tail)                   # [l] = L_{y^l}
    half = _dys(_lower(sp), dl, n, tail) * 0.5
    r = np.arange(n)
    stack = np.where((r[:, None] <= r).reshape((n, n) + (1,) * tail), half, half.swapaxes(0, 1))
    vals = _stack_values(stack, 2)
    for s in singular_values(vals.reshape(-1, n, n)):
        if s[-1] <= tol.rank * s[0]:
            raise DegenerateMetric(
                f"fundamental tensor of {metric.name!r} is numerically singular "
                f"(singular values {s})"
            )
    return Lj, dl, (_lower(_lower(sp)), stack), vals


def spray_from_metric(metric, p, order: int = 4, tol: Tolerances = TOL) -> list:
    """Jets of the induced spray coefficients at p (a point or a block).

    The metric is lifted two orders above the requested spray order, since
    the geodesic coefficients consume one x- and one y-derivative of L.
    Each sum over an index is a `jets.contract`, with the terms added in
    ascending order.
    """
    pa = _point_array(p, metric.dim)
    n, tail = metric.dim, pa.ndim
    Lj, dl, (sp, g), _ = _fundamental_jets(metric, pa, order, tol)
    try:
        W = jets.jet_matrix_inverse(sp, g)
    except DomainError as exc:
        raise DegenerateMetric(f"fundamental tensor of {metric.name!r}: {exc}") from exc
    top = Lj.space
    dlx = _dxs(_lower(top), dl, n, tail)
    # v_l = sum_k L_{y^l x^k} y^k - L_{x^l}, then sum_l g^{il} v_l / 4
    v = (jets.contract(sp, dlx.swapaxes(0, 1), _y_stack(n, pa, sp)[:, None])
         + -_dxs(top, Lj.coeffs, n, tail)[..., :sp.T])
    out = jets.contract(sp, W.swapaxes(0, 1), v[:, None]) * 0.25
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
    component axis last among c's: one gather over the maps of every v,
    whose v axis then moves in front of a block's row axis as the scale
    factors multiply it.  Each entry is `jets.diff_coeffs`'s product."""
    src, scale = sp._dmap(tuple(vs))
    d = c.take(src, axis=-1).reshape(c.shape[:-1] + (len(vs), -1))
    if tail == 2:
        d = d.swapaxes(-2, -3)
    return np.multiply(d, scale.reshape((len(vs),) + (1,) * (tail - 1) + (-1,)), order="C")


def _dxs(sp, c: np.ndarray, n: int, tail: int) -> np.ndarray:
    return _derivatives(sp, c, range(n), tail)


def _dys(sp, c: np.ndarray, n: int, tail: int) -> np.ndarray:
    return _derivatives(sp, c, range(n, 2 * n), tail)


def _y_stack(n: int, pa: np.ndarray, sp) -> np.ndarray:
    """The stack of the jets of y^1..y^n, of `sp`, at the point or block
    pa, with the coefficients `JetSpace.variable` gives them."""
    c = np.zeros((n,) + pa.shape[:-1] + (sp.T,))
    c[..., 0] = pa[..., n:].T
    if sp.order:
        c[range(n), ..., jets._first_order_columns(2 * n)[n + 1:]] = 1.0
    return c


def _unstack(sp, center, c: np.ndarray, depth: int):
    """The jets of the stack c over its first `depth` axes, as nested lists
    of jets whose coefficients are views of c."""
    if depth == 0:
        return jets.Jet(sp, center, c)
    return [_unstack(sp, center, x, depth - 1) for x in c]


def _stack_values(c: np.ndarray, depth: int) -> np.ndarray:
    """The value parts of the stack c with `depth` component axes, block
    axis first.  The result is C-contiguous, so a row of a block's values
    is laid out as a point's: numpy reductions and products over a
    strided array may round differently."""
    vals = c[..., 0]
    if vals.ndim > depth:
        vals = np.moveaxis(vals, -1, 0)
    return np.ascontiguousarray(vals)


# -- the bundle ---------------------------------------------------------------


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
    derivatives.  K=4 supports second covariant derivatives of the
    curvature scalar.

    `p` may be a (B, 2n) block of points instead of one point; see the
    module docstring.  Every tangent vector must be finite and nonzero;
    the first row that fails names the error.
    """

    def __init__(self, spray, p, order: int = 4):
        self.spray = spray
        self.dim = spray.dim
        self.order = order
        pa = _point_array(p, spray.dim)
        m = np.reshape(np.max(np.abs(pa[..., self.dim:]), axis=-1), -1)
        if not (m.min() > 0.0 and m.max() < np.inf):  # a nan compares false
            r = np.flatnonzero(~((m > 0.0) & (m < np.inf)))[0]
            raise DomainError("tangent vector is " + ("zero" if m[r] == 0.0 else "not finite"))
        if pa.ndim == 2:
            # the block is every jet's center, so it must not change
            pa = pa.copy()
            pa.flags.writeable = False
        self._pa = pa
        self._center = jets._as_center(pa)
        self.yvals = pa[..., self.dim:]

    # ---- raw jets

    @cached_property
    def G(self) -> list:
        return self._tensor(self._G_stack, 1)

    @cached_property
    def _G_stack(self) -> tuple:
        """(space, stack) of the spray coefficients G^i.  The jets of `G`
        view it, so that a bundle holds G once."""
        G = self.spray.coeff_jets(self._pa, self.order)
        sp = jets.space(2 * self.dim, min(u.order for u in G))
        return sp, np.array([u.coeffs[..., :sp.T] for u in G])

    @cached_property
    def _N_stack(self) -> tuple:
        """(space, stack) of N^i_j = dot_j G^i."""
        sp, G = self._G_stack
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
        formula.  A group of one step adds each product as it is taken, so
        that one is held at a time."""
        n, tail = self.dim, self._pa.ndim
        sp, G = self._G_stack
        mid, low = _lower(sp), _lower(_lower(sp))
        ys = _y_stack(n, self._pa, low)
        N, Gamma = self._N_stack[1], self._Gamma_stack[1]
        # 2 d_k G^i, truncated: G's x-derivatives have the low
        # coefficients of G's own up to `mid`
        acc = _dxs(mid, G[..., :mid.T], n, tail) * 2.0
        for lo, hi in jets.step_groups(low, n, acc.size // low.T):
            js = slice(lo, hi)
            dGxy = _dys(mid, _derivatives(sp, G, range(lo, hi), tail), n, tail)  # [i, j, k]
            products = (jets.stacked_product(low, a, b).swapaxes(0, 1) for a, b in (
                (ys[None, js, None], dGxy), (G[None, js, None], Gamma[:, js]),
                (N[:, js, None], N[None, js])))  # [j, i, k], each taken when asked
            for terms in zip(*products) if hi - lo > 1 else [(p[0] for p in products)]:
                for t, p in enumerate(terms):  # y dGxy, G Gamma, N N
                    acc = acc + (p * 2.0 if t == 1 else -p)
        return low, acc

    def _tensor(self, stack: tuple, depth: int) -> list:
        sp, c = stack
        return _unstack(sp, self._center, c, depth)

    @cached_property
    def N(self) -> list:
        return self._tensor(self._N_stack, 2)

    @cached_property
    def Gamma(self) -> list:
        return self._tensor(self._Gamma_stack, 3)

    @cached_property
    def R(self) -> list:
        return self._tensor(self._R_stack, 2)

    @cached_property
    def Ric(self):
        sp, R = self._R_stack
        acc = R[0, 0]
        for i in range(1, self.dim):
            acc = acc + R[i, i]
        return jets.Jet(sp, self._center, acc)

    @cached_property
    def curvature_scalar(self):
        """The jet of R = Ric/(n-1), the R of the scalar split."""
        if self.dim < 2:
            raise PreconditionError("scalar decomposition needs dimension at least 2")
        return (1.0 / (self.dim - 1)) * self.Ric

    @cached_property
    def split_values(self) -> tuple:
        """Split R^i_k as R delta^i_k - tau_k y^i at the point or at every
        row of a block, in values: (R, tau, residual), shaped (), (n,) and
        () at a point and with a leading block axis at a block.  The one
        place the split's residual is computed; `splits` gives its jets.

        R = Ric/(n-1); tau is read off the row i0 of R^i_k with the largest
        |y^i| (best conditioned division); the residual is the worst
        value-level violation of the reconstruction over all (i,k).  It is
        exactly zero on the chosen row, so the residual measures whether
        the remaining rows agree, which is the scalar-curvature property.

        Each number has the bits of the value slot of the jet `splits`
        gives, at every order, because a value coefficient is summed from
        value coefficients alone: Ric adds the diagonal of R_values from
        i = 0 up and is scaled by 1/(n-1), as `curvature_scalar` scales
        its jet; 1/y^{i0} passes the floor check of `Jet.reciprocal`,
        whose value is 1.0 * (1/y^{i0}), since its Horner sum's value stays
        1.0; and the kernel bins a product's value as 0.0 + a * b, so
        tau = num * inv + 0.0.
        """
        n = self.dim
        if n < 2:
            raise PreconditionError("scalar decomposition needs dimension at least 2")
        # one row per point, reshaped to the bundle's rows at the end, where
        # [()] leaves a point's scalars numpy scalars
        Rv, y = self.R_values.reshape(-1, n, n), self.yvals.reshape(-1, n)
        rows = np.arange(len(y))
        ric = Rv[:, 0, 0]
        for i in range(1, n):
            ric = ric + Rv[:, i, i]
        R = ric * (1.0 / (n - 1))
        i0 = np.abs(y).argmax(axis=1)
        y0 = y[rows, i0]
        jets.check_divisor(y0)
        Rk = Rv[rows, i0]  # R^{i0}_k
        num = Rk * -1.0
        num[rows, i0] = R + -Rk[rows, i0]
        tau = num * (1.0 * (1.0 / y0))[:, None] + 0.0
        recon = R[:, None, None] * np.eye(n) - y[:, :, None] * tau[:, None, :]
        residual = np.abs(Rv - recon).reshape(len(y), -1).max(axis=1)
        shape = self._pa.shape[:-1]
        return R.reshape(shape)[()], tau.reshape(shape + (n,)), residual.reshape(shape)[()]

    @cached_property
    def splits(self) -> tuple:
        """The split of `split_values` as jets, at the point or at every
        row of a block at once: (R jet, [tau_k jets], residual), with block
        jets at a block, and the residual of `split_values`.

        y^{i0} is one jet, whose rows each have their own value and unit
        slot at a block, and its one reciprocal serves every tau_k, as
        `Jet.__truediv__` would take it; each row's numerator is picked
        with np.where, and the n quotients are one stacked product.
        """
        n = self.dim
        sp, R = self._R_stack
        Rj = self.curvature_scalar
        i0 = np.argmax(np.abs(self.yvals), axis=-1)
        inv = jets.Jet(sp, self._center, _pick(_y_stack(n, self._pa, sp), i0)).reciprocal()
        Rk = _pick(R, i0)
        k = np.arange(n).reshape((n,) + (1,) * np.ndim(i0) + (1,))
        num = np.where(np.expand_dims(i0, -1) == k, Rj.coeffs + -Rk, Rk * -1.0)
        tau = jets.stacked_product(sp, num, inv.coeffs)
        return Rj, _unstack(sp, self._center, tau, 1), self.split_values[2]

    @cached_property
    def rdot_values(self) -> np.ndarray:
        """Values of R_.i, the y-gradient of the split's R."""
        Rj = self.curvature_scalar
        return _stack_values(_dys(Rj.space, Rj.coeffs, self.dim, self._pa.ndim), 1)

    @cached_property
    def tau_cov(self) -> np.ndarray:
        """Values of tau_{i;k}, from the split's tau jets."""
        return self.cov_h(np.array(self.splits[1], dtype=object), ("d",))

    @cached_property
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

    @cached_property
    def R3(self) -> list:
        return self._tensor(self._R3_stack, 3)

    @cached_property
    def V(self) -> list:
        """The contracted 3-tensor V_k = R^m_{km}."""
        sp, R3 = self._R3_stack
        acc = R3[0, :, 0]
        for m in range(1, self.dim):
            acc = acc + R3[m, :, m]
        return self._tensor((sp, acc), 1)

    @cached_property
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
        """delta_j S = d_j S - N^r_j dot_r S of a scalar jet, as jets that
        view one (n, [B,] T) stack: one stacked product, N the left factor,
        subtracted from r = 0 up as acc + -p, as `Jet.__sub__` does it."""
        n, tail = self.dim, S.coeffs.ndim
        sp = jets.space(2 * n, min(S.order - 1, self._N_stack[0].order))
        acc = _dxs(S.space, S.coeffs, n, tail)[..., :sp.T]
        dS = _dys(S.space, S.coeffs, n, tail)
        for p in jets.stacked_product(sp, self._N_stack[1], dS[:, None]):  # [r][j]
            acc = acc + -p
        return _unstack(sp, S.center, acc, 1)

    def cov_h(self, T, slots: tuple) -> np.ndarray:
        """Values of the horizontal covariant derivative of a jet tensor.

        `T` is an object array of jets (0-d for scalars); `slots` marks each
        axis 'u' or 'd'.  The result is a float array with one extra trailing
        'd' axis.  Only the 1-jets of T's entries and the values of N and
        Gamma enter, combined elementwise in the order of the jet loop (d_j
        T - N^r_j dot_r T, then the Gamma terms slot by slot), so each value
        equals that jet's value bit for bit, up to the sign of a zero.  A
        block bundle puts its block axis first.
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
        return out.reshape(self._pa.shape[:-1] + out.shape[1:])

    # ---- value views

    @cached_property
    def G_values(self) -> np.ndarray:
        return _stack_values(self._G_stack[1], 1)

    @cached_property
    def N_values(self) -> np.ndarray:
        return _stack_values(self._N_stack[1], 2)

    @cached_property
    def Gamma_values(self) -> np.ndarray:
        return _stack_values(self._Gamma_stack[1], 3)

    @cached_property
    def B_values(self) -> np.ndarray:
        # the Berwald tensor is read only through its values, so its n^4
        # jets are not kept: bundles stay small while a report holds them
        sp, Gamma = self._Gamma_stack
        return _stack_values(_dys(sp, Gamma, self.dim, self._pa.ndim), 4)

    @cached_property
    def R_values(self) -> np.ndarray:
        return _stack_values(self._R_stack[1], 2)

    @cached_property
    def Ric_value(self):
        return self.Ric.value

    @cached_property
    def chi_values(self) -> np.ndarray:
        return _stack_values(np.array([u.coeffs for u in self.chi]), 1)


# -- scalar decomposition ------------------------------------------------------


def split_holds(bundle: CurvatureBundle, tol: Tolerances = TOL) -> list:
    """Does the bundle's scalar split hold, relative to max |R^i_k|?  One
    answer per row; a point bundle is one row."""
    residuals = np.reshape(bundle.split_values[2], -1)
    scales = np.max(np.abs(bundle.R_values.reshape(len(residuals), -1)), axis=1)
    return [tol.zero(res, scale)
            for res, scale in zip(residuals.tolist(), scales.tolist())]


# -- identity residuals --------------------------------------------------------


def _folds(accs: list, rows: int) -> list:
    """Per row, max |acc| over the `accs` (arrays of `rows` values, or a
    point's floats), as one point's loop folds its sums with Python max
    from 0.0 in list order.  It is one `np.fmax` fold from 0.0 over the
    block, which skips a nan as that max does; |acc| is never -0.0, so
    ties keep their bits.  A row the fold never moves off its start is
    the float 0.0, as the loop leaves it, and any other a np.float64."""
    stack = np.reshape(np.array(accs, dtype=float), (len(accs), rows))
    worst = np.fmax.reduce(np.abs(stack), axis=0, initial=0.0)
    return [w if w > 0.0 else 0.0 for w in worst]


def identity_residuals(bundle: CurvatureBundle, tol: Tolerances = TOL) -> list:
    """Structural identities as value-level residuals, one dict per row of
    the bundle; a point bundle is one row.

    Always present: 'curvature_contraction' (R^i_k y^k) and 'bianchi'.
    When the scalar split holds at the row, also 'tau_trace',
    'chi_consistency', and for n >= 3 'scalar_gradient'.  Identities whose
    hypothesis fails are omitted, not reported as violations.

    Each row's dict equals, key order and bits, the call at that row's
    point alone: the covariant derivatives are taken once for the block
    and the sums over their slots run elementwise over its rows, the two
    contractions with y are one stacked matmul each, whose rows round as
    each row's own product does, and each row's worst-case fold is taken
    row by row.
    """
    n = bundle.dim
    y = bundle.yvals.reshape(-1, n)
    rows = len(y)
    R_values = bundle.R_values.reshape(rows, n, n)
    contraction = np.max(np.abs(np.matmul(R_values, y[:, :, None])), axis=(1, 2))
    out = [{"curvature_contraction": c} for c in contraction.tolist()]

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

    holds = np.array(split_holds(bundle, tol))
    if not holds.any():
        return out
    Rv, tau_vals, _ = bundle.split_values
    Rv, tau_vals = np.reshape(Rv, -1), tau_vals.reshape(rows, n)
    rdot = bundle.rdot_values.reshape(rows, n)
    chi = np.max(np.abs(bundle.chi_values.reshape(rows, n)
                        - (n + 1) * (rdot - 2.0 * tau_vals)), axis=-1)
    trace = np.abs(np.matmul(tau_vals[:, None, :], y[:, :, None])[:, 0, 0] - Rv).tolist()
    chi = chi.tolist()
    for r in np.flatnonzero(holds).tolist():
        out[r]["tau_trace"] = trace[r]
        out[r]["chi_consistency"] = chi[r]

    if n >= 3:
        Rj = bundle.curvature_scalar
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
    return out
