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
for bit, what the bundle at point r alone gives.  Expression sprays and
the sprays of expression metrics are evaluated once over the block;
sprays of the numerical curvature metrics point by point, their jets
stacked.  `rows` turns a block bundle into one point bundle per row,
which reads its tensors off the block's rows: the tensors of many points
come from one walk through the formulas, and every consumer of point
bundles reads them unchanged.  The scalar split and the operations built
on it are taken at one point only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from . import dsl, jets
from .errors import DegenerateMetric, DomainError, PreconditionError
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

    # `coeff_jets` evaluates a block of points in one pass
    evaluates_blocks = True

    def __init__(self, problem: dsl.ProblemDef):
        if problem.kind != "spray":
            raise PreconditionError(f"problem {problem.name!r} is not a spray")
        self.problem = problem
        self.dim = problem.dim
        self.name = problem.name or "spray"

    def coeff_jets(self, p, order: int) -> list:
        pa = _point_array(p, self.dim)
        env = _var_jets(self.dim, pa, order)
        return [
            _as_jet(dsl.evaluate(e, env, dim=self.dim), env[0])
            for e in self.problem.exprs
        ]

    def guard_values(self, p) -> list[float]:
        return self.problem.guard_values(list(_point_array(p, self.dim)))


class ExprMetric:
    """A candidate Finsler function given as a parsed expression."""

    # `jet` evaluates a block of points in one pass
    evaluates_blocks = True

    def __init__(self, problem: dsl.ProblemDef):
        if problem.kind != "metric":
            raise PreconditionError(f"problem {problem.name!r} is not a metric")
        self.problem = problem
        self.dim = problem.dim
        self.name = problem.name or "metric"

    def jet(self, p, order: int):
        pa = _point_array(p, self.dim)
        env = _var_jets(self.dim, pa, order)
        return _as_jet(dsl.evaluate(self.problem.exprs[0], env, dim=self.dim), env[0])

    def value(self, p) -> float:
        pa = _point_array(p, self.dim)
        return float(dsl.evaluate(self.problem.exprs[0], list(pa), dim=self.dim))

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

    @property
    def evaluates_blocks(self) -> bool:
        return getattr(self.metric, "evaluates_blocks", False)

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

    @property
    def evaluates_blocks(self) -> bool:
        return (getattr(self.base, "evaluates_blocks", False)
                and getattr(self.metric, "evaluates_blocks", False))

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
    row by row; the first failing row names the error.
    """
    Lj = metric.jet(pa, order + 2)
    n = metric.dim
    g = np.empty((n, n), dtype=object)
    for i in range(n):
        di = Lj.dy(i)
        for j in range(i, n):
            g[i, j] = g[j, i] = 0.5 * di.dy(j)
    vals = CurvatureBundle._values(g)
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
    """
    pa = _point_array(p, metric.dim)
    n = metric.dim
    Lj, g, _ = _fundamental_jets(metric, pa, order, tol)
    try:
        w = jets.jet_matrix_inverse(g)
    except DomainError as exc:
        raise DegenerateMetric(f"fundamental tensor of {metric.name!r}: {exc}") from exc
    ys = _var_jets(n, pa, order)[n:]
    v = []
    for l in range(n):
        dl = Lj.dy(l)
        acc = dl.dx(0) * ys[0]
        for k in range(1, n):
            acc = acc + dl.dx(k) * ys[k]
        v.append(acc - Lj.dx(l))
    out = []
    for i in range(n):
        acc = w[i, 0] * v[0]
        for l in range(1, n):
            acc = acc + w[i, l] * v[l]
        out.append(0.25 * acc)
    return out


# -- the bundle ---------------------------------------------------------------


def _row_of(value, r: int, center: tuple):
    """Row r of a block bundle's tensor: block jets, in nested lists, become
    point jets at `center` over the same coefficients; value arrays lose
    the block axis."""
    if isinstance(value, jets.Jet):
        return jets.Jet(value.space, center, value.coeffs[r])
    if isinstance(value, list):
        return [_row_of(v, r, center) for v in value]
    return value[r]


def _per_row(fn):
    """A cached tensor that a row bundle (see `CurvatureBundle.rows`) reads
    off its block's instead of computing it."""
    name = fn.__name__

    @wraps(fn)
    def get(self):
        if self._block is None:
            return fn(self)
        block, r, center = self._block
        return _row_of(getattr(block, name), r, center)

    return cached_property(get)


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
        if self._pa.ndim == 1 or getattr(self.spray, "evaluates_blocks", False):
            return self.spray.coeff_jets(self._pa, self.order)
        rows = [self.spray.coeff_jets(pa, self.order) for pa in self._pa]
        return [jets.stack(col, self._pa) for col in zip(*rows)]

    def constant(self, v: float):
        return self.G[0].space.constant(float(v), self.G[0].center)

    @_per_row
    def N(self) -> list:
        return [[Gi.dy(j) for j in range(self.dim)] for Gi in self.G]

    @_per_row
    def Gamma(self) -> list:
        return [[[Nij.dy(k) for k in range(self.dim)] for Nij in row] for row in self.N]

    @_per_row
    def R(self) -> list:
        n = self.dim
        ys = _var_jets(n, self._pa, self.order)[n:]
        out = []
        for i in range(n):
            dGx = [self.G[i].dx(j) for j in range(n)]
            row = []
            for k in range(n):
                acc = 2.0 * dGx[k]
                for j in range(n):
                    acc = acc - ys[j] * dGx[j].dy(k)
                    acc = acc + 2.0 * (self.G[j] * self.Gamma[i][j][k])
                    acc = acc - self.N[i][j] * self.N[j][k]
                row.append(acc)
            out.append(row)
        return out

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

    @cached_property
    def split(self) -> tuple:
        """Split R^i_k as R delta^i_k - tau_k y^i: (R jet, [tau_k jets],
        residual).

        R = Ric/(n-1); tau is read off the row with the largest |y^i| (best
        conditioned division); the residual is the worst value-level
        violation of the reconstruction over all (i,k).  It is exactly zero
        on the chosen row, so the residual measures whether the remaining
        rows agree, which is the scalar-curvature property.
        """
        n = self.dim
        if self._pa.ndim == 2:
            raise PreconditionError("the scalar split is taken at one point, "
                                    "not on a block")
        Rj = self.curvature_scalar
        i0 = int(np.argmax(np.abs(self.yvals)))
        sp = jets.space(2 * n, Rj.order)
        yj = sp.variable(n + i0, tuple(self._pa))
        tau = []
        for k in range(n):
            num = (Rj - self.R[i0][k]) if k == i0 else (-1.0 * self.R[i0][k])
            tau.append(num / yj)
        tau_vals = np.array([t.value for t in tau])
        Rv = Rj.value
        recon = Rv * np.eye(n) - np.outer(self.yvals, tau_vals)
        residual = float(np.max(np.abs(self.R_values - recon)))
        return Rj, tau, residual

    @_per_row
    def R3(self) -> list:
        n = self.dim
        third = 1.0 / 3.0
        return [
            [
                [third * (self.R[i][k].dy(j) - self.R[i][j].dy(k)) for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ]

    @_per_row
    def V(self) -> list:
        """The contracted 3-tensor V_k = R^m_{km}."""
        n = self.dim
        out = []
        for k in range(n):
            acc = self.R3[0][k][0]
            for m in range(1, n):
                acc = acc + self.R3[m][k][m]
            out.append(acc)
        return out

    @_per_row
    def chi(self) -> list:
        n = self.dim
        out = []
        for i in range(n):
            acc = self.Ric.dy(i)
            for m in range(n):
                acc = acc + 2.0 * self.R[m][i].dy(m)
            out.append(acc)
        return out

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
        return self._values(self.N)

    @_per_row
    def Gamma_values(self) -> np.ndarray:
        return self._values(self.Gamma)

    @_per_row
    def B_values(self) -> np.ndarray:
        # the Berwald tensor is read only through its values, so its n^4
        # jets are not kept: bundles stay small while a report holds them
        n = self.dim
        return self._values([
            [[[Gijk.dy(l) for l in range(n)] for Gijk in row] for row in mat]
            for mat in self.Gamma
        ])

    @_per_row
    def R_values(self) -> np.ndarray:
        return self._values(self.R)

    @cached_property
    def Ric_value(self):
        return self.Ric.value

    @_per_row
    def chi_values(self) -> np.ndarray:
        return self._values(self.chi)


# -- scalar decomposition ------------------------------------------------------


def split_holds(bundle: CurvatureBundle, tol: Tolerances = TOL) -> bool:
    """Does the bundle's scalar split hold, relative to max |R^i_k|?"""
    scale = float(np.max(np.abs(bundle.R_values)))
    return tol.zero(bundle.split[2], scale)


# -- identity residuals --------------------------------------------------------


def identity_residuals(bundle: CurvatureBundle, tol: Tolerances = TOL) -> dict:
    """Structural identities as value-level residuals at the bundle's point.

    Always present: 'curvature_contraction' (R^i_k y^k) and 'bianchi'.
    When the scalar split holds at the point, also 'tau_trace',
    'chi_consistency', and for n >= 3 'scalar_gradient'.  Identities whose
    hypothesis fails are omitted, not reported as violations.
    """
    n = bundle.dim
    yv = bundle.yvals
    res: dict[str, float] = {}

    res["curvature_contraction"] = float(np.max(np.abs(bundle.R_values @ yv)))

    Rcov = bundle.cov_h(np.array(bundle.R, dtype=object), ("u", "d"))
    Vcov = bundle.cov_h(np.array(bundle.V, dtype=object), ("d",))
    ric_cov = bundle.cov_h(bundle.Ric, ())
    worst = 0.0
    for k in range(n):
        acc = -ric_cov[k]
        for m in range(n):
            acc += Rcov[m, k, m]
        for j in range(n):
            acc += yv[j] * Vcov[k, j]
        worst = max(worst, abs(acc))
    res["bianchi"] = worst

    if not split_holds(bundle, tol):
        return res
    Rj, tau, _ = bundle.split

    tau_vals = np.array([t.value for t in tau])
    res["tau_trace"] = float(abs(tau_vals @ yv - Rj.value))

    rdot = np.array([Rj.dy(i).value for i in range(n)])
    res["chi_consistency"] = float(
        np.max(np.abs(bundle.chi_values - (n + 1) * (rdot - 2.0 * tau_vals)))
    )

    if n >= 3:
        rdot_jets = np.array([Rj.dy(i) for i in range(n)], dtype=object)
        rdot_cov = bundle.cov_h(rdot_jets, ("d",))
        tau_cov = bundle.cov_h(np.array(tau, dtype=object), ("d",))
        rsemi = bundle.cov_h(Rj, ())
        worst = 0.0
        for i in range(n):
            acc = -3.0 * rsemi[i]
            for j in range(n):
                acc += yv[j] * (rdot_cov[i, j] + tau_cov[i, j])
            worst = max(worst, abs(acc))
        res["scalar_gradient"] = worst
    return res


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
    Rj, tau, _ = bundle.split
    n = bundle.dim
    h = h_tensors(bundle)
    rdot = np.array([Rj.dy(i).value for i in range(n)])
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
