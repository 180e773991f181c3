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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import dsl, jets
from .errors import (
    DegenerateMetric,
    DomainError,
    PreconditionError,
    SprayLabError,
)
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
    if isinstance(p, PointTangent):
        pa = p.array()
    else:
        pa = np.asarray(p, dtype=float)
    if pa.shape != (2 * dim,):
        raise DomainError(f"expected {2 * dim} coordinates, got shape {pa.shape}")
    return pa


def _var_jets(dim: int, pa: np.ndarray, order: int) -> list:
    sp = jets.space(2 * dim, order)
    center = tuple(pa)
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
        return [
            _as_jet(dsl.evaluate(e, env, dim=self.dim), env[0])
            for e in self.problem.exprs
        ]

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
        return _as_jet(dsl.evaluate(self.problem.exprs[0], env, dim=self.dim), env[0])

    def value(self, p) -> float:
        pa = _point_array(p, self.dim)
        return float(dsl.evaluate(self.problem.exprs[0], list(pa), dim=self.dim))

    def guard_values(self, p) -> list[float]:
        return self.problem.guard_values(list(_point_array(p, self.dim)))


class FuncMetric:
    """Metric given as a callable over the 2n variable environment.

    Used for recovered metrics that exist numerically rather than as source
    text: `fn` receives the list [x1..xn, y1..yn] of jets (or floats) and
    must return the metric value in kind.
    """

    def __init__(self, dim: int, fn: Callable, name: str = "recovered",
                 guards: Callable | None = None):
        self.dim = dim
        self.fn = fn
        self.name = name
        self._guards = guards

    def jet(self, p, order: int):
        pa = _point_array(p, self.dim)
        env = _var_jets(self.dim, pa, order)
        return _as_jet(self.fn(env), env[0])

    def value(self, p) -> float:
        pa = _point_array(p, self.dim)
        out = self.fn(list(pa))
        return float(out.value) if isinstance(out, jets.Jet) else float(out)

    def guard_values(self, p) -> list[float]:
        return list(self._guards(p)) if self._guards is not None else []


class MetricSpray:
    """The spray induced by a metric via its geodesic equations."""

    def __init__(self, metric, name: str | None = None):
        self.metric = metric
        self.dim = metric.dim
        self.name = name or f"induced({metric.name})"

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


@dataclass(frozen=True)
class MetricTensor:
    g: np.ndarray
    g_inv: np.ndarray
    y_low: np.ndarray
    L: float


def _fundamental_jets(metric, pa: np.ndarray, order: int, tol: Tolerances):
    """Jets of L and of g_ij = half the y-Hessian, with a rank check."""
    Lj = metric.jet(pa, order + 2)
    n = metric.dim
    g = np.empty((n, n), dtype=object)
    for i in range(n):
        di = Lj.dy(i)
        for j in range(i, n):
            g[i, j] = g[j, i] = 0.5 * di.dy(j)
    vals = np.array([[g[i, j].value for j in range(n)] for i in range(n)])
    s = np.linalg.svd(vals, compute_uv=False)
    if s[-1] <= tol.rank * s[0] or s[0] == 0.0:
        raise DegenerateMetric(
            f"fundamental tensor of {metric.name!r} is numerically singular "
            f"(singular values {s})"
        )
    return Lj, g, vals


def metric_tensor(metric, p, tol: Tolerances = TOL) -> MetricTensor:
    """Fundamental tensor, its inverse, and the lowered tangent at p."""
    pa = _point_array(p, metric.dim)
    n = metric.dim
    Lj, g, vals = _fundamental_jets(metric, pa, 0, tol)
    y_low = np.array([0.5 * Lj.dy(i).value for i in range(n)])
    y_from_g = vals @ pa[n:]
    scale = max(np.max(np.abs(y_low)), np.max(np.abs(vals)))
    if np.max(np.abs(y_low - y_from_g)) > tol.abs + tol.rel * scale:
        raise PreconditionError(
            f"{metric.name!r} is not positively 2-homogeneous in y: "
            "lowering the tangent by g disagrees with the y-gradient of L"
        )
    return MetricTensor(vals, np.linalg.inv(vals), y_low, Lj.value)


def spray_from_metric(metric, p, order: int = 4, tol: Tolerances = TOL) -> list:
    """Jets of the induced spray coefficients at p.

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


class CurvatureBundle:
    """Every derived tensor of one spray at one point, lazily computed.

    `order` is the jet budget K: the spray coefficients are lifted to order
    K, and each derived tensor sits as many orders lower as it has taken
    derivatives.  K=4 supports the full H family and second covariant
    derivatives of the curvature scalar.
    """

    def __init__(self, spray, p, order: int = 4):
        self.spray = spray
        self.dim = spray.dim
        self.order = order
        pa = _point_array(p, spray.dim)
        self.point = (
            p
            if isinstance(p, PointTangent)
            else PointTangent(tuple(pa[: self.dim]), tuple(pa[self.dim:]))
        )
        self._pa = pa
        self.yvals = pa[self.dim:]

    # ---- raw jets

    @cached_property
    def G(self) -> list:
        return self.spray.coeff_jets(self._pa, self.order)

    def constant(self, v: float):
        return self.G[0].space.constant(float(v), self.G[0].center)

    @cached_property
    def N(self) -> list:
        return [[Gi.dy(j) for j in range(self.dim)] for Gi in self.G]

    @cached_property
    def Gamma(self) -> list:
        return [[[Nij.dy(k) for k in range(self.dim)] for Nij in row] for row in self.N]

    @cached_property
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

    @cached_property
    def Ric(self):
        acc = self.R[0][0]
        for i in range(1, self.dim):
            acc = acc + self.R[i][i]
        return acc

    @cached_property
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

    @cached_property
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

    @cached_property
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
        """Horizontal derivatives delta_j S of a scalar jet."""
        out = []
        for j in range(self.dim):
            acc = S.dx(j)
            for r in range(self.dim):
                acc = acc - self.N[r][j] * S.dy(r)
            out.append(acc)
        return out

    def cov_h(self, T, slots: tuple) -> np.ndarray:
        """Horizontal covariant derivative of a jet tensor.

        `T` is an object array (0-d for scalars); `slots` marks each axis
        'u' or 'd'.  The result has one extra trailing 'd' axis.
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

    def cov_v(self, T, slots: tuple = ()) -> np.ndarray:
        """Vertical derivative: a plain y-gradient, one extra 'd' axis."""
        T = np.asarray(T, dtype=object)
        n = self.dim
        out = np.empty(T.shape + (n,), dtype=object)
        for idx in np.ndindex(*T.shape):
            for j in range(n):
                out[idx + (j,)] = T[idx].dy(j)
        return out

    # ---- value views

    @staticmethod
    def _values(obj) -> np.ndarray:
        arr = np.asarray(obj, dtype=object)
        out = np.empty(arr.shape)
        for idx in np.ndindex(*arr.shape):
            out[idx] = arr[idx].value
        return out

    @cached_property
    def G_values(self) -> np.ndarray:
        return self._values(self.G)

    @cached_property
    def N_values(self) -> np.ndarray:
        return self._values(self.N)

    @cached_property
    def Gamma_values(self) -> np.ndarray:
        return self._values(self.Gamma)

    @cached_property
    def B_values(self) -> np.ndarray:
        # the Berwald tensor is read only through its values, so its n^4
        # jets are not kept: bundles stay small while a report holds them
        n = self.dim
        return self._values([
            [[[Gijk.dy(l) for l in range(n)] for Gijk in row] for row in mat]
            for mat in self.Gamma
        ])

    @cached_property
    def R_values(self) -> np.ndarray:
        return self._values(self.R)

    @cached_property
    def Ric_value(self) -> float:
        return float(self.Ric.value)

    @cached_property
    def chi_values(self) -> np.ndarray:
        return self._values(self.chi)


# -- scalar decomposition ------------------------------------------------------


def scalar_split(bundle: CurvatureBundle):
    """Split R^i_k as R delta^i_k - tau_k y^i.

    Returns (R jet, [tau_k jets], residual): R = Ric/(n-1); tau is read off
    the row with the largest |y^i| (best conditioned division); the residual
    is the worst value-level violation of the reconstruction over all (i,k).
    It is exactly zero on the chosen row, so the residual measures whether
    the remaining rows agree, which is the scalar-curvature property.
    """
    n = bundle.dim
    if n < 2:
        raise PreconditionError("scalar decomposition needs dimension at least 2")
    Rj = (1.0 / (n - 1)) * bundle.Ric
    i0 = int(np.argmax(np.abs(bundle.yvals)))
    sp = jets.space(2 * n, Rj.order)
    yj = sp.variable(n + i0, tuple(bundle._pa))
    tau = []
    for k in range(n):
        num = (Rj - bundle.R[i0][k]) if k == i0 else (-1.0 * bundle.R[i0][k])
        tau.append(num / yj)
    tau_vals = np.array([t.value for t in tau])
    Rv = Rj.value
    recon = Rv * np.eye(n) - np.outer(bundle.yvals, tau_vals)
    residual = float(np.max(np.abs(bundle.R_values - recon)))
    return Rj, tau, residual


def _split_holds(bundle: CurvatureBundle, residual: float, tol: Tolerances) -> bool:
    scale = float(np.max(np.abs(bundle.R_values)))
    return tol.zero(residual, scale)


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
    ric_cov = bundle.delta_scalar(bundle.Ric)
    worst = 0.0
    for k in range(n):
        acc = -ric_cov[k].value
        for m in range(n):
            acc += Rcov[m, k, m].value
        for j in range(n):
            acc += yv[j] * Vcov[k, j].value
        worst = max(worst, abs(acc))
    res["bianchi"] = worst

    Rj, tau, split_res = scalar_split(bundle)
    if not _split_holds(bundle, split_res, tol):
        return res

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
        rsemi = bundle.delta_scalar(Rj)
        worst = 0.0
        for i in range(n):
            acc = -3.0 * rsemi[i].value
            for j in range(n):
                acc += yv[j] * (rdot_cov[i, j].value + tau_cov[i, j].value)
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


def h_tensors(bundle_or_spray, p=None, order: int = 4) -> HTensors:
    """The hh-curvature family at a point (values)."""
    b = _as_bundle(bundle_or_spray, p, order)
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
    Rj, tau, split_res = scalar_split(bundle)
    if not _split_holds(bundle, split_res, tol):
        return {}
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


# -- covariant fields -------------------------------------------------------------


@dataclass
class CovariantField:
    """A tensor field of the bundle, closed under ; and . derivatives.

    `build` maps a CurvatureBundle to an object array of jets whose rank
    matches `slots` ('u'/'d' per axis).  Derivatives return new fields that
    share the same bundle when evaluated, so chains cost one bundle.
    """

    spray: object
    build: Callable[[CurvatureBundle], np.ndarray]
    slots: tuple = ()
    name: str = ""

    @classmethod
    def scalar(cls, spray, fn: Callable, name: str = "") -> "CovariantField":
        return cls(spray, lambda b: np.array(fn(b), dtype=object), (), name)

    def at(self, bundle: CurvatureBundle) -> np.ndarray:
        return np.asarray(self.build(bundle), dtype=object)

    def values(self, p, order: int = 4) -> np.ndarray:
        b = CurvatureBundle(self.spray, p, order)
        return CurvatureBundle._values(self.at(b))

    def h(self) -> "CovariantField":
        return CovariantField(
            self.spray,
            lambda b: b.cov_h(self.at(b), self.slots),
            self.slots + ("d",),
            self.name + ";",
        )

    def v(self) -> "CovariantField":
        return CovariantField(
            self.spray,
            lambda b: b.cov_v(self.at(b), self.slots),
            self.slots + ("d",),
            self.name + ".",
        )


def h_cov(T: CovariantField, p, order: int = 4) -> np.ndarray:
    return T.h().values(p, order)


def v_cov(T: CovariantField, p, order: int = 4) -> np.ndarray:
    return T.v().values(p, order)


# -- thin op layer ------------------------------------------------------------


def _as_bundle(bundle_or_spray, p, order: int) -> CurvatureBundle:
    if isinstance(bundle_or_spray, CurvatureBundle):
        return bundle_or_spray
    if p is None:
        raise PreconditionError("a point is required when passing a spray")
    return CurvatureBundle(bundle_or_spray, p, order)


def chi(spray, p=None, order: int = 4, check: bool = True, tol: Tolerances = TOL):
    """chi covector values; cross-checked against the scalar split when it holds."""
    b = _as_bundle(spray, p, order)
    out = b.chi_values
    if check:
        Rj, tau, split_res = scalar_split(b)
        if _split_holds(b, split_res, tol):
            n = b.dim
            rdot = np.array([Rj.dy(i).value for i in range(n)])
            tv = np.array([t.value for t in tau])
            bad = float(np.max(np.abs(out - (n + 1) * (rdot - 2.0 * tv))))
            scale = max(1.0, float(np.max(np.abs(out))))
            if not tol.zero(bad, scale):
                raise SprayLabError(
                    f"chi reconstruction disagrees with the scalar split by {bad}"
                )
    return out
