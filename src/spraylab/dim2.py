"""Two-dimensional apparatus: Berwald frame, main scalar, angle derivatives.

Surface-specific machinery that only exists for n = 2: the orthonormal
frame (ell, m) along the indicatrix, the main scalar I extracted from the
Cartan tensor, derivatives of degree-0 scalars with respect to the
indicatrix arc length, the second-order ODE residual |lambda'' + eps I
lambda'| for the flag curvature of weakly isotropic metrics, and
generators for the three classical families with constant main scalar
together with their predicted curvature 2-form component omega12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classify, dsl, geometry, jets
from .errors import (DegenerateMetric, NegativeMetric, ParamError,
                     PreconditionError)
from .sampling import TOL, Tolerances

__all__ = [
    "BerwaldFrame",
    "CmsMetric",
    "frame",
    "angle_derivative",
    "flag_ode_residual",
    "gen_cms_metric",
]


@dataclass(frozen=True)
class BerwaldFrame:
    """Frame values at one point: g_ij = ell_i ell_j + eps m_i m_j."""

    ell_low: np.ndarray
    ell_up: np.ndarray
    m_low: np.ndarray
    m_up: np.ndarray
    eps: float
    det_g: float
    main_scalar: float


class _FrameJets:
    """Jet-level frame at a point; `order` is the truncation the m-jets
    carry (the metric is evaluated two orders higher to pay for the two
    y-derivatives in g)."""

    def __init__(self, metric, p, order: int = 2, tol: Tolerances = TOL):
        if metric.dim != 2:
            raise PreconditionError("the Berwald frame needs dimension 2")
        pa = geometry._point_array(p, 2)
        Lj = metric.jet(pa, order + 2)
        if Lj.value <= 0.0:
            raise NegativeMetric(
                f"frame needs L > 0 at the point (got {Lj.value:.3e})")
        self.L = Lj
        self.F = jets.sqrt(Lj)
        self.ell = [self.F.dy(i) for i in range(2)]
        g = [[0.5 * Lj.dy(i).dy(j) for j in range(2)] for i in range(2)]
        self.g = g
        det = g[0][0] * g[1][1] - g[0][1] * g[0][1]
        scale = max(abs(g[i][j].value) for i in range(2) for j in range(2))
        if abs(det.value) <= tol.rank * max(1e-30, scale * scale):
            raise DegenerateMetric(
                f"det g ~ 0 at the point ({det.value:.3e})")
        self.det = det
        self.eps = 1.0 if det.value > 0.0 else -1.0
        root = jets.sqrt(self.eps * det)
        self.m_up = [-1.0 * self.ell[1] / root, self.ell[0] / root]
        self.m_low = [g[i][0] * self.m_up[0] + g[i][1] * self.m_up[1]
                      for i in range(2)]

    def main_scalar(self) -> float:
        mv = np.array([m.value for m in self.m_low])
        best = None
        best_mag = 0.0
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    mmm = mv[i] * mv[j] * mv[k]
                    if abs(mmm) > best_mag:
                        best_mag = abs(mmm)
                        best = (i, j, k)
        i, j, k = best
        C = 0.25 * self.L.dy(i).dy(j).dy(k).value
        return float(self.F.value * C / (mv[i] * mv[j] * mv[k]))

    def angle_derivative(self, S):
        acc = self.m_up[0] * S.dy(0) + self.m_up[1] * S.dy(1)
        return self.eps * (self.F * acc)


def frame(metric, p, tol: Tolerances = TOL) -> BerwaldFrame:
    """Berwald frame of a 2-D metric at a point.

    ell is the unit vector along y, m its companion with
    (m^1, m^2) = (eps det g)^{-1/2} (-ell_2, ell_1); together they split
    the fundamental tensor as g = ell ell + eps m m.  The main scalar is
    read off F C_ijk = I m_i m_j m_k at the largest m-component.
    """
    fj = _FrameJets(metric, p, order=1, tol=tol)
    return BerwaldFrame(
        ell_low=np.array([e.value for e in fj.ell]),
        ell_up=np.array(geometry._point_array(p, 2)[2:]) / fj.F.value,
        m_low=np.array([m.value for m in fj.m_low]),
        m_up=np.array([m.value for m in fj.m_up]),
        eps=fj.eps,
        det_g=float(fj.det.value),
        main_scalar=fj.main_scalar(),
    )


def angle_derivative(S, metric, p, tol: Tolerances = TOL):
    """Derivative of a degree-0 scalar jet along the indicatrix arc length.

    S must be positively 0-homogeneous in y (its value depends only on the
    direction); then F S_{.i} is proportional to m_i and the returned jet
    is the proportionality factor S'(theta).  Apply twice for S''(theta).
    """
    defect = classify.euler_residual(metric, S, 0)
    if not tol.zero(defect, max(1.0, abs(S.value))):
        raise PreconditionError(
            f"scalar is not 0-homogeneous in y (defect {defect:.3e}); "
            "the angle derivative is defined for degree 0 only")
    fj = _FrameJets(metric, p, order=max(1, S.space.order - 1), tol=tol)
    return fj.angle_derivative(S)


def flag_ode_residual(metric, p, tol: Tolerances = TOL) -> float:
    """|lambda'' + eps I lambda'| for lambda = R/L at one point.

    Weakly isotropic 2-D metrics satisfy this ODE along each indicatrix,
    so the residual vanishing (at tolerance) is a necessary sign of weak
    isotropy; the caller establishes weak isotropy itself with the 2-form
    fit.
    """
    sp = geometry.MetricSpray(metric)
    b = geometry.CurvatureBundle(sp, p, 5)
    Rj, _, res = geometry.scalar_split(b)
    if not geometry._split_holds(b, res, tol):
        raise PreconditionError(
            f"scalar decomposition fails at the point ({res:.3e})")
    lam = Rj / metric.jet(p, 3)
    fj = _FrameJets(metric, p, order=2, tol=tol)
    lam1 = fj.angle_derivative(lam)
    lam2 = fj.angle_derivative(lam1)
    I = fj.main_scalar()
    return float(abs(lam2.value + fj.eps * I * lam1.value))


# -- constant-main-scalar generators ---------------------------------------------


@dataclass(frozen=True)
class CmsMetric:
    """A generated constant-main-scalar metric with its predictions.

    `omega12` maps a base point (x1, x2) to the predicted curvature 2-form
    component; `main_scalar_sq` is the predicted I^2.
    """

    kind: int
    metric: geometry.ExprMetric
    source: str
    omega12: Callable
    main_scalar_sq: float


def _param_field(expr: str, label: str) -> geometry.ExprMetric:
    src = f"dim 2\nmetric L = {expr}\n"
    try:
        return geometry.ExprMetric(dsl.parse(src, name=label))
    except Exception as e:
        raise ParamError(f"cannot parse {label} = {expr!r}: {e}") from e


def _param_jets(field_obj: geometry.ExprMetric, x) -> tuple:
    pt = np.array([x[0], x[1], 1.0, 1.0])
    j = field_obj.jet(pt, 2)
    return (j.value, j.dx(0).value, j.dx(1).value,
            j.dx(0).dx(1).value, j.dx(0).dx(0).value, j.dx(1).dx(1).value)


def gen_cms_metric(kind: int, p: str = "1", q: str = "1",
                   s: float | None = None,
                   r: float | None = None) -> CmsMetric:
    """One of the three constant-main-scalar families on beta = p(x) y1,
    gamma = q(x) y2.

    kind 19: L = beta^{2s} gamma^{2(1-s)}, s constant outside {0, 1};
    kind 20: L = beta^2 exp(2 gamma/beta);
    kind 21: L = (beta^2 + gamma^2) exp(2 r arctan(beta/gamma)).

    The returned omega12 prediction evaluates the closed form for the
    family on the parameter functions' jets; the guards in the metric
    source keep beta, gamma and the parameter functions positive so the
    fractional powers and the arctan branch stay single-valued.
    """
    pf = _param_field(p, "p")
    qf = _param_field(q, "q")
    beta = f"(({p})*y1)"
    gamma = f"(({q})*y2)"
    if kind == 19:
        if s is None or s in (0.0, 1.0):
            raise ParamError("kind 19 needs a constant s outside {0, 1}")
        body = f"{beta}^({2.0 * s!r}) * {gamma}^({2.0 * (1.0 - s)!r})"
        guards = ["y1 - 0.05", "y2 - 0.05", f"({p}) - 0.05", f"({q}) - 0.05"]
        I_sq = (2.0 * s - 1.0) ** 2 / abs(s * (s - 1.0))

        def omega12(x) -> float:
            pv, p1, p2, p12, _, _ = _param_jets(pf, x)
            qv, q1, q2, q12, _, _ = _param_jets(qf, x)
            num = ((pv * pv * qv * q12 - pv * qv * qv * p12
                    + qv * qv * p1 * p2 - pv * pv * q1 * q2) * s
                   - pv * pv * qv * q12 + pv * pv * q1 * q2)
            return ((1.0 - 2.0 * s) / (s * (1.0 - s))
                    * num / (pv * pv * qv * qv))

    elif kind == 20:
        if s is not None or r is not None:
            raise ParamError("kind 20 takes no s or r parameter")
        body = f"{beta}^2 * exp(2*{gamma} / {beta})"
        # the cone guards bound |gamma/beta| so the exponential stays in a
        # range where double precision keeps downstream fits conditioned
        guards = ["y1 - 0.05", f"({p}) - 0.05", f"({q}) - 0.05",
                  "2*y1 - y2", "y2 + 2*y1"]
        I_sq = 4.0

        def omega12(x) -> float:
            pv, p1, p2, p12, _, p22 = _param_jets(pf, x)
            qv, q1, q2, q12, _, _ = _param_jets(qf, x)
            num = (pv * pv * qv * p22 + pv * qv * qv * p12
                   - pv * pv * qv * q12 + pv * pv * q1 * q2
                   - qv * qv * p1 * p2 - pv * pv * p2 * q2)
            return -2.0 * num / (pv * pv * qv * qv)

    elif kind == 21:
        if r is None:
            raise ParamError("kind 21 needs a constant r")
        body = (f"({beta}^2 + {gamma}^2) * exp(({2.0 * r!r}) "
                f"* atan({beta} / {gamma}))")
        guards = ["y2 - 0.05", f"({p}) - 0.05", f"({q}) - 0.05"]
        I_sq = 4.0 * r * r / (1.0 + r * r)

        def omega12(x) -> float:
            pv, p1, p2, p12, p11, p22 = _param_jets(pf, x)
            qv, q1, q2, q12, q11, _ = _param_jets(qf, x)
            num = ((pv * pv * qv * q12 - pv * qv * qv * p12
                    - pv * pv * q1 * q2 + qv * qv * p1 * p2) * r
                   + pv * pv * qv * p22 + pv * qv * qv * q11
                   - qv * qv * p1 * q1 - pv * pv * p2 * q2)
            return 2.0 * r / (1.0 + r * r) * num / (pv * pv * qv * qv)

    else:
        raise ParamError(f"unknown family kind {kind}; expected 19, 20, 21")

    lines = ["dim 2", f"metric L = {body}"]
    lines.extend(f"guard = {g}" for g in guards)
    src = "\n".join(lines) + "\n"
    metric = geometry.ExprMetric(dsl.parse(src, name=f"cms{kind}"))
    return CmsMetric(kind=kind, metric=metric, source=src, omega12=omega12,
                     main_scalar_sq=I_sq)
