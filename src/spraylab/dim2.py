"""Two-dimensional apparatus: Berwald frame, main scalar, angle derivatives.

Surface-specific machinery that only exists for n = 2: the orthonormal
frame (ell, m) along the indicatrix, the main scalar I extracted from the
Cartan tensor, derivatives of degree-0 scalars with respect to the
indicatrix arc length, and the second-order ODE residual
|lambda'' + eps I lambda'| for the flag curvature of weakly isotropic metrics.

`frame` and `flag_ode_residual` give one entry per row of a (B, 4) block
or a bundle, a point being one row, each with the bits of its point alone,
and `angle_derivative` takes a block jet at a block; a block that fails a
check raises the error of its first row that fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import classify, geometry, jets
from .errors import DegenerateMetric, NegativeMetric, PreconditionError
from .sampling import TOL, Tolerances

__all__ = [
    "BerwaldFrame",
    "frame",
    "angle_derivative",
    "flag_ode_residual",
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
    """Jet-level frame at a point or at each row of a block (eps is one
    sign per row); `order` is the truncation the m-jets carry (the metric
    is evaluated two orders higher to pay for the two y-derivatives in g)."""

    def __init__(self, metric, p, order: int = 2, tol: Tolerances = TOL):
        if metric.dim != 2:
            raise PreconditionError("the Berwald frame needs dimension 2")
        Lj = metric.jet(geometry._point_array(p, 2), order + 2)
        g = [[0.5 * Lj.dy(i).dy(j) for j in range(2)] for i in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[0][1]
        scales = np.max(np.abs([np.atleast_1d(gij.value) for row in g for gij in row]), axis=0)
        for v, d, scale in zip(np.atleast_1d(Lj.value).tolist(),
                               np.atleast_1d(det.value).tolist(), scales.tolist()):
            if v <= 0.0:
                raise NegativeMetric(f"frame needs L > 0 at the point (got {v:.3e})")
            if v <= jets.VALUE_FLOOR:
                break  # the square root of L raises at this row, as at its point
            if abs(d) <= tol.rank * max(1e-30, scale * scale):
                raise DegenerateMetric(f"det g ~ 0 at the point ({d:.3e})")
        self.L, self.det, self.F = Lj, det, jets.sqrt(Lj)
        self.ell = [self.F.dy(i) for i in range(2)]
        self.eps = np.where(det.value > 0.0, 1.0, -1.0)
        root = jets.sqrt(det * self.eps)
        self.m_up = [-1.0 * self.ell[1] / root, self.ell[0] / root]
        self.m_low = [g[i][0] * self.m_up[0] + g[i][1] * self.m_up[1]
                      for i in range(2)]

    def main_scalar(self):
        """I = F C_ijk / (m_i m_j m_k) at the first (i, j, k), in loop
        order, with the largest |m_i m_j m_k|, per row."""
        mv = [m.value for m in self.m_low]
        slots = list(product(range(2), repeat=3))
        mmm = np.array([mv[i] * mv[j] * mv[k] for i, j, k in slots])
        C = np.array([0.25 * self.L.dy(i).dy(j).dy(k).value for i, j, k in slots])
        best = np.argmax(np.abs(mmm), axis=0)[None]
        return (self.F.value * np.take_along_axis(C, best, 0)[0]
                / np.take_along_axis(mmm, best, 0)[0])

    def angle_derivative(self, S):
        acc = self.m_up[0] * S.dy(0) + self.m_up[1] * S.dy(1)
        return (self.F * acc) * self.eps


def frame(metric, p, tol: Tolerances = TOL) -> list:
    """Berwald frames of a 2-D metric, one per row of p: a (B, 4) block
    of points, or a point, which is one row.

    ell is the unit vector along y, m its companion with
    (m^1, m^2) = (eps det g)^{-1/2} (-ell_2, ell_1); together they split
    the fundamental tensor as g = ell ell + eps m m.  The main scalar is
    read off F C_ijk = I m_i m_j m_k at the largest m-component.
    """
    fj = _FrameJets(metric, p, order=1, tol=tol)
    ys = np.reshape(geometry._point_array(p, 2), (-1, 4))[:, 2:]
    ell, m_low, m_up = (np.column_stack([np.atleast_1d(u.value) for u in pair])
                        for pair in (fj.ell, fj.m_low, fj.m_up))
    F, eps, det, I = (np.atleast_1d(v).tolist() for v in (
        fj.F.value, fj.eps, fj.det.value, fj.main_scalar()))
    return [BerwaldFrame(ell[r], ys[r] / F[r], m_low[r], m_up[r], eps[r], det[r], I[r])
            for r in range(len(ys))]


def angle_derivative(S, metric, p, tol: Tolerances = TOL):
    """Derivative of a degree-0 scalar jet along the indicatrix arc length.

    S must be positively 0-homogeneous in y (its value depends only on the
    direction); then F S_{.i} is proportional to m_i and the returned jet
    is the proportionality factor S'(theta).  Apply twice for S''(theta).

    At a (B, 4) block of points S is a block jet, and the degree is
    checked row by row, in order; the first failing row raises its
    point's error.
    """
    defects = np.atleast_1d(classify.euler_residual(S, 0)).tolist()
    for defect, value in zip(defects, np.atleast_1d(S.value).tolist()):
        if not tol.zero(defect, max(1.0, abs(value))):
            raise PreconditionError(
                f"scalar is not 0-homogeneous in y (defect {defect:.3e}); "
                "the angle derivative is defined for degree 0 only")
    fj = _FrameJets(metric, p, order=max(1, S.space.order - 1), tol=tol)
    return fj.angle_derivative(S)


def flag_ode_residual(metric, b, tol: Tolerances = TOL) -> list:
    """|lambda'' + eps I lambda'| for lambda = R/L, one value per row of
    the order-4 (or higher) curvature bundle b of the metric's spray.

    Weakly isotropic 2-D metrics satisfy this ODE along each indicatrix,
    so the residual vanishing (at tolerance) is a necessary sign of weak
    isotropy; the caller establishes weak isotropy itself with the 2-form
    fit.
    """
    for holds, res in zip(geometry.split_holds(b, tol), np.atleast_1d(b.split_values[2]).tolist()):
        if not holds:
            raise PreconditionError(f"scalar decomposition fails at the point ({res:.3e})")
    fj = _FrameJets(metric, b._pa, order=2, tol=tol)
    lam = b.curvature_scalar / fj.L
    lam1 = fj.angle_derivative(lam)
    lam2 = fj.angle_derivative(lam1)
    return np.atleast_1d(abs(lam2.value + fj.eps * fj.main_scalar() * lam1.value)).tolist()
