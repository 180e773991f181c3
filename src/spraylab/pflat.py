"""Projectively flat constant-curvature families from quadratic data.

A symmetric matrix A, a vector B and a scalar C define the base polynomial
u(x) = x'Ax + <B,x> + C, the spray factor P = -u_{x^k} y^k / (2u), the
spray G^i = P y^i and the candidate metric

    L = (4 u y'Ay - (2 x'Ay + <B,y>)^2) / (4 u^2).

`gen_spray` and `gen_metric` emit these as expression problems (so they go
through the same parser and jet pipeline as every hand-written fixture),
`admissible` decides whether L is actually a Finsler function, and
`quadratic_structure_check` answers the inverse question for a spray that
was not generated here: is its log-potential's exponential a polynomial of
degree two in x?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classify, dsl, geometry, metrize, sampling
from .errors import ParamError, PreconditionError
from .sampling import TOL, SampleBox, Tolerances

__all__ = [
    "QuadraticData",
    "Admissibility",
    "gen_spray",
    "gen_metric",
    "sources",
    "admissible",
    "quadratic_structure_check",
]


@dataclass(frozen=True)
class QuadraticData:
    """Coefficients (A, B, C) of the base polynomial x'Ax + <B,x> + C."""

    A: tuple
    B: tuple
    C: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ParamError("A must be a square matrix")
        n = A.shape[0]
        if B.shape != (n,):
            raise ParamError(f"B must have length {n} to match A")
        if n < 2:
            raise ParamError("the family needs dimension >= 2")
        for name, values in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(values)):
                raise ParamError(f"{name} must be finite, got {values.tolist()}")
        with np.errstate(over="ignore"):
            doubled = 2.0 * A
        if not np.all(np.isfinite(doubled)):
            # `sources` writes 2A into the spray text, which must parse back
            raise ParamError(f"A is too large: 2A, which the spray text holds, "
                             f"overflows to {doubled.tolist()}")
        scale = max(1.0, float(np.max(np.abs(A))))
        if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
            raise ParamError("A must be symmetric")
        if not (np.any(A != 0.0) or np.any(B != 0.0) or self.C != 0.0):
            raise ParamError("A, B, C must not all vanish (u would be 0)")
        object.__setattr__(self, "A", tuple(map(tuple, A.tolist())))
        object.__setattr__(self, "B", tuple(B.tolist()))
        object.__setattr__(self, "C", float(self.C))

    @property
    def dim(self) -> int:
        return len(self.B)

    @classmethod
    def from_mapping(cls, d: dict) -> "QuadraticData":
        A = np.asarray(d["A"], dtype=float)
        B = np.asarray(d["B"], dtype=float)
        if A.ndim == 1:
            n = int(round(len(A) ** 0.5))
            if n * n != len(A):
                raise ParamError("row-major A must have a square length")
            A = A.reshape(n, n)
        return cls(A=tuple(map(tuple, A.tolist())), B=tuple(B.tolist()),
                   C=float(d["C"]))


@dataclass(frozen=True)
class Admissibility:
    """`mode` is "exact" (4C vs B'A^{-1}B, det A != 0) or "empirical"
    (Hessian rank of the generated metric on samples, det A ~ 0)."""

    admissible: bool
    mode: str
    margin: float

    def __bool__(self) -> bool:
        return self.admissible


def _terms(parts: list) -> str:
    return " + ".join(parts) if parts else "0"


def _quad_form(A: np.ndarray, u: str, v: str) -> str:
    """x'Ay as source text, variables named u1.. and v1.. ."""
    n = A.shape[0]
    parts = []
    for i in range(n):
        for j in range(n):
            if A[i, j] != 0.0:
                parts.append(f"({float(A[i, j])!r})*{u}{i + 1}*{v}{j + 1}")
    return _terms(parts)


def _linear_form(B: np.ndarray, v: str) -> str:
    parts = [f"({float(b)!r})*{v}{i + 1}" for i, b in enumerate(B)
             if b != 0.0]
    return _terms(parts)


def _u_sign(q: QuadraticData) -> float:
    if q.C != 0.0:
        return 1.0 if q.C > 0.0 else -1.0
    tr = float(np.trace(np.asarray(q.A)))
    return 1.0 if tr >= 0.0 else -1.0


def sources(q: QuadraticData) -> tuple:
    """(spray source, metric source) for the quadratic data, as .spray text.

    The guard pins the sign of u to its sign at the chart origin (or the
    trace of A when C = 0), so each problem lives on one connected
    component of {u != 0}.

    A = 0 switches the spray's potential from -ln|u|/2 to -ln|u| (the flat
    subfamily: u linear makes it curvature-free; equivalently this is u^2
    fed through the quadratic formula).  The metric text stays the literal
    formula on (A, B, C) and is degenerate there, which `admissible`
    reports through its empirical branch.
    """
    A = np.asarray(q.A, dtype=float)
    B = np.asarray(q.B, dtype=float)
    n = q.dim
    U = _terms([p for p in (_quad_form(A, "x", "x"), _linear_form(B, "x"))
                if p != "0"] + ([f"({q.C!r})"] if q.C != 0.0 else []))
    V = _terms([p for p in (_quad_form(2.0 * A, "x", "y"),
                            _linear_form(B, "y")) if p != "0"])
    W = _quad_form(A, "y", "y")
    s = _u_sign(q)
    guard = f"guard = {U}" if s > 0 else f"guard = -({U})"
    flat = not np.any(A != 0.0)
    spray_lines = [f"dim {n}"]
    for i in range(n):
        if flat:
            spray_lines.append(
                f"spray G{i + 1} = -({V}) * y{i + 1} / ({U})")
        else:
            spray_lines.append(
                f"spray G{i + 1} = -({V}) * y{i + 1} / (2*({U}))")
    spray_lines.append(guard)
    metric_lines = [
        f"dim {n}",
        f"metric L = (4*({U})*({W}) - ({V})^2) / (4*({U})^2)",
        guard,
    ]
    return "\n".join(spray_lines) + "\n", "\n".join(metric_lines) + "\n"


def gen_spray(q: QuadraticData) -> geometry.ExprSpray:
    src, _ = sources(q)
    return geometry.ExprSpray(dsl.parse(src, name=f"pflat-n{q.dim}"))


def gen_metric(q: QuadraticData) -> geometry.ExprMetric:
    _, src = sources(q)
    return geometry.ExprMetric(dsl.parse(src, name=f"pflat-n{q.dim}-metric"))


def admissible(q: QuadraticData, count: int = 32, seed: int = 7,
               box: SampleBox | None = None,
               tol: Tolerances = TOL) -> Admissibility:
    """Does the quadratic data produce a genuine (non-degenerate) metric?

    With det A != 0 the answer is closed form: 4C != B'A^{-1}B, and
    `margin` is the gap.  With A singular there is no closed criterion and
    the generated metric is probed numerically (`margin` is then the worst
    Hessian rank ratio over the samples).
    """
    A = np.asarray(q.A, dtype=float)
    B = np.asarray(q.B, dtype=float)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] > 0.0 and sv[-1] > tol.rank * sv[0]:
        quad = float(B @ np.linalg.solve(A, B))
        margin = abs(4.0 * q.C - quad)
        ok = not tol.zero(margin, max(1.0, abs(4.0 * q.C), abs(quad)))
        return Admissibility(admissible=ok, mode="exact", margin=margin)
    m = gen_metric(q)
    samples = sampling.draw(m, count=count, seed=seed, box=box)
    fc = metrize.finsler_check(m, samples, tol)
    return Admissibility(admissible=fc.holds, mode="empirical",
                         margin=fc.rank_ratio)


def quadratic_structure_check(spray, report: classify.ClassificationReport,
                              tol: Tolerances = TOL) -> classify.Check:
    """Does the spray's log-potential exponentiate to a degree-2 polynomial?

    The spray must be of the form G^i = P y^i with quadratic coefficients
    (Berwald); then P = sigma_k(x) y^k with a closed base form sigma_k, and
    the spray belongs to the quadratic family above iff u = e^{-2 sigma}
    has vanishing third x-derivatives.  `residual` is the worst |u_{ijk}|
    over the samples, with u normalized to 1 at the chart origin.
    `report` is the spray's classification: its projective_form and
    berwald flags are the preconditions, and its samples and block
    bundles are read, not drawn or built again.  The factor and its
    x-derivatives are taken once per block bundle, and each sample's tests
    and brackets are folded from its row, in sample order.  Raises
    PreconditionError when the spray is not of the required form or
    sigma_k is not closed; the first sample that fails names the error.
    """
    n = spray.dim
    if not report.flags["projective_form"]:
        raise PreconditionError(
            "spray is not of the form G^i = P y^i (worst cross product "
            f"{report.residuals['projective_form']:.3e}); no log-potential "
            "to test")
    if not report.flags["berwald"]:
        raise PreconditionError(
            "spray coefficients are not quadratic in y; the factor has "
            "no x-only base form")

    def factor_jets(b: geometry.CurvatureBundle):
        P = classify.projective_factor(b)
        return [P.dy(i) for i in range(n)]

    def factor_rows(b: geometry.CurvatureBundle) -> list:
        # per row of the block bundle: (y-dependence of sigma, max |sigma|,
        # curl of sigma, max |sigma_{i,j}|, worst bracket), each folded in
        # the (i, j, k) order of one sample's loops
        sig = factor_jets(b)
        sx = [[s.dx(j) for j in range(n)] for s in sig]
        sv = [s.value for s in sig]
        sd = [[u.value for u in row] for row in sx]
        rows = len(b._pa)
        y_dep = [max(abs(v) for v in row) for row in
                 np.array([sig[i].dy(j).value for i in range(n)
                           for j in range(n)]).T.tolist()]
        curl = [max((abs(v) for v in row), default=0.0) for row in
                np.array([sd[i][j] - sd[j][i] for i in range(n)
                          for j in range(i + 1, n)]).reshape(-1, rows).T.tolist()]
        brackets = []
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    brackets.append(
                        sx[i][j].dx(k).value
                        - 2.0 * (sv[i] * sd[j][k] + sv[j] * sd[i][k] + sv[k] * sd[i][j])
                        + 4.0 * sv[i] * sv[j] * sv[k])
        return list(zip(y_dep, classify._row_max(np.array(sv).T, rows), curl,
                        classify._row_max(np.moveaxis(np.array(sd), -1, 0), rows),
                        geometry._folds(brackets, rows)))

    brackets = []
    u_scale = 1.0
    worst = 0.0
    for pt, _, (y_dep, sv_max, curl, sd_max, worst_pt) in classify.sample_rows(
            factor_rows, report.blocks):
        if not tol.zero(y_dep, max(1.0, sv_max)):
            raise PreconditionError(
                f"the factor's base form depends on y ({y_dep:.3e})")
        if not tol.zero(curl, max(1.0, sd_max)):
            raise PreconditionError(
                f"the factor's base form is not closed ({curl:.3e}); "
                "no single-valued potential exists")
        brackets.append((pt, worst_pt))

    # the bracket is u_{ijk} up to the positive factor -2 e^{-2 sigma};
    # recover that factor by integrating sigma from the anchor so the
    # reported residual is the actual third derivative of u, u(0) = 1
    def sigma_at(b) -> np.ndarray:
        return np.stack([s.value for s in factor_jets(b)], axis=1)

    lam = metrize.lambda_field(spray, report.samples, 2, sigma_at)
    lams = lam.values(np.array([pt[:n] for pt, _ in brackets]))
    for (_, br), lam_pt in zip(brackets, lams):
        u_val = lam_pt ** -2.0
        u_scale = max(u_scale, u_val)
        worst = max(worst, 2.0 * u_val * br)
    return classify.Check(holds=tol.zero(worst, u_scale), residual=worst)
