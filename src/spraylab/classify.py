"""Pointwise-sampled structural classification of sprays.

Each structural property (scalar curvature decomposition, isotropy,
constancy, Berwald, projective coordinate form, weak isotropy) is an open
condition tested at sampled points; a spray carries a flag iff the flag
holds at every accepted sample.  All checks are residual-based and total:
nothing raises just because a property fails, the residual simply lands
above tolerance.

Weak isotropy is the one x-wise property here: at each base point the
defect R_.i - 2 tau_i is fitted against the tangent samples as omega_ir y^r
with an x-dependent 2-form omega, so it consumes grouped samples rather
than single points.  Every base's fit is judged against the largest defect
over all bases, so the flag does not depend on the order of the bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, sampling
from .errors import PreconditionError, RankError, SprayLabError
from .sampling import TOL, SampleBox, SampleSet, Tolerances

__all__ = [
    "Check",
    "ConstantCheck",
    "ProjectiveFormCheck",
    "ScalarDecomposition",
    "ClassificationReport",
    "decompose_scalar",
    "is_isotropic",
    "is_constant",
    "is_berwald",
    "is_projective_form",
    "projective_factor",
    "euler_residual",
    "projective_isotropy_residual",
    "point_bundles",
    "classify_samples",
    "classify_spray",
]


@dataclass(frozen=True)
class Check:
    holds: bool
    residual: float


@dataclass(frozen=True)
class ConstantCheck(Check):
    """`residual` is max |tau_{i;k}|; `ric_residual` the equivalent
    max |Ric_{;i}| test, reported only when Ric != 0 at the point."""

    ric_residual: float | None


@dataclass(frozen=True)
class ProjectiveFormCheck(Check):
    """`factor` is P with G^i = P y^i, recovered through the Euclidean
    pairing of the chart; None when the proportionality fails."""

    factor: float | None


@dataclass(frozen=True)
class ScalarDecomposition:
    """R^i_k = R delta^i_k - tau_k y^i at a point, with the jet handles the
    downstream tests differentiate."""

    R: float
    tau: np.ndarray
    residual: float
    holds: bool
    R_jet: object
    tau_jets: tuple


def decompose_scalar(b, tol: Tolerances = TOL) -> ScalarDecomposition:
    Rj, tau, residual = b.split
    return ScalarDecomposition(
        R=Rj.value,
        tau=np.array([t.value for t in tau]),
        residual=residual,
        holds=geometry.split_holds(b, tol),
        R_jet=Rj,
        tau_jets=tuple(tau),
    )


def is_isotropic(dec: ScalarDecomposition, bundle,
                 tol: Tolerances = TOL) -> Check:
    """R_.i = 2 tau_i, cross-checked against the vanishing of chi.

    The two routes are equal identically on scalar-curvature sprays
    (chi_i = (n+1)(R_.i - 2 tau_i)), so when the decomposition holds they
    must agree; disagreement is an engine fault, not a property failure.
    """
    n = bundle.dim
    rdot = np.array([dec.R_jet.dy(i).value for i in range(n)])
    defect = float(np.max(np.abs(rdot - 2.0 * dec.tau)))
    chi_defect = float(np.max(np.abs(bundle.chi_values))) / (n + 1)
    scale = max(abs(dec.R), float(np.max(np.abs(dec.tau))), 1.0)
    if dec.holds and abs(defect - chi_defect) > 1e3 * (tol.abs + tol.rel * scale):
        raise SprayLabError(
            "isotropy defect and chi-curvature disagree on a scalar spray: "
            f"{defect:.3e} vs {chi_defect:.3e}"
        )
    residual = max(defect, chi_defect)
    return Check(holds=dec.holds and tol.zero(residual, scale), residual=residual)


def is_constant(dec: ScalarDecomposition, bundle,
                tol: Tolerances = TOL) -> ConstantCheck:
    """tau_{i;k} = 0; equivalently Ric_{;i} = 0 when Ric != 0."""
    tau_cov = bundle.cov_h(np.array(dec.tau_jets, dtype=object), ("d",))
    residual = float(np.max(np.abs(tau_cov)))
    scale = max(1.0, float(np.max(np.abs(dec.tau))))
    holds = dec.holds and tol.zero(residual, scale)

    ric_residual = None
    ric = bundle.Ric_value
    if not tol.zero(ric, max(1.0, abs(ric))):
        ric_residual = float(np.max(np.abs(bundle.cov_h(bundle.Ric, ()))))
        if holds and not tol.zero(ric_residual, 1e3 * max(1.0, abs(ric))):
            raise SprayLabError(
                "tau_{i;k} vanishes but Ric_{;i} does not; the two "
                "constancy tests must agree on a scalar spray"
            )
    return ConstantCheck(holds=holds, residual=residual, ric_residual=ric_residual)


def is_berwald(b, tol: Tolerances = TOL) -> Check:
    """Quadraticity of G in y: all third vertical derivatives vanish."""
    residual = float(np.max(np.abs(b.B_values)))
    scale = max(1.0, float(np.max(np.abs(b.Gamma_values))))
    return Check(holds=tol.zero(residual, scale), residual=residual)


def _proportional(Gv: np.ndarray, yv: np.ndarray, tol: Tolerances):
    n = len(yv)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, abs(Gv[i] * yv[j] - Gv[j] * yv[i]))
    scale = max(1.0, float(np.max(np.abs(Gv))) * float(np.max(np.abs(yv))))
    holds = tol.zero(worst, scale)
    factor = float(Gv @ yv / (yv @ yv)) if holds else None
    return holds, worst, factor


def is_projective_form(spray, p, order: int = 2,
                       tol: Tolerances = TOL) -> ProjectiveFormCheck:
    """G^i proportional to y^i in the given chart (G^i = P y^i).

    This is a chart-dependent statement: a coordinate change can create or
    destroy the form, so the flag speaks only about the coordinates the
    spray was written in.
    """
    pa = geometry._point_array(p, spray.dim)
    G = spray.coeff_jets(pa, order)
    Gv = np.array([g.value for g in G])
    holds, worst, factor = _proportional(Gv, pa[spray.dim:], tol)
    return ProjectiveFormCheck(holds=holds, residual=worst, factor=factor)


def projective_factor(bundle):
    """The jet of P = G . y / |y|^2, the factor of a spray G^i = P y^i,
    read through the Euclidean pairing of the chart."""
    n = bundle.dim
    S = bundle.G[0].space
    center = bundle.G[0].center
    ys = [S.variable(n + i, center) for i in range(n)]
    num = bundle.G[0] * ys[0]
    den = ys[0] * ys[0]
    for i in range(1, n):
        num = num + bundle.G[i] * ys[i]
        den = den + ys[i] * ys[i]
    return num / den


def euler_residual(bundle, S, degree: int) -> float:
    """Defect of y^i S_.i = degree * S through all jet coefficients.

    Only `bundle.dim` is read, so any spray, metric or bundle of the right
    dimension serves as the first argument.
    """
    n = bundle.dim
    acc = (-float(degree)) * S
    for i in range(n):
        yj = S.space.variable(n + i, S.center)
        acc = acc + yj * S.dy(i)
    return float(np.max(np.abs(acc.coeffs)))


def projective_isotropy_residual(b, tol: Tolerances = TOL) -> float:
    """Defect of the curvature identity tied to the form G^i = P y^i.

    For such sprays the vertical gradient of R and the trace part are
    locked to the factor's derivatives:

        R_.i - 2 tau_i = 3 (P_;i - (P_.i)_{;j} y^j)

    with P read off as G . y / |y|^2 in the chart pairing.  Returns the
    worst componentwise defect of the two sides' values.  Raises
    PreconditionError when the spray is not of that form at the point; the
    identity has no content then.
    """
    n = b.dim
    holds, worst, _ = _proportional(b.G_values, b.yvals, tol)
    if not holds:
        raise PreconditionError(
            "spray is not of the form G^i = P y^i in this chart (worst "
            f"cross product {worst:.3e}); the identity does not apply")
    dec = decompose_scalar(b, tol=tol)
    if not dec.holds:
        raise PreconditionError(
            "scalar decomposition fails at the point (residual "
            f"{dec.residual:.3e})")
    P = projective_factor(b)
    P_semi = b.cov_h(P, ())
    P_cov = b.cov_h(np.array([P.dy(i) for i in range(n)], dtype=object),
                    ("d",))
    out = 0.0
    for i in range(n):
        lhs = dec.R_jet.dy(i).value - 2.0 * dec.tau_jets[i].value
        contracted = sum(b.yvals[j] * P_cov[i, j] for j in range(n))
        out = max(out, abs(lhs - 3.0 * (P_semi[i] - contracted)))
    return float(out)


def _fit_base_omega(Yd: np.ndarray, rows: np.ndarray, tol: Tolerances):
    """Least-squares omega_ir with omega_ir y^r = rows_i per sample."""
    s = np.linalg.svd(Yd, compute_uv=False)
    if s[-1] <= tol.rank * s[0]:
        raise RankError(
            "tangent samples at a base point do not span; cannot fit the "
            "weak-isotropy 2-form"
        )
    X, *_ = np.linalg.lstsq(Yd, rows, rcond=None)
    W = X.T
    fit = float(np.max(np.abs(Yd @ X - rows)))
    anti = float(np.max(np.abs(W + W.T)))
    return (W - W.T) / 2.0, fit, anti


FLAG_NAMES = (
    "scalar",
    "isotropic",
    "constant",
    "berwald",
    "projective_form",
    "weak_isotropic",
)

_CHART_NOTE = (
    "projective_form is chart-dependent: the proportionality G^i = P y^i "
    "was tested in the given coordinates only"
)


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregated flags plus everything the classification computed them from.

    `triples` holds one (point, CurvatureBundle, ScalarDecomposition) per
    sample, in `samples.points()` order; the verdicts, the CLI survey and
    the corpus checks read them instead of drawing and building again, and
    the verdicts take their preconditions from `flags`.
    `omega[b]` is the antisymmetrized weak-isotropy fit at `samples.bases[b]`;
    it is None unless the fit holds at every base.
    """

    flags: dict
    residuals: dict
    per_point: tuple
    omega: np.ndarray | None
    notes: tuple
    samples: SampleSet
    triples: tuple

    @property
    def count(self) -> int:
        return self.samples.count

    @property
    def bases(self) -> np.ndarray:
        return self.samples.bases


# consecutive samples evaluated as one block bundle by `point_bundles`; it
# bounds the memory a block's tensors hold while its rows are read
BLOCK_ROWS = 16


def point_bundles(spray, samples: SampleSet, order: int = 4,
                  tol: Tolerances = TOL):
    """Yield (point, bundle, ScalarDecomposition) for each sample in turn.

    Runs of BLOCK_ROWS consecutive samples share one block bundle, and each
    sample's bundle is a row of it (`CurvatureBundle.rows`), equal bit for
    bit to the bundle built at that point alone.  When evaluating a block
    raises, its samples are built one at a time instead, so the first
    sample that fails on its own decides the error, after the samples
    before it are yielded.  A generator, so a caller that summarizes each
    bundle and drops it holds one block at a time; callers that revisit
    the points collect a tuple.
    """
    pts = samples.points()
    for lo in range(0, len(pts), BLOCK_ROWS):
        block = pts[lo:lo + BLOCK_ROWS]
        try:
            bundles = geometry.CurvatureBundle(spray, block, order).rows()
        except Exception:
            # whatever the block raised, a sample that fails alone raises
            # its own error again below
            bundles = (geometry.CurvatureBundle(spray, pt, order) for pt in block)
        for pt, b in zip(block, bundles):
            yield pt, b, decompose_scalar(b, tol=tol)


def _closed_factor_residual(bundle) -> float:
    """Curl of sigma where P = sigma_i(x) y^i, for the Berwald+projective case."""
    n = bundle.dim
    P = projective_factor(bundle)
    sig = [P.dy(i) for i in range(n)]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, abs(sig[i].dx(j).value - sig[j].dx(i).value))
    return worst


def classify_spray(spray, count: int = 64, seed: int = 7,
                   box: SampleBox | None = None, order: int = 4,
                   tol: Tolerances = TOL) -> ClassificationReport:
    """Sample the spray (`sampling.draw`) and classify the samples."""
    samples = sampling.draw(spray, count=count, seed=seed, box=box)
    return classify_samples(spray, samples, order, tol)


def classify_samples(spray, samples: SampleSet, order: int = 4,
                     tol: Tolerances = TOL) -> ClassificationReport:
    """Classify the spray on the samples; a flag holds iff it holds at
    every sample.

    Also enforces two cross-point theorems as engine self-checks: constant
    curvature with Ric != 0 forces isotropy, and a spray that is Berwald, in
    projective form and isotropic on the whole sample set must have closed
    P.  The second is a statement about the spray, not about one point, so
    it runs only once all three flags hold; a lone point that passes the
    pointwise proportionality test does not trigger it.
    """
    n = spray.dim
    triples = tuple(point_bundles(spray, samples, order, tol))
    m = samples.ys.shape[1]

    per_point = []
    worst = {name: 0.0 for name in FLAG_NAMES}
    rows = np.empty((len(triples), n))
    for i, (_, bun, dec) in enumerate(triples):
        iso = is_isotropic(dec, bun, tol)
        con = is_constant(dec, bun, tol)
        ber = is_berwald(bun, tol=tol)
        prop_holds, prop_res, _ = _proportional(bun.G_values, bun.yvals, tol)

        if con.holds and not tol.zero(bun.Ric_value, 1.0) and not iso.holds:
            raise SprayLabError(
                "constant curvature with Ric != 0 must be isotropic; "
                "classification is inconsistent"
            )

        per_point.append({
            "scalar": dec.holds,
            "isotropic": iso.holds,
            "constant": con.holds,
            "berwald": ber.holds,
            "projective_form": prop_holds,
        })
        worst["scalar"] = max(worst["scalar"], dec.residual)
        worst["isotropic"] = max(worst["isotropic"], iso.residual)
        worst["constant"] = max(worst["constant"], con.residual)
        worst["berwald"] = max(worst["berwald"], ber.residual)
        worst["projective_form"] = max(worst["projective_form"], prop_res)
        if dec.holds:
            rdot = np.array([dec.R_jet.dy(i).value for i in range(n)])
            rows[i] = rdot - 2.0 * dec.tau

    if all(pt["berwald"] and pt["projective_form"] and pt["isotropic"]
           for pt in per_point):
        for _, bun, dec in triples:
            curl = _closed_factor_residual(bun)
            if not tol.zero(curl, max(1.0, abs(dec.R))):
                raise SprayLabError(
                    "Berwald + projective form + isotropic requires a "
                    f"closed projective factor; curl residual {curl:.3e}"
                )

    all_scalar = all(pt["scalar"] for pt in per_point)
    base_rows = rows.reshape(-1, m, n)
    base_flags = []
    omega = None
    if all_scalar:
        omega = np.empty((samples.bases.shape[0], n, n))
        ok = True
        scale = max(1.0, float(np.max(np.abs(rows))))
        for b, (xb, Yd) in enumerate(samples.grouped()):
            omega[b], fit, anti = _fit_base_omega(Yd, base_rows[b], tol)
            res = max(fit, anti)
            worst["weak_isotropic"] = max(worst["weak_isotropic"], res)
            good = tol.zero(fit, scale) and tol.zero(anti, scale)
            base_flags.append(good)
            ok = ok and good
        if not ok:
            omega = None
    else:
        base_flags = [False] * samples.bases.shape[0]
        worst["weak_isotropic"] = float("nan")

    for i, flags in enumerate(per_point):
        flags["weak_isotropic"] = bool(base_flags[i // m]) if base_flags else False

    agg = {name: all(pt[name] for pt in per_point) for name in FLAG_NAMES}
    return ClassificationReport(
        flags=agg,
        residuals=worst,
        per_point=tuple(per_point),
        omega=omega,
        notes=(_CHART_NOTE,),
        samples=samples,
        triples=triples,
    )
