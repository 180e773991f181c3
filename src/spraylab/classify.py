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

The samples are evaluated in blocks of BLOCK_ROWS (`point_bundles`), so a
default sample set is one block.  Each class test (`is_isotropic`,
`is_constant`, `is_berwald`, `_proportional`) is taken once per block: its
arithmetic and max-abs reductions run over the block's rows, while each
row's scale, tolerance test and self-check stay Python float code in
sample order, so every row's answer has the bits of the test at its point
alone.  A block that raises follows `rowwise`, and the self-check of the
projective factor reads the block bundles through a `geometry.RowReader`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import geometry, sampling
from .errors import PreconditionError, RankError, SprayLabError
from .sampling import TOL, SampleBox, SampleSet, Tolerances

__all__ = [
    "Check",
    "ConstantCheck",
    "ScalarDecomposition",
    "ClassificationReport",
    "decompose_scalar",
    "is_isotropic",
    "is_constant",
    "is_berwald",
    "projective_factor",
    "euler_residual",
    "projective_isotropy_residual",
    "rowwise",
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


def _rows(dec, bundle) -> list:
    """The decompositions of the bundle's rows: `dec` itself at a block
    bundle, where the class tests take one per row, else [dec]."""
    return list(dec) if bundle.point is None else [dec]


def _row_max(values: np.ndarray, rows: int) -> list:
    """max |v| over each row's entries of a value array, as Python floats;
    numpy's max keeps a nan, as it does over one point's entries."""
    return np.max(np.abs(np.reshape(values, (rows, -1))), axis=-1).tolist()


def _taus(decs: list, n: int) -> np.ndarray:
    """The rows' tau values as one C-contiguous (rows, n) array."""
    return np.array([d.tau for d in decs]).reshape(len(decs), n)


def is_isotropic(dec: ScalarDecomposition, bundle,
                 tol: Tolerances = TOL):
    """R_.i = 2 tau_i, cross-checked against the vanishing of chi.

    The two routes are equal identically on scalar-curvature sprays
    (chi_i = (n+1)(R_.i - 2 tau_i)), so when the decomposition holds they
    must agree; disagreement is an engine fault, not a property failure.
    `dec` is the bundle's decomposition; R_.i is read off the bundle
    (`rdot_values`).

    At a block bundle `dec` is the sequence of its rows' decompositions
    and the result is one Check per row.  The differences and the max-abs
    reductions run once over the block's rows; each row's scale, its
    tolerance test and the engine self-check stay Python float code, row
    by row, so the first row that fails the self-check raises, and every
    row's Check has the bits of the call at its point.
    """
    n = bundle.dim
    decs = _rows(dec, bundle)
    tau = _taus(decs, n)
    defects = _row_max(bundle.rdot_values.reshape(len(decs), n) - 2.0 * tau, len(decs))
    chis = _row_max(bundle.chi_values, len(decs))
    tau_max = _row_max(tau, len(decs))
    out = []
    for d, defect, chi, tau_r in zip(decs, defects, chis, tau_max):
        chi_defect = chi / (n + 1)
        scale = max(abs(d.R), tau_r, 1.0)
        if d.holds and abs(defect - chi_defect) > 1e3 * (tol.abs + tol.rel * scale):
            raise SprayLabError(
                "isotropy defect and chi-curvature disagree on a scalar spray: "
                f"{defect:.3e} vs {chi_defect:.3e}"
            )
        residual = max(defect, chi_defect)
        out.append(Check(holds=d.holds and tol.zero(residual, scale),
                         residual=residual))
    return out if bundle.point is None else out[0]


def is_constant(dec: ScalarDecomposition, bundle,
                tol: Tolerances = TOL):
    """tau_{i;k} = 0; equivalently Ric_{;i} = 0 when Ric != 0.

    `dec` is the bundle's decomposition; both covariant derivatives are
    read off the bundle (`tau_cov`, `ric_cov`).  At a block bundle, as for
    `is_isotropic`: `dec` holds the rows' decompositions, the result is
    one ConstantCheck per row, and the self-check raises at the first row
    that fails it.
    """
    decs = _rows(dec, bundle)
    rows = len(decs)
    residuals = _row_max(bundle.tau_cov, rows)
    tau_max = _row_max(_taus(decs, bundle.dim), rows)
    rics = np.reshape(bundle.Ric_value, -1).tolist()
    ric_covs = None
    out = []
    for r, d in enumerate(decs):
        residual, ric = residuals[r], rics[r]
        holds = d.holds and tol.zero(residual, max(1.0, tau_max[r]))
        ric_residual = None
        if not tol.zero(ric, max(1.0, abs(ric))):
            if ric_covs is None:
                ric_covs = _row_max(bundle.ric_cov, rows)
            ric_residual = ric_covs[r]
            if holds and not tol.zero(ric_residual, 1e3 * max(1.0, abs(ric))):
                raise SprayLabError(
                    "tau_{i;k} vanishes but Ric_{;i} does not; the two "
                    "constancy tests must agree on a scalar spray"
                )
        out.append(ConstantCheck(holds=holds, residual=residual,
                                 ric_residual=ric_residual))
    return out if bundle.point is None else out[0]


def is_berwald(b, tol: Tolerances = TOL):
    """Quadraticity of G in y: all third vertical derivatives vanish.  One
    Check per row at a block bundle."""
    rows = len(np.reshape(b.yvals, (-1, b.dim)))
    scales = _row_max(b.Gamma_values, rows)
    out = [Check(holds=tol.zero(residual, max(1.0, scale)), residual=residual)
           for residual, scale in zip(_row_max(b.B_values, rows), scales)]
    return out if b.point is None else out[0]


def _proportional(Gv: np.ndarray, yv: np.ndarray, tol: Tolerances):
    """(holds, worst cross product) of G^i = P y^i at a point's values, or
    a list of them for the (B, n) values of a block: the cross products
    are taken over the block's rows, and each row folds its worst with
    Python max in pair order, as at its point."""
    n = Gv.shape[-1]
    G2, y2 = np.reshape(Gv, (-1, n)), np.reshape(yv, (-1, n))
    accs = [G2[:, i] * y2[:, j] - G2[:, j] * y2[:, i]
            for i in range(n) for j in range(i + 1, n)]
    worsts = geometry._folds(accs, len(G2))
    out = [(tol.zero(worst, max(1.0, g * y)), worst)
           for worst, g, y in zip(worsts, _row_max(G2, len(G2)), _row_max(y2, len(y2)))]
    return out if Gv.ndim == 2 else out[0]


def projective_factor(bundle, order: int | None = None):
    """The jet of P = G . y / |y|^2, the factor of a spray G^i = P y^i,
    read through the Euclidean pairing of the chart; of order `order` when
    given, from the jets of G truncated to it, whose coefficients are the
    low ones of the full jets (truncation is exact), and so are P's."""
    n = bundle.dim
    G = bundle.G if order is None else [g.truncated(order) for g in bundle.G]
    S = G[0].space
    center = G[0].center
    ys = [S.variable(n + i, center) for i in range(n)]
    num = G[0] * ys[0]
    den = ys[0] * ys[0]
    for i in range(1, n):
        num = num + G[i] * ys[i]
        den = den + ys[i] * ys[i]
    return num / den


def euler_residual(S, degree: int) -> float:
    """Defect of y^i S_.i = degree * S through all jet coefficients.

    S is a jet in the 2n variables (x, y) of TM.  A block jet gives one
    defect per row, as an array.
    """
    n = S.space.nvars // 2
    acc = (-float(degree)) * S
    for i in range(n):
        yj = S.space.variable(n + i, S.center)
        acc = acc + yj * S.dy(i)
    worst = np.max(np.abs(acc.coeffs), axis=-1)
    return float(worst) if worst.ndim == 0 else worst


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
    holds, worst = _proportional(b.G_values, b.yvals, tol)
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
        lhs = b.rdot_values[i] - 2.0 * dec.tau[i]
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


# consecutive samples evaluated as one block bundle by `point_bundles`, so
# that a default sample set (64 points, 66 in dim 3) is one block; it
# bounds the memory a block's tensors hold while its rows are read, which
# grows with the block.  Peak of one process (2-vCPU x86, numpy 2.4) at 258
# samples, blocks of 16 rows / of this bound / one block: `classify
# nonscalar3 --points 256` 44.7 / 45.9 / 48.9 MB, `oracle` 39.2 / 46.6 /
# 48.9 MB.
BLOCK_ROWS = 128


def blocks(points: np.ndarray) -> list:
    """The points in runs of BLOCK_ROWS consecutive rows: the blocks whose
    bundles `point_bundles` builds, and that the metric checks reuse."""
    return [points[lo:lo + BLOCK_ROWS] for lo in range(0, len(points), BLOCK_ROWS)]


def rowwise(run, block):
    """Yield the per-row entries of `run(block)`, in row order.

    This is the rule for a block that raises, for every stage that runs
    the rows of a block of samples or nodes at once: when `run(block)`
    raises, whatever it raised, each row is run alone, as the one-row
    slice `block[r:r + 1]`, in row order, so the first row that fails
    alone raises its own error, after the entries of the rows before it
    are yielded.  `run` gives one entry per row of what it is given, each
    equal, bit for bit, to the row's entry in a block.
    """
    try:
        entries = run(block)
    except Exception:
        for r in range(len(block)):
            yield from run(block[r:r + 1])
        return
    yield from entries


def point_bundles(spray, samples: SampleSet, order: int = 4,
                  tol: Tolerances = TOL):
    """Yield (point, bundle, ScalarDecomposition) for each sample in turn.

    Runs of BLOCK_ROWS consecutive samples share one block bundle, and each
    sample's bundle is a row of it (`CurvatureBundle.rows`), equal bit for
    bit to the bundle built at that point alone; a block that raises is
    run under the rule of `rowwise`.  A generator, so a caller that
    summarizes each bundle and drops it holds one block at a time; callers
    that revisit the points collect a tuple.
    """
    def rows(points):
        return geometry.CurvatureBundle(spray, points, order).rows()

    for block in blocks(samples.points()):
        for pt, b in zip(block, rowwise(rows, block)):
            yield pt, b, decompose_scalar(b, tol=tol)


def _closed_factor_residual(bundle):
    """Curl of sigma where P = sigma_i(x) y^i, for the Berwald+projective
    case; one per row at a block bundle, each folded as at its point.  The
    curl reads second derivatives of P only, so P is taken at order 2,
    which keeps a block's jets small."""
    n = bundle.dim
    P = projective_factor(bundle, 2)
    sig = [P.dy(i) for i in range(n)]
    curls = [np.reshape(sig[i].dx(j).value - sig[j].dx(i).value, -1)
             for i in range(n) for j in range(i + 1, n)]
    worst = geometry._folds(curls, len(np.reshape(bundle.yvals, (-1, n))))
    return worst if bundle.point is None else worst[0]


def _block_of(triple):
    """The block bundle a sample's bundle is a row of, else the bundle."""
    b = triple[1]
    return b if b._block is None else b._block[0]


def _class_rows(run, tol: Tolerances) -> list:
    """(isotropy, constancy, Berwald, proportionality, R_.i - 2 tau_i) of
    each (point, bundle, decomposition) triple of `run`: the triples of
    one block bundle's rows, whose class tests are each taken once at the
    block, or a single sample, taken at its bundle."""
    _, b, dec = run[0]
    if len(run) > 1:
        b, dec = b._block[0], [d for _, _, d in run]
    checks = [is_isotropic(dec, b, tol), is_constant(dec, b, tol),
              is_berwald(b, tol), _proportional(b.G_values, b.yvals, tol)]
    if len(run) == 1:
        checks = [[c] for c in checks]
    defects = (b.rdot_values.reshape(len(run), b.dim)
               - 2.0 * _taus([d for _, _, d in run], b.dim))
    return list(zip(*checks, defects))


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

    def judged(run):
        return _class_rows(run, tol)

    entries = (entry for _, run in itertools.groupby(triples, key=_block_of)
               for entry in rowwise(judged, tuple(run)))
    per_point = []
    worst = {name: 0.0 for name in FLAG_NAMES}
    rows = np.empty((len(triples), n))
    for i, ((_, bun, dec), (iso, con, ber, prop, defect)) in enumerate(
            zip(triples, entries)):
        prop_holds, prop_res = prop
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
        rows[i] = defect

    if all(pt["berwald"] and pt["projective_form"] and pt["isotropic"]
           for pt in per_point):
        closed_factor = geometry.RowReader(_closed_factor_residual)
        for _, bun, dec in triples:
            curl = closed_factor(bun)
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
