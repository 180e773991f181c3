"""Curvature invariants and metrizability decisions for sprays.

The package evaluates spray curvature (Riemann, Ricci, chi, Berwald) by
truncated jet arithmetic at sampled chart points, classifies sprays
(scalar / isotropic / constant curvature, Berwald, projective form, weak
isotropy) and runs Finsler-metrizability decision procedures that recover
the metric when one exists.

Modules:
    jets:      truncated multivariate Taylor arithmetic, the derivative
               carrier everything else is built on.
    dsl:       the small expression language .spray files are written in.
    geometry:  sprays, metrics, and the CurvatureBundle of tensors at a
               point; spray_from_metric; covariant derivatives.
    classify:  per-point curvature tests and the sampled ClassificationReport,
               which keeps its samples and per-point curvature bundles.
    metrize:   decision procedures; route() hands a ClassificationReport to
               the sharpest rule its flags license, and decide() is
               classify_spray() followed by route().  A spray not of scalar
               curvature comes back inconclusive.
    pflat:     projectively flat sprays/metrics generated from quadratic
               potential data, with structure checks.
    dim2:      Berwald frames, main scalar, and the flag-curvature ODE
               residual for two-dimensional Finsler metrics.
    corpus:    named example fixtures with machine-checked expectations.
    oracle:    finite-difference cross-check of the jet tensors.
    sampling:  seeded, guarded drawing of base points and tangent vectors;
               draw() is the one guarded draw every procedure uses.
    cli:       the `spraylab` command (classify / metrize / gen-pflat /
               oracle) emitting deterministic JSON reports.
"""

from .classify import ClassificationReport, classify_spray, decompose_scalar
from .corpus import fixture_names, load_fixture, run_fixture
from .dsl import parse
from .errors import SprayLabError
from .geometry import (
    CurvatureBundle,
    ExprMetric,
    ExprSpray,
    MetricSpray,
    spray_from_metric,
)
from .metrize import Verdict, decide, finsler_check, projective_shift
from .sampling import TOL, SampleBox, Tolerances, sample_points

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "CurvatureBundle",
    "ExprMetric",
    "ExprSpray",
    "MetricSpray",
    "SampleBox",
    "SprayLabError",
    "TOL",
    "Tolerances",
    "Verdict",
    "classify_spray",
    "decide",
    "decompose_scalar",
    "finsler_check",
    "fixture_names",
    "load_fixture",
    "parse",
    "projective_shift",
    "run_fixture",
    "sample_points",
    "spray_from_metric",
    "__version__",
]
