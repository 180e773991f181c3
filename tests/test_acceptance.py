"""The package's acceptance gate.

Nine checks, one test function per check, in a fixed order:

 1. jet curvature tensors agree with the finite-difference oracle on the
    whole corpus, fast;
 2. the rotational spray's curvature scalar and its covariant gradient
    match their closed forms, and the spray is refused a metric;
 3. the ball family is metrizable at exactly one parameter value and the
    recovered metric is the known one;
 4. quadratic potentials round-trip through spray generation, curvature,
    classification and metric recovery;
 5. a non-polynomial potential is caught by the structure check and
    refused;
 6. the curvature identity suite holds across the corpus;
 7. the three main-scalar families pass the weak-isotropy pipeline
    end to end;
 8. projective shifts of constant-curvature metrics match the closed
    metrizability rule;
 9. verdicts are sound on metric-induced fixtures and stable across
    seeds.

Every tolerance below is part of the contract, not a tuning knob.
"""

import functools
import time

import numpy as np
import pytest

from spraylab import classify, corpus, dim2, dsl, geometry, metrize, oracle, pflat
from spraylab.errors import PreconditionError
from spraylab.sampling import sample_points

from conftest import classified, projective_isotropy_residual

EX7 = ("ex7.1", "ex7.2", "ex7.3", "ex7.4", "ex7.5", "ex7.6")
CMS = ("cms19", "cms20", "cms21")


@functools.lru_cache(maxsize=None)
def fixture(name):
    return corpus.load_fixture(name)


@functools.lru_cache(maxsize=None)
def spray_of(name):
    return fixture(name).build()


def guarded(name, count, seed=None):
    fx = fixture(name)
    spray = spray_of(name)

    def accept(pt):
        return all(g > 1e-6 for g in spray.guard_values(pt))

    return sample_points(spray.dim, count=count,
                         seed=fx.seed if seed is None else seed,
                         box=fx.box, accept=accept)


# 1 ---------------------------------------------------------------------------


def test_jet_curvature_agrees_with_finite_differences():
    t0 = time.perf_counter()
    for name in corpus.fixture_names():
        samples = guarded(name, 32)
        spray = spray_of(name)
        report = oracle.agreement_report(
            (geometry.CurvatureBundle(spray, p, 4) for p in samples.points()),
            h=2e-3)
        for tensor in ("R", "chi", "B"):
            entry = report[tensor]
            assert entry["ok"], (
                f"{name}: jet {tensor} disagrees with finite differences "
                f"(worst error {entry['max_err']:.3e}, tolerance "
                f"{entry['worst_tol']:.3e})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s, budget is 10s"


# 2 ---------------------------------------------------------------------------


def test_rotor_curvature_closed_forms_and_verdict():
    spray = spray_of("ex7.2")
    samples = guarded("ex7.2", 64)
    pts = samples.points()
    assert len(pts) >= 64
    for pt in pts:
        x1, x2, y1, y2 = (float(v) for v in pt)
        yy = y1 * y1 + y2 * y2
        b = geometry.CurvatureBundle(spray, pt, 4)
        dec, = classify.decompose_scalar(b)
        assert dec.holds
        assert abs(dec.R - yy) <= 1e-8 * yy
        grad = [g.value for g in b.delta_scalar(b.splits[0])]
        root = np.sqrt(yy)
        want = (y2 * root, -y1 * root)
        for got, ref in zip(grad, want):
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))
    verdict = metrize.decide(spray, count=64, seed=7)
    assert verdict.outcome == "not_metrizable"
    assert verdict.rule == "omega y-dependent"


# 3 ---------------------------------------------------------------------------


def test_ball_family_metrizable_only_at_critical_parameter():
    source = fixture("ex7.3").source
    outcomes = {}
    recovered = None
    for c in (0.5, 1.0, 2.0, 3.0):
        problem = dsl.parse(source, consts={"c": c}, name=f"ball_c{c}")
        spray = geometry.ExprSpray(problem)
        verdict = metrize.decide(spray, count=32, seed=7)
        outcomes[c] = verdict.outcome in metrize.METRIZABLE_OUTCOMES
        if c == 2.0:
            recovered = verdict.recovered_metric
            assert verdict.outcome == "metrizable_with_metric"
    assert outcomes == {0.5: False, 1.0: False, 2.0: True, 3.0: False}, (
        f"sweep verdicts off: {outcomes}")

    assert recovered is not None
    samples = guarded("ex7.3", 32)
    for pt in samples.points():
        x1, x2, y1, y2 = (float(v) for v in pt)
        want = -4.0 * (y1**2 + y2**2) / (1.0 - x1**2 - x2**2) ** 2
        got = recovered.value(pt)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


# 4 ---------------------------------------------------------------------------

GRID_A = ((1.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, 2.0), (1.0, 0.5, 0.5, 2.0))
GRID_BC = (((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0), ((0.3, -0.2), -4.0))


def quadratic_cases():
    for A in GRID_A:
        for B, C in GRID_BC:
            yield pflat.QuadraticData.from_mapping(
                {"A": list(A), "B": list(B), "C": C})
    yield pflat.QuadraticData.from_mapping(
        {"A": [1, 0, 0, 0, 1, 0, 0, 0, 1], "B": [0, 0, 0], "C": 1.0})


def test_quadratic_potentials_round_trip():
    for q in quadratic_cases():
        n = q.dim
        label = f"n={n} A={q.A} B={q.B} C={q.C}"
        assert pflat.admissible(q).admissible, label
        spray = pflat.gen_spray(q)
        metric = pflat.gen_metric(q)

        def accept(pt):
            return all(g > 1e-6 for g in spray.guard_values(pt))

        samples = sample_points(n, count=12, seed=7, accept=accept)
        for pt in samples.points():
            b = geometry.CurvatureBundle(spray, pt, 4)
            induced = geometry.spray_from_metric(metric, pt, 0)
            for g_jet, g_val in zip(induced, b.G_values):
                assert abs(g_jet.value - g_val) <= 1e-8 * max(
                    1.0, abs(g_val)), f"{label}: spray mismatch at {pt}"
            lval = metric.value(pt)
            assert abs(b.Ric_value - (n - 1) * lval) <= 1e-8 * max(
                1.0, abs(lval)), f"{label}: Ric != (n-1) L at {pt}"

        rep = classify.classify_spray(spray, count=12, seed=7)
        for flag in ("berwald", "projective_form", "isotropic", "constant"):
            assert rep.flags[flag], f"{label}: {flag} not detected"
        verdict = metrize.decide(spray, count=12, seed=7)
        assert verdict.outcome == "metrizable_with_metric", label
        assert verdict.rule == "L = Ric/(n-1)", label
        for pt in samples.points():
            got = verdict.recovered_metric.value(pt)
            want = metric.value(pt)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (
                f"{label}: recovered metric off at {pt}")


# 5 ---------------------------------------------------------------------------


def test_exponential_potential_is_refused():
    spray = spray_of("pflat_exp")
    check = pflat.quadratic_structure_check(spray, classified(spray, 32))
    assert not check.holds
    assert check.residual > 0.1  # decisively non-quadratic, not a near miss
    verdict = metrize.decide(spray, count=32, seed=7)
    assert verdict.outcome == "not_metrizable"


# 6 ---------------------------------------------------------------------------


def test_curvature_identity_suite():
    seen = set()
    lemma_seen = 0
    for name in corpus.fixture_names():
        spray = spray_of(name)
        for pt in guarded(name, 8).points():
            b = geometry.CurvatureBundle(spray, pt, 4)
            for key, res in geometry.identity_residuals(b)[0].items():
                seen.add(key)
                assert res <= 1e-8, (
                    f"{name}: identity {key} fails at {pt} "
                    f"(residual {res:.3e})")
            try:
                res = projective_isotropy_residual(b)[0]
            except PreconditionError:
                continue
            lemma_seen += 1
            assert res <= 1e-8, (
                f"{name}: projective isotropy identity fails at {pt} "
                f"(residual {res:.3e})")
    assert seen >= {"bianchi", "curvature_contraction", "tau_trace",
                    "chi_consistency", "scalar_gradient"}
    assert lemma_seen > 0, "no fixture exercised the projective identity"


# 7 ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,omega_form", [
    ("cms19", lambda x1, x2: 1.0 / (1.0 + x1 + x2) ** 2),
    ("cms20", lambda x1, x2: -2.0 / (1.0 + x1 + x2) ** 2),
    ("cms21", lambda x1, x2: 2.0),
])
def test_main_scalar_family_weak_isotropy(name, omega_form):
    fx = fixture(name)
    spray = spray_of(name)
    rep = classify.classify_spray(spray, count=12, seed=fx.seed, box=fx.box)
    samples = rep.samples
    assert rep.flags["weak_isotropic"], (
        f"{name}: weak isotropy rejected "
        f"({rep.residuals['weak_isotropic']:.3e})")
    for bidx, base in enumerate(samples.bases):
        want = omega_form(float(base[0]), float(base[1]))
        got = float(rep.omega[bidx][0, 1])
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (
            f"{name}: fitted omega_12 at {base} is {got}, closed form "
            f"gives {want}")
    metric = fx.metric()
    for pt in samples.points()[:4]:
        res, = dim2.flag_ode_residual(metric, geometry.CurvatureBundle(spray, pt, 4))
        assert res <= 1e-6, f"{name}: flag ODE residual {res:.3e} at {pt}"


# 8 ---------------------------------------------------------------------------


def test_projective_shift_grid():
    flat_metric = geometry.ExprMetric(dsl.parse(
        "dim 2\nmetric L = y1^2 + y2^2\n", name="flat_metric"))
    curved_metric = fixture("elliptic2").metric()
    grid = [
        (flat_metric, 0.0, True),    # lambda 0, no shift
        (flat_metric, 1.0, False),   # lambda 0, c^2 = 1
        (curved_metric, 2.0, False), # lambda 1, c^2 = 4
    ]
    for metric, c, expect in grid:
        shifted, verdict = metrize.projective_shift(metric, c, count=12,
                                                    seed=7)
        engine = verdict.outcome in metrize.METRIZABLE_OUTCOMES
        assert engine == verdict.evidence["closed_rule_metrizable"], (
            f"c={c}: engine and closed rule disagree")
        assert engine == expect, (
            f"c={c}: expected metrizable={expect}, engine said "
            f"{verdict.outcome}")


# 9 ---------------------------------------------------------------------------


def test_verdicts_sound_and_seed_stable():
    seeds = (7, 8, 11)
    for name in ("elliptic2",) + CMS:
        fx = fixture(name)
        spray = spray_of(name)
        for seed in seeds:
            v = metrize.decide(spray, count=fx.count, seed=seed, box=fx.box)
            assert v.outcome != "not_metrizable", (
                f"{name} (seed {seed}): a metric-induced spray was declared "
                f"not metrizable: {v.rule}")
    for name in EX7:
        fx = fixture(name)
        spray = spray_of(name)
        for seed in seeds:
            v = metrize.decide(spray, count=fx.count, seed=seed, box=fx.box)
            assert v.outcome == fx.verdict["outcome"], (
                f"{name} (seed {seed}): verdict {v.outcome}, fixture "
                f"records {fx.verdict['outcome']}")
            assert v.rule == fx.verdict["rule"], (
                f"{name} (seed {seed}): rule {v.rule!r}, fixture records "
                f"{fx.verdict['rule']!r}")
