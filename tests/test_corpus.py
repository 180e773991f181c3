"""Fixture corpus: registry behaviour and full replays.

The heavy lifting (are the expectations right?) was frozen when the fixture
records were written; here we replay every fixture end to end and assert the
engine still agrees, plus exercise the registry edges (aliases, unknown
names, seed overrides).
"""

from __future__ import annotations

import numpy as np
import pytest

from spraylab import corpus, geometry, metrize, sampling
from spraylab.errors import PreconditionError, UnknownFixture

ALL_NAMES = corpus.fixture_names()


def test_registry_contents() -> None:
    assert ALL_NAMES == tuple(sorted(ALL_NAMES))
    for name in ("flat", "ex7.1", "ex7.2", "ex7.3", "ex7.4", "ex7.5", "ex7.6",
                 "elliptic2", "pflat_exp", "pflat_lin", "nonscalar3",
                 "cms19", "cms20", "cms21"):
        assert name in ALL_NAMES
    assert len(ALL_NAMES) == 14


def test_alias_lookup_is_case_insensitive() -> None:
    assert corpus.load_fixture("WHIRL").name == "ex7.1"
    assert corpus.load_fixture("Ball").name == "ex7.3"
    assert corpus.load_fixture("minkowski").name == "flat"
    assert corpus.load_fixture("  ex7.6 ").name == "ex7.6"


def test_unknown_fixture() -> None:
    with pytest.raises(UnknownFixture, match="nope"):
        corpus.load_fixture("nope")


def test_fixture_fields() -> None:
    fx = corpus.load_fixture("ex7.3")
    assert fx.kind == "spray"
    assert fx.problem.consts["c"] == 2
    assert fx.box is None
    assert "projective_form" in fx.note

    cms = corpus.load_fixture("cms19")
    assert cms.kind == "metric"
    assert cms.box is not None
    assert isinstance(cms.metric(), geometry.ExprMetric)


def test_metric_side_requires_metric_fixture() -> None:
    with pytest.raises(PreconditionError, match="no metric side"):
        corpus.load_fixture("ex7.1").metric()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_fixture_replays_clean(name: str) -> None:
    rep = corpus.run_fixture(name)
    assert rep.passed, "\n".join(rep.lines())
    for worst in rep.checks.values():
        assert np.isfinite(worst)


@pytest.mark.parametrize("name", ["flat", "ex7.2", "ex7.4", "cms20"])
def test_verdict_stable_under_other_seeds(name: str) -> None:
    base = corpus.run_fixture(name)
    for seed in (8, 11):
        rep = corpus.run_fixture(name, seed=seed)
        assert rep.passed, "\n".join(rep.lines())
        assert rep.verdict.outcome == base.verdict.outcome
        assert rep.verdict.rule == base.verdict.rule


def test_more_points_do_not_flip_expectations() -> None:
    rep = corpus.run_fixture("ex7.4", count=20)
    assert rep.passed, "\n".join(rep.lines())


def test_replay_draws_once(tally) -> None:
    # the verdict routes the classification's report and every check runs
    # on its samples
    assert corpus.run_fixture("ex7.2").passed
    assert tally["draws"] == 1


def test_ex7_5_seed_4_replays_clean() -> None:
    rep = corpus.run_fixture("ex7.5", seed=4)
    assert rep.passed, rep.diffs
    assert not rep.flags["projective_form"]


def test_summary_shape() -> None:
    rep = corpus.run_fixture("ex7.2")
    assert rep.summary().startswith("pass: ")
    assert "isotropic=true" in rep.summary()
    assert "verdict=not_metrizable" in rep.summary()
    assert rep.lines()[0].startswith("[ex7.2]")


def test_check_residuals_keyed_by_name() -> None:
    fx = corpus.load_fixture("ex7.2")
    rep = corpus.run_fixture("ex7.2")
    assert set(rep.checks) == {c["name"] for c in fx.checks}


def test_checks_catch_wrong_expectations() -> None:
    """The diff machinery must actually fire, not vacuously pass."""
    fx = corpus.load_fixture("ex7.2")
    spray = fx.build()
    samples = sampling.draw(spray, 8, 7, fx.box)
    chk = {"name": "bogus", "kind": "scalar_expr", "field": "R",
           "expr": "y1^2", "atol": 1e-8}
    worst, bad = corpus._chk_scalar_expr(fx, spray, None, samples, chk,
                                         corpus.TOL)
    assert bad and "bogus" in bad[0]
    assert worst > 1e-3


def test_recovered_check_reports_missing_metric() -> None:
    fx = corpus.load_fixture("ex7.2")
    spray = fx.build()
    samples = sampling.draw(spray, 8, 7, fx.box)
    verdict = metrize.decide(spray, count=8, seed=7)
    chk = {"name": "ghost", "kind": "recovered_expr", "expr": "y1^2"}
    worst, bad = corpus._chk_recovered_expr(fx, spray, verdict, samples, chk,
                                            corpus.TOL)
    assert np.isnan(worst)
    assert bad and "no recovered metric" in bad[0]
