"""Seeded structured sampling: determinism, grouping, rejection, exhaustion."""

from __future__ import annotations

import numpy as np
import pytest

from spraylab import dsl, geometry
from spraylab.errors import DomainError, SamplingError
from spraylab.sampling import TOL, SampleBox, Tolerances, draw, sample_points

GUARDED = """
dim 2
spray G1 = y2 * sqrt(y1^2 + y2^2) / 2
spray G2 = -(y1 * sqrt(y1^2 + y2^2)) / 2
guard = y1^2 + y2^2 - 0.25
"""


def test_same_seed_reproduces_and_seeds_differ() -> None:
    a = sample_points(2, count=64, seed=7)
    b = sample_points(2, count=64, seed=7)
    c = sample_points(2, count=64, seed=8)
    assert np.array_equal(a.points(), b.points())
    assert not np.array_equal(a.points(), c.points())


def test_grouping_bases_times_two_n() -> None:
    s = sample_points(2, count=64, seed=7)
    assert s.bases.shape == (16, 2)
    assert s.ys.shape == (16, 4, 2)
    assert s.points().shape == (64, 4)
    # count not divisible by 2n rounds up to whole base groups
    t = sample_points(3, count=64, seed=7)
    assert t.bases.shape == (11, 3)
    assert t.points().shape == (66, 6)
    for k, (x, ymat) in enumerate(t.grouped()):
        assert np.array_equal(x, t.bases[k])
        assert ymat.shape == (6, 3)


def test_box_respected_and_tangent_not_tiny() -> None:
    box = SampleBox(x_lo=-0.5, x_hi=0.5, y_lo=-2.0, y_hi=2.0)
    s = sample_points(2, count=32, seed=3, box=box)
    pts = s.points()
    assert np.all(pts[:, :2] >= -0.5) and np.all(pts[:, :2] <= 0.5)
    assert np.all(pts[:, 2:] >= -2.0) and np.all(pts[:, 2:] <= 2.0)
    assert np.all(np.max(np.abs(pts[:, 2:]), axis=1) >= 1e-2)


def test_guard_rejection_keeps_only_admissible_points() -> None:
    pd = dsl.parse(GUARDED)

    def admissible(pt: np.ndarray) -> bool:
        return all(g > 1e-6 for g in pd.guard_values(pt))

    s = sample_points(2, count=64, seed=7, accept=admissible)
    for pt in s.points():
        y1, y2 = pt[2], pt[3]
        assert y1 * y1 + y2 * y2 > 0.25


def test_candidates_minus_rejections_is_points_used() -> None:
    pd = dsl.parse(GUARDED)
    calls = 0

    def admissible(pt: np.ndarray) -> bool:
        nonlocal calls
        calls += 1
        return all(g > 1e-6 for g in pd.guard_values(pt))

    s = sample_points(2, count=64, seed=7, accept=admissible)
    assert s.candidates == calls
    assert s.rejected > 0
    assert s.candidates - s.rejected == s.count == len(s.points())


def test_draw_keeps_points_where_every_guard_clears_the_margin() -> None:
    spray = geometry.ExprSpray(dsl.parse(GUARDED))
    s = draw(spray, count=32, seed=5)
    assert s.count == 32 and s.rejected > 0
    for pt in s.points():
        assert pt[2] ** 2 + pt[3] ** 2 - 0.25 > 1e-6


def test_accept_domain_error_rejects_the_point() -> None:
    def off_domain(pt: np.ndarray) -> bool:
        if pt[2] < 0.0:
            raise DomainError("sqrt of a negative value part")
        return True

    s = sample_points(2, count=16, seed=7, accept=off_domain)
    assert s.rejected > 0
    assert np.all(s.points()[:, 2] >= 0.0)


def test_exhaustion_raises_sampling_error() -> None:
    with pytest.raises(SamplingError):
        sample_points(2, count=8, seed=7, accept=lambda pt: False)


def test_hopeless_base_does_not_drain_the_budget() -> None:
    # an x-only guard makes every tangent draw fail for a rejected base;
    # the sampler has to give up on that base and redraw instead of
    # spending the whole attempt budget there
    def inside_disc(pt: np.ndarray) -> bool:
        return pt[0] * pt[0] + pt[1] * pt[1] < 0.7

    for seed in (7, 8, 11, 23):
        s = sample_points(2, count=32, seed=seed, accept=inside_disc)
        assert s.count >= 32
        for pt in s.points():
            assert inside_disc(pt)


def test_tolerance_zero_test_is_scale_aware() -> None:
    tol = Tolerances()
    assert tol.zero(5e-9)
    assert not tol.zero(5e-7)
    assert tol.zero(5e-5, scale=100.0)
    assert TOL.rank == pytest.approx(1e-6)
