"""Seeded structured sampling: determinism, grouping, rejection, exhaustion.

`sample_points` draws a base's tangent tries in one call and moves the
generator back to just after the last try it used; the property test
checks it against the loop that drew one try at a time
(`conftest.loop_sample_points`).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import loop_sample_points

from spraylab import dsl, geometry
from spraylab.errors import DomainError, ParamError, SamplingError
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("bounds, reason", [
    ((1.0, -1.0, 0.5, 1.0), "empty sample box (1.0, -1.0, 0.5, 1.0)"),
    ((-1.0, 1.0, 0.5, 0.5), "empty sample box (-1.0, 1.0, 0.5, 0.5)"),
    ((-1.0, 1.0, NAN, 1.0), "sample box (-1.0, 1.0, nan, 1.0) must be finite"),
    ((-1.0, INF, 0.0, 1.0), "sample box (-1.0, inf, 0.0, 1.0) must be finite"),
], ids=["reversed", "flat", "nan", "inf"])
def test_sample_box_refuses_a_box_that_is_not_finite_or_is_empty(bounds, reason) -> None:
    # a reversed box used to reach numpy's "high - low < 0" in the draw,
    # and a nan bound an OverflowError; a fixture's hint is checked alike
    x_lo, x_hi, y_lo, y_hi = bounds
    for make in (lambda: SampleBox(*bounds),
                 lambda: SampleBox.from_hint({"x": [x_lo, x_hi], "y": [y_lo, y_hi]})):
        with pytest.raises(ParamError, match=f"^{re.escape(reason)}$"):
            make()


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


def test_given_up_bases_are_charged_one_group() -> None:
    # a disc that only a few bases of the box hit: each base outside it
    # tries 10 x 2n tangents and is given up, and must cost the budget
    # one group's worth (1 + 2n), not those 1 + 10 x 2n draws
    def small_disc(pt: np.ndarray) -> bool:
        return pt[0] * pt[0] + pt[1] * pt[1] < 0.12

    s = sample_points(2, count=12, seed=1, accept=small_disc)
    given_up = s.rejected // 40
    assert given_up * (1 + 40) > 10 * (3 + 12)  # past the old budget
    assert s.count == 12
    assert all(small_disc(pt) for pt in s.points())


def test_attempts_stay_bounded_when_nothing_is_admissible() -> None:
    calls = 0

    def never(pt: np.ndarray) -> bool:
        nonlocal calls
        calls += 1
        return False

    with pytest.raises(SamplingError, match="0/3 base groups"):
        sample_points(2, count=12, seed=7, accept=never)
    # at most 10 x (bases + 1) bases, each with at most 10 x 2n tangents
    assert 0 < calls <= 10 * (3 + 1) * 10 * 4


def test_tolerance_zero_test_is_scale_aware() -> None:
    tol = Tolerances()
    assert tol.zero(5e-9)
    assert not tol.zero(5e-7)
    assert tol.zero(5e-5, scale=100.0)
    assert TOL.rank == pytest.approx(1e-6)


def hashed_accept(kind: str, salt: int, calls: list):
    """An accept function that records each point it sees and, by a hash
    of the point (of its x alone for "veto bases"), keeps it, rejects it or
    raises."""
    def accept(pt: np.ndarray):
        calls.append(pt.tobytes())
        key = pt[:len(pt) // 2] if kind == "veto bases" else pt
        h = hashlib.blake2b(key.tobytes(), digest_size=4, salt=bytes([salt])).digest()[0]
        if kind == "raise" and h % 4 == 0:
            raise ZeroDivisionError("vetoed by raising")
        if kind == "never":
            return False
        if kind == "rarely":
            return h % 16 == 0
        return h % 3 != 0
    return accept


def draw_outcome(sampler, calls: list, *args):
    """The sample set's bits and counts, or the SamplingError text, and the
    points `accept` saw, in order."""
    try:
        s = sampler(*args)
        got = (s.bases.tobytes(), s.ys.tobytes(), s.ys.shape, s.candidates, s.rejected)
    except SamplingError as exc:
        got = str(exc)
    return got, list(calls)


BOXES = [None, SampleBox(), SampleBox(-0.5, 0.5, -0.012, 0.012),
         SampleBox(0.1, 2.0, -0.3, 1.7), SampleBox(-1.0, 1.0, -0.05, 0.02)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 4), st.integers(1, 50), st.integers(0, 2**32 - 1),
       st.sampled_from(BOXES),
       st.sampled_from([None, "mostly", "raise", "veto bases", "rarely", "never"]),
       st.integers(0, 255))
def test_sample_points_equals_the_loop_over_tries(dim, count, seed, box, kind, salt) -> None:
    outcomes = []
    for sampler in (sample_points, loop_sample_points):
        calls = []
        accept = None if kind is None else hashed_accept(kind, salt, calls)
        outcomes.append(draw_outcome(sampler, calls, dim, count, seed, box, accept))
    assert outcomes[0] == outcomes[1]
