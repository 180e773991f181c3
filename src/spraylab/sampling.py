"""Seeded structured sampling of chart points and tangent vectors.

Sample sets are grouped: a handful of base points x, and for each base 2n
tangent vectors y.  The grouping matters downstream (several procedures fit
x-dependent quantities from the y-spread at a fixed base), so the groups are
kept explicit instead of flattening everything into one cloud.

Rejection is caller-driven: an `accept` callback sees each candidate point
(x followed by y, one flat vector) and can veto it, typically because a guard
expression is nonpositive or a jet probe raised DomainError.  The attempt
budget is 10x the number of accepted draws needed (bases plus tangents),
and a base that is given up is charged one group's worth of it, not every
tangent it tried; running out raises SamplingError rather than silently
thinning the sample.  `draw` is the one guarded draw every procedure uses:
it accepts exactly the points where all of a field's guards clear
GUARD_MARGIN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import SamplingError

# y vectors with all components this small are rejected outright: every
# spray here is positively 2-homogeneous, so near the zero section values
# vanish quadratically and residual scales become meaningless.
Y_FLOOR = 1e-2

# a guard must exceed this margin, not merely be positive, so that no sample
# sits on the boundary of the admissible region, where guarded expressions
# (square-root arguments, denominators) vanish
GUARD_MARGIN = 1e-6


@dataclass(frozen=True)
class Tolerances:
    """Shared numeric slack for identity residuals and rank decisions."""

    abs: float = 1e-8
    rel: float = 1e-6
    rank: float = 1e-6

    def zero(self, r: float, scale: float = 0.0) -> bool:
        return abs(r) <= self.abs + self.rel * abs(scale)


TOL = Tolerances()


@dataclass(frozen=True)
class SampleBox:
    x_lo: float = -0.8
    x_hi: float = 0.8
    y_lo: float = -1.0
    y_hi: float = 1.0

    @classmethod
    def from_hint(cls, hint: dict | None) -> "SampleBox":
        """Build from a fixture hint like {"x": [lo, hi], "y": [lo, hi]}."""
        if not hint:
            return cls()
        x = hint.get("x", (-0.8, 0.8))
        y = hint.get("y", (-1.0, 1.0))
        return cls(float(x[0]), float(x[1]), float(y[0]), float(y[1]))


class SampleSet:
    """Accepted sample points, grouped as bases x tangents.

    `candidates` counts the draws that cleared Y_FLOOR and reached `accept`,
    `rejected` those `accept` vetoed.  Tangents accepted for a base that was
    later given up count as neither used nor rejected, so candidates minus
    rejected can exceed `count`.
    """

    def __init__(self, bases: np.ndarray, ys: np.ndarray,
                 candidates: int = 0, rejected: int = 0):
        self.bases = bases  # (nb, n)
        self.ys = ys  # (nb, m, n)
        self.candidates = candidates
        self.rejected = rejected

    @property
    def count(self) -> int:
        return self.bases.shape[0] * self.ys.shape[1]

    def grouped(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for b in range(self.bases.shape[0]):
            yield self.bases[b], self.ys[b]

    def points(self) -> np.ndarray:
        """All samples flattened to rows (x1..xn, y1..yn)."""
        nb, m, n = self.ys.shape
        xs = np.repeat(self.bases, m, axis=0)
        return np.concatenate([xs, self.ys.reshape(nb * m, n)], axis=1)


def sample_points(
    dim: int,
    count: int = 64,
    seed: int = 7,
    box: SampleBox | None = None,
    accept: Callable[[np.ndarray], bool] | None = None,
) -> SampleSet:
    """Draw ~`count` admissible points as ceil(count/2n) bases x 2n tangents.

    Deterministic for a fixed (dim, count, seed, box): the candidate stream
    comes from one PCG64 generator and rejection only consumes it.

    Each base, and each tangent tried at it, costs one unit of a budget of
    10 x (bases + points).  A base gets at most 10 x 2n tangent tries; one
    that fills no group in them is given up and charged 1 + 2n units, as
    many as a group that fills at once, so a guard that vetoes whole bases
    (one that constrains x alone) cannot drain the budget through their
    tangents.  So at most 10 x (bases + 1) bases are tried, with at most
    10 x 2n tangents at each.
    """
    if count < 1:
        raise SamplingError("sample count must be at least 1")
    box = box or SampleBox()
    rng = np.random.default_rng(seed)
    m = 2 * dim
    nb = -(-count // m)
    budget = 10 * (nb + nb * m)

    candidates = rejected = 0

    def ok(pt: np.ndarray) -> bool:
        nonlocal candidates, rejected
        if np.max(np.abs(pt[dim:])) < Y_FLOOR:
            return False
        candidates += 1
        if accept is None:
            return True
        try:
            good = bool(accept(pt))
        except Exception:
            good = False
        rejected += not good
        return good

    bases = np.empty((nb, dim))
    ys = np.empty((nb, m, dim))
    b = 0
    while b < nb:
        if budget <= 0:
            raise SamplingError(
                f"sampling exhausted after rejections: {b}/{nb} base groups filled"
            )
        budget -= 1
        x = rng.uniform(box.x_lo, box.x_hi, size=dim)
        group = np.empty((m, dim))
        k = 0
        # a base whose guard region excludes most tangents (or all of them,
        # when the guard constrains x alone) must not drain the whole budget;
        # give it a bounded number of tries, then redraw the base
        tries = 10 * m
        start = budget
        while k < m and tries > 0 and budget > 0:
            tries -= 1
            budget -= 1
            y = rng.uniform(box.y_lo, box.y_hi, size=dim)
            if ok(np.concatenate([x, y])):
                group[k] = y
                k += 1
        if k == m:
            bases[b] = x
            ys[b] = group
            b += 1
        else:
            budget = max(budget, start - m)
    return SampleSet(bases, ys, candidates, rejected)


def guards_hold(field, pt: np.ndarray) -> bool:
    """Every guard of `field` (a spray or metric) exceeds GUARD_MARGIN at pt."""
    return all(g > GUARD_MARGIN for g in field.guard_values(pt))


def draw(field, count: int = 64, seed: int = 7,
         box: SampleBox | None = None) -> SampleSet:
    """Sample the admissible region of `field`: the points its guards allow."""
    return sample_points(field.dim, count=count, seed=seed, box=box,
                         accept=lambda pt: guards_hold(field, pt))
