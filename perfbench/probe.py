"""Per-call cost of the jet kernels at one point, each verified as it is timed.

Every timed operation checks its own result to roundoff, so a broken kernel
fails the run instead of reading as fast:
  mul         u * (1/u) == 1
  reciprocal  u * reciprocal(u) == 1
  exp         exp(ln u) == u
  diff        d/dv u against Jet.partial at every multi-index
A kernel that is wrong in the same way everywhere can pass such identities
(1/u computed with a biased multiply cancels the bias), so each product,
reciprocal and exponential is also checked along a random line: restricting
a jet to t -> center + t*d maps it to a univariate series, and that map turns
jet arithmetic into plain series arithmetic computed here without the kernel.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from spraylab import jets

NVARS = (4, 6, 8)  # dims 2, 3 and 4
MUL_ORDERS = (3, 4, 5)
ORDER = 4
BATCHES = 5
BATCH_S = 0.01
ROUNDOFF = 1e-9


def _random_jet(nvars: int, order: int, rng: np.random.Generator) -> jets.Jet:
    sp = jets.space(nvars, order)
    coeffs = rng.uniform(-0.5, 0.5, size=sp.T) / (1.0 + sp._deg)
    coeffs[0] = 1.5
    return jets.Jet(sp, tuple(rng.uniform(-0.5, 0.5, size=nvars)), coeffs)


def _per_call_us(op) -> tuple:
    """Median over batches of the per-call time of `op`, and its last result."""
    rates = []
    for _ in range(BATCHES):
        calls = 0
        t0 = perf_counter()
        while True:
            result = op()
            calls += 1
            elapsed = perf_counter() - t0
            if elapsed >= BATCH_S:
                break
        rates.append(elapsed / calls * 1e6)
    return statistics.median(rates), result


def _off(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _one(n: int) -> np.ndarray:
    return np.eye(1, n)[0]


def _line(j: jets.Jet, d: np.ndarray) -> np.ndarray:
    """Univariate Taylor coefficients of j along center + t*d."""
    sp = j.space
    terms = j.coeffs * np.prod(d ** np.array(sp.alphas), axis=1)
    return np.bincount(sp._deg, weights=terms, minlength=sp.order + 1)


def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)[: len(a)]


def _series_exp(f: np.ndarray) -> np.ndarray:
    g = np.zeros_like(f)
    g[0] = math.exp(f[0])
    for n in range(1, len(f)):
        g[n] = sum(j * f[j] * g[n - j] for j in range(1, n + 1)) / n
    return g


def _diff_error(u: jets.Jet, v: int, d: jets.Jet) -> float:
    got = [d.partial(alpha) for alpha in d.space.alphas]
    want = [u.partial([a + (i == v) for i, a in enumerate(alpha)])
            for alpha in d.space.alphas]
    return _off(got, want)


def run(seed: int) -> tuple:
    """(metrics, errors): per-call microseconds by op, nvars and order."""
    rng = np.random.default_rng(seed)
    metrics: dict = {}
    errors: list = []

    def record(name: str, us: float, *offs: float) -> None:
        metrics[name] = {"value": us, "unit": "us"}
        worst = max(offs)
        if not worst <= ROUNDOFF:
            errors.append(f"{name}: result off by {worst:.3e}")

    for nv in NVARS:
        d = rng.uniform(-1.0, 1.0, size=nv)
        for k in MUL_ORDERS:
            u = _random_jet(nv, k, rng)
            w = u.reciprocal()
            us, prod = _per_call_us(lambda: u * w)
            record(f"jets.mul_us.v{nv}k{k}", us, _off(prod.coeffs, _one(prod.space.T)),
                   _off(_line(prod, d), _series_mul(_line(u, d), _line(w, d))))
        u = _random_jet(nv, ORDER, rng)
        us, r = _per_call_us(u.reciprocal)
        record(f"jets.reciprocal_us.v{nv}k{ORDER}", us,
               _off((u * r).coeffs, _one(u.space.T)),
               _off(_series_mul(_line(u, d), _line(r, d)), _one(ORDER + 1)))
        lu = u.ln()
        us, e = _per_call_us(lu.exp)
        record(f"jets.exp_us.v{nv}k{ORDER}", us, _off(e.coeffs, u.coeffs),
               _off(_line(e, d), _series_exp(_line(lu, d))))
        v = int(rng.integers(nv))
        us, dv = _per_call_us(lambda: u.diff(v))
        record(f"jets.diff_us.v{nv}k{ORDER}", us, _diff_error(u, v, dv))
    return metrics, errors
