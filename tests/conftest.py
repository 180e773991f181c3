"""Shared fixtures for the spraylab test suite."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from spraylab import geometry, sampling


@pytest.fixture
def tally(monkeypatch):
    """Count sample draws and CurvatureBundle builds while a test runs.

    `draws` counts calls of sampling.sample_points, through whichever
    spraylab module binds it; `bundles` counts builds per (point bytes,
    order) key, so a value above 1 is a rebuilt bundle.
    """
    counts = {"draws": 0, "bundles": Counter()}
    sample_points = sampling.sample_points
    init = geometry.CurvatureBundle.__init__

    def counting_sample_points(*args, **kwargs):
        counts["draws"] += 1
        return sample_points(*args, **kwargs)

    def counting_init(bundle, spray, p, order=4):
        init(bundle, spray, p, order)
        counts["bundles"][(bundle._pa.tobytes(), bundle.order)] += 1

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "spraylab"
                and getattr(module, "sample_points", None) is sample_points):
            monkeypatch.setattr(module, "sample_points", counting_sample_points)
    monkeypatch.setattr(geometry.CurvatureBundle, "__init__", counting_init)
    return counts
