"""Shared fixtures for the spraylab test suite."""

from __future__ import annotations

import sys
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from spraylab import classify, geometry, metrize, sampling


def classified(spray, count, seed=7, box=None):
    """The classification report a verdict reads, at order 4 and the
    default tolerances."""
    return classify.classify_spray(spray, count=count, seed=seed, box=box)


@pytest.fixture
def tally(monkeypatch):
    """Count sample draws, bundle builds, scalar splits and quadratures.

    `draws` counts calls of sampling.sample_points, through whichever
    spraylab module binds it.  `bundles` counts builds of point bundles,
    the row bundles of a block bundle included, per (point bytes, order)
    key, so a value above 1 is a rebuilt bundle;
    `splits` counts scalar-split computations per the same key.  `blocks`
    lists the point-block shape of each block bundle built, `row_blocks`
    that of each block bundle whose `rows` returned (a block that fell
    back to point bundles is missing there), and
    `lambda_targets` counts the points a LambdaField integrated to (its
    cache misses).
    """
    counts = {"draws": 0, "bundles": Counter(), "splits": Counter(),
              "blocks": [], "row_blocks": [], "lambda_targets": 0}
    sample_points = sampling.sample_points
    bundle = geometry.CurvatureBundle
    init = bundle.__init__
    rows = bundle.rows
    split = bundle.__dict__["split"]
    call = metrize.LambdaField.__call__

    def counting_sample_points(*args, **kwargs):
        counts["draws"] += 1
        return sample_points(*args, **kwargs)

    def counting_init(b, spray, p, order=4):
        init(b, spray, p, order)
        if b._pa.ndim == 2:
            counts["blocks"].append(b._pa.shape)
        else:
            counts["bundles"][(b._pa.tobytes(), b.order)] += 1

    def counting_rows(b):
        out = rows(b)
        counts["row_blocks"].append(b._pa.shape)
        return out

    def counting_split(b):
        counts["splits"][(b._pa.tobytes(), b.order)] += 1
        return split.func(b)

    def counting_call(field, x):
        if np.asarray(x, dtype=float).tobytes() not in field._cache:
            counts["lambda_targets"] += 1
        return call(field, x)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "spraylab"
                and getattr(module, "sample_points", None) is sample_points):
            monkeypatch.setattr(module, "sample_points", counting_sample_points)
    counted_split = cached_property(counting_split)
    counted_split.__set_name__(bundle, "split")
    monkeypatch.setattr(bundle, "__init__", counting_init)
    monkeypatch.setattr(bundle, "split", counted_split)
    monkeypatch.setattr(bundle, "rows", counting_rows)
    monkeypatch.setattr(metrize.LambdaField, "__call__", counting_call)
    return counts
