"""Spans and counters around the entry points of each spraylab module.

Nothing under ``src/`` knows about tracing: `Tracer.install` replaces module
functions and class methods with wrappers, in the defining module and in
every spraylab module that imported the same object by name, and
`Tracer.uninstall` puts the originals back.

A span records (name, start, end, parent span, job id).  Spans are kept in
memory and written out by `Tracer.dump` when the run ends.  A span's self
time is its duration minus the time its child spans cover; the per-layer
metrics are sums of self times and counts, named in `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

import numpy as np

# metric name -> (unit, kind, key); kind "self" sums span self time, "calls"
# counts span entries, "count" reads a counter, "ratio" is computed in
# `layer_metrics`.
LAYER_METRICS = {
    "cli.self_s": ("s", "self", "cli.main"),
    "cli.json_s": ("s", "self", "cli.json"),
    "sampling.calls": ("count", "calls", "sampling.sample_points"),
    "sampling.candidates": ("count", "count", "sampling.candidates"),
    "sampling.rejected": ("count", "count", "sampling.rejected"),
    "sampling.s": ("s", "self", "sampling.sample_points"),
    "dsl.parse_calls": ("count", "calls", "dsl.parse"),
    "dsl.parse_s": ("s", "self", "dsl.parse"),
    "dsl.evaluate_calls": ("count", "calls", "dsl.evaluate"),
    "dsl.evaluate_s": ("s", "self", "dsl.evaluate"),
    "jets.mul_calls": ("count", "count", "jets.mul"),
    "jets.mul_madds": ("count", "count", "jets.mul_madds"),
    "jets.diff_calls": ("count", "count", "jets.diff"),
    "jets.compose_calls": ("count", "count", "jets.compose"),
    "jets.reciprocal_calls": ("count", "count", "jets.reciprocal"),
    "jets.matrix_inverse_s": ("s", "self", "jets.matrix_inverse"),
    "jets.spaces": ("count", "calls", "jets.space_build"),
    "jets.space_build_s": ("s", "self", "jets.space_build"),
    "geometry.bundles_built": ("count", "count", "geometry.bundles_built"),
    "geometry.bundles_distinct": ("count", "count", "geometry.bundles_distinct"),
    "geometry.bundle_reuse": ("ratio", "ratio", None),
    "geometry.bundle_s": ("s", "self", "geometry.bundle"),
    "geometry.coeff_jets_calls": ("count", "calls", "geometry.coeff_jets"),
    "geometry.coeff_jets_s": ("s", "self", "geometry.coeff_jets"),
    "geometry.cov_h_calls": ("count", "calls", "geometry.cov_h"),
    "geometry.cov_h_s": ("s", "self", "geometry.cov_h"),
    "geometry.identity_residuals_s": ("s", "self", "geometry.identity_residuals"),
    "geometry.spray_from_metric_calls": ("count", "calls", "geometry.spray_from_metric"),
    "geometry.spray_from_metric_s": ("s", "self", "geometry.spray_from_metric"),
    "classify.classify_spray_s": ("s", "self", "classify.classify_spray"),
    "classify.decompose_scalar_calls": ("count", "count", "classify.decompose_scalar"),
    "metrize.decide_s": ("s", "self", "metrize.decide"),
    "metrize.verdict_constant_s": ("s", "self", "metrize.verdict_constant"),
    "metrize.verdict_isotropic_s": ("s", "self", "metrize.verdict_isotropic"),
    "metrize.nonmetrizable_scalar_s": ("s", "self", "metrize.nonmetrizable_scalar"),
    "metrize.certify_s": ("s", "self", "metrize.certify"),
    "metrize.finsler_check_s": ("s", "self", "metrize.finsler_check"),
    "metrize.lambda_calls": ("count", "calls", "metrize.lambda"),
    "metrize.lambda_cache_hits": ("count", "count", "metrize.lambda_cache_hits"),
    "metrize.quadrature_nodes": ("count", "count", "metrize.quadrature_nodes"),
    "metrize.lambda_s": ("s", "self", "metrize.lambda"),
    "metrize.metric_value_s": ("s", "self", "metrize.metric_value"),
    "pflat.admissible_s": ("s", "self", "pflat.admissible"),
    "pflat.structure_check_s": ("s", "self", "pflat.structure_check"),
    "dim2.frame_s": ("s", "self", "dim2.frame"),
    "dim2.flag_ode_s": ("s", "self", "dim2.flag_ode"),
    "corpus.run_fixture_s": ("s", "self", "corpus.run_fixture"),
    "oracle.agreement_report_s": ("s", "self", "oracle.agreement_report"),
    "oracle.fd_curvature_calls": ("count", "calls", "oracle.fd_curvature"),
    "oracle.fd_curvature_s": ("s", "self", "oracle.fd_curvature"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.job = "setup"
        self._stack: list = []  # [span index, time covered by children]
        self._undo: list = []
        self._spray_ids: dict = {}  # id -> (spray, serial); holds sprays alive
        self._bundle_keys: set = set()

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                spans[idx] = (name, start, end, parent, self.job)
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(sp, a, b):
            counts["jets.mul"] += 1
            counts["jets.mul_madds"] += len(sp._mul_table[0])
            return fn(sp, a, b)

        return wrapper

    def _sample_points(self, fn):
        counts = self.counts

        def count_accept(accept):
            # same result and same exceptions as `accept`; sample_points
            # turns an exception into a rejection, so count it as one
            def wrapper(pt):
                counts["sampling.candidates"] += 1
                try:
                    ok = accept(pt)
                except Exception:
                    counts["sampling.rejected"] += 1
                    raise
                if not ok:
                    counts["sampling.rejected"] += 1
                return ok
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs.get("accept") is not None:
                kwargs["accept"] = count_accept(kwargs["accept"])
            elif len(args) > 4 and args[4] is not None:
                args = args[:4] + (count_accept(args[4]),) + args[5:]
            return fn(*args, **kwargs)

        return self.span("sampling.sample_points", wrapper)

    def _bundle_init(self, fn):
        counts, keys, ids = self.counts, self._bundle_keys, self._spray_ids

        @functools.wraps(fn)
        def wrapper(bundle, spray, *args, **kwargs):
            fn(bundle, spray, *args, **kwargs)
            if id(spray) not in ids:
                ids[id(spray)] = (spray, len(ids))
            counts["geometry.bundles_built"] += 1
            # _pa is the bundle's point as an array
            keys.add((ids[id(spray)][1], bundle._pa.tobytes(), bundle.order))
            counts["geometry.bundles_distinct"] = len(keys)

        return self.span("geometry.bundle", wrapper)

    def _lambda_call(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(field, x):
            # the same key LambdaField.__call__ looks up in its cache
            key = np.asarray(x, dtype=float).tobytes()
            if key in field._cache:
                counts["metrize.lambda_cache_hits"] += 1
            else:
                counts["metrize.quadrature_nodes"] += field.panels * field.nodes
            return fn(field, x)

        return self.span("metrize.lambda", wrapper)

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module, attr: str, wrap) -> None:
        orig = getattr(module, attr)
        new = wrap(orig)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if name != "spraylab" and not name.startswith("spraylab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def _patch_method(self, cls, attr: str, wrap) -> None:
        orig = cls.__dict__[attr]
        if isinstance(orig, cached_property):
            new = cached_property(wrap(orig.func))
            new.__set_name__(cls, attr)
        else:
            new = wrap(orig)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, orig))

    def install(self) -> None:
        from spraylab import (classify, cli, corpus, dim2, dsl, geometry, jets,
                              metrize, oracle, pflat, sampling)

        def spanned(name):
            return lambda fn: self.span(name, fn)

        def counted(name):
            return lambda fn: self.counted(name, fn)

        functions = [
            (cli, "main", spanned("cli.main")),
            (sampling, "sample_points", self._sample_points),
            (dsl, "parse", spanned("dsl.parse")),
            (dsl, "evaluate", spanned("dsl.evaluate")),
            (jets, "_mul_coeffs", self._mul),
            (jets, "jet_matrix_inverse", spanned("jets.matrix_inverse")),
            (geometry, "identity_residuals", spanned("geometry.identity_residuals")),
            (geometry, "spray_from_metric", spanned("geometry.spray_from_metric")),
            (classify, "classify_spray", spanned("classify.classify_spray")),
            (classify, "decompose_scalar", counted("classify.decompose_scalar")),
            (metrize, "decide", spanned("metrize.decide")),
            (metrize, "verdict_constant", spanned("metrize.verdict_constant")),
            (metrize, "verdict_isotropic", spanned("metrize.verdict_isotropic")),
            (metrize, "nonmetrizable_scalar", spanned("metrize.nonmetrizable_scalar")),
            (metrize, "_certify", spanned("metrize.certify")),
            (metrize, "finsler_check", spanned("metrize.finsler_check")),
            (pflat, "admissible", spanned("pflat.admissible")),
            (pflat, "quadratic_structure_check", spanned("pflat.structure_check")),
            (dim2, "frame", spanned("dim2.frame")),
            (dim2, "flag_ode_residual", spanned("dim2.flag_ode")),
            (corpus, "run_fixture", spanned("corpus.run_fixture")),
            (oracle, "agreement_report", spanned("oracle.agreement_report")),
            (oracle, "fd_curvature", spanned("oracle.fd_curvature")),
        ]
        for module, attr, wrap in functions:
            self._patch_function(module, attr, wrap)

        bundle = geometry.CurvatureBundle
        methods = [
            (cli.Report, "json_bytes", spanned("cli.json")),
            (jets.JetSpace, "__init__", spanned("jets.space_build")),
            (jets.Jet, "diff", counted("jets.diff")),
            (jets.Jet, "_compose", counted("jets.compose")),
            (jets.Jet, "reciprocal", counted("jets.reciprocal")),
            (bundle, "__init__", self._bundle_init),
            (bundle, "cov_h", spanned("geometry.cov_h")),
            (metrize.LambdaField, "__call__", self._lambda_call),
            (metrize.CurvatureMetric, "value", spanned("metrize.metric_value")),
            (metrize.ScaledCurvatureMetric, "value", spanned("metrize.metric_value")),
        ]
        # the bundle computes its tensors lazily, on first access
        methods += [(bundle, attr, spanned("geometry.bundle"))
                    for attr, value in vars(bundle).items()
                    if isinstance(value, cached_property)]
        methods += [(cls, "coeff_jets", spanned("geometry.coeff_jets"))
                    for cls in (geometry.ExprSpray, geometry.MetricSpray,
                                geometry.ShiftedSpray)]
        for cls, attr, wrap in methods:
            self._patch_method(cls, attr, wrap)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        self._spray_ids.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        out = {}
        for name, (unit, kind, key) in LAYER_METRICS.items():
            if kind == "self":
                value = self.self_s.get(key, 0.0)
            elif kind == "calls":
                value = self.calls.get(key, 0)
            elif kind == "count":
                value = self.counts.get(key, 0)
            else:
                built = self.counts.get("geometry.bundles_built", 0)
                distinct = self.counts.get("geometry.bundles_distinct", 0)
                value = distinct / built if built else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, job]."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))
