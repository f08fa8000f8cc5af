"""In-memory span tracer applied to sakde from the outside.

Each wrapped entry point records one span ``[name, start, end, parent]`` in a
list and updates exact counters taken from argument and result shapes.
Wrappers are installed by replacing every module attribute (or class
attribute) that refers to the original object, so each name is patched where
the program looks it up; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from functools import wraps

import numpy as np

ROOT = "bench"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = [-1]
        self.counts = dict.fromkeys((
            "mc.replication_rng.calls", "densities.sample.calls", "densities.sample.scalars",
            "kernels.fn.calls", "kernels.fn.evals", "kernels.fn.bytes_computed",
            "sequences.value.calls"), 0)
        self.span_names = {ROOT}
        self.peak_chunk_bytes = 0
        self.distinct_draws = set()
        self._last_rng = (None, None)

    # -- spans -------------------------------------------------------------
    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(span, args, result)`` runs after it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        self.span_names.add(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                count(span, args, result)
            return result

        return traced

    def parent_name(self, span):
        return self.spans[span[3]][0] if span[3] >= 0 else None

    # -- counters ----------------------------------------------------------
    def _count_calls(self, name):
        self.counts[name + ".calls"] = 0

        def count(span, args, result):
            self.counts[name + ".calls"] += 1
        return count

    def _count_rng(self, span, args, result):
        self.counts["mc.replication_rng.calls"] += 1
        self._last_rng = (result, (args[0], args[1]))

    def _count_sample(self, span, args, result):
        if self.parent_name(span) == "densities.sample":
            return  # a linear image delegating to its base model
        self.counts["densities.sample.calls"] += 1
        self.counts["densities.sample.scalars"] += int(np.asarray(result).size)
        model, rng, n = args[0], args[1], args[2]
        rng_obj, key = self._last_rng
        self.distinct_draws.add((model.label, int(n), key) if rng is rng_obj else id(span))

    def _count_kernel(self, span, args, result):
        z = np.asarray(args[0])
        out = np.asarray(result)
        self.counts["kernels.fn.calls"] += 1
        self.counts["kernels.fn.evals"] += int(out.size)
        self.counts["kernels.fn.bytes_computed"] += int(z.nbytes + out.nbytes)
        if (self.parent_name(span) or "").startswith("estimators."):
            self.peak_chunk_bytes = max(self.peak_chunk_bytes, int(z.nbytes))

    def _count_value(self, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts["sequences.value.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------
    def install(self):
        """Patch the public entry points of every sakde module."""
        from sakde import asymptotics, densities, estimators, kernels, mc, sequences

        def everywhere(original, replacement):
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "sakde":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

        def span_fn(name, original, count=None):
            everywhere(original, self.wrap(name, original, count))

        span_fn("mc.replication_rng", mc.replication_rng, self._count_rng)
        for fname in ("run_cell", "build_interval", "format_report", "empirical_moments",
                      "clt_empirical_check", "exact_moments"):
            span_fn("mc." + fname, getattr(mc, fname))
        for fname in ("recursive_batch", "rosenblatt_batch", "recursion_weights"):
            name = "estimators." + fname
            span_fn(name, getattr(estimators, fname), self._count_calls(name))
        for fname in ("recursive_at_points", "weighted_closed_form"):
            span_fn("estimators." + fname, getattr(estimators, fname))
        span_fn("sequences.lemma_limit", sequences.lemma_limit)
        span_fn("sequences.pi_product", sequences.pi_product)
        for fname, fn in vars(asymptotics).copy().items():
            if (inspect.isfunction(fn) and fn.__module__ == asymptotics.__name__
                    and not fname.startswith("_")):
                span_fn("asymptotics", fn)

        est_cls = estimators.RecursiveEstimator
        est_cls.update = self.wrap("estimators.update", est_cls.update,
                                   self._count_calls("estimators.update"))
        ros_cls = estimators.RosenblattEstimator
        ros_cls.eval = self.wrap("estimators.rosenblatt_eval", ros_cls.eval)
        for cls in (densities.GaussianMixture, densities.LinearImage):
            cls.sample = self.wrap("densities.sample", cls.sample, self._count_sample)
        sequences.SequencePlan.value = self._count_value(sequences.SequencePlan.value)

        make_kernel = kernels.gaussian_kernel

        @wraps(make_kernel)
        def traced_kernel(dim):
            kern = make_kernel(dim)
            return dataclasses.replace(
                kern, fn=self.wrap("kernels.fn", kern.fn, self._count_kernel))

        everywhere(make_kernel, traced_kernel)

    # -- results -----------------------------------------------------------
    def self_times(self):
        """Per-name self time: span duration minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(self.span_names, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def layer_metrics(self):
        """Flat per-layer metrics: ``<span>.self_s`` plus the exact counters."""
        metrics = {f"{name}.self_s": value for name, value in self.self_times().items()}
        metrics.update(self.counts)
        metrics["estimators.peak_chunk_bytes"] = self.peak_chunk_bytes
        draws = self.counts["densities.sample.calls"]
        metrics["densities.sample.draws_per_distinct"] = (
            draws / len(self.distinct_draws) if self.distinct_draws else 0.0)
        kernel_s = metrics["kernels.fn.self_s"]
        metrics["kernels.fn.evals_per_s"] = (
            self.counts["kernels.fn.evals"] / kernel_s if kernel_s > 0 else 0.0)
        return metrics

    def dump(self, path):
        """Write every span as JSON: a name table plus [name_id, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)
