"""Traced runs: spans and counts at every layer boundary, from outside the package.

`Tracer.install()` replaces each public function of every layer module
with a wrapper, in the defining module and wherever another module holds
the same object under an imported name (such as `dist_desc.pmf_K_exact`),
so calls between layers are seen too.  `Pmf.check` is wrapped on its
class, and `mpmath.polyroots` / `mpmath.polyval` are counted because the
spectral layer reaches them as `mp.polyroots` / `mp.polyval`.

Each wrapped call records a span (name, start, end, parent span, op id) in
memory; a layer's self time is its span time minus the time of the spans
nested inside it.  The tracer records only while `active` is set, so the
correctness gates that run between ops leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("grow", "trees", "families", "spectral", "dist_k", "dist_desc", "pmf",
          "urns", "montecarlo", "gof", "enumeration", "bijections")

# per-element helpers called once per node or per tree: wrapping them would
# measure the wrapper, not the layer
UNWRAPPED = {"trees.min_label", "enumeration.stat_initial_bucket_size",
             "enumeration.stat_descendants", "enumeration.stat_out_degree",
             "enumeration.stat_capacity_count", "enumeration.stat_saturation_time"}

SPANS_PER_NAME = 20000   # spans kept in memory per function; the rest are only summed

ROUND_TRIP_CLOSERS = {"bijections.cluster", "bijections.uncluster_three_bundled",
                      "bijections.uncluster_two_bundled", "bijections.diamond_to_bucket"}
STEP_COUNTED = {"montecarlo.sample_K", "montecarlo.sample_urn_counts",
                "montecarlo.sample_root_degree"}
DENOMINATOR_COUNTED = {"dist_desc.pmf_Y", "dist_desc.pmf_Y_conditional",
                       "dist_desc.pmf_tau", "dist_desc.pmf_X"}


def _node_count(tree) -> int:
    stack, count = [tree.root], 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self.child_time = []       # per open call: seconds spent in calls nested in it
        self.spans = []            # (name, start, end, parent index or -1, op id)
        self.open_index = []       # span index of each open call, -1 when not kept
        self.kept = Counter()
        self.dropped = 0
        self.calls = Counter()
        self.busy = defaultdict(float)        # outermost calls of a function
        self.self_time = defaultdict(float)
        self.layer_busy = defaultdict(float)  # outermost calls into a layer
        self.layer_self = defaultdict(float)
        self.depth = Counter()
        self.layer_depth = Counter()
        self.counts = Counter()
        self.min_p = None
        self.max_residual = 0.0
        self.max_bits = 0
        self.kind_labels = Counter()
        self.kind_seconds = defaultdict(float)
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from buckettrees.pmf import Pmf
        modules = [importlib.import_module(f"buckettrees.{m}") for m in LAYERS]
        originals = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNWRAPPED
                        or inspect.isgeneratorfunction(obj)):
                    continue
                originals[id(obj)] = (obj, self._wrap(name, layer, obj))
        holders = [m for n, m in sys.modules.items()
                   if n == "buckettrees" or n.startswith("buckettrees.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        self._patch(Pmf, "check", self._wrap("pmf.check", "pmf", Pmf.check))
        import mpmath
        self._patch(mpmath, "polyroots", self._count("spectral.fallbacks", mpmath.polyroots))
        self._patch(mpmath, "polyval", self._count("spectral.polyval_calls", mpmath.polyval))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _patch(self, holder, attr, new) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def _count(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._call(name, layer, fn, args, kwargs)
        return traced

    # -- one traced call ----------------------------------------------------

    def _call(self, name, layer, fn, args, kwargs):
        outer_fn = self.depth[name] == 0
        outer_layer = self.layer_depth[layer] == 0
        self.depth[name] += 1
        self.layer_depth[layer] += 1
        parent = self.open_index[-1] if self.open_index else -1
        index = -1
        if self.kept[name] < SPANS_PER_NAME:
            self.kept[name] += 1
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        self.child_time.append(0.0)
        self.open_index.append(index)
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            duration = end - start
            own = duration - self.child_time.pop()
            self.open_index.pop()
            self.depth[name] -= 1
            self.layer_depth[layer] -= 1
            if self.child_time:
                self.child_time[-1] += duration
            self.calls[name] += 1
            self.self_time[name] += own
            self.layer_self[layer] += own
            if outer_fn:
                self.busy[name] += duration
            if outer_layer:
                self.layer_busy[layer] += duration
            if index >= 0:
                self.spans[index] = (name, start, end, parent, self.op)
        if ok:
            t0 = time.perf_counter()
            self._observe(name, layer, args, result, duration, outer_layer)
            if self.child_time:  # keep the bookkeeping out of the caller's self time
                self.child_time[-1] += time.perf_counter() - t0
        return result

    def _observe(self, name, layer, args, result, duration, outer_layer) -> None:
        if name in ("grow.sample_tree", "grow.sample_census"):
            spec, n = args[0], args[1]
            self.counts["grow.labels"] += n
            self.kind_labels[spec.kind] += n
            self.kind_seconds[spec.kind] += duration
            self.counts[f"{name}.labels"] += n
        elif layer == "trees" and outer_layer:
            if name == "trees.decode":
                self.counts["trees.decode_chars"] += len(args[0])
                self.counts["trees.nodes"] += _node_count(result)
            elif name == "trees.census":
                self.counts["trees.nodes"] += sum(result.m.values()) + sum(result.n_deg.values())
            elif args and hasattr(args[0], "root"):
                self.counts["trees.nodes"] += _node_count(args[0])
        elif name == "spectral.indicial_roots":
            self.max_residual = max(self.max_residual, max(result.residuals))
        elif name in DENOMINATOR_COUNTED:
            bits = max(Fraction(p).denominator.bit_length() for p in result.mass.values())
            self.max_bits = max(self.max_bits, bits)
        elif name == "urns.simulate_urn":
            self.counts["urns.steps"] += args[1]
        elif name in STEP_COUNTED:
            spec, n, size = args[0], args[1], args[2]
            if n > 1 and (spec.b > 1 or name == "montecarlo.sample_root_degree"):
                self.counts["montecarlo.replicate_steps"] += size * (n - 1)
        elif name == "montecarlo.sample_Y":
            spec, n, j, size = args[0], args[1], args[2], args[3]
            if j > spec.b:  # K_j is drawn by a nested, separately counted sample_K
                self.counts["montecarlo.replicate_steps"] += size * (n - j)
        elif name in ("gof.chi_square", "gof.kolmogorov_smirnov"):
            self.min_p = result.p_value if self.min_p is None else min(self.min_p, result.p_value)
        elif name == "enumeration.enumerate_trees":
            self.counts["enumeration.trees"] += len(result.items)
        elif name in ROUND_TRIP_CLOSERS:
            self.counts["bijections.round_trips"] += 1

    # -- results ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")

    def layer_metrics(self) -> dict:
        """Per-layer values, keyed by the per-layer metric names (without `failed`)."""
        def per_s(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        def ns_per_label(kind):
            labels = self.kind_labels[kind]
            return 1e9 * self.kind_seconds[kind] / labels if labels else 0.0

        b = self.busy
        tree_rate = per_s(self.counts["grow.sample_tree.labels"], b["grow.sample_tree"])
        census_rate = per_s(self.counts["grow.sample_census.labels"], b["grow.sample_census"])
        m = {
            "grow.busy_s": self.layer_busy["grow"],
            "grow.calls": sum(c for k, c in self.calls.items() if k.startswith("grow.")),
            "grow.labels": self.counts["grow.labels"],
            "grow.labels_per_s": per_s(self.counts["grow.labels"],
                                       b["grow.sample_tree"] + b["grow.sample_census"]),
            "grow.tree_over_census": census_rate / tree_rate if tree_rate else 0.0,
            "trees.decode_chars_per_s": per_s(self.counts["trees.decode_chars"], b["trees.decode"]),
            "trees.nodes": self.counts["trees.nodes"],
            "families.busy_s": self.layer_busy["families"],
            "families.calls": sum(c for k, c in self.calls.items() if k.startswith("families.")),
            "spectral.indicial_roots.calls": self.calls["spectral.indicial_roots"],
            "spectral.fallbacks": self.counts["spectral.fallbacks"],
            "spectral.polyval_calls": self.counts["spectral.polyval_calls"],
            "spectral.max_residual": self.max_residual,
            "dist_desc.max_denominator_bits": self.max_bits,
            "pmf.mixture.self_s": self.self_time["pmf.mixture"],
            "pmf.check.self_s": self.self_time["pmf.check"],
            "urns.steps_per_s": per_s(self.counts["urns.steps"], b["urns.simulate_urn"]),
            "montecarlo.replicate_steps": self.counts["montecarlo.replicate_steps"],
            "montecarlo.replicate_steps_per_s": per_s(
                self.counts["montecarlo.replicate_steps"], self.layer_busy["montecarlo"]),
            "gof.busy_s": self.layer_busy["gof"],
            "gof.min_p": 1.0 if self.min_p is None else self.min_p,
            "enumeration.trees": self.counts["enumeration.trees"],
            "enumeration.trees_per_s": per_s(self.counts["enumeration.trees"],
                                             self.layer_busy["enumeration"]),
            "bijections.busy_s": self.layer_busy["bijections"],
            "bijections.round_trips": self.counts["bijections.round_trips"],
            "trace.spans": sum(self.kept.values()) + self.dropped,
            "trace.spans_dropped": self.dropped,
        }
        for kind in ("recursive", "ary", "port", "linear"):
            m[f"grow.ns_per_label.{kind}"] = ns_per_label(kind)
        for fn in ("trees.encode", "trees.decode", "trees.canonicalize", "trees.census",
                   "spectral.indicial_roots", "dist_k.pmf_K", "dist_k.pmf_K_exact",
                   "dist_k.limit_K", "dist_desc.pmf_Y", "dist_desc.pmf_tau",
                   "dist_desc.pmf_X", "dist_desc.limit_reference", "urns.simulate_urn",
                   "urns.urn_spectrum", "urns.char_poly", "montecarlo.sample_K",
                   "montecarlo.sample_Y", "montecarlo.sample_urn_counts",
                   "montecarlo.sample_root_degree", "enumeration.enumerate_trees",
                   "enumeration.exact_statistic_pmf", "enumeration.exact_probability"):
            m[f"{fn}.busy_s"] = b[fn]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self[layer]
        return m
