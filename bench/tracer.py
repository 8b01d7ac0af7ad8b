"""In-memory spans and call counters wrapped around gapwalk's entry points
from outside the package.

A span records (name, start, end, parent) at a layer boundary; the first part
of its name is the layer, i.e. the gapwalk module.  A layer's self time is the
duration of its spans minus the part covered by their child spans.  The
hottest inner calls (the Feistel map and the Schedule accessors) get plain
counters instead of spans, so tracing them stays cheap.

Every wrapper replaces the attribute on its owner and, for module-level
functions, every gapwalk module global bound to the same object, because
modules such as `explorer` import functions by name.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "graph_model", "expander_gen", "spectral", "oracle", "explorer", "bounds")

# (owner, attribute, span name); owners are "module" or "module.Class".
SPANS = [
    ("cli", "main", "cli.main"),
    ("graph_model.TreeGraph", "__init__", "graph_model.build"),
    ("graph_model.MainGraph", "__init__", "graph_model.build"),
    ("graph_model.TreeGraph", "neighbor_indices", "graph_model.neighbor_indices"),
    ("graph_model.MainGraph", "neighbor_indices", "graph_model.neighbor_indices"),
    ("graph_model.TreeGraph", "neighbors", "graph_model.neighbors"),
    ("graph_model.MainGraph", "neighbors", "graph_model.neighbors"),
    ("graph_model.TreeGraph", "index_of", "graph_model.index_of"),
    ("graph_model.MainGraph", "index_of", "graph_model.index_of"),
    ("graph_model.TreeGraph", "vertex_at", "graph_model.vertex_at"),
    ("graph_model.MainGraph", "vertex_at", "graph_model.vertex_at"),
    ("graph_model", "classify_address", "graph_model.classify_address"),
    ("graph_model.MainGraph", "expander_distance", "graph_model.expander_distance"),
    ("expander_gen", "generate_certified", "expander_gen.generate_certified"),
    ("expander_gen", "sample_regular_graph", "expander_gen.sample_regular_graph"),
    ("expander_gen", "girth", "expander_gen.girth"),
    ("expander_gen", "certify_expander", "expander_gen.certify_expander"),
    ("expander_gen", "load", "expander_gen.load"),
    ("expander_gen", "save", "expander_gen.save"),
    ("spectral", "solve_for_params", "spectral.solve_for_params"),
    ("spectral", "solve_for_instance", "spectral.solve_for_instance"),
    ("spectral", "solve_top_eigenvalue", "spectral.solve_top_eigenvalue"),
    ("spectral", "root_resolvent", "spectral.root_resolvent"),
    ("spectral.SpectralSolution", "__post_init__", "spectral.tables"),
    ("spectral", "norm_decomposition", "spectral.norm_decomposition"),
    ("spectral.GroundStateSampler", "__init__", "spectral.sampler_init"),
    ("spectral.GroundStateSampler", "sample", "spectral.sample"),
    ("oracle.LabeledOracle", "__init__", "oracle.build"),
    ("oracle.LabeledOracle", "query", "oracle.query"),
    ("oracle.LabeledOracle", "label_of", "oracle.label_of"),
    ("oracle.LabeledOracle", "reveal", "oracle.reveal"),
    ("explorer", "run_exploration", "explorer.run_exploration"),
    ("explorer", "classify_vertex", "explorer.classify_vertex"),
    ("explorer", "component_audit", "explorer.component_audit"),
    ("explorer", "score_localization", "explorer.score_localization"),
    ("explorer", "ggsp_experiment", "explorer.ggsp_experiment"),
    ("explorer", "_distinct_level1_decorations", "explorer.distinct_decorations"),
    ("bounds", "recursion_bound", "bounds.recursion_bound"),
    ("bounds", "avoidance_bound", "bounds.avoidance_bound"),
    ("bounds", "localization_bound", "bounds.localization_bound"),
    ("bounds", "closed_form_exit_bound", "bounds.closed_form_exit_bound"),
]

# Generators: each resumption is one span; time between resumptions is the caller's.
GENERATOR_SPANS = [("oracle", "input_sampler", "oracle.input_sampler")]

# (owner, attribute, counter prefix, labels per call: "one" | "array" | None)
COUNTERS = [
    ("oracle.FeistelPermutation", "forward", "oracle.feistel", "one"),
    ("oracle.FeistelPermutation", "inverse", "oracle.feistel", "one"),
    ("oracle.FeistelPermutation", "forward_array", "oracle.feistel", "array"),
    ("oracle.FeistelPermutation", "inverse_array", "oracle.feistel", "array"),
    ("graph_model.Schedule", "degree", "graph_model.schedule_accessor", None),
    ("graph_model.Schedule", "depth", "graph_model.schedule_accessor", None),
    ("graph_model.Schedule", "branching", "graph_model.schedule_accessor", None),
    ("graph_model.Schedule", "decoration_count", "graph_model.schedule_accessor", None),
    ("graph_model.Schedule", "decoration_levels", "graph_model.schedule_accessor", None),
]


def _solve_hook(counters, result):
    counters["spectral.iterations"] += result.iterations


def _sample_hook(counters, result):
    counters["spectral.draws"] += 1
    counters["spectral.draw_depth"] += len(getattr(result, "address", ()))


def _generate_hook(counters, result):
    counters["expander_gen.attempts"] += result[1].attempts


RESULT_HOOKS = {
    "spectral.solve_top_eigenvalue": _solve_hook,
    "spectral.sample": _sample_hook,
    "expander_gen.generate_certified": _generate_hook,
}


class Tracer:
    """Holds spans and counters; `install` patches gapwalk, `uninstall` restores it."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, nested in a same-name span]
        self.counters: defaultdict = defaultdict(float)
        self._stack: list = []
        self._open: Counter = Counter()
        self._patches: list = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, open_, counters = self.spans, self._stack, self._open, self.counters
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            nested = open_[name] > 0
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, nested]
            stack.append(len(spans))
            spans.append(rec)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_[name] -= 1
                stack.pop()
                rec[2] = clock()
            if hook is not None and not nested:
                hook(counters, result)
            return result

        return wrapped

    def _generator_wrapper(self, name, fn):
        span = self.span

        def wrapped(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                with span(name):
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                yield value

        return wrapped

    def _counter_wrapper(self, prefix, fn, labels):
        counters = self.counters
        clock = time.perf_counter
        calls, seconds, label_key = prefix + ".calls", prefix + ".s", prefix + ".labels"

        if labels is None:
            def wrapped(*args, **kwargs):
                counters[calls] += 1
                return fn(*args, **kwargs)
        elif labels == "one":
            def wrapped(self_, x):
                t0 = clock()
                result = fn(self_, x)
                counters[seconds] += clock() - t0
                counters[calls] += 1
                counters[label_key] += 1
                return result
        else:
            def wrapped(self_, x):
                t0 = clock()
                result = fn(self_, x)
                counters[seconds] += clock() - t0
                counters[calls] += 1
                counters[label_key] += np.size(x)
                return result
        return wrapped

    # -- patching -------------------------------------------------------------

    def _replace(self, owner_path, attr, make):
        module_name, _, class_name = owner_path.partition(".")
        module = importlib.import_module(f"gapwalk.{module_name}")
        owner = getattr(module, class_name, None) if class_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            return  # entry point gone: its time falls to the caller's layer
        wrapped = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if class_name:
            return
        for other_name in LAYERS:
            other = importlib.import_module(f"gapwalk.{other_name}")
            for key, value in list(vars(other).items()):
                if value is original and other is not owner:
                    self._patches.append((other, key, original))
                    setattr(other, key, wrapped)

    def install(self):
        for owner, attr, name in SPANS:
            self._replace(owner, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for owner, attr, name in GENERATOR_SPANS:
            self._replace(owner, attr, lambda fn, name=name: self._generator_wrapper(name, fn))
        for owner, attr, prefix, labels in COUNTERS:
            self._replace(
                owner, attr, lambda fn, p=prefix, lb=labels: self._counter_wrapper(p, fn, lb)
            )

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- benchmark-side spans ---------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._open[name] > 0]
        stack.append(len(spans))
        spans.append(rec)
        self._open[name] += 1
        try:
            yield
        finally:
            self._open[name] -= 1
            stack.pop()
            rec[2] = time.perf_counter()

    @contextlib.contextmanager
    def excluded(self):
        """Run a block whose spans and counts must not enter any metric."""
        mark = len(self.spans)
        saved = dict(self.counters)
        try:
            yield
        finally:
            del self.spans[mark:]
            self.counters.clear()
            self.counters.update(saved)

    def write(self, path):
        """Spans as gzip CSV: index,name,start_s,end_s,parent (times from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list:
    """Per-span self time: duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def aggregate(spans) -> tuple[dict, dict, dict]:
    """(self time per layer, self time per span name, (calls, inclusive time)
    per span name).  Inclusive time skips spans nested in a span of the same
    name, so recursion is not counted twice."""
    layer_self: defaultdict = defaultdict(float)
    name_self: defaultdict = defaultdict(float)
    inclusive: dict = {}
    for rec, own in zip(spans, self_times(spans)):
        name, start, end, _, nested = rec
        layer_self[layer_of(name)] += own
        name_self[name] += own
        calls, total = inclusive.get(name, (0, 0.0))
        inclusive[name] = (calls + 1, total + (0.0 if nested else end - start))
    return dict(layer_self), dict(name_self), inclusive


def per_layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Every per-layer metric of the benchmark from one traced run; idle
    layers read zero.  The wall time is that of the root spans, which the
    layers' and the benchmark's self times add up to."""
    layer_self, name_self, inclusive = aggregate(tracer.spans)
    wall = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    c = tracer.counters

    def calls(name):
        return inclusive.get(name, (0, 0.0))[0]

    def incl(name):
        return inclusive.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    neighbor_calls = calls("graph_model.neighbor_indices")
    draws = c["spectral.draws"]
    accounted = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
    metrics = {
        "cli.self_s": (layer_self.get("cli", 0.0), "s"),
        "cli.bytes_written": (c["cli.bytes_written"], "bytes"),
        "expander_gen.self_s": (layer_self.get("expander_gen", 0.0), "s"),
        "expander_gen.sample_s": (incl("expander_gen.sample_regular_graph"), "s"),
        "expander_gen.girth_s": (incl("expander_gen.girth"), "s"),
        "expander_gen.certify_s": (name_self.get("expander_gen.certify_expander", 0.0), "s"),
        "expander_gen.attempts": (c["expander_gen.attempts"], "count"),
        "spectral.self_s": (layer_self.get("spectral", 0.0), "s"),
        "spectral.solve_s": (incl("spectral.solve_top_eigenvalue"), "s"),
        "spectral.resolvent_evals": (calls("spectral.root_resolvent"), "count"),
        "spectral.resolvent_s": (incl("spectral.root_resolvent"), "s"),
        "spectral.tables_s": (incl("spectral.tables"), "s"),
        "spectral.iterations": (c["spectral.iterations"], "count"),
        "spectral.draws": (draws, "count"),
        "spectral.draw_s": (incl("spectral.sample"), "s"),
        "spectral.draw_depth_mean": (ratio(c["spectral.draw_depth"], draws), "hops"),
        "oracle.self_s": (layer_self.get("oracle", 0.0), "s"),
        "oracle.queries": (calls("oracle.query"), "count"),
        "oracle.query_s": (name_self.get("oracle.query", 0.0), "s"),
        "oracle.feistel_s": (c["oracle.feistel.s"], "s"),
        "oracle.feistel_labels": (c["oracle.feistel.labels"], "count"),
        "oracle.feistel_labels_per_call": (
            ratio(c["oracle.feistel.labels"], c["oracle.feistel.calls"]), "labels/call"),
        "oracle.builds": (calls("oracle.build"), "count"),
        "oracle.build_s": (incl("oracle.build"), "s"),
        "oracle.label_of_s": (incl("oracle.label_of"), "s"),
        "oracle.reveal_s": (incl("oracle.reveal"), "s"),
        "graph_model.self_s": (layer_self.get("graph_model", 0.0), "s"),
        "graph_model.neighbor_calls": (neighbor_calls, "count"),
        "graph_model.neighbor_s": (incl("graph_model.neighbor_indices"), "s"),
        "graph_model.neighbor_hit_ratio": (
            1.0 - ratio(calls("graph_model.neighbors"), neighbor_calls) if neighbor_calls else 0.0,
            "ratio"),
        "graph_model.rank_s": (incl("graph_model.index_of"), "s"),
        "graph_model.unrank_s": (incl("graph_model.vertex_at"), "s"),
        "graph_model.classify_calls": (calls("graph_model.classify_address"), "count"),
        "graph_model.classify_s": (incl("graph_model.classify_address"), "s"),
        "graph_model.schedule_accessor_calls": (c["graph_model.schedule_accessor.calls"], "count"),
        "graph_model.distance_calls": (calls("graph_model.expander_distance"), "count"),
        "graph_model.distance_s": (incl("graph_model.expander_distance"), "s"),
        "explorer.self_s": (layer_self.get("explorer", 0.0), "s"),
        "explorer.trial_s": (incl("explorer.run_exploration"), "s"),
        "explorer.score_s": (incl("explorer.classify_vertex"), "s"),
        "explorer.audit_s": (incl("explorer.component_audit"), "s"),
        "bounds.s": (layer_self.get("bounds", 0.0), "s"),
        "bench.self_s": (layer_self.get("bench", 0.0), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.accounted_share": (ratio(accounted, wall), "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}
