"""Tests of the benchmark's own arithmetic: summary statistics, self-time
subtraction on synthetic spans, and the closed forms in refs."""

import math
import statistics

import pytest

import figures
import refs
import tracer


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    assert figures.median(values) == 3.5
    assert figures.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert figures.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        figures.median([])


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert figures.tail_percentile(list(range(99))) is None
    assert figures.tail_percentile(list(range(1, 101))) == (90.0, 90.0)
    assert figures.tail_percentile(list(range(1, 1001))) == (99.0, 990.0)
    assert figures.tail_percentile(list(range(1, 10001))) == (99.9, 9990.0)
    summary = figures.summarize(range(1, 40))
    assert summary == {"n": 39, "median": 20.0, "q1": 10.0, "q3": 30.0}


def _span(name, start, end, parent, nested=False):
    return [name, start, end, parent, nested]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("oracle.query", 1.0, 5.0, 0),
        _span("graph_model.neighbor_indices", 2.0, 4.0, 1),
        _span("graph_model.vertex_at", 2.5, 3.0, 2),
        _span("oracle.query", 6.0, 7.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.5, 0.5, 1.0])
    layer_self, name_self, inclusive = tracer.aggregate(spans)
    assert layer_self == pytest.approx({"cli": 5.0, "oracle": 3.0, "graph_model": 2.0})
    assert sum(layer_self.values()) == pytest.approx(10.0)  # self times add up to the root
    assert name_self["oracle.query"] == pytest.approx(3.0)
    assert inclusive["oracle.query"] == (2, pytest.approx(5.0))


def test_nested_same_name_spans_are_not_counted_twice_inclusive():
    spans = [
        _span("spectral.sample", 0.0, 3.0, -1),
        _span("spectral.sample", 1.0, 2.0, 0, nested=True),
    ]
    layer_self, _, inclusive = tracer.aggregate(spans)
    assert inclusive["spectral.sample"] == (2, pytest.approx(3.0))
    assert layer_self["spectral"] == pytest.approx(3.0)


def test_tracer_span_and_exclusion_restore_state():
    t = tracer.Tracer()
    with t.span("bench.op"):
        with t.span("bench.inner"):
            pass
    t.counters["oracle.feistel.calls"] += 3
    with t.excluded():
        with t.span("bench.failing"):
            t.counters["oracle.feistel.calls"] += 100
    assert [s[0] for s in t.spans] == ["bench.op", "bench.inner"]
    assert t.spans[1][3] == 0
    assert t.counters["oracle.feistel.calls"] == 3


def test_fixed_point_residual_golden_ratio():
    # One edge (lambda_E = 1) with one pendant vertex per endpoint: a 4-path, top eigenvalue phi.
    phi = (1 + math.sqrt(5)) / 2
    assert refs.fixed_point_residual(phi, (3, 2), (0, 1), 1.0) == pytest.approx(0.0, abs=1e-12)
    assert refs.fixed_point_residual(phi * 0.99, (3, 2), (0, 1), 1.0) > 0
    assert refs.fixed_point_residual(phi * 1.01, (3, 2), (0, 1), 1.0) < 0


def test_bounds_match_acceptance_values():
    assert refs.avoidance_bound((25, 12), (1, 2), 2, 1) == pytest.approx(0.48)
    assert refs.recursion_bound((4, 3), (8, 15), 16) == pytest.approx(0.365, abs=5e-4)
    assert refs.recursion_bound((8, 6, 4), (2, 5, 9), 9) == 1.0


def test_triangles_and_decorated_graph_size():
    k4 = [[v for v in range(4) if v != u] for u in range(4)]
    assert refs.triangle_count(refs.core_matrix(k4)) == 4
    assert refs.triangle_count(refs.core_matrix(refs.petersen_core())) == 0
    keys, edges = refs.decorated_graph(refs.petersen_core(), (5, 4, 3), (1, 2, 3))
    assert len(keys) == 10 * 39 and len(edges) == 15 + 10 * 38


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    import run
    import workloads

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layer = tracer.per_layer_metrics(tracer.Tracer(), 1.0)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert all(layer[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])

    class Workload:
        trial_kinds = ("draws",)

    rounds = [[workloads.Op("draws", 2.0, attempts=10, units=10),
               workloads.Op("spectrum", 1.0, attempts=1),
               workloads.Op("sample-ground", 5.0, attempts=1, failed=True, expected_failure=True)]]
    e2e = run.end_to_end(Workload(), [0.5, 0.7, 0.6], rounds)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    assert e2e["setup_s"]["value"] == 0.6
    assert e2e["round_s"]["value"] == 3.0  # the expected failure's time is left out
    assert e2e["trials_per_s"]["value"] == 5.0
