import itertools
import math

import numpy as np
import pytest

from gapwalk import expander_gen as eg


def test_k4_is_unique_cubic_graph_on_four_vertices():
    for seed in (0, 1, 17):
        g = eg.sample_regular_graph(4, 3, seed)
        assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_sampling_is_deterministic_per_seed():
    a = eg.sample_regular_graph(30, 3, seed=5)
    b = eg.sample_regular_graph(30, 3, seed=5)
    c = eg.sample_regular_graph(30, 3, seed=6)
    assert a.adjacency == b.adjacency
    assert a.adjacency != c.adjacency


def test_degree_histogram_is_constant():
    for seed in range(5):
        g = eg.sample_regular_graph(40, 4, seed)
        assert {len(nbrs) for nbrs in g.adjacency} == {4}


def test_sampling_rejects_odd_stub_count():
    with pytest.raises(ValueError):
        eg.sample_regular_graph(5, 3, seed=0)


def test_switching_fallback_flags_nonuniform():
    # d^2/N large enough that plain rejection is likely to stall.
    g = eg.sample_regular_graph(12, 9, seed=1, max_rejections=1)
    assert {len(nbrs) for nbrs in g.adjacency} == {9}
    # Either the single pairing attempt got lucky or the repair path ran.
    if not g.uniform:
        assert eg.certify_expander(g, 0, 3) is not None


def test_girth_examples():
    assert eg.girth(eg.cycle_graph(8)) == 8
    assert eg.girth(eg.complete_graph(4)) == 3
    assert eg.girth(eg.petersen()) == 5


def test_girth_infinite_for_forest():
    adj = ((1,), (0, 2), (1,))  # path on 3 vertices
    tree = eg.RegularGraph.__new__(eg.RegularGraph)
    object.__setattr__(tree, "N", 3)
    object.__setattr__(tree, "d", 1)
    object.__setattr__(tree, "adjacency", adj)
    object.__setattr__(tree, "seed", 0)
    object.__setattr__(tree, "uniform", True)
    assert eg.girth(tree) == math.inf


def _girth_by_cycle_enumeration(adjacency):
    """Shortest cycle by brute force: try all vertex subsets as cycles via DFS."""
    n = len(adjacency)
    best = math.inf

    def dfs(start, current, visited, length):
        nonlocal best
        for w in adjacency[current]:
            if w == start and length >= 3:
                best = min(best, length)
            elif w not in visited and w > start and length + 1 < best:
                visited.add(w)
                dfs(start, w, visited, length + 1)
                visited.remove(w)

    for s in range(n):
        dfs(s, s, {s}, 1)
    return best


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_girth_matches_exhaustive_enumeration(seed):
    g = eg.sample_regular_graph(14, 3, seed)
    assert eg.girth(g) == _girth_by_cycle_enumeration(g.adjacency)


def test_spectral_gap_cycle_and_petersen():
    lam1, lam2 = eg.spectral_gap(eg.cycle_graph(8))
    assert abs(lam1 - 2.0) < 1e-10
    assert abs(lam2 - math.sqrt(2)) < 1e-10
    lam1, lam2 = eg.spectral_gap(eg.petersen())
    assert abs(lam1 - 3.0) < 1e-10
    assert abs(lam2 - 1.0) < 1e-10


def test_lambda1_equals_degree_for_regular_graphs():
    for seed in range(3):
        g = eg.sample_regular_graph(60, 4, seed)
        if not g.is_connected():
            continue
        lam1, _ = eg.spectral_gap(g)
        assert abs(lam1 - 4.0) < 1e-8


def test_eigen_residuals_reported_small():
    cert = eg.certify_expander(eg.petersen(), gap_min=1.5, girth_min=5)
    assert cert is not None
    assert cert.residual1 <= 1e-6 and cert.residual2 <= 1e-6


def test_certify_thresholds():
    petersen = eg.petersen()
    assert eg.certify_expander(petersen, gap_min=1.5, girth_min=5) is not None
    assert eg.certify_expander(petersen, gap_min=1.5, girth_min=6) is None
    assert eg.certify_expander(eg.cycle_graph(8), gap_min=1.0, girth_min=3) is None


def test_generate_certified_reports_attempts_and_budget():
    g, cert = eg.generate_certified(60, 3, gap_min=0.05, girth_min=4, seed=0)
    assert cert.attempts >= 1
    with pytest.raises(eg.GenerationError) as err:
        eg.generate_certified(60, 3, gap_min=2.9, girth_min=4, seed=0, max_attempts=3)
    assert err.value.attempts == 3


def test_serialization_round_trip_and_determinism(tmp_path):
    g = eg.sample_regular_graph(24, 3, seed=9)
    text = eg.to_text(g)
    assert text.splitlines()[0] == f"24 3 {g.seed}"
    assert eg.from_text(text).adjacency == g.adjacency
    path = tmp_path / "g.txt"
    eg.save(g, path)
    eg.save(eg.load(path), tmp_path / "g2.txt")
    assert (tmp_path / "g.txt").read_bytes() == (tmp_path / "g2.txt").read_bytes()


def test_certificates_invariant_under_relabeling():
    # The multiset of (girth, lambda1, lambda2) over seeds must not change when
    # vertex ids are permuted before certification.
    import random

    def relabel(graph, perm):
        adj = [None] * graph.N
        for u, nbrs in enumerate(graph.adjacency):
            adj[perm[u]] = tuple(sorted(perm[v] for v in nbrs))
        return eg.RegularGraph(graph.N, graph.d, tuple(adj), graph.seed)

    rng = random.Random(3)
    originals = []
    permuted = []
    for seed in range(100):
        g = eg.sample_regular_graph(20, 3, seed)
        perm = list(range(20))
        rng.shuffle(perm)
        for target, graph in ((originals, g), (permuted, relabel(g, perm))):
            girth = eg.girth(graph)
            if graph.is_connected():
                lam1, lam2 = eg.spectral_gap(graph)
            else:
                lam1 = lam2 = float("nan")
            target.append((girth, round(lam1, 9), round(lam2, 9)))
    assert sorted(map(repr, originals)) == sorted(map(repr, permuted))
