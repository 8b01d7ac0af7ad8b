import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gapwalk import expander_gen as eg, graph_model as gm
from gapwalk._util import InputError, below

CYCLE8 = eg.RegularGraph.from_edges(8, 2, [(i, (i + 1) % 8) for i in range(8)], seed=0)


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
    # d^2/N large enough that plain rejection stalls: the repair path runs.
    g = eg.sample_regular_graph(12, 9, seed=1, max_rejections=1)
    assert {len(nbrs) for nbrs in g.adjacency} == {9}
    assert not g.uniform
    assert eg.certify_expander(g, 0, 3) is not None
    # The repaired core, pinned.
    assert hashlib.sha256(eg.to_text(g).encode()).hexdigest() == (
        "ed0a3505eefa0157b009d971da9e5f3529ca5f0e9395d01f317aa10b8eb7d679")


@pytest.mark.parametrize("N, d, seed", [(12, 9, 2), (10, 4, 1), (12, 5, 0)])
def test_switching_fallback_repairs_loops(N, d, seed):
    """Each of these pairings, drawn after one rejection, has a loop, which
    swaps out like a multi-edge."""
    g = eg.sample_regular_graph(N, d, seed, max_rejections=1)
    assert {len(nbrs) for nbrs in g.adjacency} == {d}
    assert not g.uniform


@pytest.mark.parametrize("seed", [114, 189, 325, 407, 446, 680, 884])
def test_switching_fallback_converges_on_dense_cores(seed):
    """At these seeds rejection stalls on (8, 5); a repair that proposed each
    partner edge in one orientation only then stalled too."""
    g = eg.sample_regular_graph(8, 5, seed)
    assert {len(nbrs) for nbrs in g.adjacency} == {5}
    assert not g.uniform


def test_complete_core_is_sampled_without_a_draw():
    # At seed 7 both rejection and switching stalled on K_6.
    g = eg.sample_regular_graph(6, 5, seed=7)
    assert g.adjacency == eg.complete_graph(6).adjacency
    assert g.seed == 7 and g.uniform


@pytest.mark.parametrize("seed", [0, 1, 901, 2**40 + 3])
def test_shuffle_draws_as_random_shuffle(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in [*range(51), 6000]:
        x, y = list(range(n)), list(range(n))
        eg._shuffle(x, ours)
        theirs.shuffle(y)
        assert x == y
        assert ours.getstate() == theirs.getstate()


def _pairing_by_shuffle(N, d, rng):
    """The reference attempt: the whole `random.shuffle`, then every pair."""
    stubs = np.repeat(np.arange(N), d).tolist()
    rng.shuffle(stubs)
    edges = set()
    for u, v in zip(stubs[::2], stubs[1::2]):
        if u == v or (min(u, v), max(u, v)) in edges:
            return None
        edges.add((min(u, v), max(u, v)))
    return edges


@pytest.mark.parametrize("N, d", [(2000, 3), (100, 3), (60, 4), (12, 5), (2, 1)])
def test_pairing_attempt_matches_shuffle_then_check(N, d):
    """Stopping at the first bad pair gives the reference's edges, or None,
    and leaves the generator where the whole shuffle would: the next attempt
    draws the same stream."""
    for seed in range(8):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(4):
            stubs = eg._pairing_attempt(np.repeat(np.arange(N), d).tolist(), N, ours)
            edges = None if stubs is None else {(min(e), max(e)) for e in zip(stubs[::2], stubs[1::2])}
            assert edges == _pairing_by_shuffle(N, d, theirs)
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", [0, 1, 901, 2**40 + 3])
def test_below_draws_as_randrange(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in [*range(1, 1025), 3**39, 2**61 - 1, 2**61, 2**61 + 1, 2**62 - 5, 2**62]:
        assert below(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()
    for n in (0, -3):
        with pytest.raises(ValueError):
            below(ours.getrandbits, n)


def test_girth_examples():
    assert eg.girth(CYCLE8) == 8
    assert eg.girth(eg.complete_graph(4)) == 3
    assert eg.girth(eg.petersen()) == 5


def test_girth_infinite_for_forest():
    adj = ((1,), (0, 2), (1,))  # path on 3 vertices
    tree = eg.RegularGraph(3, 1, adj, seed=0)
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


def _girth_by_bfs(adjacency):
    """The per-source reference: from each vertex, the BFS ball of radius
    (best - 1) // 2 for the shortest cycle found so far; an edge inside
    distance layer d closes a cycle of length 2d + 1, a vertex with two
    neighbours in layer d - 1 one of 2d (Itai and Rodeh, SIAM J. Comput. 7,
    1978)."""
    best = math.inf
    for src in range(len(adjacency)):
        dist, layer, d = {src: 0}, [src], 0
        while layer and (best == math.inf or d < (best - 1) // 2):
            d += 1
            next_layer = []
            for u in layer:
                for w in adjacency[u]:
                    if w not in dist:
                        dist[w] = d
                        next_layer.append(w)
            layer = next_layer
        for u, du in dist.items():
            below = 0
            for w in adjacency[u]:
                dw = dist.get(w)
                if dw == du:
                    best = min(best, 2 * du + 1)
                elif dw == du - 1:
                    below += 1
            if below > 1:
                best = min(best, 2 * du)
    return best


# Sampled cubic and quartic cores; (2000, 3) at seeds 0, 6 and 4 has girth 3,
# 4 and 5.
GIRTH_CORES = [(20, 3, 1), (100, 3, 2), (2000, 3, 0), (2000, 3, 6), (2000, 3, 4),
               (60, 4, 0), (400, 4, 3)]


def test_girth_matches_bfs_reference_across_chunks():
    """The whole-array girth agrees with the per-source BFS, also when its
    sources go in many small chunks, with the shortest cycle in a late one."""
    cores = [eg.sample_regular_graph(N, d, seed).adjacency for N, d, seed in GIRTH_CORES]
    cores.append(_disjoint_union(cores[4], _cycle(4)))
    girths = []
    for adjacency in cores:
        graph = eg.RegularGraph(len(adjacency), 0, tuple(map(tuple, adjacency)), seed=0)
        expected = _girth_by_bfs(adjacency)
        assert eg.girth(graph) == expected
        with mock.patch.object(eg, "GIRTH_STEP_ENDPOINTS", 50):
            assert eg.girth(graph) == expected
        girths.append(expected)
    assert set(girths) == {3, 4, 5}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_girth_matches_exhaustive_enumeration(seed):
    g = eg.sample_regular_graph(14, 3, seed)
    assert eg.girth(g) == _girth_by_cycle_enumeration(g.adjacency)


def _cycle(n):
    return [sorted(((u - 1) % n, (u + 1) % n)) for u in range(n)]


@st.composite
def _small_graph(draw):
    """An adjacency list: a regular graph (a cycle C_3..C_9, or a sampled
    d-regular graph, d = 2..5), or a forest."""
    kind = draw(st.sampled_from(["cycle", "regular", "forest"]))
    if kind == "cycle":
        return _cycle(draw(st.integers(3, 9)))
    if kind == "regular":
        d = draw(st.integers(2, 5))
        n = draw(st.integers(d + 1, 12).filter(lambda n: n * d % 2 == 0))
        return [list(nbrs) for nbrs in eg.sample_regular_graph(n, d, draw(st.integers(0, 999))).adjacency]
    n = draw(st.integers(1, 12))
    adjacency = [[] for _ in range(n)]
    for v in range(1, n):  # a parent among the earlier vertices, or none
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            adjacency[v].append(parent)
            adjacency[parent].append(v)
    return adjacency


@settings(max_examples=150, deadline=None)
@given(first=_small_graph(), second=st.none() | _small_graph())
@example(first=_cycle(5), second=_cycle(4))  # an odd cycle first shrinks the
@example(first=_cycle(9), second=_cycle(8))  # ball to just reach the even one
def test_girth_matches_enumeration_on_unions(first, second):
    """One graph, or the disjoint union of two."""
    adjacency = first + [[v + len(first) for v in nbrs] for nbrs in second or []]
    graph = eg.RegularGraph(len(adjacency), 0, tuple(map(tuple, adjacency)), seed=0)
    assert eg.girth(graph) == _girth_by_cycle_enumeration(adjacency)


def test_spectral_gap_cycle_and_petersen():
    lam1, lam2 = gm.top_eigenpairs(CYCLE8.adjacency)[:2]
    assert abs(lam1 - 2.0) < 1e-10
    assert abs(lam2 - math.sqrt(2)) < 1e-10
    lam1, lam2 = gm.top_eigenpairs(eg.petersen().adjacency)[:2]
    assert abs(lam1 - 3.0) < 1e-10
    assert abs(lam2 - 1.0) < 1e-10


def test_lambda1_equals_degree_for_regular_graphs():
    for seed in range(3):
        g = eg.sample_regular_graph(60, 4, seed)
        if not g.is_connected():
            continue
        lam1 = gm.top_eigenpairs(g.adjacency)[0]
        assert abs(lam1 - 4.0) < 1e-8


def test_eigen_residuals_reported_small():
    cert = eg.certify_expander(eg.petersen(), gap_min=1.5, girth_min=5)
    assert cert is not None
    assert cert.residual1 <= 1e-6 and cert.residual2 <= 1e-6


def test_lanczos_eigenpairs_are_bit_identical_per_call():
    """Above DENSE_EIG_LIMIT the Lanczos start and restart vectors come from a
    fixed seed, not from the operating system's entropy."""
    adjacency = eg.sample_regular_graph(5000, 3, 7).adjacency
    assert len(adjacency) > gm.DENSE_EIG_LIMIT
    calls = []
    for _ in range(3):
        lam1, lam2, _, r1, r2 = gm.top_eigenpairs(adjacency)
        calls.append(tuple(x.hex() for x in (lam1, lam2, r1, r2)))
    assert len(set(calls)) == 1


def _disjoint_union(*adjacencies):
    out = []
    for adjacency in adjacencies:
        offset = len(out)
        out += [[v + offset for v in nbrs] for nbrs in adjacency]
    return out


def _just_above_dense_limit(case):
    n = gm.DENSE_EIG_LIMIT + 1
    if case.startswith("regular-"):
        d = int(case[-1])
        return eg.sample_regular_graph(n + n * d % 2, d, 1).adjacency
    return {
        "complete": lambda: eg.complete_graph(n).adjacency,  # lambda2 = -1, n - 1 times
        "two-cubic": lambda: _disjoint_union(*(eg.sample_regular_graph((n + 3) // 4 * 2, 3, seed).adjacency
                                               for seed in (1, 2))),  # lambda1 twice
        "cycle": lambda: _cycle(n),  # lambda2 twice
        "60-petersen": lambda: _disjoint_union(*[eg.petersen().adjacency] * 60),  # lambda1 60 times
    }[case]()


@pytest.mark.parametrize("case", ["regular-3", "regular-4", "regular-5", "regular-6", "complete",
                                  "two-cubic", "cycle", "60-petersen"])
def test_lanczos_eigenpairs_match_dense(case):
    """A Lanczos certificate reports the lambda1 and lambda2 that a dense
    solve would, repeated eigenvalues included."""
    adjacency = _just_above_dense_limit(case)
    assert len(adjacency) > gm.DENSE_EIG_LIMIT
    lam1, lam2, _, r1, r2 = gm.top_eigenpairs(adjacency)
    dense = np.linalg.eigvalsh(gm.adjacency_matrix(adjacency).toarray())
    assert abs(lam1 - dense[-1]) <= 1e-10 and abs(lam2 - dense[-2]) <= 1e-10
    assert r1 <= 1e-10 and r2 <= 1e-10


# The benchmark's core (N=2000, d=3, gap >= 0.05, girth >= 4), above
# DENSE_EIG_LIMIT: the SHA-256 of its text and the certificate's girth,
# attempts and uniform flag.  Seed 3 rejects five candidates first.
LARGE_CORES = {
    1: ("4692d663ebaa395849652064a774db996aec9252ce628a5452ae6bba2694e7d0", 4, 1, True),
    3: ("49ed308b9d8b3090a93fff20aa66e93f0c794dedf82ebf96e4b7bc84d512a725", 5, 6, True),
}


@pytest.mark.parametrize("seed", sorted(LARGE_CORES))
def test_core_above_dense_limit_is_pinned(seed):
    """Its text and integer fields by bytes; its eigenvalues, which come from
    LAPACK's and BLAS's last bits, against a dense solve."""
    core, cert = eg.generate_certified(2000, 3, gap_min=0.05, girth_min=4, seed=seed)
    assert core.N > gm.DENSE_EIG_LIMIT
    text_sha = hashlib.sha256(eg.to_text(core).encode()).hexdigest()
    assert (text_sha, cert.girth, cert.attempts, cert.uniform) == LARGE_CORES[seed]
    dense = np.linalg.eigvalsh(gm.adjacency_matrix(core.adjacency).toarray())
    assert abs(cert.lambda1 - dense[-1]) <= 1e-10 and abs(cert.lambda2 - dense[-2]) <= 1e-10


def test_core_above_dense_limit_is_the_same_under_a_second_blas_kernel():
    """OPENBLAS_CORETYPE, set for the child process only, makes OpenBLAS run
    its Haswell kernels, not the ones it picks on an AVX-512 CPU; the core and
    its integer fields hold."""
    code = ("import hashlib, json; from gapwalk import expander_gen as eg; "
            "core, cert = eg.generate_certified(2000, 3, gap_min=0.05, girth_min=4, seed=3); "
            "print(json.dumps([hashlib.sha256(eg.to_text(core).encode()).hexdigest(), "
            "cert.girth, cert.attempts, cert.uniform]))")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=str(Path(eg.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    assert tuple(json.loads(done.stdout)) == LARGE_CORES[3]


def test_certify_thresholds():
    petersen = eg.petersen()
    assert eg.certify_expander(petersen, gap_min=1.5, girth_min=5) is not None
    assert eg.certify_expander(petersen, gap_min=1.5, girth_min=6) is None
    assert eg.certify_expander(CYCLE8, gap_min=1.0, girth_min=3) is None


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
    path.write_text(text)
    assert eg.to_text(eg.load(path)) == text


@settings(max_examples=60, deadline=None)
@given(N=st.integers(2, 40), d=st.integers(0, 4), seed=st.integers(0, 2**32))
def test_text_round_trip_over_generated_cores(N, d, seed):
    assume(d < N and N * d % 2 == 0)
    g = eg.sample_regular_graph(N, d, seed)
    assume(g.uniform)  # the text format does not carry the flag
    assert eg.from_text(eg.to_text(g)) == g


CUBIC_K4 = "4 3 0\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@pytest.mark.parametrize("text", [
    "4 3 0\n0 1 2\n0 2\n0 3\n1 2\n1 3\n2 3\n",  # three integers on a line
    "4 3 0\n0 1\n0 x\n0 3\n1 2\n1 3\n2 3\n",  # a non-integer
    "4 3 0\n0 1\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",  # a duplicate edge
    "4 3 0\n1 0\n0 2\n0 3\n1 2\n1 3\n2 3\n",  # u > v
    "4 3 0\n0 0\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",  # u == v
    "4 3 0\n0 1\n0 2\n0 3\n1 2\n1 3\n2 4\n",  # v == N
    "4 3 0\n0 1\n0 2\n0 3\n1 2\n1 3\n",  # not regular
    CUBIC_K4 + "7\n",  # a trailing line of one integer
    CUBIC_K4 + "2 3 junk\n",  # a trailing line with text
    "4 3\n" + CUBIC_K4.partition("\n")[2],  # a short header
    "-4 3 0\n",
    "",
])
def test_malformed_core_text_is_input_error(text):
    with pytest.raises(InputError):
        eg.from_text(text)


def test_blank_and_trailing_lines_are_skipped():
    k4 = eg.from_text(CUBIC_K4)
    spaced = "\n  \n" + CUBIC_K4.replace("\n0 3\n", "\n\n 0\t3 \r\n") + "\n\n  \n"
    assert eg.from_text(spaced) == k4 == eg.complete_graph(4)
    assert eg.from_text(CUBIC_K4.rstrip("\n")) == k4


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
                lam1, lam2 = gm.top_eigenpairs(graph.adjacency)[:2]
            else:
                lam1 = lam2 = float("nan")
            target.append((girth, round(lam1, 9), round(lam2, 9)))
    assert sorted(map(repr, originals)) == sorted(map(repr, permuted))
