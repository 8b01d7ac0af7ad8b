"""Sampling and certification of regular graphs serving as the core: uniform
configuration-model sampling with whole-graph rejection, girth via per-vertex
BFS, and top-two adjacency eigenvalues (`graph_model.top_eigenpairs`)."""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ._util import InputError, derive_seed
from .graph_model import bfs_distances, top_eigenpairs


class GenerationError(RuntimeError):
    """Rejection/certification budget exhausted; carries the attempt count."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class ConnectivityError(ValueError):
    """Operation requires a connected graph."""


@dataclass(frozen=True)
class RegularGraph:
    """Simple d-regular graph with per-vertex sorted neighbor tuples."""

    N: int
    d: int
    adjacency: tuple  # tuple[tuple[int, ...], ...]
    seed: int
    uniform: bool = True  # False when produced by the edge-switching fallback

    def __post_init__(self):
        if any(len(nbrs) != self.d for nbrs in self.adjacency):
            raise InputError(f"not {self.d}-regular")
        for u, nbrs in enumerate(self.adjacency):
            if u in nbrs:
                raise InputError(f"self-loop at vertex {u}")
            if len(set(nbrs)) != len(nbrs):
                raise InputError(f"multi-edge at vertex {u}")

    def edges(self):
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def is_connected(self) -> bool:
        return self.N == 0 or -1 not in bfs_distances(self.adjacency, 0)


@dataclass(frozen=True)
class ExpanderCertificate:
    girth: float  # inf for forests
    lambda1: float
    lambda2: float
    gap: float
    attempts: int
    residual1: float = 0.0
    residual2: float = 0.0
    uniform: bool = True


def _edges_to_adjacency(N: int, edges) -> tuple:
    adj = [[] for _ in range(N)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def _pairing_attempt(N: int, d: int, rng: random.Random) -> Optional[set]:
    """One uniform stub pairing; None if it produced a loop or multi-edge."""
    stubs = [u for u in range(N) for _ in range(d)]
    rng.shuffle(stubs)
    edges = set()
    it = iter(stubs)
    for u, v in zip(it, it):
        if u == v:
            return None
        e = (u, v) if u < v else (v, u)
        if e in edges:
            return None
        edges.add(e)
    return edges


def _switching_repair(N: int, d: int, rng: random.Random, max_steps: int = 200_000) -> set:
    """Repair a random pairing into a simple graph via double-edge swaps.

    Not exactly uniform over simple d-regular graphs; callers flag the result.
    """
    stubs = [u for u in range(N) for _ in range(d)]
    rng.shuffle(stubs)
    pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
    edge_count: dict = {}

    def key(u, v):
        return (u, v) if u < v else (v, u)

    for u, v in pairs:
        edge_count[key(u, v)] = edge_count.get(key(u, v), 0) + 1
    for _ in range(max_steps):
        bad = [e for e, c in edge_count.items() if c > 1 or e[0] == e[1]]
        if not bad:
            break
        u, v = bad[rng.randrange(len(bad))]
        good = list(edge_count.keys())
        x, y = good[rng.randrange(len(good))]
        if len({u, v, x, y}) < 4:
            continue
        e1, e2 = key(u, x), key(v, y)
        if e1 in edge_count or e2 in edge_count:
            continue

        def remove(e):
            edge_count[e] -= 1
            if edge_count[e] == 0:
                del edge_count[e]

        remove(key(u, v))
        remove(key(x, y))
        edge_count[e1] = edge_count.get(e1, 0) + 1
        edge_count[e2] = edge_count.get(e2, 0) + 1
    else:
        raise GenerationError("edge-switching repair did not converge")
    return set(edge_count)


def sample_regular_graph(
    N: int,
    d: int,
    seed: int,
    max_rejections: int = 5000,
) -> RegularGraph:
    """Uniform simple d-regular graph via the configuration model with
    whole-graph rejection; deterministic given the seed.

    When rejection stalls (large d^2/N), falls back to edge-switching repair
    and marks the graph non-uniform.
    """
    if (N * d) % 2 != 0:
        raise InputError(f"N*d must be even, got N={N}, d={d}")
    if not 0 <= d < N:
        raise InputError(f"need 0 <= d < N, got N={N}, d={d}")
    rng = random.Random(derive_seed("regular-graph", N, d, seed))
    for attempt in range(max_rejections):
        edges = _pairing_attempt(N, d, rng)
        if edges is not None:
            return RegularGraph(N, d, _edges_to_adjacency(N, edges), seed)
    edges = _switching_repair(N, d, rng)
    return RegularGraph(N, d, _edges_to_adjacency(N, edges), seed, uniform=False)


def girth(graph: RegularGraph) -> float:
    """Length of the shortest cycle via BFS from every vertex; inf for forests."""
    best = math.inf
    adj = graph.adjacency
    for src in range(graph.N):
        dist = [-1] * graph.N
        parent = [-1] * graph.N
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cycle = dist[u] + dist[w] + 1
                    if cycle < best:
                        best = cycle
    return best


def spectral_gap(graph: RegularGraph) -> tuple[float, float]:
    """(lambda1, lambda2): the two largest adjacency eigenvalues."""
    if not graph.is_connected():
        raise ConnectivityError("spectral gap requires a connected graph")
    lam1, lam2, _, _, _ = top_eigenpairs(graph.adjacency)
    return lam1, lam2


def certify_expander(
    graph: RegularGraph, gap_min: float, girth_min: float, attempts: int = 1
) -> Optional[ExpanderCertificate]:
    """Certificate if the graph meets the gap and girth thresholds, else None."""
    if gap_min < 0 or girth_min < 0:
        raise InputError("thresholds must be non-negative")
    if not graph.is_connected():
        return None
    g = girth(graph)
    if g < girth_min:
        return None
    lam1, lam2, _, r1, r2 = top_eigenpairs(graph.adjacency)
    gap = lam1 - lam2
    if gap < gap_min:
        return None
    return ExpanderCertificate(
        girth=g,
        lambda1=lam1,
        lambda2=lam2,
        gap=gap,
        attempts=attempts,
        residual1=r1,
        residual2=r2,
        uniform=graph.uniform,
    )


def generate_certified(
    N: int,
    d: int,
    gap_min: float,
    girth_min: float,
    seed: int,
    max_attempts: int = 50,
) -> tuple[RegularGraph, ExpanderCertificate]:
    """Sample fresh graphs (seed, attempt)-derived until one certifies."""
    for attempt in range(1, max_attempts + 1):
        g = sample_regular_graph(N, d, derive_seed("certify", seed, attempt))
        cert = certify_expander(g, gap_min, girth_min, attempts=attempt)
        if cert is not None:
            return g, cert
    raise GenerationError(
        f"no graph met gap >= {gap_min}, girth >= {girth_min} in {max_attempts} attempts",
        attempts=max_attempts,
    )


def petersen() -> RegularGraph:
    """The Petersen graph: 10 vertices, cubic, girth 5, spectral gap 2."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return RegularGraph(10, 3, _edges_to_adjacency(10, edges), seed=0)


def complete_graph(n: int) -> RegularGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return RegularGraph(n, n - 1, _edges_to_adjacency(n, edges), seed=0)


def cycle_graph(n: int) -> RegularGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return RegularGraph(n, 2, _edges_to_adjacency(n, edges), seed=0)


# ---------------------------------------------------------------------------
# serialization: header "N d seed", then sorted "u v" lines with u < v
# ---------------------------------------------------------------------------

def to_text(graph: RegularGraph) -> str:
    lines = [f"{graph.N} {graph.d} {graph.seed}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges()))
    return "\n".join(lines) + "\n"


def _line_ints(line: str, count: int) -> list[int]:
    """The `count` integers of one line of the text format."""
    try:
        values = [int(x) for x in line.split()]
    except ValueError:
        values = []
    if len(values) != count:
        raise InputError(f"expected {count} integers on a line, got {line!r}")
    return values


def from_text(text: str) -> RegularGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    N, d, seed = _line_ints(lines[0] if lines else "", 3)
    edges = []
    for ln in lines[1:]:
        u, v = _line_ints(ln, 2)
        if not 0 <= u < v < N:
            raise InputError(f"edge must read u v with 0 <= u < v < N={N}: {ln!r}")
        edges.append((u, v))
    return RegularGraph(N, d, _edges_to_adjacency(N, edges), seed)


def save(graph: RegularGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_text(graph))


def load(path) -> RegularGraph:
    with open(path) as fh:
        return from_text(fh.read())
