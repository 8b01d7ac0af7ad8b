"""Sampling and certification of regular graphs serving as the core: uniform
configuration-model sampling with whole-graph rejection over a pinned shuffle,
exact girth by ball-limited BFS, and top-two adjacency eigenvalues."""

from __future__ import annotations

import dataclasses
import math
import random
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import InputError, below, derive_seed
from .graph_model import bfs_distances, top_eigenpairs


class GenerationError(RuntimeError):
    """Rejection/certification budget exhausted; carries the attempt count."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class RegularGraph:
    """Simple d-regular graph with per-vertex sorted neighbor tuples; build it
    with `from_edges`, which checks that it is simple and d-regular."""

    N: int
    d: int
    adjacency: tuple  # tuple[tuple[int, ...], ...]
    seed: int
    uniform: bool = True  # False when produced by the edge-switching fallback

    @classmethod
    def from_edges(cls, N: int, d: int, edges, seed: int, uniform: bool = True) -> "RegularGraph":
        """The graph of an edge list (an array or list of vertex pairs in
        [0, N)), built and checked in whole-array steps: InputError unless
        every vertex has d neighbours, none of them itself and none twice, and N >= 2."""
        if N < 2:
            raise InputError(f"a core needs at least 2 vertices, got N={N}")
        ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        ends = np.concatenate([ends, ends[:, ::-1]])
        ends = ends[np.argsort(ends[:, 0] * N + ends[:, 1])]
        if (np.bincount(ends[:, 0], minlength=N) != d).any():
            raise InputError(f"not {d}-regular")
        for kind, bad in (("self-loop", ends[:, 0] == ends[:, 1]),
                          ("multi-edge", (ends[1:] == ends[:-1]).all(axis=1))):
            if bad.any():
                raise InputError(f"{kind} at vertex {ends[bad.argmax(), 0]}")
        return cls(N, d, tuple(map(tuple, ends[:, 1].reshape(N, d).tolist())), seed, uniform)

    def edges(self):
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def is_connected(self) -> bool:
        return len(bfs_distances(self.adjacency, 0)) == self.N


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


def _shuffle(x: list, rng: random.Random) -> None:
    """`rng.shuffle(x)` as CPython draws it (Fisher-Yates over `below`), at
    about 0.7 of its cost and pinned: Python keeps only `random()` reproducible
    across versions, so a core's seed rests on the Mersenne Twister alone."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        j = below(getrandbits, i + 1)
        x[i], x[j] = x[j], x[i]


def _pairing_attempt(N: int, d: int, rng: random.Random) -> Optional[set]:
    """One uniform stub pairing; None if it produced a loop or multi-edge."""
    stubs = np.repeat(np.arange(N), d).tolist()
    _shuffle(stubs, rng)
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
    stubs = np.repeat(np.arange(N), d).tolist()
    _shuffle(stubs, rng)
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
        u, v = bad[below(rng.getrandbits, len(bad))]
        good = list(edge_count.keys())
        x, y = good[below(rng.getrandbits, len(good))]
        e1, e2 = key(u, x), key(v, y)
        # No swap may make a loop or a multi-edge.  A loop (u, u) swaps into
        # (u, x), (u, y), and a loop drawn as (x, y) into (u, x), (v, x).
        if u == x or v == y or e1 == e2 or e1 in edge_count or e2 in edge_count:
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
    and marks the graph non-uniform.  K_N, the one (N-1)-regular graph, is
    returned without a draw, since rejection and switching can both stall on it.
    """
    if (N * d) % 2 != 0:
        raise InputError(f"N*d must be even, got N={N}, d={d}")
    if not 0 <= d < N:
        raise InputError(f"need 0 <= d < N, got N={N}, d={d}")
    if d == N - 1:
        return dataclasses.replace(complete_graph(N), seed=seed)
    rng = random.Random(derive_seed("regular-graph", N, d, seed))
    for attempt in range(max_rejections):
        edges = _pairing_attempt(N, d, rng)
        if edges is not None:
            return RegularGraph.from_edges(N, d, list(edges), seed)
    edges = _switching_repair(N, d, rng)
    return RegularGraph.from_edges(N, d, list(edges), seed, uniform=False)


def girth(graph: RegularGraph) -> float:
    """Length of the shortest cycle; inf for forests.  From each vertex, the BFS
    ball of radius (best - 1) // 2, all a shorter cycle through it reaches: an
    edge inside distance layer d closes a cycle of length 2d + 1, a vertex with
    two neighbours in layer d - 1 one of 2d (Itai and Rodeh, SIAM J. Comput. 7,
    1978).  3, the least a simple graph has, ends the search."""
    best = math.inf
    adj = graph.adjacency
    for src in range(graph.N):
        dist = bfs_distances(adj, src, radius=None if best == math.inf else (best - 1) // 2)
        for u, du in dist.items():
            below = 0
            for w in adj[u]:
                dw = dist.get(w)
                if dw == du:
                    best = min(best, 2 * du + 1)
                elif dw == du - 1:
                    below += 1
            if below > 1:
                best = min(best, 2 * du)
        if best == 3:
            break
    return best


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
    return RegularGraph.from_edges(10, 3, edges, seed=0)


def complete_graph(n: int) -> RegularGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return RegularGraph.from_edges(n, n - 1, edges, seed=0)


# ---------------------------------------------------------------------------
# serialization: header "N d seed", then sorted "u v" lines with u < v
# ---------------------------------------------------------------------------

def to_text(graph: RegularGraph) -> str:
    lines = [f"{graph.N} {graph.d} {graph.seed}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges()))
    return "\n".join(lines) + "\n"


# An edge line: two decimal integers of at most 18 digits (so each fits an
# int64), or nothing; blank lines are skipped.
_EDGE_LINE = r"[ \t\r]*(?:[0-9]{1,18}[ \t\r]+[0-9]{1,18}[ \t\r]*)?"
_EDGE_BODY = rf"(?:{_EDGE_LINE}\n)*{_EDGE_LINE}"  # compiled on first use (re's cache)


def from_text(text: str) -> RegularGraph:
    """Parse the text format in whole-array steps: one regular expression
    checks the edge lines, one `np.fromstring` call reads them.  A malformed
    file (a line that is not two integers, an edge that is not 0 <= u < v < N,
    a graph that is not simple and d-regular) is an InputError."""
    head, _, body = text.lstrip().partition("\n")
    if not re.fullmatch(r"\s*[0-9]+\s+[0-9]+\s+-?[0-9]+\s*", head):
        raise InputError(f"header must read N d seed, got {head!r}")
    N, d, seed = map(int, head.split())
    if not re.fullmatch(_EDGE_BODY, body):
        bad = next(ln for ln in body.split("\n") if not re.fullmatch(_EDGE_LINE, ln))
        raise InputError(f"expected 2 integers on a line, got {bad!r}")
    # fromstring reads a blank body as [0], hence the guard.
    edges = np.fromstring(body if body.strip() else "", dtype=np.int64, sep=" ").reshape(-1, 2)
    bad = (edges[:, 0] >= edges[:, 1]) | (edges[:, 1] >= N)
    if bad.any():
        u, v = edges[bad.argmax()].tolist()
        raise InputError(f"edge must read u v with 0 <= u < v < N={N}: {f'{u} {v}'!r}")
    return RegularGraph.from_edges(N, d, edges, seed)


def load(path) -> RegularGraph:
    """The core in the text file at `path`; a path that cannot be read as a
    file (missing, a directory) is an InputError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read core file {path}: {exc.strerror}") from None
    return from_text(text)
