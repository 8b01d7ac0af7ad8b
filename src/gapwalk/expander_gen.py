"""Sampling and certification of regular graphs serving as the core: uniform
configuration-model sampling with whole-graph rejection over a pinned shuffle,
exact girth by a whole-array search over non-backtracking walks, and top-two
adjacency eigenvalues.

The shuffle draws CPython's `random.shuffle` stream in fixed-width runs: every
bound in [2^(k-1), 2^k) takes `getrandbits(k)`, redrawn while too large.  A
pairing attempt checks each pair as soon as the shuffle has made it final and
stops at the first loop or repeated edge, but still makes every remaining draw,
so the next attempt starts from the same generator state.  A core is refused
before anything is allocated when its stub count exceeds MAX_CORE_STUBS."""

from __future__ import annotations

import itertools
import math
import random
import re
from typing import NamedTuple, Optional

import numpy as np

from ._util import InputError, below, derive_seed
from .graph_model import bfs_distances, top_eigenpairs


# The most stubs (N*d, or N*(N-1) for K_N) a core may have: 2^24 is about
# 600 MB of Python ints in the stub list and the adjacency tuples.
MAX_CORE_STUBS = 1 << 24

# The most walk endpoints one whole-array step of `girth` holds, unless a
# single source has more.
GIRTH_STEP_ENDPOINTS = 1 << 16


def _check_stubs(n: int, d: int) -> None:
    if n * d > MAX_CORE_STUBS:
        raise InputError(f"a core of N={n}, d={d} has {n * d} stubs, more than {MAX_CORE_STUBS}")


class GenerationError(RuntimeError):
    """Rejection/certification budget exhausted; carries the attempt count."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class RegularGraph(NamedTuple):
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
        [0, N), or a flat list of their ends), built and checked in
        whole-array steps: InputError unless every vertex has d neighbours,
        none of them itself and none twice, and N >= 2."""
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


class ExpanderCertificate(NamedTuple):
    girth: float  # inf for forests
    lambda1: float
    lambda2: float
    gap: float
    attempts: int
    residual1: float = 0.0
    residual2: float = 0.0
    uniform: bool = True


def _runs(i: int):
    """Fisher-Yates steps i, i - 1, ..., 1 as runs (k, steps): the steps whose
    bounds (step + 1) share the bit length k, so each draws `getrandbits(k)`."""
    while i > 0:
        k = (i + 1).bit_length()
        lo = (1 << (k - 1)) - 1
        yield k, range(i, lo - 1, -1)
        i = lo - 1


def _shuffle(x: list, rng: random.Random) -> None:
    """`rng.shuffle(x)` as CPython draws it (Fisher-Yates over `below`), at
    about half its cost and pinned: Python keeps only `random()` reproducible
    across versions, so a core's seed rests on the Mersenne Twister alone."""
    getrandbits = rng.getrandbits
    for k, steps in _runs(len(x) - 1):
        for i in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]


def _skip_draws(getrandbits, i: int) -> None:
    """The draws `_shuffle` makes for its steps i, i - 1, ..., 1, without the swaps."""
    for k, steps in _runs(i):
        for step in steps:
            while getrandbits(k) > step:
                pass


def _pairing_attempt(x: list, N: int, rng: random.Random) -> Optional[list]:
    """One uniform pairing of the stubs `x` (vertices in [0, N), each d times),
    shuffled in place: `x`, whose consecutive stubs are the edges, or None if
    it has a loop or a multi-edge.  The stubs are shuffled as `_shuffle` does,
    which makes positions final from the tail, so each pair is checked once
    final.  The first bad pair stops the swaps and checks, not the draws: the
    generator ends where a whole shuffle would leave it."""
    getrandbits = rng.getrandbits
    seen = set()
    for k, steps in _runs(len(x) - 1):
        for i in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
            if i & 1:
                continue
            u, v = x[i], x[i + 1]  # final: an edge
            e = u * N + v if u < v else v * N + u
            if u == v or e in seen:
                _skip_draws(getrandbits, i - 1)
                return None
            seen.add(e)
    if x:  # the first pair, final after the last step
        u, v = x[0], x[1]
        if u == v or (u * N + v if u < v else v * N + u) in seen:
            return None
    return x


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
        # Either orientation: with (x, y) always stored as x <= y, the swap
        # into (u, y), (v, x) would never be proposed, and the chain can stall.
        if rng.getrandbits(1):
            x, y = y, x
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
    _check_stubs(N, d)
    if d == N - 1:
        return complete_graph(N)._replace(seed=seed)
    rng = random.Random(derive_seed("regular-graph", N, d, seed))
    stubs = np.repeat(np.arange(N), d).tolist()
    for attempt in range(max_rejections):
        pairing = _pairing_attempt(stubs.copy(), N, rng)
        if pairing is not None:
            return RegularGraph.from_edges(N, d, pairing, seed)
    edges = _switching_repair(N, d, rng)
    return RegularGraph.from_edges(N, d, list(edges), seed, uniform=False)


def girth(graph: RegularGraph) -> float:
    """Length of the shortest cycle; inf for forests.  One whole-array search
    from every source at once, radius by radius, over the endpoints of
    non-backtracking walks: two equal radius-r endpoints of one source close a
    2r-cycle, and an edge between two radius-r endpoints of one source closes
    a (2r+1)-cycle.  Until one closes, each source's walks are its BFS tree, so
    the first radius to close a cycle gives the girth; a forest runs out of
    endpoints.  Sources go in chunks, halved while a step would hold more than
    GIRTH_STEP_ENDPOINTS endpoints."""
    adj = graph.adjacency
    n = len(adj)
    deg = np.fromiter(map(len, adj), np.int64, n)
    start = np.zeros(n + 1, np.int64)
    np.cumsum(deg, out=start[1:])
    flat = np.fromiter(itertools.chain.from_iterable(adj), np.int64, start[-1])
    best = math.inf
    sources = np.arange(n)
    # A chunk: its source range, and per endpoint its source, vertex and the
    # vertex before it (-1 at radius 0), grouped by source; the sorted
    # endpoint keys source * n + vertex; the radius.
    chunks = [(0, n, sources, sources, np.full(n, -1), sources * n + sources, 0)]
    while chunks and best > 3:
        lo, hi, src, cur, prev, keys, r = chunks.pop()
        while len(cur) and 2 * r + 1 < best:
            counts = deg[cur]
            total = int(counts.sum())
            if total > GIRTH_STEP_ENDPOINTS and hi - lo > 1:
                mid = (lo + hi) // 2
                cut = int(np.searchsorted(src, mid))
                chunks.append((mid, hi, src[cut:], cur[cut:], prev[cut:], keys[cut:], r))
                hi, src, cur, prev, keys = mid, src[:cut], cur[:cut], prev[:cut], keys[:cut]
                continue
            ends = np.cumsum(counts)
            nxt = flat[np.arange(total) + np.repeat(start[cur] - ends + counts, counts)]
            forward = nxt != np.repeat(prev, counts)
            src, prev, cur = np.repeat(src, counts)[forward], np.repeat(cur, counts)[forward], nxt[forward]
            nkeys = np.sort(src * n + cur)
            if (keys[np.minimum(np.searchsorted(keys, nkeys), len(keys) - 1)] == nkeys).any():
                best = 2 * r + 1
                break
            r += 1
            if 2 * r < best and (nkeys[1:] == nkeys[:-1]).any():
                best = 2 * r
                break
            keys = nkeys
    return best


def certify_expander(
    graph: RegularGraph, gap_min: float, girth_min: float, attempts: int = 1
) -> Optional[ExpanderCertificate]:
    """Certificate if the graph meets the gap and girth thresholds, else None."""
    if gap_min < 0 or girth_min < 0:
        raise InputError("thresholds must be non-negative")
    g = girth(graph)  # first: about 3 in 4 cubic candidates hold a triangle
    if g < girth_min or not graph.is_connected():
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
    _check_stubs(n, n - 1)
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
