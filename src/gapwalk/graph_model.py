"""Parameter schedules, vertex addressing, the index walk and core distances.

The graph family: a regular core graph (the "expander") where every core vertex
carries, for each level k = 1..K-1, (d_k - d_{k+1}) pendant copies of the
recursively decorated tree of level k.  A level-k tree is a perfect tree whose
internal vertices have d_k - 1 children and whose leaves sit at depth l_k; every
internal vertex additionally carries, for each lower level i < k, (d_i - d_{i+1})
pendant copies of the level-i tree.  With expander degree equal to d_K every
non-leaf, non-isolated vertex of the assembled graph has degree d_1.

Adjacency comes from one place, the index walk (`index_info`): a walk from the
root to a canonical index that yields that vertex's neighbour indices.  Every
experiment reads it, and so does `materialize`, so the dense checks cover the
same adjacency.  Vertex counts, indices and ranks are exact integers of any
width: every subtree size comes from one closed form (`_Sizes`), so neither
counting nor ranking has a size cap.  Everything here is pure and immutable;
no vertex set is ever materialized unless `materialize` is called explicitly,
and it refuses more than MATERIALIZE_CAP vertices.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from ._util import InputError

MATERIALIZE_CAP = 200_000
INDEX_CACHE_CAP = 1 << 20  # entries per per-index cache of one instance

CORE = "c"
DECOR = "d"


class ScheduleError(InputError):
    """Invalid degree/depth schedule or parameters."""


class InvalidVertexError(ValueError):
    """A vertex that does not belong to the instance."""


class InvalidAddressError(InvalidVertexError):
    """A tree address that does not denote a node of the requested tree."""


class SizeCapError(InputError):
    """Instance past the cap of `materialize` or of the dense spectral
    reference; the CLI reports it as a config error."""


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def degree_schedule(n: int, k: int) -> int:
    """Level-k degree 2n - k*sqrt(n) of the standard family; n must be a perfect square."""
    root = _exact_sqrt(n)
    if not 1 <= k <= root:
        raise ScheduleError(f"level k={k} out of range [1, {root}]")
    return 2 * n - k * root


def depth_schedule(n: int, k: int) -> int:
    """Level-k depth k * 10 * n^(3/2) * log2(n), rounded to the nearest integer."""
    root = _exact_sqrt(n)
    if not 1 <= k <= root:
        raise ScheduleError(f"level k={k} out of range [1, {root}]")
    return round(k * 10 * n * root * math.log2(n))


def standard_girth_floor(n: int) -> int:
    """Core girth requirement 40 n^2 log2(n) + 8 of the standard family."""
    return round(40 * n * n * math.log2(n)) + 8


def standard_expander_size(n: int) -> int:
    """Core vertex count 2^(21 n^2 log2(n)^2) of the standard family (exact big int)."""
    return 1 << round(21 * n * n * math.log2(n) ** 2)


def _exact_sqrt(n: int) -> int:
    if n < 1:
        raise ScheduleError("n must be positive")
    root = math.isqrt(n)
    if root * root != n:
        raise ScheduleError(f"n={n} is not a perfect square")
    return root


class Level(NamedTuple):
    """Level k of a schedule: what each internal vertex of a level-k segment carries."""

    children: int  # core children: d_k - 1
    depth: int  # l_k, the hops from a segment's root to its leaves
    decorations: tuple  # (level i, copies d_i - d_{i+1}) for i = k-1 down to 1


class Schedule:
    """Degree/depth schedule (d_1..d_K, l_1..l_K) defining the tree family.

    Degrees strictly decrease with d_K >= 2; depths strictly increase.  A depth
    of 0 (single-vertex core) is allowed only at level 1, for degenerate
    spectral fixtures; graph instances require depths >= 1.  `table` maps each
    level 1..K to its `Level`; a core vertex carries the decorations of level K.
    Equality and hashing are those of (degrees, depths): spectral caches key
    on schedules.
    """

    def __init__(self, degrees: tuple[int, ...], depths: tuple[int, ...]):
        d, l = degrees, depths
        if len(d) != len(l) or not d:
            raise ScheduleError("degrees and depths must be equal-length, non-empty")
        if any(d[i] <= d[i + 1] for i in range(len(d) - 1)):
            raise ScheduleError(f"degrees must strictly decrease: {d}")
        if d[-1] < 2:
            raise ScheduleError(f"last degree must be >= 2: {d}")
        if any(l[i] >= l[i + 1] for i in range(len(l) - 1)):
            raise ScheduleError(f"depths must strictly increase: {l}")
        if l[0] < 0:
            raise ScheduleError(f"depths must be non-negative: {l}")
        self.degrees, self.depths = d, l
        self.table = {}
        for k in range(1, len(d) + 1):
            decorations = tuple((i, d[i - 1] - d[i]) for i in range(k - 1, 0, -1))
            self.table[k] = Level(d[k - 1] - 1, l[k - 1], decorations)

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return (self.degrees, self.depths) == (other.degrees, other.depths)

    def __hash__(self):
        return hash((self.degrees, self.depths))

    def __repr__(self):
        return f"Schedule(degrees={self.degrees!r}, depths={self.depths!r})"

    @property
    def levels(self) -> int:
        return len(self.degrees)

    def check_level(self, k: int):
        """Refuse a level, read from a config, that the schedule does not have."""
        if k not in self.table:
            raise ScheduleError(f"level {k} out of range [1, {self.levels}]")


class GraphParams:
    """One instance of the graph family: the schedule, plus what it does not
    say: the core size, the core girth floor and the label padding ratio.  The
    core degree is d_K, which `MainGraph` checks against the core."""

    def __init__(self, schedule: Schedule, expander_size: int, girth_floor: int, padding_ratio: float):
        if schedule.depths[0] < 1:
            raise ScheduleError("graph instances require depths >= 1")
        if not 0 < padding_ratio <= 1:
            raise ScheduleError(f"padding_ratio must lie in (0, 1]: {padding_ratio}")
        self.schedule, self.expander_size = schedule, expander_size
        self.girth_floor, self.padding_ratio = girth_floor, padding_ratio

    @classmethod
    def standard(cls, n: int) -> "GraphParams":
        """Standard-family parameters for perfect-square n."""
        levels = range(1, _exact_sqrt(n) + 1)
        degrees = tuple(degree_schedule(n, k) for k in levels)
        depths = tuple(depth_schedule(n, k) for k in levels)
        return cls(Schedule(degrees, depths), standard_expander_size(n), standard_girth_floor(n), 2.0 ** -20)

    @classmethod
    def scaled(
        cls,
        degrees: Iterable[int],
        depths: Iterable[int],
        expander_size: int,
        girth_floor: int = 3,
        padding_ratio: float = 2.0 ** -20,
    ) -> "GraphParams":
        return cls(Schedule(tuple(degrees), tuple(depths)), expander_size, girth_floor, padding_ratio)


# ---------------------------------------------------------------------------
# vertices and tree addresses
# ---------------------------------------------------------------------------

class ExpanderVertex(NamedTuple):
    index: int


class TreeVertex(NamedTuple):
    anchor: int
    level: int
    copy: int
    address: tuple


class IsolatedVertex(NamedTuple):
    index: int


Vertex = Union[ExpanderVertex, TreeVertex, IsolatedVertex]


def core_hop(child: int) -> tuple:
    return (CORE, child)


def decoration_hop(level: int, slot: int) -> tuple:
    return (DECOR, level, slot)


# ---------------------------------------------------------------------------
# exact counting and canonical ranking (preorder; children in canonical order)
# ---------------------------------------------------------------------------

class _Sizes:
    """Subtree sizes of one schedule's decorated trees, in closed form.

    A level-j segment whose root lies h hops above its leaves holds
    S(h) = c + b S(h - 1) vertices, S(0) = 1, where b = d_j - 1 and c is 1
    plus the vertices of one internal vertex's decoration trees; so
    S(h) = b^h + c (b^h - 1) / (b - 1), or 1 + c h when b = 1.  Only each
    level's whole-tree size is kept: a walk steps down to a core child with
    S(h - 1) = (S(h) - c) // b, and a node is a leaf exactly when its subtree
    size is 1.  Levels are filled on demand, lowest first (`upto`)."""

    def __init__(self, schedule: Schedule):
        self.table = schedule.table
        self.total = [None]  # per level: vertices of the decorated tree
        self.c = [None]  # per level: 1 + one internal vertex's decoration vertices
        # per level: {decoration level: (copy size, block size, offset after
        # the core children)}, in canonical (descending-level) order
        self.blocks = [None]

    def upto(self, top: int) -> "_Sizes":
        """Fill levels up to `top`, and no further: b^h at a level nothing
        reads can be far too large to build."""
        for j in range(len(self.total), top + 1):
            level, blocks, acc = self.table[j], {}, 0
            for lvl, copies in level.decorations:
                size = self.total[lvl]
                blocks[lvl] = (size, copies * size, acc)
                acc += copies * size
            b, h, c = level.children, level.depth, 1 + acc
            power = b ** h
            self.total.append(1 + c * h if b == 1 else power + c * (power - 1) // (b - 1))
            self.c.append(c)
            self.blocks.append(blocks)
        return self

    def rank(self, k: int, address: tuple) -> int:
        table, seg, size, r = self.table, k, self.total[k], 0
        for hop in address:
            if size == 1:
                raise InvalidAddressError(f"hop below a leaf in {address!r}")
            r += 1
            if len(hop) == 2 and hop[0] == CORE:
                t, b = hop[1], table[seg].children
                if not 0 <= t < b:
                    raise InvalidAddressError(f"core child {t} out of range")
                size = (size - self.c[seg]) // b
                r += t * size
            elif len(hop) == 3 and hop[0] == DECOR:
                _, lvl, slot = hop
                # A level outside 1..seg-1 has no block: no copies.
                lsize, block, offset = self.blocks[seg].get(lvl, (1, 0, 0))
                if not 0 <= slot < block // lsize:
                    raise InvalidAddressError(f"bad decoration hop {hop!r}")
                r += size - self.c[seg] + offset + slot * lsize
                seg, size = lvl, lsize
            else:
                raise InvalidAddressError(f"unknown hop {hop!r}")
        return r

    def unrank(self, k: int, r: int) -> tuple:
        if not 0 <= r < self.total[k]:
            raise InvalidAddressError(f"rank {r} out of range")
        table, seg, size = self.table, k, self.total[k]
        hops = []
        while r > 0:
            r -= 1
            core_block = size - self.c[seg]
            if r < core_block:
                size = core_block // table[seg].children
                t, r = divmod(r, size)
                hops.append(core_hop(t))
                continue
            r -= core_block
            for lvl, (lsize, block, _) in self.blocks[seg].items():
                if r < block:
                    slot, r = divmod(r, lsize)
                    hops.append(decoration_hop(lvl, slot))
                    seg, size = lvl, lsize
                    break
                r -= block
            else:
                raise InvalidAddressError("rank walk escaped decoration blocks")
        return tuple(hops)

    def walk(self, k: int, r: int, offset: int, up: Optional[int]) -> tuple[tuple, Optional[int], Optional[tuple]]:
        """One walk from the root of the level-k tree to the node at rank r,
        with no address built: (its neighbours' ranks plus `offset`: the
        parent, or `up` at the root when given, then the children in canonical
        order; its leaf level, k minus the level of the leaf's segment, or None
        for an internal node; the address prefix up to its first decoration
        hop, for leaves only).  The caller checks that r is in range."""
        table, c_of, blocks_of = self.table, self.c, self.blocks
        seg, size, pos, parent = k, self.total[k], 0, up
        b, c = table[k].children, c_of[k]  # of the current segment's level
        core_path, first_decoration = [], None
        while pos != r:
            parent = pos + offset
            rest = r - pos - 1
            core_block = size - c
            if rest < core_block:
                size = core_block // b
                t = rest // size
                pos += 1 + t * size
                if first_decoration is None:
                    core_path.append(t)
                continue
            rest -= core_block
            pos += 1 + core_block
            for lvl, (lsize, block, _) in blocks_of[seg].items():
                if rest < block:
                    slot = rest // lsize
                    pos += slot * lsize
                    if first_decoration is None:
                        first_decoration = decoration_hop(lvl, slot)
                    seg, size = lvl, lsize
                    b, c = table[lvl].children, c_of[lvl]
                    break
                rest -= block
                pos += block
            else:
                raise InvalidAddressError("rank walk escaped decoration blocks")
        neighbors = [] if parent is None else [parent]
        if size == 1:
            prefix = None
            if first_decoration is not None:
                prefix = tuple(core_hop(t) for t in core_path) + (first_decoration,)
            return tuple(neighbors), k - seg, prefix
        core_block = size - c
        first = r + 1 + offset
        neighbors.extend(range(first, first + core_block, core_block // b))
        first += core_block
        for lsize, block, _ in blocks_of[seg].values():
            neighbors.extend(range(first, first + block, lsize))
            first += block
        return tuple(neighbors), None, None


@lru_cache(maxsize=None)
def _sizes_for(schedule: Schedule) -> _Sizes:
    return _Sizes(schedule)


# ---------------------------------------------------------------------------
# graph instances
# ---------------------------------------------------------------------------

class IndexInfo(NamedTuple):
    """What one walk from the root learns about the vertex at a canonical index."""

    neighbors: tuple  # canonical indices: the parent (a tree root's anchor), then the children
    tree: Optional[tuple]  # (anchor, level, copy) of its tree; None on the core
    leaf_level: Optional[int]  # k minus its segment's level (0: an exit leaf); None unless a leaf
    decoration: Optional[tuple]  # a leaf's address prefix to its first decoration hop


def _index_info(graph, index: int) -> IndexInfo:
    """`IndexInfo` of the vertex at `index`, cached per index, since the
    index-level topology is shared by every labeling.  Bound as the
    `index_info` method of both instance classes."""
    info = graph._info_cache.get(index)
    if info is None:
        if not 0 <= index < graph.num_nonisolated:
            raise InvalidVertexError(f"index {index} out of range")
        info = graph._walk(index)
        if len(graph._info_cache) < INDEX_CACHE_CAP:
            graph._info_cache[index] = info
    return info


class TreeGraph:
    """A standalone fully decorated level-k tree, rooted; used by tree-exploration
    experiments.  The root has no parent, so its degree is d_1 - 1."""

    def __init__(self, schedule: Schedule, k: int):
        schedule.check_level(k)
        if schedule.depths[0] < 1:
            raise ScheduleError("tree instances require depths >= 1")
        self.schedule, self.k = schedule, k
        self._sizes = _sizes_for(schedule).upto(k)
        self.num_nonisolated = self._sizes.total[k]
        self._info_cache: dict[int, IndexInfo] = {}

    index_info = _index_info

    def _walk(self, index: int) -> IndexInfo:
        neighbors, leaf, decoration = self._sizes.walk(self.k, index, 0, None)
        return IndexInfo(neighbors, (0, self.k, 0), leaf, decoration)

    @property
    def root(self) -> TreeVertex:
        return TreeVertex(0, self.k, 0, ())

    def index_of(self, v: TreeVertex) -> int:
        if not (isinstance(v, TreeVertex) and v[:3] == (0, self.k, 0)):
            raise InvalidVertexError(f"{v!r} is not a vertex of this tree")
        return self._sizes.rank(self.k, v.address)

    def vertex_at(self, index: int) -> TreeVertex:
        return TreeVertex(0, self.k, 0, self._sizes.unrank(self.k, index))


class MainGraph:
    """The assembled instance: expander core plus attached trees at levels 1..K-1.

    `expander` must expose `N` (vertex count) and `adjacency` (per-vertex sorted
    neighbor tuples); its degree must be d_K.
    """

    def __init__(self, params: GraphParams, expander):
        self.params = params
        self.schedule = schedule = params.schedule
        self.expander = expander
        if expander.N != params.expander_size:
            raise ScheduleError(
                f"expander has {expander.N} vertices, params say {params.expander_size}"
            )
        degs = {len(nbrs) for nbrs in expander.adjacency}
        if degs != {schedule.degrees[-1]}:
            raise ScheduleError(f"expander degree set {degs} does not match d_K={schedule.degrees[-1]}")
        # A core vertex carries the decorations of an internal level-K vertex,
        # its d_K core neighbours in place of the d_K - 1 children and parent;
        # so its degree is d_1.  Blocks are laid out from level 1 up.
        self._attach = schedule.table[schedule.levels].decorations[::-1]
        self._sizes = _sizes_for(schedule).upto(schedule.levels - 1)
        # Cumulative offsets of (level, copy) tree blocks within one anchor block.
        self._block_offsets = []
        acc = 1
        for k, c in self._attach:
            self._block_offsets.append((k, c, acc, self._sizes.total[k]))
            acc += c * self._sizes.total[k]
        self.per_anchor = acc
        self.num_nonisolated = expander.N * self.per_anchor
        self._info_cache: dict[int, IndexInfo] = {}

    index_info = _index_info

    def _walk(self, index: int) -> IndexInfo:
        if index < self.expander.N:
            first = self.expander.N + index * (self.per_anchor - 1)
            roots = [first + off - 1 + j * size for _, c, off, size in self._block_offsets for j in range(c)]
            return IndexInfo(tuple(self.expander.adjacency[index]) + tuple(roots), None, None, None)
        anchor, k, copy, inner = self._tree_block(index)
        neighbors, leaf, decoration = self._sizes.walk(k, inner, index - inner, anchor)
        return IndexInfo(neighbors, (anchor, k, copy), leaf, decoration)

    # -- structure ---------------------------------------------------------

    def _check_tree_vertex(self, v: TreeVertex):
        if not 0 <= v.anchor < self.expander.N:
            raise InvalidVertexError(f"anchor {v.anchor} out of range")
        lvls = dict(self._attach)
        if v.level not in lvls:
            raise InvalidVertexError(f"no trees attached at level {v.level}")
        if not 0 <= v.copy < lvls[v.level]:
            raise InvalidVertexError(f"copy {v.copy} out of range at level {v.level}")

    # -- distance ----------------------------------------------------------

    def expander_distance_to_set(self, us: Iterable[int], v: int) -> int:
        """Fewest expander vertices, endpoints included, on a shortest path from
        v to any u in us, over canonical indices: 0 when v shares an attached
        tree with a u, 1 when it shares only an anchor.  One BFS out of v's
        anchor stops at the nearest anchor of a u; anchors and trees come from
        index arithmetic, with no unranking."""
        (anchor, tree), *placed = map(self._placement, (v, *us))
        if tree is not None and any(t == tree for _, t in placed):
            return 0
        anchors = {a for a, _ in placed}
        dist = bfs_distances(self.expander.adjacency, anchor, anchors)
        reached = [dist[a] for a in anchors if a in dist]
        if not reached:
            raise InvalidVertexError("no anchor of the set is reachable on the expander")
        return 1 + min(reached)

    def _placement(self, index: int) -> tuple[int, Optional[tuple]]:
        """(anchor, its tree's (anchor, level, copy) or None on the core)."""
        if not 0 <= index < self.num_nonisolated:
            raise InvalidVertexError(f"index {index} is not a non-isolated vertex")
        if index < self.expander.N:
            return index, None
        anchor, k, copy, _ = self._tree_block(index)
        return anchor, (anchor, k, copy)

    # -- canonical enumeration ---------------------------------------------

    def index_of(self, v: Vertex) -> int:
        if isinstance(v, ExpanderVertex):
            if not 0 <= v.index < self.expander.N:
                raise InvalidVertexError(f"expander index {v.index} out of range")
            return v.index
        if isinstance(v, TreeVertex):
            self._check_tree_vertex(v)
            base = self.expander.N + v.anchor * (self.per_anchor - 1)
            # Anchor blocks hold only tree vertices; the anchor itself is indexed
            # in the expander range, hence per_anchor - 1 per block.
            for k, c, off, size in self._block_offsets:
                if k == v.level:
                    return base + (off - 1) + v.copy * size + self._sizes.rank(k, v.address)
            raise InvalidVertexError(f"no block for level {v.level}")
        isolated = isinstance(v, IsolatedVertex)
        raise InvalidVertexError("isolated vertices are not enumerated" if isolated else f"{v!r} is not a vertex")

    def vertex_at(self, index: int) -> Vertex:
        if not 0 <= index < self.num_nonisolated:
            raise InvalidVertexError(f"index {index} out of range")
        if index < self.expander.N:
            return ExpanderVertex(index)
        anchor, k, copy, inner = self._tree_block(index)
        return TreeVertex(anchor, k, copy, self._sizes.unrank(k, inner))

    def _tree_block(self, index: int) -> tuple[int, int, int, int]:
        """(anchor, level, copy, rank within the tree) of a tree vertex's index."""
        anchor, r = divmod(index - self.expander.N, self.per_anchor - 1)
        r += 1
        for k, c, off, size in self._block_offsets:
            if r < off + c * size:
                copy, inner = divmod(r - off, size)
                return anchor, k, copy, inner
        raise InvalidVertexError("index walk escaped anchor block")


Instance = Union[TreeGraph, MainGraph]


# ---------------------------------------------------------------------------
# materialization (small instances only)
# ---------------------------------------------------------------------------

class MaterializedGraph(NamedTuple):
    vertices: list
    index: dict
    adjacency: list  # list[list[int]], sorted

    @property
    def n(self) -> int:
        return len(self.vertices)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])


def materialize(graph: Instance) -> MaterializedGraph:
    """Explicit vertex list + adjacency of a small instance, in canonical
    order; the adjacency is the index walk's, the one every trial reads."""
    n = graph.num_nonisolated
    if n > MATERIALIZE_CAP:
        # A count of thousands of digits cannot be printed: give its bit length.
        raise SizeCapError(f"a {n.bit_length()}-bit vertex count exceeds the materialization "
                           f"cap {MATERIALIZE_CAP}")
    vertices = [graph.vertex_at(i) for i in range(n)]
    index = {v: i for i, v in enumerate(vertices)}
    adjacency = [sorted(graph.index_info(i).neighbors) for i in range(n)]
    return MaterializedGraph(vertices, index, adjacency)


def bfs_distances(adjacency: list, source: int, stop=frozenset()) -> dict:
    """Plain BFS hop distances on an adjacency-list graph: {vertex: distance}
    over the vertices reached, so a search costs the ball it reaches.

    The search ends at the first vertex of `stop` it reaches (the source
    included).  BFS reaches vertices in nondecreasing distance, so that vertex
    is the nearest of `stop` and the only one of `stop` with a distance."""
    dist = {source: 0}
    if source in stop:
        return dist
    layer, d = [source], 0
    while layer:
        d += 1
        next_layer = []
        for u in layer:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = d
                    if w in stop:
                        return dist
                    next_layer.append(w)
        layer = next_layer
    return dist


def adjacency_matrix(adjacency) -> "scipy.sparse.csr_matrix":
    """Sparse 0/1 adjacency matrix of an adjacency-list graph."""
    # Imported here, not at module level, where it would be most of the
    # time `import gapwalk.cli` takes.
    import scipy.sparse

    rows = [u for u, nbrs in enumerate(adjacency) for _ in nbrs]
    cols = [v for nbrs in adjacency for v in nbrs]
    n = len(adjacency)
    return scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


# Where Lanczos overtakes dense `eigh` on random cubic graphs (CHANGES.md has
# the measured table).
DENSE_EIG_LIMIT = 400


def top_eigenpairs(adjacency) -> tuple[float, float, np.ndarray, float, float]:
    """(lambda1, lambda2, v1, r1, r2): the two largest adjacency eigenvalues
    of an adjacency-list graph with at least two vertices, the top eigenvector,
    and each pair's residual |A v - lambda v| / |v|.  Dense `eigh` up to
    DENSE_EIG_LIMIT vertices, Lanczos (`eigsh`) above.  Lanczos draws its start
    and restart vectors from a fixed seed, so either path gives the same bits
    on every call and in every process under one BLAS kernel."""
    import scipy.linalg
    import scipy.sparse.linalg

    n = len(adjacency)
    a = adjacency_matrix(adjacency)
    if n <= DENSE_EIG_LIMIT:
        # Fortran order lets LAPACK overwrite the one dense copy in place.
        vals, vecs = scipy.linalg.eigh(a.toarray(order="F"), subset_by_index=[n - 2, n - 1],
                                       overwrite_a=True, check_finite=False)
    else:
        vals, vecs = scipy.sparse.linalg.eigsh(a, k=2, which="LA", tol=1e-14, maxiter=10000, rng=0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    lam2, lam1 = float(vals[0]), float(vals[1])
    v2, v1 = vecs[:, 0], vecs[:, 1]
    r1 = float(np.linalg.norm(a @ v1 - lam1 * v1) / np.linalg.norm(v1))
    r2 = float(np.linalg.norm(a @ v2 - lam2 * v2) / np.linalg.norm(v2))
    return lam1, lam2, v1, r1, r2
