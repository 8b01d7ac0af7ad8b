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
same adjacency.  Everything here is pure and immutable; no vertex set is ever
materialized unless `materialize` is called explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from ._util import InputError

MATERIALIZE_CAP = 200_000
RANKING_CAP = 1 << 50
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
    """Instance too large for the requested dense / label-indexed operation;
    the CLI reports it as a config error."""


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


@dataclass(frozen=True)
class Schedule:
    """Degree/depth schedule (d_1..d_K, l_1..l_K) defining the tree family.

    Degrees strictly decrease with d_K >= 2; depths strictly increase.  A depth
    of 0 (single-vertex core) is allowed only at level 1, for degenerate
    spectral fixtures; graph instances require depths >= 1.
    """

    degrees: tuple[int, ...]
    depths: tuple[int, ...]

    def __post_init__(self):
        d, l = self.degrees, self.depths
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
        # Per-level tables indexed by level (entry 0 unused) for the hot paths
        # (ranking and the index walk).  They are not dataclass fields,
        # so equality and hashing stay those of (degrees, depths).
        levels = range(1, len(d) + 1)
        tables = {
            "_depth_of": (None,) + l,
            "_branching_of": (None,) + tuple(x - 1 for x in d),
            "_decoration_count_of": (None,) + tuple(d[i - 1] - d[i] for i in levels[:-1]) + (None,),
            "_decoration_levels_of": (None,) + tuple(tuple(range(j - 1, 0, -1)) for j in levels),
        }
        for name, table in tables.items():
            object.__setattr__(self, name, table)

    @property
    def levels(self) -> int:
        return len(self.degrees)

    def degree(self, k: int) -> int:
        self._check_level(k)
        return self.degrees[k - 1]

    def depth(self, k: int) -> int:
        self._check_level(k)
        return self._depth_of[k]

    def branching(self, k: int) -> int:
        """Core children per internal vertex of a level-k segment."""
        self._check_level(k)
        return self._branching_of[k]

    def decoration_count(self, i: int) -> int:
        """Pendant level-i tree copies per decorated vertex: d_i - d_{i+1}."""
        self._check_level(i)
        if i >= self.levels:
            raise ScheduleError(f"decoration count undefined at top level {i}")
        return self._decoration_count_of[i]

    def decoration_levels(self, j: int) -> tuple[int, ...]:
        """Decoration levels attached to internal level-j vertices, descending."""
        self._check_level(j)
        return self._decoration_levels_of[j]

    def _check_level(self, k: int):
        if not 1 <= k <= self.levels:
            raise ScheduleError(f"level {k} out of range [1, {self.levels}]")


@dataclass(frozen=True)
class GraphParams:
    """Full parameter set for one instance of the graph family."""

    degrees: tuple[int, ...]
    depths: tuple[int, ...]
    expander_degree: int
    expander_size: int
    girth_floor: int
    padding_ratio: float
    scale_mode: str  # "standard" | "scaled"
    n: Optional[int] = None

    def __post_init__(self):
        sched = Schedule(self.degrees, self.depths)
        if self.depths[0] < 1:
            raise ScheduleError("graph instances require depths >= 1")
        # Degree identity: d_E + sum_{k<K}(d_k - d_{k+1}) = d_1 forces d_E = d_K.
        if self.expander_degree != self.degrees[-1]:
            raise ScheduleError(
                f"expander degree {self.expander_degree} must equal the last "
                f"schedule degree {self.degrees[-1]} for degree regularity"
            )
        if not 0 < self.padding_ratio <= 1:
            raise ScheduleError(f"padding_ratio must lie in (0, 1]: {self.padding_ratio}")
        if self.scale_mode not in ("standard", "scaled"):
            raise ScheduleError(f"unknown scale_mode {self.scale_mode!r}")
        object.__setattr__(self, "_schedule", sched)

    @property
    def schedule(self) -> Schedule:
        return self._schedule

    @property
    def levels(self) -> int:
        return len(self.degrees)

    @classmethod
    def standard(cls, n: int, padding_ratio: Optional[float] = None) -> "GraphParams":
        """Standard-family parameters for perfect-square n."""
        root = _exact_sqrt(n)
        degrees = tuple(degree_schedule(n, k) for k in range(1, root + 1))
        depths = tuple(depth_schedule(n, k) for k in range(1, root + 1))
        return cls(
            degrees=degrees,
            depths=depths,
            expander_degree=n,
            expander_size=standard_expander_size(n),
            girth_floor=standard_girth_floor(n),
            padding_ratio=padding_ratio if padding_ratio is not None else 2.0 ** -20,
            scale_mode="standard",
            n=n,
        )

    @classmethod
    def scaled(
        cls,
        degrees: Iterable[int],
        depths: Iterable[int],
        expander_size: int,
        girth_floor: int = 3,
        padding_ratio: float = 2.0 ** -20,
    ) -> "GraphParams":
        degrees = tuple(degrees)
        depths = tuple(depths)
        return cls(
            degrees=degrees,
            depths=depths,
            expander_degree=degrees[-1],
            expander_size=expander_size,
            girth_floor=girth_floor,
            padding_ratio=padding_ratio,
            scale_mode="scaled",
        )

    def attached_levels(self) -> tuple[int, ...]:
        """Tree levels attached to each expander vertex: 1..K-1."""
        return tuple(range(1, self.levels))


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
# exact counting (arbitrary precision)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _core_counts(degrees: tuple, depths: tuple, j: int) -> tuple[int, int]:
    """(internal vertex count, leaf count) of a bare level-j perfect tree."""
    b = degrees[j - 1] - 1
    depth = depths[j - 1]
    if b == 1:
        return depth, 1
    return (b ** depth - 1) // (b - 1), b ** depth


@lru_cache(maxsize=None)
def _tree_count(degrees: tuple, depths: tuple, k: int) -> int:
    internal, leaves = _core_counts(degrees, depths, k)
    per_internal = sum(
        (degrees[i - 1] - degrees[i]) * _tree_count(degrees, depths, i)
        for i in range(1, k)
    )
    return internal + leaves + internal * per_internal


def count_tree_vertices(schedule: Schedule, k: int) -> int:
    """Exact vertex count of the fully decorated level-k tree."""
    schedule._check_level(k)
    return _tree_count(schedule.degrees, schedule.depths, k)


# ---------------------------------------------------------------------------
# canonical ranking of tree nodes (preorder; children in canonical order)
# ---------------------------------------------------------------------------

class _SubtreeSizes:
    """Subtree sizes per (segment level, depth), plus child-block offsets."""

    def __init__(self, schedule: Schedule, k: int):
        self.schedule = schedule
        self.k = k
        self.sizes: dict[int, list[int]] = {}
        dec_totals: dict[int, int] = {}
        for j in range(1, k + 1):
            dec_total = sum(
                schedule.decoration_count(i) * self.sizes[i][0]
                for i in schedule.decoration_levels(j)
            )
            dec_totals[j] = dec_total
            depth_j = schedule.depth(j)
            b = schedule.branching(j)
            arr = [0] * (depth_j + 1)
            arr[depth_j] = 1
            for p in range(depth_j - 1, -1, -1):
                arr[p] = 1 + b * arr[p + 1] + dec_total
            self.sizes[j] = arr
        # Offsets of descending-level decoration blocks after the core blocks.
        self.dec_offsets: dict[int, dict[int, int]] = {}
        for j in range(1, k + 1):
            offs, acc = {}, 0
            for lvl in schedule.decoration_levels(j):
                offs[lvl] = acc
                acc += schedule.decoration_count(lvl) * self.sizes[lvl][0]
            self.dec_offsets[j] = offs

    def total(self) -> int:
        return self.sizes[self.k][0]

    def rank(self, address: tuple) -> int:
        sched = self.schedule
        depth_of, branching_of = sched._depth_of, sched._branching_of
        decoration_count_of = sched._decoration_count_of
        seg, depth, r = self.k, 0, 0
        for hop in address:
            if depth >= depth_of[seg]:
                raise InvalidAddressError(f"hop below a leaf in {address!r}")
            child_size = self.sizes[seg][depth + 1]
            r += 1
            if len(hop) == 2 and hop[0] == CORE:
                t = hop[1]
                if not 0 <= t < branching_of[seg]:
                    raise InvalidAddressError(f"core child {t} out of range")
                r += t * child_size
                depth += 1
            elif len(hop) == 3 and hop[0] == DECOR:
                _, lvl, slot = hop
                if not 1 <= lvl < seg or not 0 <= slot < decoration_count_of[lvl]:
                    raise InvalidAddressError(f"bad decoration hop {hop!r}")
                r += branching_of[seg] * child_size
                r += self.dec_offsets[seg][lvl] + slot * self.sizes[lvl][0]
                seg, depth = lvl, 0
            else:
                raise InvalidAddressError(f"unknown hop {hop!r}")
        return r

    def unrank(self, r: int) -> tuple:
        if not 0 <= r < self.total():
            raise InvalidAddressError(f"rank {r} out of range")
        sched = self.schedule
        branching_of, decoration_levels_of = sched._branching_of, sched._decoration_levels_of
        decoration_count_of = sched._decoration_count_of
        seg, depth = self.k, 0
        hops = []
        while r > 0:
            r -= 1
            child_size = self.sizes[seg][depth + 1]
            core_block = branching_of[seg] * child_size
            if r < core_block:
                t, r = divmod(r, child_size)
                hops.append(core_hop(t))
                depth += 1
                continue
            r -= core_block
            for lvl in decoration_levels_of[seg]:
                block = decoration_count_of[lvl] * self.sizes[lvl][0]
                if r < block:
                    slot, r = divmod(r, self.sizes[lvl][0])
                    hops.append(decoration_hop(lvl, slot))
                    seg, depth = lvl, 0
                    break
                r -= block
            else:
                raise InvalidAddressError("rank walk escaped decoration blocks")
        return tuple(hops)

    def walk(self, r: int, offset: int, up: Optional[int]) -> tuple[tuple, Optional[int], Optional[tuple]]:
        """One walk from the root to the node at rank r, with no address built:
        (its neighbours' ranks plus `offset`: the parent, or `up` at the root
        when given, then the children in canonical order; its leaf level, k
        minus the level of the leaf's segment, or None for an internal node;
        the address prefix up to its first decoration hop, for leaves only).
        The caller checks that r is in range."""
        sched, sizes = self.schedule, self.sizes
        branching_of, decoration_levels_of = sched._branching_of, sched._decoration_levels_of
        decoration_count_of = sched._decoration_count_of
        seg, depth, pos, parent = self.k, 0, 0, up
        core_path, first_decoration = [], None
        while pos != r:
            parent = pos + offset
            rest = r - pos - 1
            child_size = sizes[seg][depth + 1]
            core_block = branching_of[seg] * child_size
            if rest < core_block:
                t = rest // child_size
                pos += 1 + t * child_size
                depth += 1
                if first_decoration is None:
                    core_path.append(t)
                continue
            rest -= core_block
            pos += 1 + core_block
            for lvl in decoration_levels_of[seg]:
                size = sizes[lvl][0]
                block = decoration_count_of[lvl] * size
                if rest < block:
                    slot = rest // size
                    pos += slot * size
                    if first_decoration is None:
                        first_decoration = decoration_hop(lvl, slot)
                    seg, depth = lvl, 0
                    break
                rest -= block
                pos += block
            else:
                raise InvalidAddressError("rank walk escaped decoration blocks")
        neighbors = [] if parent is None else [parent]
        if depth == sched._depth_of[seg]:
            prefix = None
            if first_decoration is not None:
                prefix = tuple(core_hop(t) for t in core_path) + (first_decoration,)
            return tuple(neighbors), self.k - seg, prefix
        child_size = sizes[seg][depth + 1]
        first = r + 1 + offset
        neighbors.extend(range(first, first + branching_of[seg] * child_size, child_size))
        first += branching_of[seg] * child_size
        for lvl in decoration_levels_of[seg]:
            size = sizes[lvl][0]
            neighbors.extend(range(first, first + decoration_count_of[lvl] * size, size))
            first += decoration_count_of[lvl] * size
        return tuple(neighbors), None, None


@lru_cache(maxsize=None)
def _sizes_for(degrees: tuple, depths: tuple, k: int) -> _SubtreeSizes:
    return _SubtreeSizes(Schedule(degrees, depths), k)


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

    def __init__(self, params_or_schedule, k: int):
        if isinstance(params_or_schedule, GraphParams):
            self.schedule = params_or_schedule.schedule
            self.params = params_or_schedule
        else:
            self.schedule = params_or_schedule
            self.params = None
        self.schedule._check_level(k)
        if self.schedule.depth(1) < 1:
            raise ScheduleError("tree instances require depths >= 1")
        self.k = k
        self.num_nonisolated = count_tree_vertices(self.schedule, k)
        if self.num_nonisolated > RANKING_CAP:
            raise SizeCapError(
                f"tree with a ~{self.num_nonisolated.bit_length()}-bit vertex count "
                f"exceeds the ranking cap 2^{RANKING_CAP.bit_length() - 1}"
            )
        self._sizes = _sizes_for(self.schedule.degrees, self.schedule.depths, k)
        self._info_cache: dict[int, IndexInfo] = {}

    index_info = _index_info

    def _walk(self, index: int) -> IndexInfo:
        neighbors, leaf, decoration = self._sizes.walk(index, 0, None)
        return IndexInfo(neighbors, (0, self.k, 0), leaf, decoration)

    @property
    def root(self) -> TreeVertex:
        return TreeVertex(0, self.k, 0, ())

    def index_of(self, v: TreeVertex) -> int:
        if not (isinstance(v, TreeVertex) and v[:3] == (0, self.k, 0)):
            raise InvalidVertexError(f"{v!r} is not a vertex of this tree")
        return self._sizes.rank(v.address)

    def vertex_at(self, index: int) -> TreeVertex:
        return TreeVertex(0, self.k, 0, self._sizes.unrank(index))


class MainGraph:
    """The assembled instance: expander core plus attached trees at levels 1..K-1.

    `expander` must expose `N` (vertex count) and `adjacency` (per-vertex sorted
    neighbor tuples); its degree must equal params.expander_degree.
    """

    def __init__(self, params: GraphParams, expander):
        self.params = params
        self.schedule = params.schedule
        self.expander = expander
        if expander.N != params.expander_size:
            raise ScheduleError(
                f"expander has {expander.N} vertices, params say {params.expander_size}"
            )
        degs = {len(nbrs) for nbrs in expander.adjacency}
        if degs != {params.expander_degree}:
            raise ScheduleError(
                f"expander degree set {degs} does not match d_E={params.expander_degree}"
            )
        self._attach = [
            (k, self.schedule.decoration_count(k)) for k in params.attached_levels()
        ]
        self._tree_sizes = {
            k: count_tree_vertices(self.schedule, k) for k, _ in self._attach
        }
        self.per_anchor = 1 + sum(c * self._tree_sizes[k] for k, c in self._attach)
        self.num_nonisolated = expander.N * self.per_anchor
        self._rankers = {}
        if self.num_nonisolated <= RANKING_CAP:
            self._rankers = {
                k: _sizes_for(self.schedule.degrees, self.schedule.depths, k)
                for k, _ in self._attach
            }
        # Cumulative offsets of (level, copy) tree blocks within one anchor block.
        self._block_offsets = []
        acc = 1
        for k, c in self._attach:
            self._block_offsets.append((k, c, acc, self._tree_sizes[k]))
            acc += c * self._tree_sizes[k]
        self._info_cache: dict[int, IndexInfo] = {}

    index_info = _index_info

    def _walk(self, index: int) -> IndexInfo:
        self._require_ranking()
        if index < self.expander.N:
            first = self.expander.N + index * (self.per_anchor - 1)
            roots = [first + off - 1 + j * size for _, c, off, size in self._block_offsets for j in range(c)]
            return IndexInfo(tuple(self.expander.adjacency[index]) + tuple(roots), None, None, None)
        anchor, k, copy, inner = self._tree_block(index)
        neighbors, leaf, decoration = self._rankers[k].walk(inner, index - inner, anchor)
        return IndexInfo(neighbors, (anchor, k, copy), leaf, decoration)

    # -- structure ---------------------------------------------------------

    def degree_identity(self) -> bool:
        d = self.schedule.degrees
        return self.params.expander_degree + sum(
            d[k - 1] - d[k] for k in range(1, len(d))
        ) == d[0]

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
            self._require_ranking()
            self._check_tree_vertex(v)
            base = self.expander.N + v.anchor * (self.per_anchor - 1)
            # Anchor blocks hold only tree vertices; the anchor itself is indexed
            # in the expander range, hence per_anchor - 1 per block.
            for k, c, off, size in self._block_offsets:
                if k == v.level:
                    return base + (off - 1) + v.copy * size + self._rankers[k].rank(v.address)
            raise InvalidVertexError(f"no block for level {v.level}")
        isolated = isinstance(v, IsolatedVertex)
        raise InvalidVertexError("isolated vertices are not enumerated" if isolated else f"{v!r} is not a vertex")

    def vertex_at(self, index: int) -> Vertex:
        self._require_ranking()
        if not 0 <= index < self.num_nonisolated:
            raise InvalidVertexError(f"index {index} out of range")
        if index < self.expander.N:
            return ExpanderVertex(index)
        anchor, k, copy, inner = self._tree_block(index)
        return TreeVertex(anchor, k, copy, self._rankers[k].unrank(inner))

    def _tree_block(self, index: int) -> tuple[int, int, int, int]:
        """(anchor, level, copy, rank within the tree) of a tree vertex's index."""
        anchor, r = divmod(index - self.expander.N, self.per_anchor - 1)
        r += 1
        for k, c, off, size in self._block_offsets:
            if r < off + c * size:
                copy, inner = divmod(r - off, size)
                return anchor, k, copy, inner
        raise InvalidVertexError("index walk escaped anchor block")

    def _require_ranking(self):
        if self.num_nonisolated > RANKING_CAP:
            raise SizeCapError(
                f"instance with a ~{self.num_nonisolated.bit_length()}-bit vertex "
                f"count exceeds the ranking cap 2^{RANKING_CAP.bit_length() - 1}"
            )


Instance = Union[TreeGraph, MainGraph]


# ---------------------------------------------------------------------------
# materialization (small instances only)
# ---------------------------------------------------------------------------

@dataclass
class MaterializedGraph:
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
        raise SizeCapError(f"{n} vertices exceeds materialization cap {MATERIALIZE_CAP}")
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
