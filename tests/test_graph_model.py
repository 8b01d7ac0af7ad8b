import functools
import inspect
import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import assume, example, given, strategies as st

from gapwalk import expander_gen, graph_model as gm, oracle as orc
from conftest import (
    NodeClass,
    build_decorated_tree_topdown,
    classify_address,
    classify_vertex,
    neighbors,
    schedules,
    tree_children,
)


# -- schedule formulas --------------------------------------------------------

def test_degree_schedule_values():
    assert gm.degree_schedule(16, 2) == 24
    assert gm.degree_schedule(16, 4) == 16  # equals the expander degree n
    assert gm.degree_schedule(4, 1) == 6


def test_depth_schedule_values():
    assert gm.depth_schedule(16, 1) == 2560
    assert gm.depth_schedule(16, 2) == 5120
    assert gm.depth_schedule(4, 1) == 160


def test_schedule_rejects_bad_inputs():
    with pytest.raises(gm.ScheduleError):
        gm.degree_schedule(15, 1)  # not a perfect square
    with pytest.raises(gm.ScheduleError):
        gm.degree_schedule(16, 5)  # k out of range
    with pytest.raises(gm.ScheduleError):
        gm.Schedule((4, 4), (1, 2))  # degrees must strictly decrease
    with pytest.raises(gm.ScheduleError):
        gm.Schedule((4, 3), (2, 2))  # depths must strictly increase
    with pytest.raises(gm.ScheduleError):
        gm.Schedule((3, 1), (1, 2))  # last degree >= 2


@given(schedules(max_levels=6, max_degree=40, max_depth=60, min_depth=0))
def test_schedule_table_follows_its_formulas(schedule):
    d, l = schedule.degrees, schedule.depths
    top = schedule.levels
    assert list(schedule.table) == list(range(1, top + 1))
    for k, level in schedule.table.items():
        decorations = tuple((i, d[i - 1] - d[i]) for i in range(k - 1, 0, -1))
        assert level == gm.Level(children=d[k - 1] - 1, depth=l[k - 1], decorations=decorations)
    # A core vertex of degree d_K plus the top level's decorations has degree d_1.
    assert d[-1] + sum(copies for _, copies in schedule.table[top].decorations) == d[0]
    schedule.check_level(top)
    for bad in (0, -1, top + 1):
        with pytest.raises(gm.ScheduleError):
            schedule.check_level(bad)
    # Equality and hashing stay those of the fields (spectral caches key on
    # schedules), not of the per-level table.
    twin = gm.Schedule(tuple(d), tuple(l))
    assert twin is not schedule
    assert twin == schedule and hash(twin) == hash(schedule)
    assert {twin: 1}[schedule] == 1
    assert list(inspect.signature(gm.Schedule).parameters) == ["degrees", "depths"]
    assert gm.Schedule(tuple(d), tuple(x + 1 for x in l)) != schedule


@pytest.mark.parametrize("depths, padding_ratio", [
    ((0, 1), 2.0 ** -20),  # a level-1 depth of 0: a graph instance needs >= 1
    ((1, 2), 0.0),
    ((1, 2), -0.5),
    ((1, 2), 1.5),
    ((1, 2), math.nan),
])
def test_graph_params_refuse_bad_depth_or_padding(depths, padding_ratio):
    schedule = gm.Schedule((4, 3), depths)
    with pytest.raises(gm.ScheduleError):
        gm.GraphParams(schedule, 10, 3, padding_ratio)
    with pytest.raises(gm.ScheduleError):
        gm.GraphParams.scaled((4, 3), depths, 10, padding_ratio=padding_ratio)
    assert gm.GraphParams(gm.Schedule((4, 3), (1, 2)), 10, 3, 1.0).padding_ratio == 1.0


def test_standard_params_consistency():
    params = gm.GraphParams.standard(16)
    assert params.schedule.degrees == (28, 24, 20, 16)
    assert params.girth_floor == 40 * 256 * 4 + 8
    assert params.expander_size == 1 << (21 * 256 * 16)


# -- tree children (the address-walk reference) --------------------------------

def test_tree_children_root_of_level1_standard():
    sched = gm.GraphParams.standard(16).schedule
    children, node = tree_children(sched, 1, ())
    assert node == NodeClass(1, 0)
    assert len(children) == 27  # d_1 - 1 core children, no decorations at level 1


def test_tree_children_internal_level2_standard():
    sched = gm.GraphParams.standard(16).schedule
    children, _ = tree_children(sched, 2, (gm.core_hop(0),))
    core = [c for c in children if c[-1][0] == gm.CORE]
    decor = [c for c in children if c[-1][0] == gm.DECOR]
    assert len(core) == 23  # d_2 - 1
    assert len(decor) == 4  # d_1 - d_2
    assert len(children) + 1 == 28  # children + parent = d_1


def test_tree_children_leaf_at_core_depth():
    sched = gm.Schedule((4, 3), (2, 4))
    address = tuple(gm.core_hop(0) for _ in range(4))
    children, node = tree_children(sched, 2, address)
    assert children == []
    assert node.depth == sched.table[node.segment].depth  # a leaf
    assert classify_vertex(gm.TreeGraph(sched, 2), gm.TreeVertex(0, 2, 0, address))["level"] == 0


def test_children_canonical_order_core_first_then_descending_levels():
    sched = gm.Schedule((6, 5, 4), (1, 2, 3))
    children, _ = tree_children(sched, 3, ())
    kinds = [(c[-1][0], c[-1][1] if c[-1][0] == gm.DECOR else None) for c in children]
    n_core = sched.table[3].children
    assert all(k == gm.CORE for k, _ in kinds[:n_core])
    decor_levels = [lvl for k, lvl in kinds[n_core:]]
    assert decor_levels == sorted(decor_levels, reverse=True)


def test_invalid_addresses_rejected():
    sched = gm.Schedule((4, 3), (1, 2))
    with pytest.raises(gm.InvalidAddressError):
        classify_address(sched, 2, (gm.core_hop(5),))
    with pytest.raises(gm.InvalidAddressError):
        classify_address(sched, 2, (gm.decoration_hop(2, 0),))  # level must drop
    with pytest.raises(gm.InvalidAddressError):
        # hop below a leaf
        classify_address(sched, 2, tuple(gm.core_hop(0) for _ in range(3)))


def test_address_round_trip_through_children():
    sched = gm.Schedule((5, 4, 3), (1, 2, 3))
    frontier = [()]
    seen = 0
    while frontier and seen < 2000:
        addr = frontier.pop()
        children, _ = tree_children(sched, 3, addr)
        seen += 1
        for child in children:
            classify_address(sched, 3, child)  # must validate
            frontier.append(child)


# -- counting -----------------------------------------------------------------

def test_count_level1_is_geometric_series():
    sched = gm.Schedule((5, 4, 3), (2, 3, 4))
    d1 = 5
    expected = sum((d1 - 1) ** i for i in range(3))  # depth 2
    assert gm.TreeGraph(sched, 1).num_nonisolated == expected


@pytest.mark.parametrize("degrees,depths,k", [
    ((4, 3), (1, 2), 2),
    ((5, 4, 3), (1, 2, 3), 3),
    ((4, 2), (1, 3), 2),
    ((6, 5, 2), (1, 2, 3), 3),
])
def test_count_matches_materialization(degrees, depths, k):
    sched = gm.Schedule(degrees, depths)
    tree = gm.TreeGraph(sched, k)
    mat = gm.materialize(tree)
    assert mat.n == tree.num_nonisolated


def _sizes_by_recurrence(schedule):
    """{level: subtree size at each depth} by the recurrence S(depth) = 1,
    S(p) = 1 + b S(p + 1) + the decoration trees' vertices: the reference
    that `graph_model`'s closed form is checked against."""
    sizes = {}
    for j, (b, depth, decorations) in schedule.table.items():
        decoration_size = sum(copies * sizes[i][0] for i, copies in decorations)
        arr = [1] * (depth + 1)
        for p in range(depth - 1, -1, -1):
            arr[p] = 1 + b * arr[p + 1] + decoration_size
        sizes[j] = arr
    return sizes


@given(schedules(max_levels=5, max_degree=40, max_depth=30))
@example(gm.Schedule((2,), (7,)))  # branching 1 at the only level
@example(gm.Schedule((5, 3, 2), (1, 4, 9)))  # branching 1 under decorations
def test_closed_form_sizes_match_the_recurrence(schedule):
    """The vertex count, and every step of the index walk down the root's
    first core children (rank p at depth p), read the recurrence's sizes."""
    for j, arr in _sizes_by_recurrence(schedule).items():
        tree, (b, depth, _) = gm.TreeGraph(schedule, j), schedule.table[j]
        assert tree.num_nonisolated == arr[0]
        for p in range(depth):
            children = tree.index_info(p).neighbors[p > 0:][:b]
            assert children == tuple(range(p + 1, p + 1 + b * arr[p + 1], arr[p + 1]))
        assert tree.index_info(depth).leaf_level == 0


def test_standard_tree_builds_without_per_depth_tables():
    """The standard n=36 level-6 tree: a ~1.3-million-bit vertex count and
    leaves up to 67,002 hops deep.  Sizes per depth would take gigabytes; the
    build, a walk of the root and rank and `vertex_at` of its 65 children stay small."""
    gm._sizes_for.cache_clear()
    tracemalloc.start()
    try:
        tree = gm.TreeGraph(gm.GraphParams.standard(36).schedule, 6)
        children = tree.index_info(0).neighbors
        assert len(children) == 65 and tree.num_nonisolated.bit_length() > 1_000_000
        for i in children:
            assert tree.index_of(tree.vertex_at(i)) == i
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20  # the 65 child indices alone are ~10 MB


@pytest.mark.parametrize("k", [1, 2])
def test_deep_vertex_at_reads_the_walk(k):
    """The standard n=16 trees at levels 1 and 2 (segments 2,560 and 5,120
    hops deep): at the last index and at a seeded random one, `vertex_at`
    gives an address thousands of hops long that ranks back to the index and
    whose node class (reference address walk) is the index walk's leaf level,
    within the same memory bound."""
    schedule = gm.GraphParams.standard(16).schedule
    level1 = schedule.table[1]
    last = (gm.core_hop(level1.children - 1),) * level1.depth
    if k == 2:  # the last leaf of the root's last level-1 decoration copy
        last = (gm.decoration_hop(1, dict(schedule.table[2].decorations)[1] - 1),) + last
    gm._sizes_for.cache_clear()
    tracemalloc.start()
    try:
        tree = gm.TreeGraph(schedule, k)
        n = tree.num_nonisolated
        addresses = []
        for i in (n - 1, random.Random(k).randrange(n)):
            v = tree.vertex_at(i)
            assert tree.index_of(v) == i and len(v.address) >= level1.depth
            node = classify_address(schedule, k, v.address)
            leaf = node.depth == schedule.table[node.segment].depth
            assert tree.index_info(i).leaf_level == (k - node.segment if leaf else None)
            addresses.append(v.address)
        assert addresses[0] == last
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_unread_top_level_is_never_sized(petersen):
    """A main graph reads levels 1..K-1 and a level-k tree levels 1..k, so a
    top depth near 2^62 (a 2^62-bit b^h) must not be computed."""
    gm._sizes_for.cache_clear()
    params = gm.GraphParams.scaled((4, 3), (1, (1 << 62) - 1), expander_size=10)
    graph = gm.MainGraph(params, petersen)
    tree = gm.TreeGraph(params.schedule, 1)
    assert (graph.num_nonisolated, tree.num_nonisolated) == (10 * (1 + 4), 4)
    assert len(gm._sizes_for(params.schedule).total) == 2  # levels 0 and 1 only


def test_standard_count_within_stated_ceiling():
    params = gm.GraphParams.standard(16)
    count = gm.TreeGraph(params.schedule, 4).num_nonisolated
    assert count < 1 << (12 * 16 ** 3 * 16)  # 2^(12 n^3 log2(n)^2)


def test_main_nonisolated_count(small_instance):
    assert small_instance.num_nonisolated == 10 * (1 + 5 + 33)


# -- ranking ------------------------------------------------------------------

def test_tree_rank_round_trip():
    sched = gm.Schedule((5, 4, 3), (1, 2, 3))
    tree = gm.TreeGraph(sched, 3)
    for i in range(tree.num_nonisolated):
        assert tree.index_of(tree.vertex_at(i)) == i


def test_main_rank_round_trip(small_instance):
    for i in range(small_instance.num_nonisolated):
        assert small_instance.index_of(small_instance.vertex_at(i)) == i


def test_main_enumeration_order(small_instance):
    # Expander indices first, then per-anchor tree blocks by (level, copy).
    n_e = small_instance.expander.N
    for u in range(n_e):
        assert small_instance.vertex_at(u) == gm.ExpanderVertex(u)
    first_tree = small_instance.vertex_at(n_e)
    assert first_tree == gm.TreeVertex(0, 1, 0, ())


@pytest.mark.parametrize("vertex", [
    gm.ExpanderVertex(10),
    gm.ExpanderVertex(12),
    gm.ExpanderVertex(-1),
    gm.ExpanderVertex(10**6),
    gm.TreeVertex(10, 1, 0, ()),
    gm.TreeVertex(0, 3, 0, ()),
    gm.TreeVertex(0, 1, 1, ()),
])
def test_index_of_refuses_vertices_outside_the_instance(small_instance, vertex):
    with pytest.raises(gm.InvalidVertexError):
        small_instance.index_of(vertex)


@pytest.mark.parametrize("address", [
    (("x", 1, 0),),
    (("x", 0),),
    (("c", 0, 7),),
    (("d", 1),),
    (("d", 1, 0, 0),),
    (("c",),),
    ((),),
])
def test_index_of_refuses_malformed_hops(address):
    tree = gm.TreeGraph(gm.Schedule((4, 3), (1, 2)), 2)
    with pytest.raises(gm.InvalidAddressError):
        tree.index_of(gm.TreeVertex(0, 2, 0, address))
    params = gm.GraphParams.scaled((4, 3), (1, 2), expander_size=4)
    graph = gm.MainGraph(params, expander_gen.complete_graph(4))
    with pytest.raises(gm.InvalidAddressError):
        graph.index_of(gm.TreeVertex(0, 1, 0, address))


def _is_vertex_of(graph, v) -> bool:
    """Whether `v` is a non-isolated vertex of `graph`, by the address-walk reference."""
    if isinstance(v, gm.ExpanderVertex):
        return isinstance(graph, gm.MainGraph) and 0 <= v.index < graph.expander.N
    if not isinstance(v, gm.TreeVertex):
        return False
    if isinstance(graph, gm.TreeGraph):
        placed = v[:3] == (0, graph.k, 0)
    else:
        d = graph.schedule.degrees
        placed = 0 <= v.anchor < graph.expander.N and 1 <= v.level < len(d) and 0 <= v.copy < d[v.level - 1] - d[v.level]
    well_formed = all(hop[:1] == ("c",) and len(hop) == 2 or hop[:1] == ("d",) and len(hop) == 3
                      for hop in v.address)
    if not (placed and well_formed):
        return False
    try:
        classify_address(graph.schedule, v.level, v.address)
    except gm.InvalidAddressError:
        return False
    return True


_SMALL = st.integers(-2, 12) | st.sampled_from([10**6, -(10**6)])
_HOPS = (st.tuples(st.just("c"), _SMALL) | st.tuples(st.just("d"), _SMALL, _SMALL)
         | st.sampled_from([("x", 0), ("c",), ("c", 0, 1), ("d", 1), ()]))
_VERTICES = (
    st.builds(gm.ExpanderVertex, _SMALL)
    | st.builds(gm.TreeVertex, _SMALL, st.integers(-1, 4), _SMALL, st.lists(_HOPS, max_size=4).map(tuple))
    | st.builds(gm.IsolatedVertex, _SMALL)
    | st.sampled_from(["x", 5, None, (0,), (0, 1, 0, ())])
)


def _vertices_near(graph):
    """Arbitrary vertex-like values, the graph's own vertices, and its tree
    vertices one hop deeper (a child, or a hop below a leaf or out of range)."""
    own = st.integers(0, graph.num_nonisolated - 1).map(graph.vertex_at)
    deeper = st.tuples(own.filter(lambda v: isinstance(v, gm.TreeVertex)), _HOPS).map(
        lambda p: p[0]._replace(address=p[0].address + (p[1],)))
    return _VERTICES | own | deeper


@given(data=st.data())
def test_every_vertex_entry_refuses_what_is_outside_the_instance(small_instance, data):
    """`index_of`, `vertex_at`, `index_info`, `expander_distance_to_set` and
    `LabeledOracle.label_of` accept exactly the instance's vertices and
    indices (round trip) and refuse anything else with InvalidVertexError."""
    tree = gm.TreeGraph(gm.Schedule((4, 3), (1, 2)), 2)
    for graph in (small_instance, tree):
        v = data.draw(_vertices_near(graph))
        if _is_vertex_of(graph, v):
            assert graph.vertex_at(graph.index_of(v)) == v
        else:
            with pytest.raises(gm.InvalidVertexError):
                graph.index_of(v)
        n = graph.num_nonisolated
        i = data.draw(st.integers(-3, n + 3) | st.sampled_from([-(1 << 60), 1 << 60]))
        if 0 <= i < n:
            assert graph.index_of(graph.vertex_at(i)) == i and graph.index_info(i).neighbors
        else:
            for entry in (graph.vertex_at, graph.index_info):
                with pytest.raises(gm.InvalidVertexError):
                    entry(i)
    n = small_instance.num_nonisolated
    indices = st.integers(-2, n + 2)
    us, at = data.draw(st.lists(indices, min_size=1, max_size=3)), data.draw(indices)
    if all(0 <= i < n for i in us + [at]):
        assert small_instance.expander_distance_to_set(us, at) >= 0
    else:
        with pytest.raises(gm.InvalidVertexError):
            small_instance.expander_distance_to_set(us, at)
    oracle = orc.LabeledOracle(small_instance, b"g" * 16, padding_ratio=0.25)
    v = data.draw(_vertices_near(small_instance))
    if _is_vertex_of(small_instance, v) or (
        isinstance(v, gm.IsolatedVertex) and 0 <= v.index < oracle.padding_count
    ):
        assert oracle.reveal(oracle.label_of(v)) == v
    else:
        with pytest.raises(gm.InvalidVertexError):
            oracle.label_of(v)


# -- neighbors ----------------------------------------------------------------

def test_isolated_neighbors_empty(small_instance):
    assert neighbors(small_instance, gm.IsolatedVertex(7)) == []


def test_expander_vertex_degree_tree_root_split(small_instance):
    nbrs = [small_instance.vertex_at(j) for j in small_instance.index_info(0).neighbors]
    assert len(nbrs) == 5  # d_1 = 3 expander + (1 + 1) tree roots
    roots = [v for v in nbrs if isinstance(v, gm.TreeVertex)]
    assert {(r.level, r.copy) for r in roots} == {(1, 0), (2, 0)}


def test_all_internal_degrees_equal_d1(small_materialized, small_params):
    d1 = small_params.schedule.degrees[0]
    mat = small_materialized
    for i, v in enumerate(mat.vertices):
        deg = len(mat.adjacency[i])
        if isinstance(v, gm.ExpanderVertex):
            assert deg == d1
        elif isinstance(v, gm.TreeVertex):
            assert deg in (1, d1)  # leaves have degree 1, internal d_1


def test_neighbor_duality_exhaustive(small_materialized):
    adj = small_materialized.adjacency
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            assert u in adj[v]


def test_neighbor_indices_cache_consistent(small_instance):
    for idx in range(0, small_instance.num_nonisolated, 37):
        v = small_instance.vertex_at(idx)
        expected = sorted(small_instance.index_of(w) for w in neighbors(small_instance, v))
        assert sorted(small_instance.index_info(idx).neighbors) == expected


# -- top-down equivalence (structural audit of the two constructions) ---------

@pytest.mark.parametrize("degrees,depths,k", [
    ((4, 3), (1, 2), 2),
    ((5, 4, 3), (1, 2, 3), 3),
])
def test_topdown_and_bottomup_constructions_agree(degrees, depths, k):
    adj_td = build_decorated_tree_topdown(degrees, depths, k, k - 1)
    tree = gm.TreeGraph(gm.Schedule(degrees, depths), k)
    mat = gm.materialize(tree)
    assert len(adj_td) == mat.n
    degseq_td = sorted(len(nbrs) for nbrs in adj_td)
    degseq_bu = sorted(len(nbrs) for nbrs in mat.adjacency)
    assert degseq_td == degseq_bu
    # Top eigenvalues agree (isomorphism-grade evidence for trees this small).
    from gapwalk import spectral

    lam_td = spectral.dense_top_eigenpair(adj_td).lambda1
    lam_bu = spectral.dense_top_eigenpair(mat.adjacency).lambda1
    assert abs(lam_td - lam_bu) < 1e-10


@pytest.mark.parametrize("r", [0, 1, 2])
def test_intermediate_decoration_degree_law(r):
    # After r rounds every vertex except the root and the leaves has degree d_{k-r}.
    degrees, depths, k = (6, 5, 4), (1, 2, 3), 3
    adj = build_decorated_tree_topdown(degrees, depths, k, r)
    expected = degrees[k - r - 1]
    root_deg = len(adj[0])
    assert root_deg == expected - 1
    for u in range(1, len(adj)):
        deg = len(adj[u])
        assert deg == 1 or deg == expected


# -- the index walk ------------------------------------------------------------

def _check_index_walk(graph, indices):
    """The walk's neighbours and classification against the address path."""
    for i in indices:
        v = graph.vertex_at(i)
        assert graph.index_info(i).neighbors == tuple(graph.index_of(w) for w in neighbors(graph, v))
        info, expected = graph.index_info(i), classify_vertex(graph, v)
        assert (info.tree is None) == (expected["kind"] == "expander")
        assert info.leaf_level == expected.get("level")
        if expected["kind"] == "leaf":
            assert (info.decoration, info.tree) == (expected["decoration"], expected["tree"])


@given(schedules(max_degree=5, max_depth=3))
def test_index_walk_matches_addresses_on_trees(schedule):
    for k in range(1, schedule.levels + 1):
        tree = gm.TreeGraph(schedule, k)
        assume(tree.num_nonisolated <= 3000)
        _check_index_walk(tree, range(tree.num_nonisolated))


@given(schedule=schedules(max_degree=5, max_depth=3))
def test_index_walk_matches_addresses_on_petersen(schedule, petersen):
    # Shift the degrees so the last equals the Petersen core's degree 3.
    degrees = tuple(d - schedule.degrees[-1] + 3 for d in schedule.degrees)
    params = gm.GraphParams.scaled(degrees, schedule.depths, expander_size=10)
    graph = gm.MainGraph(params, petersen)
    assume(graph.num_nonisolated <= 6000)
    _check_index_walk(graph, range(graph.num_nonisolated))


# -- distances ----------------------------------------------------------------

def _shortest_path(adjacency: list, source: int, target: int) -> list[int]:
    """One shortest path (vertex index sequence) via BFS parents."""
    parent = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == target:
            break
        for w in adjacency[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    assert target in parent, "target unreachable"
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path[::-1]


def _bfs_expander_count(mat, u_idx, v_idx):
    path = _shortest_path(mat.adjacency, u_idx, v_idx)
    return sum(1 for i in path if isinstance(mat.vertices[i], gm.ExpanderVertex))


def _distance(graph, u, v):
    """The pairwise distance: `expander_distance_to_set` on a one-element set."""
    return graph.expander_distance_to_set([graph.index_of(u)], graph.index_of(v))


def test_expander_distance_examples(small_instance, small_materialized):
    g = small_instance
    u = gm.ExpanderVertex(0)
    assert _distance(g, u, u) == 1
    v = g.vertex_at(g.index_info(0).neighbors[0])
    assert isinstance(v, gm.ExpanderVertex)
    assert _distance(g, u, v) == 2
    # Same attached tree: distance 0.
    t_root = gm.TreeVertex(0, 2, 0, ())
    t_deep = gm.TreeVertex(0, 2, 0, (gm.core_hop(1),))
    assert _distance(g, t_root, t_deep) == 0
    # Distinct trees sharing the anchor: distance 1.
    other = gm.TreeVertex(0, 1, 0, ())
    assert _distance(g, t_root, other) == 1
    with pytest.raises(gm.InvalidVertexError):
        _distance(g, u, gm.IsolatedVertex(0))


def test_expander_distance_matches_bfs_path_count(small_instance, small_materialized):
    mat = small_materialized
    rng = random.Random(11)
    for _ in range(300):
        i, j = rng.randrange(mat.n), rng.randrange(mat.n)
        u, v = mat.vertices[i], mat.vertices[j]
        assert _distance(small_instance, u, v) == _bfs_expander_count(mat, i, j)


def test_expander_distance_triangle_inequality(small_instance, small_materialized):
    mat = small_materialized
    rng = random.Random(13)
    for _ in range(300):
        a, b, c = (mat.vertices[rng.randrange(mat.n)] for _ in range(3))
        dab = _distance(small_instance, a, b)
        dbc = _distance(small_instance, b, c)
        dac = _distance(small_instance, a, c)
        assert dac <= dab + dbc


def test_expander_distance_triangle_inequality_exhaustive():
    # Small enough to cover every vertex triple.
    params = gm.GraphParams.scaled((4, 3), (1, 2), expander_size=4)
    graph = gm.MainGraph(params, expander_gen.complete_graph(4))
    mat = gm.materialize(graph)
    dist = [
        [_distance(graph, u, v) for v in mat.vertices] for u in mat.vertices
    ]
    n = mat.n
    for i in range(n):
        for j in range(n):
            dij = dist[i][j]
            row_j = dist[j]
            for k in range(n):
                assert dist[i][k] <= dij + row_j[k]


@functools.lru_cache(maxsize=None)
def _distance_instance(name):
    """The instance and its materialization, whose shortest paths give the
    pairwise reference."""
    if name == "petersen":
        params = gm.GraphParams.scaled((5, 4, 3), (1, 2, 3), expander_size=10)
        graph = gm.MainGraph(params, expander_gen.petersen())
    else:
        core, _ = expander_gen.generate_certified(60, 3, gap_min=0.0, girth_min=3, seed=1)
        graph = gm.MainGraph(gm.GraphParams.scaled((4, 3), (1, 2), expander_size=60), core)
    return graph, gm.materialize(graph)


@pytest.mark.parametrize("name", ["petersen", "cubic-60"])
@given(data=st.data())
def test_expander_distance_to_set_is_min_of_pairwise(name, data):
    graph, mat = _distance_instance(name)
    index = st.integers(0, graph.num_nonisolated - 1)
    v = graph.vertex_at(data.draw(index))
    us = []
    kinds = st.sampled_from(["any", "same-tree", "same-anchor"])
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=5)):
        if kind == "any":
            us.append(graph.vertex_at(data.draw(index)))
        elif kind == "same-anchor":  # distance 1
            us.append(gm.ExpanderVertex(graph._locate(graph.index_of(v))[0]))
        elif isinstance(v, gm.TreeVertex):  # distance 0: the root of v's tree
            us.append(v._replace(address=()))
    assume(us)
    indices, at = [graph.index_of(u) for u in us], graph.index_of(v)
    expected = min(_bfs_expander_count(mat, i, at) for i in indices)
    assert graph.expander_distance_to_set(indices, at) == expected
    assert graph.expander_distance_to_set(reversed(indices), at) == expected
    isolated = graph.num_nonisolated  # the first isolated index
    with pytest.raises(gm.InvalidVertexError):
        graph.expander_distance_to_set(indices + [isolated], at)
    with pytest.raises(gm.InvalidVertexError):
        graph.expander_distance_to_set(indices, isolated)


@given(data=st.data())
def test_bfs_distances_match_shortest_path(data):
    """Every distance reported is scipy's; without a stop in reach, the result
    is the whole ball; with one, it holds exactly one stop vertex, the nearest,
    and every vertex nearer than it."""
    n = data.draw(st.integers(1, 25))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(min(e), max(e)) for e in data.draw(st.lists(pairs, max_size=3 * n)) if e[0] != e[1]}
    adjacency = [sorted({v for e in edges if u in e for v in e} - {u}) for u in range(n)]
    source = data.draw(st.integers(0, n - 1))
    stop = frozenset(data.draw(st.lists(st.integers(0, n - 1), max_size=4)))
    if data.draw(st.booleans()):
        stop |= {source}
    truth = scipy.sparse.csgraph.shortest_path(
        gm.adjacency_matrix(adjacency), unweighted=True, indices=source)
    dist = gm.bfs_distances(adjacency, source, stop)
    assert all(truth[v] == d for v, d in dist.items())
    ball = {v for v in range(n) if truth[v] <= n}  # inf: unreached
    if source in stop:
        assert dist == {source: 0}
    elif not stop & ball:
        assert set(dist) == ball
    else:
        hit, = stop & set(dist)
        assert dist[hit] == min(truth[v] for v in stop)
        assert {v for v in ball if truth[v] < dist[hit]} <= set(dist) <= ball


def test_expander_distance_to_set_on_a_disconnected_core():
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges = k4 + [(u + 4, v + 4) for u, v in k4]
    core = expander_gen.RegularGraph.from_edges(8, 3, edges, 0)
    graph = gm.MainGraph(gm.GraphParams.scaled((4, 3), (1, 2), expander_size=8), core)
    near, far = 1, graph.index_of(gm.TreeVertex(6, 1, 0, ()))
    # An input in the other component does not hide a reachable one.
    assert graph.expander_distance_to_set([far, near], 0) == 2
    with pytest.raises(gm.InvalidVertexError):
        graph.expander_distance_to_set([far], 0)


def test_expander_anchor(small_instance):
    def anchor(v):
        return small_instance._locate(small_instance.index_of(v))[0]

    assert anchor(gm.ExpanderVertex(3)) == 3
    assert anchor(gm.TreeVertex(5, 1, 0, ())) == 5
    with pytest.raises(gm.InvalidVertexError):
        anchor(gm.IsolatedVertex(1))


def test_materialize_cap():
    tree = gm.TreeGraph(gm.GraphParams.standard(16).schedule, 4)  # a ~108,000-bit count builds
    with pytest.raises(gm.SizeCapError):
        gm.materialize(tree)


def test_materialize_refuses_above_its_cap_before_building(monkeypatch):
    tree = gm.TreeGraph(gm.Schedule((6, 5, 4), (1, 4, 6)), 3)
    assert tree.num_nonisolated == 313_041 > gm.MATERIALIZE_CAP

    def build(_index):
        raise AssertionError("built a vertex")

    monkeypatch.setattr(tree, "vertex_at", build)
    monkeypatch.setattr(tree, "index_info", build)
    with pytest.raises(gm.SizeCapError):
        gm.materialize(tree)
