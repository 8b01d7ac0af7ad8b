import dataclasses
import functools
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gapwalk import expander_gen, explorer as ex, graph_model as gm
from conftest import build_decorated_tree_topdown, schedules


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
def test_schedule_accessors_follow_their_formulas(schedule):
    d, l = schedule.degrees, schedule.depths
    top = schedule.levels
    for k in range(1, top + 1):
        assert schedule.degree(k) == d[k - 1]
        assert schedule.depth(k) == l[k - 1]
        assert schedule.branching(k) == d[k - 1] - 1
        assert schedule.decoration_levels(k) == tuple(range(k - 1, 0, -1))
        if k < top:
            assert schedule.decoration_count(k) == d[k - 1] - d[k]
    with pytest.raises(gm.ScheduleError):
        schedule.decoration_count(top)
    accessors = (schedule.degree, schedule.depth, schedule.branching,
                 schedule.decoration_count, schedule.decoration_levels)
    for bad in (0, -1, top + 1):
        for accessor in accessors:
            with pytest.raises(gm.ScheduleError):
                accessor(bad)
    # Equality and hashing stay those of the fields (spectral caches key on
    # schedules), not of the per-level tables.
    twin = gm.Schedule(tuple(d), tuple(l))
    assert twin is not schedule
    assert twin == schedule and hash(twin) == hash(schedule)
    assert {twin: 1}[schedule] == 1
    assert [f.name for f in dataclasses.fields(schedule)] == ["degrees", "depths"]


def test_standard_params_consistency():
    params = gm.GraphParams.standard(16)
    assert params.degrees == (28, 24, 20, 16)
    assert params.expander_degree == 16
    assert params.girth_floor == 40 * 256 * 4 + 8
    assert params.expander_size == 1 << (21 * 256 * 16)
    # Degree identity: d_E + sum(d_k - d_{k+1}) = d_1.
    d = params.degrees
    assert params.expander_degree + sum(d[i] - d[i + 1] for i in range(len(d) - 1)) == d[0]


def test_scaled_params_require_degree_identity():
    with pytest.raises(gm.ScheduleError):
        gm.GraphParams(
            degrees=(5, 4, 3), depths=(1, 2, 3), expander_degree=4,
            expander_size=10, girth_floor=3, padding_ratio=1.0, scale_mode="scaled",
        )


# -- tree children ------------------------------------------------------------

def test_tree_children_root_of_level1_standard():
    sched = gm.GraphParams.standard(16).schedule
    children, node = gm.tree_children(sched, 1, ())
    assert node == gm.NodeClass(1, 0)
    assert len(children) == 27  # d_1 - 1 core children, no decorations at level 1


def test_tree_children_internal_level2_standard():
    sched = gm.GraphParams.standard(16).schedule
    children, _ = gm.tree_children(sched, 2, (gm.core_hop(0),))
    core = [c for c in children if c[-1][0] == gm.CORE]
    decor = [c for c in children if c[-1][0] == gm.DECOR]
    assert len(core) == 23  # d_2 - 1
    assert len(decor) == 4  # d_1 - d_2
    assert len(children) + 1 == 28  # children + parent = d_1


def test_tree_children_leaf_at_core_depth():
    sched = gm.Schedule((4, 3), (2, 4))
    address = tuple(gm.core_hop(0) for _ in range(4))
    children, node = gm.tree_children(sched, 2, address)
    assert children == []
    assert gm.is_leaf(sched, node)
    assert gm.leaf_level(2, node) == 0


def test_children_canonical_order_core_first_then_descending_levels():
    sched = gm.Schedule((6, 5, 4), (1, 2, 3))
    children, _ = gm.tree_children(sched, 3, ())
    kinds = [(c[-1][0], c[-1][1] if c[-1][0] == gm.DECOR else None) for c in children]
    n_core = sched.branching(3)
    assert all(k == gm.CORE for k, _ in kinds[:n_core])
    decor_levels = [lvl for k, lvl in kinds[n_core:]]
    assert decor_levels == sorted(decor_levels, reverse=True)


def test_invalid_addresses_rejected():
    sched = gm.Schedule((4, 3), (1, 2))
    with pytest.raises(gm.InvalidAddressError):
        gm.classify_address(sched, 2, (gm.core_hop(5),))
    with pytest.raises(gm.InvalidAddressError):
        gm.classify_address(sched, 2, (gm.decoration_hop(2, 0),))  # level must drop
    with pytest.raises(gm.InvalidAddressError):
        # hop below a leaf
        gm.classify_address(sched, 2, tuple(gm.core_hop(0) for _ in range(3)))


def test_address_round_trip_through_children():
    sched = gm.Schedule((5, 4, 3), (1, 2, 3))
    frontier = [()]
    seen = 0
    while frontier and seen < 2000:
        addr = frontier.pop()
        children, _ = gm.tree_children(sched, 3, addr)
        seen += 1
        for child in children:
            gm.classify_address(sched, 3, child)  # must validate
            frontier.append(child)


# -- counting -----------------------------------------------------------------

def test_count_level1_is_geometric_series():
    sched = gm.Schedule((5, 4, 3), (2, 3, 4))
    d1 = 5
    expected = sum((d1 - 1) ** i for i in range(3))  # depth 2
    assert gm.count_tree_vertices(sched, 1) == expected


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
    assert mat.n == gm.count_tree_vertices(sched, k)


def test_standard_count_within_stated_ceiling():
    params = gm.GraphParams.standard(16)
    count = gm.count_tree_vertices(params.schedule, 4)
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


# -- neighbors ----------------------------------------------------------------

def test_isolated_neighbors_empty(small_instance):
    assert small_instance.neighbors(gm.IsolatedVertex(7)) == []


def test_expander_vertex_degree_tree_root_split(small_instance):
    nbrs = small_instance.neighbors(gm.ExpanderVertex(0))
    assert len(nbrs) == 5  # d_1 = 3 expander + (1 + 1) tree roots
    roots = [v for v in nbrs if isinstance(v, gm.TreeVertex)]
    assert {(r.level, r.copy) for r in roots} == {(1, 0), (2, 0)}


def test_all_internal_degrees_equal_d1(small_materialized, small_params):
    d1 = small_params.degrees[0]
    mat = small_materialized
    for i, v in enumerate(mat.vertices):
        deg = mat.degree(i)
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
        expected = sorted(small_instance.index_of(w) for w in small_instance.neighbors(v))
        assert sorted(small_instance.neighbor_indices(idx)) == expected


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
        assert graph.index_info(i).neighbors == tuple(graph.index_of(w) for w in graph.neighbors(v))
        info, expected = graph.index_info(i), ex.classify_vertex(graph, v)
        assert (info.tree is None) == (expected["kind"] == "expander")
        assert info.leaf_level == expected.get("level")
        if expected["kind"] == "leaf":
            assert (info.decoration, info.tree) == (expected["decoration"], expected["tree"])


@given(schedules(max_degree=5, max_depth=3))
def test_index_walk_matches_addresses_on_trees(schedule):
    for k in range(1, schedule.levels + 1):
        assume(gm.count_tree_vertices(schedule, k) <= 3000)
        tree = gm.TreeGraph(schedule, k)
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


def test_expander_distance_examples(small_instance, small_materialized):
    g = small_instance
    u = gm.ExpanderVertex(0)
    assert g.expander_distance(u, u) == 1
    v = g.neighbors(u)[0]
    assert isinstance(v, gm.ExpanderVertex)
    assert g.expander_distance(u, v) == 2
    # Same attached tree: distance 0.
    t_root = gm.TreeVertex(0, 2, 0, ())
    t_deep = gm.TreeVertex(0, 2, 0, (gm.core_hop(1),))
    assert g.expander_distance(t_root, t_deep) == 0
    # Distinct trees sharing the anchor: distance 1.
    other = gm.TreeVertex(0, 1, 0, ())
    assert g.expander_distance(t_root, other) == 1
    with pytest.raises(gm.InvalidVertexError):
        g.expander_distance(u, gm.IsolatedVertex(0))


def test_expander_distance_matches_bfs_path_count(small_instance, small_materialized):
    mat = small_materialized
    rng = random.Random(11)
    for _ in range(300):
        i, j = rng.randrange(mat.n), rng.randrange(mat.n)
        u, v = mat.vertices[i], mat.vertices[j]
        assert small_instance.expander_distance(u, v) == _bfs_expander_count(mat, i, j)


def test_expander_distance_triangle_inequality(small_instance, small_materialized):
    mat = small_materialized
    rng = random.Random(13)
    for _ in range(300):
        a, b, c = (mat.vertices[rng.randrange(mat.n)] for _ in range(3))
        dab = small_instance.expander_distance(a, b)
        dbc = small_instance.expander_distance(b, c)
        dac = small_instance.expander_distance(a, c)
        assert dac <= dab + dbc


def test_expander_distance_triangle_inequality_exhaustive():
    # Small enough to cover every vertex triple.
    params = gm.GraphParams.scaled((4, 3), (1, 2), expander_size=4)
    graph = gm.MainGraph(params, expander_gen.complete_graph(4))
    mat = gm.materialize(graph)
    dist = [
        [graph.expander_distance(u, v) for v in mat.vertices] for u in mat.vertices
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
    if name == "petersen":
        params = gm.GraphParams.scaled((5, 4, 3), (1, 2, 3), expander_size=10)
        return gm.MainGraph(params, expander_gen.petersen())
    core, _ = expander_gen.generate_certified(60, 3, gap_min=0.0, girth_min=3, seed=1)
    return gm.MainGraph(gm.GraphParams.scaled((4, 3), (1, 2), expander_size=60), core)


@pytest.mark.parametrize("name", ["petersen", "cubic-60"])
@given(data=st.data())
def test_expander_distance_to_set_is_min_of_pairwise(name, data):
    graph = _distance_instance(name)
    index = st.integers(0, graph.num_nonisolated - 1)
    v = graph.vertex_at(data.draw(index))
    us = []
    kinds = st.sampled_from(["any", "same-tree", "same-anchor"])
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=5)):
        if kind == "any":
            us.append(graph.vertex_at(data.draw(index)))
        elif kind == "same-anchor":  # distance 1
            us.append(gm.ExpanderVertex(graph.expander_anchor(v)))
        elif isinstance(v, gm.TreeVertex):  # distance 0: the root of v's tree
            us.append(v._replace(address=()))
    assume(us)
    expected = min(graph.expander_distance(u, v) for u in us)
    indices, at = [graph.index_of(u) for u in us], graph.index_of(v)
    assert graph.expander_distance_to_set(indices, at) == expected
    assert graph.expander_distance_to_set(reversed(indices), at) == expected
    isolated = graph.num_nonisolated  # the first isolated index
    with pytest.raises(gm.InvalidVertexError):
        graph.expander_distance_to_set(indices + [isolated], at)
    with pytest.raises(gm.InvalidVertexError):
        graph.expander_distance_to_set(indices, isolated)


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
    assert small_instance.expander_anchor(gm.ExpanderVertex(3)) == 3
    assert small_instance.expander_anchor(gm.TreeVertex(5, 1, 0, ())) == 5
    with pytest.raises(gm.InvalidVertexError):
        small_instance.expander_anchor(gm.IsolatedVertex(1))


def test_materialize_cap():
    params = gm.GraphParams.standard(16)
    with pytest.raises(gm.SizeCapError):
        gm.TreeGraph(params, 4)
