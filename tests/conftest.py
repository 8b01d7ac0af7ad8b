import numpy as np
import pytest
from hypothesis import settings, strategies as st

from gapwalk import expander_gen, explorer, graph_model as gm, spectral

# Property tests replay the same examples on every run and keep no database.
settings.register_profile("gapwalk", derandomize=True, database=None, deadline=None)
settings.load_profile("gapwalk")


@st.composite
def schedules(draw, max_levels=3, max_degree=6, max_depth=4, min_depth=1):
    """Valid (degrees, depths) schedules: strictly decreasing degrees ending
    at >= 2, strictly increasing depths starting at >= min_depth."""
    k = draw(st.integers(1, max_levels))
    degrees = draw(st.lists(st.integers(2, max_degree), min_size=k, max_size=k, unique=True))
    depths = draw(st.lists(st.integers(min_depth, max_depth), min_size=k, max_size=k, unique=True))
    return gm.Schedule(tuple(sorted(degrees, reverse=True)), tuple(sorted(depths)))


def reference_events(graph, vertex, step) -> list:
    """The events a query at `step` scores for the revealed `vertex`, built
    from `explorer.classify_vertex`, the address-walk reference."""
    info = explorer.classify_vertex(graph, vertex)
    if info["kind"] == "isolated":
        return [{"kind": "isolated_hit", "step": step}]
    if info["kind"] != "leaf":
        return []
    leaf = {"kind": "leaf", "step": step, "level": info["level"],
            "decoration": repr(info["decoration"]), "tree": repr(info["tree"])}
    return [leaf] + ([{"kind": "exit_leaf", "step": step}] if info["level"] == 0 else [])


@pytest.fixture(scope="session")
def petersen():
    return expander_gen.petersen()


@pytest.fixture(scope="session")
def small_params():
    return gm.GraphParams.scaled((5, 4, 3), (1, 2, 3), expander_size=10)


@pytest.fixture(scope="session")
def small_instance(small_params, petersen):
    return gm.MainGraph(small_params, petersen)


@pytest.fixture(scope="session")
def small_materialized(small_instance):
    return gm.materialize(small_instance)


@pytest.fixture(scope="session")
def small_solution(small_instance):
    return spectral.solve_for_instance(small_instance)


def build_decorated_tree_topdown(degrees, depths, k, rounds):
    """Independent oracle: the round-by-round construction.  Start from the
    bare level-k perfect core; at round r attach, to every internal vertex,
    d_{k-r} - d_{k-r+1} fresh copies of the bare level-(k-r) core.

    Returns adjacency as a list of sorted neighbor lists, root index 0.
    """
    adjacency = []

    def new_node():
        adjacency.append(set())
        return len(adjacency) - 1

    def add_edge(u, v):
        adjacency[u].add(v)
        adjacency[v].add(u)

    def build_core(level):
        root = new_node()
        internal = []
        stack = [(root, 0)]
        while stack:
            u, depth = stack.pop()
            if depth == depths[level - 1]:
                continue
            internal.append(u)
            for _ in range(degrees[level - 1] - 1):
                c = new_node()
                add_edge(u, c)
                stack.append((c, depth + 1))
        return root, internal

    _, internal_nodes = build_core(k)
    for r in range(1, rounds + 1):
        level = k - r
        copies = degrees[level - 1] - degrees[level]
        grown = []
        for u in internal_nodes:
            for _ in range(copies):
                croot, cinternal = build_core(level)
                add_edge(u, croot)
                grown.extend(cinternal)
        internal_nodes = internal_nodes + grown
    return [sorted(nbrs) for nbrs in adjacency]
