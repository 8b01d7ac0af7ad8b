import concurrent.futures
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from gapwalk import expander_gen, graph_model as gm, spectral

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


# -- the address-walk reference ------------------------------------------------
# The program reads adjacency only from the index walk (`index_info`).  These
# walk a vertex's tree address hop by hop instead, as the independent
# reference that the index walk and the oracle's answers are checked against.

class NodeClass(NamedTuple):
    """Structural class of a tree node: containing segment level and depth within it."""

    segment: int
    depth: int


def classify_address(schedule, k, address) -> NodeClass:
    """Walk an address from the level-k root, validating every hop."""
    seg, depth = k, 0
    for hop in address:
        if depth >= schedule.depth(seg):
            raise gm.InvalidAddressError(f"hop below a leaf in {address!r}")
        if hop[0] == gm.CORE:
            if not 0 <= hop[1] < schedule.branching(seg):
                raise gm.InvalidAddressError(f"core child {hop[1]} out of range in {address!r}")
            depth += 1
        elif hop[0] == gm.DECOR:
            _, lvl, slot = hop
            if not 1 <= lvl < seg or not 0 <= slot < schedule.decoration_count(lvl):
                raise gm.InvalidAddressError(f"bad decoration hop {hop!r}")
            seg, depth = lvl, 0
        else:
            raise gm.InvalidAddressError(f"unknown hop {hop!r}")
    return NodeClass(seg, depth)


def tree_children(schedule, k, address) -> tuple[list, NodeClass]:
    """Children addresses in canonical order (core first, then decorations by
    descending level) plus the node's structural class.  Leaves have no children."""
    node = classify_address(schedule, k, address)
    if node.depth == schedule.depth(node.segment):
        return [], node
    children = [address + (gm.core_hop(t),) for t in range(schedule.branching(node.segment))]
    for lvl in schedule.decoration_levels(node.segment):
        children += [address + (gm.decoration_hop(lvl, slot),) for slot in range(schedule.decoration_count(lvl))]
    return children, node


def neighbors(graph, v) -> list:
    """Neighbours of `v` in the index walk's order: the parent (a tree root's
    anchor on a main graph), then the children in canonical order."""
    if isinstance(v, gm.IsolatedVertex):
        return []
    if isinstance(v, gm.ExpanderVertex):
        out = [gm.ExpanderVertex(w) for w in graph.expander.adjacency[v.index]]
        for k in graph.params.attached_levels():
            out += [gm.TreeVertex(v.index, k, j, ()) for j in range(graph.schedule.decoration_count(k))]
        return out
    children, _ = tree_children(graph.schedule, v.level, v.address)
    if v.address:
        out = [v._replace(address=v.address[:-1])]
    else:
        out = [gm.ExpanderVertex(v.anchor)] if isinstance(graph, gm.MainGraph) else []
    return out + [v._replace(address=a) for a in children]


def classify_vertex(graph, v) -> dict:
    """Event-relevant classification of a revealed vertex, from its address."""
    if isinstance(v, gm.IsolatedVertex):
        return {"kind": "isolated"}
    if isinstance(v, gm.ExpanderVertex):
        return {"kind": "expander"}
    node = classify_address(graph.schedule, v.level, v.address)
    if node.depth < graph.schedule.depth(node.segment):
        return {"kind": "internal"}
    decorations = [i for i, hop in enumerate(v.address) if hop[0] == gm.DECOR]
    return {
        "kind": "leaf",
        "level": v.level - node.segment,  # 0 for an exit leaf of the outer core
        # the address prefix up to the first decoration hop names the outermost
        # decoration copy the leaf lives in (None inside the outer core)
        "decoration": v.address[: decorations[0] + 1] if decorations else None,
        "tree": v[:3],
    }


def reference_events(graph, vertex, step) -> list:
    """The events a query at `step` scores for the revealed `vertex`, built
    from `classify_vertex`, the address-walk reference."""
    info = classify_vertex(graph, vertex)
    if info["kind"] == "isolated":
        return [{"kind": "isolated_hit", "step": step}]
    if info["kind"] != "leaf":
        return []
    leaf = {"kind": "leaf", "step": step, "level": info["level"],
            "decoration": repr(info["decoration"]), "tree": repr(info["tree"])}
    return [leaf] + ([{"kind": "exit_leaf", "step": step}] if info["level"] == 0 else [])


# -- the trial-record reference encoder ----------------------------------------
# The program writes trials.jsonl lines as text (`explorer.TrialLines`).  These
# build a session's record as the dict those lines must encode.

@dataclass
class Step:
    label: int
    answer_size: int
    fresh: bool = False
    is_root: bool = False


def steps(session) -> list:
    """A session's counted queries in order."""
    return [Step(*step) for step in session._steps]


def events(session) -> list:
    """Scored events in query order: an isolated hit, a leaf (its level, and
    the reprs of its decoration copy and tree), and an exit leaf after each
    level-0 leaf."""
    return [
        {"kind": kind, "step": step} if info is None else
        {"kind": kind, "step": step, "level": info.leaf_level,
         "decoration": repr(info.decoration), "tree": repr(info.tree)}
        for kind, step, info in session._events
    ]


def record(session) -> dict:
    """A session's explore-graph row without the trial's own fields."""
    return {
        "schema": session.SCHEMA,
        "roots": list(session.roots),
        "events": events(session),
        "query_count": session.query_count,
        "seed": session.seed,
        "strategy": session.strategy,
        "budget": session.budget,
        "halted": session.halted,
        "output": session.output,
    }


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records each pool's worker count and
    its windows' sizes, and runs the windows in this process."""

    workers, windows = [], []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.windows.extend(len(job[-1]) for job in jobs)
        return map(fn, jobs)

    def shutdown(self, cancel_futures):
        pass


@pytest.fixture
def in_process_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "workers", [])
    monkeypatch.setattr(InProcessPool, "windows", [])
    return InProcessPool


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
