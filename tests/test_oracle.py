import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gapwalk import explorer as ex, graph_model as gm, oracle as orc, spectral as sp
from gapwalk._util import InputError, derive_key
from conftest import events, neighbors, reference_events, schedules


@pytest.fixture(scope="module")
def tree_oracle():
    graph = gm.TreeGraph(gm.Schedule((4, 3), (1, 2)), 2)
    return orc.LabeledOracle(graph, derive_key("tree-oracle"), padding_ratio=2.0 ** -4)


@pytest.fixture(scope="module")
def main_oracle(small_instance):
    return orc.LabeledOracle(small_instance, derive_key("main-oracle"), padding_ratio=2.0 ** -6)


# -- permutation --------------------------------------------------------------

@pytest.mark.parametrize("bits", [1, 2, 7, 16, 17])
def test_feistel_is_a_bijection(bits):
    perm = orc.FeistelPermutation(bits, derive_key("bij", bits))
    n = 1 << bits
    images = perm.forward_array(np.arange(n, dtype=np.uint64))
    assert len(np.unique(images)) == n
    assert [perm.inverse(y) for y in images.tolist()] == list(range(n))


def test_feistel_scalar_and_vector_paths_agree():
    perm = orc.FeistelPermutation(23, derive_key("sv"))
    xs = np.arange(4096, dtype=np.uint64) * np.uint64(7919) % np.uint64(1 << 23)
    vec = perm.forward_array(xs)
    for x, y in zip(xs[:512], vec[:512]):
        assert perm.forward(int(x)) == int(y)
        assert perm.inverse(int(y)) == int(x)


def test_feistel_key_determinism_and_sensitivity():
    a = orc.FeistelPermutation(16, derive_key("k", 1))
    b = orc.FeistelPermutation(16, derive_key("k", 1))
    c = orc.FeistelPermutation(16, derive_key("k", 2))
    xs = list(range(100))
    assert [a.forward(x) for x in xs] == [b.forward(x) for x in xs]
    assert [a.forward(x) for x in xs] != [c.forward(x) for x in xs]


def test_feistel_rejects_bad_parameters():
    with pytest.raises(orc.LabelSpaceError):
        orc.FeistelPermutation(0, derive_key("x"))
    with pytest.raises(ValueError):
        orc.FeistelPermutation(8, b"short")
    perm = orc.FeistelPermutation(8, derive_key("x"))
    with pytest.raises(orc.LabelSpaceError):
        perm.forward(1 << 9)


@given(
    bits=st.integers(1, orc.MAX_LABEL_BITS),
    key=st.binary(min_size=16, max_size=16),
    xs=st.lists(st.integers(0, (1 << orc.MAX_LABEL_BITS) - 1), min_size=1, max_size=16),
)
def test_feistel_scalar_inverts_and_matches_array_path(bits, key, xs):
    perm = orc.FeistelPermutation(bits, key)
    xs = [x % perm.size for x in xs]
    ys = [perm.forward(x) for x in xs]
    assert [perm.inverse(y) for y in ys] == xs
    assert perm.forward_array(np.array(xs, dtype=np.uint64)).tolist() == ys


@given(
    bits=st.integers(1, orc.MAX_LABEL_BITS),
    keys=st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=4),
    data=st.data(),
)
def test_keyed_columns_match_scalar_forward_per_key(bits, keys, data):
    perms = [orc.FeistelPermutation(bits, key) for key in keys]
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, len(keys) - 1), st.integers(0, (1 << bits) - 1)), min_size=1, max_size=40,
    ))
    rows = [r for r, _ in pairs]
    xs = np.array([x for _, x in pairs], dtype=np.uint64)
    columns = orc.KeyedColumns(bits, np.stack([p.round_keys for p in perms], axis=1)[:, rows])
    ys = columns.forward_array(xs)
    assert ys.tolist() == [perms[r].forward(x) for r, x in pairs]


@given(
    schedule=schedules(),
    data=st.data(),
    keys=st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=5),
)
def test_oracle_window_memoizes_each_oracles_own_labels(schedule, data, keys):
    """Batches on both sides of ARRAY_MIN_LABELS label each index under its
    own oracle's key, once."""
    graph = _small_tree(schedule, data)
    oracles = [orc.LabeledOracle(graph, key, padding_ratio=0.25) for key in keys]
    size = data.draw(st.integers(0, 3 * orc.ARRAY_MIN_LABELS))
    pair = st.tuples(st.integers(0, len(keys) - 1), st.integers(0, graph.num_nonisolated - 1))
    pairs = list(dict.fromkeys(data.draw(st.lists(pair, min_size=size, max_size=size))))
    orc.OracleWindow(oracles).label([r for r, _ in pairs], [i for _, i in pairs])
    for row, o in enumerate(oracles):
        indices = {i for r, i in pairs if r == row}
        assert o._label_at == {i: o.perm.forward(i) for i in indices}
        assert o._index_at == {label: i for i, label in o._label_at.items()}


# -- oracle construction ------------------------------------------------------

def test_label_space_sizing(tree_oracle):
    n = tree_oracle.num_nonisolated
    assert tree_oracle.num_labels >= n / tree_oracle.padding_ratio
    assert tree_oracle.padding_count == tree_oracle.num_labels - n


def test_label_space_too_small_rejected(small_instance):
    with pytest.raises(orc.LabelSpaceError):
        orc.LabeledOracle(small_instance, derive_key("tiny"), label_bits=5)


def test_single_vertex_graph_with_full_density():
    graph = gm.TreeGraph(gm.Schedule((2,), (1,)), 1)  # one edge, two vertices
    o = orc.LabeledOracle(graph, derive_key("small"), padding_ratio=1.0)
    assert o.num_labels == 2
    labels = {o.label_of(graph.vertex_at(i)) for i in range(2)}
    assert labels == {0, 1}


def test_same_key_gives_identical_answers(small_instance):
    a = orc.LabeledOracle(small_instance, derive_key("det"), padding_ratio=2.0 ** -4)
    b = orc.LabeledOracle(small_instance, derive_key("det"), padding_ratio=2.0 ** -4)
    for x in range(0, a.num_labels, 97):
        assert a.query(x) == b.query(x)


# -- querying -----------------------------------------------------------------

def test_isolated_labels_answer_empty(main_oracle):
    rng = random.Random(1)
    seen_isolated = 0
    for _ in range(200):
        x = rng.randrange(main_oracle.num_labels)
        v = main_oracle.reveal(x)
        if isinstance(v, gm.IsolatedVertex):
            seen_isolated += 1
            assert main_oracle.query(x) == ()
    assert seen_isolated > 0


def test_internal_answer_size_is_d1(main_oracle, small_instance, small_materialized):
    d1 = small_instance.schedule.degrees[0]
    for v in small_materialized.vertices[:80]:
        label = main_oracle.label_of(v)
        expected = len(neighbors(small_instance, v))
        assert len(main_oracle.query(label)) == expected
        if isinstance(v, gm.ExpanderVertex):
            assert expected == d1


def test_query_symmetry_exhaustive(tree_oracle):
    graph = tree_oracle.graph
    for i in range(graph.num_nonisolated):
        x = tree_oracle.label_of(graph.vertex_at(i))
        for y in tree_oracle.query(x):
            assert x in tree_oracle.query(y)


# A query plan step: (kind, n).  kind 0 queries the root, 1 an isolated label,
# 2 a label from an earlier answer (repeats included), 3 any label.
QUERY_PLANS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1 << 40)), max_size=30)


def _small_tree(schedule, data):
    level = data.draw(st.integers(1, schedule.levels))
    graph = gm.TreeGraph(schedule, level)
    assume(graph.num_nonisolated <= 5000)
    return graph


@given(schedule=schedules(), data=st.data(), plan=QUERY_PLANS, key=st.binary(min_size=16, max_size=16))
def test_memoized_query_matches_unmemoized_map(schedule, data, plan, key):
    graph = _small_tree(schedule, data)
    o = orc.LabeledOracle(graph, key, padding_ratio=0.25)
    perm, n = o.perm, graph.num_nonisolated
    seen = [o.label_of(graph.root)]
    for kind, x in plan:
        if kind == 0:
            label = o.label_of(graph.root)
        elif kind == 1:
            label = o.label_of(gm.IsolatedVertex(x % o.padding_count))
        elif kind == 2:
            label = seen[x % len(seen)]
        else:
            label = x % o.num_labels
        index = perm.inverse(label)
        expected = () if index >= n else tuple(
            sorted(perm.forward(graph.index_of(w)) for w in neighbors(graph, graph.vertex_at(index)))
        )
        answer = o.query(label)
        assert answer == expected
        assert o._index_at[label] == index  # the memo read that scores the query
        assert o.reveal(label) == (graph.vertex_at(index) if index < n else gm.IsolatedVertex(index - n))
        seen.extend(answer)
    assert o.query_count == len(plan)


@given(data=st.data(), key=st.binary(min_size=16, max_size=16))
def test_cached_classification_matches_revealed_vertex(small_instance, data, key):
    o = orc.LabeledOracle(small_instance, key, padding_ratio=2.0 ** -3)
    plan = []
    for _ in range(20):
        label = data.draw(st.integers(0, o.num_labels - 1))
        plan += (label,) + o.query(label)
    session = ex.ExplorationSession(o, len(plan), 0, "scripted")
    ex.drive([session.start(ex.scripted(plan), [], random.Random(0), query_roots=False)])
    expected = [ev for step, y in enumerate(plan) for ev in reference_events(small_instance, o.reveal(y), step)]
    assert events(session) == expected


def test_sealed_oracle_refuses_scoring(tree_oracle):
    o = orc.LabeledOracle(tree_oracle.graph, derive_key("seal-score"), padding_ratio=2.0 ** -4)
    root = o.label_of(o.graph.root)
    o.query(root)  # the root's label and its neighbours' are memoized
    o.seal()
    with pytest.raises(orc.RevealSealedError):
        o.reveal(root)
    with pytest.raises(orc.RevealSealedError):
        ex.run_exploration(o, [root], "greedy-unvisited", budget=4, seed=0)


def test_repeated_query_reads_the_answer_memo(tree_oracle, monkeypatch):
    o = orc.LabeledOracle(tree_oracle.graph, derive_key("answer-memo"), padding_ratio=2.0 ** -4)
    label = o.label_of(o.graph.root)
    first = o.query(label)

    def no_feistel(self, x):
        raise AssertionError("a repeated query ran the Feistel map")

    monkeypatch.setattr(orc.FeistelPermutation, "forward", no_feistel)
    monkeypatch.setattr(orc.FeistelPermutation, "inverse", no_feistel)
    assert o.query(label) is first
    assert o.query_count == 2


def test_query_counts_every_call(tree_oracle):
    before = tree_oracle.query_count
    x = tree_oracle.label_of(tree_oracle.graph.root)
    tree_oracle.query(x)
    tree_oracle.query(x)
    assert tree_oracle.query_count == before + 2


# -- reveal -------------------------------------------------------------------

def test_reveal_round_trip_for_every_vertex(tree_oracle):
    graph = tree_oracle.graph
    for i in range(graph.num_nonisolated):
        v = graph.vertex_at(i)
        assert tree_oracle.reveal(tree_oracle.label_of(v)) == v


def test_reveal_isolated_labels(main_oracle):
    iso = main_oracle.label_of(gm.IsolatedVertex(0))
    assert main_oracle.reveal(iso) == gm.IsolatedVertex(0)


def test_label_of_refuses_isolated_index_out_of_range(small_instance):
    o = orc.LabeledOracle(small_instance, b"k" * 16, padding_ratio=0.25)
    for i in (-1, o.padding_count, 10**6):
        with pytest.raises(gm.InvalidVertexError):
            o.label_of(gm.IsolatedVertex(i))
    last = gm.IsolatedVertex(o.padding_count - 1)
    assert o.reveal(o.label_of(last)) == last


def test_reveal_histogram_matches_padding(main_oracle):
    rng = random.Random(5)
    n = 20_000
    hits = sum(
        1
        for _ in range(n)
        if not isinstance(main_oracle.reveal(rng.randrange(main_oracle.num_labels)), gm.IsolatedVertex)
    )
    p = main_oracle.nonisolated_fraction
    sigma = math.sqrt(p * (1 - p) * n)
    assert abs(hits - n * p) <= 4 * sigma


def test_sealed_oracle_refuses_reveal(small_instance):
    o = orc.LabeledOracle(small_instance, derive_key("seal"), padding_ratio=2.0 ** -4)
    label = o.label_of(gm.ExpanderVertex(0))
    o.seal()
    with pytest.raises(orc.RevealSealedError):
        o.reveal(label)
    assert len(o.query(label)) > 0  # queries still served


def test_strategy_receives_only_roots_rng_and_label_count(main_oracle):
    x = main_oracle.label_of(gm.ExpanderVertex(1))
    seen = {}

    def capture(*args):
        seen["args"] = args
        seen["answer"] = yield x
        return x

    trial = ex.run_exploration(main_oracle, [], capture, budget=4, seed=0)
    roots, rng, num_labels = seen["args"]
    assert roots == [] and type(rng) is random.Random and num_labels == main_oracle.num_labels
    assert seen["answer"] == main_oracle.query(x)
    assert trial.output == x and trial.query_count == 1


# -- guiding samplers ---------------------------------------------------------

def test_input_sampler_determinism(small_instance):
    a = list(itertools.islice(orc.input_draws(small_instance, "expander-uniform", seed=4), 20))
    b = list(itertools.islice(orc.input_draws(small_instance, "expander-uniform", seed=4), 20))
    assert a == b


def test_single_fixed_root_constant(small_instance):
    stream = orc.input_draws(small_instance, "single-fixed-root", seed=0)
    assert [next(stream) for _ in range(5)] == [small_instance.index_of(gm.ExpanderVertex(0))] * 5
    tree = gm.TreeGraph(gm.Schedule((5, 4, 3), (1, 2, 3)), 3)
    stream = orc.input_draws(tree, "single-fixed-root", seed=0)
    assert [next(stream) for _ in range(5)] == [tree.index_of(tree.root)] * 5


def test_ground_state_sampler_fidelity_is_one(small_instance, small_materialized):
    # Empirical distribution of the exact-ground-state stream converges to the
    # squared-amplitude distribution.
    sol = sp.solve_for_instance(small_instance)
    exact = sp.exact_distribution(sol, small_materialized)
    stream = orc.input_draws(small_instance, "exact-ground-state", seed=8)
    n = 60_000
    counts = {}
    for _ in range(n):
        v = small_instance.vertex_at(next(stream))
        counts[v] = counts.get(v, 0) + 1
    emp = np.array([counts.get(v, 0) / n for v in small_materialized.vertices])
    tv = 0.5 * np.abs(emp - exact).sum()
    assert tv <= 0.05


def test_expander_uniform_fidelity_equals_norm_ratio(small_instance, small_materialized):
    # Classical fidelity between the uniform-on-core distribution and the
    # ground-state distribution equals the core share of the squared norm.
    sol = sp.solve_for_instance(small_instance)
    exact = sp.exact_distribution(sol, small_materialized)
    n_e = small_instance.expander.N
    fid = 0.0
    for u in range(n_e):
        fid += math.sqrt((1 / n_e) * exact[small_materialized.index[gm.ExpanderVertex(u)]])
    fid = fid ** 2
    split = sp.norm_decomposition(sol)
    assert fid == pytest.approx(split.ratio, rel=1e-10)


def test_unknown_guiding_kind_refused(small_instance):
    for kind in ("mixture", "nonsense", [1]):
        with pytest.raises(InputError):
            next(orc.input_draws(small_instance, kind, seed=0))
