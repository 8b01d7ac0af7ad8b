import ast
import itertools
import json
import math
import random
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from gapwalk import (
    bounds as bd,
    expander_gen as eg,
    explorer as ex,
    graph_model as gm,
    oracle as orc,
)
from gapwalk._util import derive_key, derive_seed
from conftest import Step, classify_vertex, events, record, reference_events, schedules, steps


def make_tree_oracle(degrees, depths, k, key_tag="t"):
    graph = gm.TreeGraph(gm.Schedule(degrees, depths), k)
    return graph, orc.LabeledOracle(graph, derive_key(key_tag), padding_ratio=2.0 ** -4)


# -- run_exploration basics ---------------------------------------------------

def test_budget_one_root_only():
    graph, o = make_tree_oracle((4, 3), (1, 2), 2)
    tr = ex.run_exploration(o, [o.label_of(graph.root)], "uniform-walk", budget=1, seed=0)
    assert tr.query_count == 1
    assert len(steps(tr)) == 1 and steps(tr)[0].is_root
    assert tr.halted == "budget"
    assert all(ev["step"] == 0 for ev in events(tr))


def test_greedy_reaches_end_of_bare_path():
    length = 9
    graph, o = make_tree_oracle((2,), (length,), 1, "path")
    for seed in range(5):
        tr = ex.run_exploration(
            o, [o.label_of(graph.root)], "greedy-unvisited", budget=length + 1,
            seed=seed, stop_on_exit=True,
        )
        assert tr.halted == "exit"
        assert tr.query_count == length + 1


def test_isolated_root_is_queried_once():
    graph, o = make_tree_oracle((4, 3), (1, 2), 2, "iso")
    iso = o.label_of(gm.IsolatedVertex(0))
    for strategy in ex.EXPLORATION_STRATEGIES:
        tr = ex.run_exploration(o, [iso], strategy, budget=5, seed=0)
        assert tr.query_count == 1, strategy
        assert tr.output == iso


def test_far_end_seen_one_query_earlier():
    length = 9
    graph, o = make_tree_oracle((2,), (length,), 1, "path2")
    far = o.label_of(graph.vertex_at(graph.num_nonisolated - 1))
    tr = ex.run_exploration(o, [o.label_of(graph.root)], "greedy-unvisited", budget=length, seed=1)
    assert far not in {s.label for s in steps(tr)}
    assert any(far in ans for ans in tr.answers)


def test_budget_law_and_query_accounting():
    graph, o = make_tree_oracle((4, 3), (1, 2), 2, "law")
    for strategy in ex.EXPLORATION_STRATEGIES:
        before = o.query_count
        tr = ex.run_exploration(o, [o.label_of(graph.root)], strategy, budget=12, seed=3)
        assert tr.query_count <= 12
        assert tr.query_count == len(steps(tr))
        assert o.query_count - before == tr.query_count


def test_transcripts_reproducible():
    graph, o = make_tree_oracle((5, 3), (1, 3), 2, "repro")
    root = o.label_of(graph.root)
    a = ex.run_exploration(o, [root], "uniform-walk", budget=20, seed=11)
    b = ex.run_exploration(o, [root], "uniform-walk", budget=20, seed=11)
    assert (record(a), steps(a)) == (record(b), steps(b))
    c = ex.run_exploration(o, [root], "uniform-walk", budget=20, seed=12)
    assert (record(a), steps(a)) != (record(c), steps(c))


def test_transcript_record_is_json_serializable():
    graph, o = make_tree_oracle((4, 3), (1, 2), 2, "ser")
    tr = ex.run_exploration(o, [o.label_of(graph.root)], "frontier-bfs-random", budget=8, seed=2)
    rec = json.loads(ex.TrialLines().graph(0, tr, tr.roots, True, ex.LocalizationScore(None, False, 2)))
    assert rec["query_count"] == tr.query_count
    assert rec["strategy"] == "frontier-bfs-random"


def test_unknown_strategy_rejected():
    graph, o = make_tree_oracle((4, 3), (1, 2), 2, "unk")
    with pytest.raises(ex.UnknownStrategyError):
        ex.run_exploration(o, [o.label_of(graph.root)], "warp-drive", budget=4, seed=0)


def test_non_backtracking_uses_full_budget_without_exit():
    graph, o = make_tree_oracle((4, 2), (2, 5), 2, "nb")
    tr = ex.run_exploration(
        o, [o.label_of(graph.root)], "non-backtracking-walk", budget=4, seed=5,
        stop_on_exit=True,
    )
    assert tr.query_count == 4 or tr.halted == "exit"


# -- event scoring ------------------------------------------------------------

def test_leaf_events_carry_levels_and_decorations():
    graph, o = make_tree_oracle((4, 3), (1, 2), 2, "events")
    level1_leaf = None
    for i in range(graph.num_nonisolated):
        v = graph.vertex_at(i)
        if classify_vertex(graph, v).get("level") == 1:
            level1_leaf = v
            break
    # Scripted path from root to that leaf through its ancestors.
    labels = []
    for j in range(1, len(level1_leaf.address) + 1):
        labels.append(o.label_of(gm.TreeVertex(0, 2, 0, level1_leaf.address[:j])))
    tr = ex.run_exploration(o, [o.label_of(graph.root)], ex.scripted(labels), budget=10, seed=0)
    leaf_events = [ev for ev in events(tr) if ev["kind"] == "leaf"]
    assert leaf_events and leaf_events[-1]["level"] == 1
    assert "('d', 1," in leaf_events[-1]["decoration"]


def test_exit_event_fires_and_stops():
    graph, o = make_tree_oracle((3, 2), (1, 2), 2, "exit")
    exit_leaf = next(
        graph.vertex_at(i)
        for i in range(graph.num_nonisolated)
        if classify_vertex(graph, graph.vertex_at(i)).get("level") == 0
    )
    labels = [
        o.label_of(gm.TreeVertex(0, 2, 0, exit_leaf.address[:j]))
        for j in range(1, len(exit_leaf.address) + 1)
    ]
    tr = ex.run_exploration(
        o, [o.label_of(graph.root)], ex.scripted(labels), budget=10, seed=0, stop_on_exit=True
    )
    assert tr.halted == "exit"
    assert any(ev["kind"] == "exit_leaf" for ev in events(tr))


# -- component audit ----------------------------------------------------------

def test_audit_passes_for_disciplined_strategies():
    graph, o = make_tree_oracle((5, 4, 3), (1, 2, 3), 3, "audit")
    for strategy in ex.EXPLORATION_STRATEGIES:
        for seed in range(5):
            tr = ex.run_exploration(o, [o.label_of(graph.root)], strategy, budget=30, seed=seed)
            assert ex.component_audit(tr).ok


def test_audit_reports_planted_violations_exactly():
    graph, o = make_tree_oracle((4, 3), (1, 2), 2, "plant")
    root = o.label_of(graph.root)
    answer = o.query(root)
    outside = next(x for x in range(o.num_labels) if x != root and x not in answer)
    plan = [answer[0], outside, answer[1]]
    tr = ex.run_exploration(o, [root], ex.scripted(plan), budget=10, seed=0)
    report = ex.component_audit(tr)
    assert not report.ok
    assert report.violations == (2,)  # step 0 is the root, step 2 is `outside`


def test_audit_random_probe_hits_match_padding():
    graph = gm.TreeGraph(gm.Schedule((4, 3), (2, 4)), 2)
    o = orc.LabeledOracle(graph, derive_key("probe-pad"), padding_ratio=2.0 ** -7)
    tr = ex.run_exploration(o, [o.label_of(graph.root)], "random-probe", budget=4000, seed=9)
    rep = ex.component_audit(tr)
    assert rep.ok
    p = o.nonisolated_fraction
    n = rep.fresh_probes
    sigma = math.sqrt(p * (1 - p) * n)
    assert abs(rep.fresh_nonisolated_hits - n * p) <= 4 * sigma


# -- exit probability ---------------------------------------------------------

def test_depth_one_tree_exits_immediately():
    sched = gm.Schedule((3,), (1,))
    for strategy in ex.EXPLORATION_STRATEGIES:
        est = ex.estimate_exit_probability(sched, 1, strategy, budget=2, trials=100, seed=1)
        assert est.exit.p_hat == 1.0


def _one_session_per_trial(graph, pairs, budget, seed, padding_ratio):
    """Reference exit rows: each (strategy, trial) pair rebuilt alone by
    `_reference_session`'s plain loop over `LabeledOracle.query`, scored by
    revealed classification, with no `drive` and no batched labels."""
    rows = []
    for strategy, t in pairs:
        o = orc.LabeledOracle(graph, derive_key("exit-trial", seed, t), padding_ratio=padding_ratio)
        name, fn = ex.resolve_strategy(strategy)
        rng = random.Random(derive_seed("strategy", derive_seed(seed, t)))
        record = _reference_session(o, fn, [o.label_of(graph.root)], rng, budget, True, True)
        level1 = {(e["tree"], e["decoration"]) for e in record["events"]
                  if e["kind"] == "leaf" and e["level"] == 1}
        rows.append({
            "trial": t,
            "strategy": name,
            "exit": int(record["halted"] == "exit"),
            "distinct_decorations": len(level1),
            "queries": len(record["steps"]),
        })
    return rows


@contextmanager
def _counted_builds():
    """The `LabeledOracle`s built inside the block, in order."""
    init, built = orc.LabeledOracle.__init__, []

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with mock.patch.object(orc.LabeledOracle, "__init__", counted):
        yield built


@given(
    schedule=schedules(max_depth=3),
    strategies=st.lists(st.sampled_from(sorted(ex.STRATEGIES)), min_size=1, max_size=4),
    budget=st.integers(1, 12),
    seed=st.integers(0, 1 << 32),
    trials=st.lists(st.integers(0, 1000), min_size=1, max_size=12, unique=True),
    window=st.sampled_from([1, 2, ex.EXIT_WINDOW]),
)
# Windows that hold one trial under two or more strategies, which share its oracle.
@example(schedule=gm.Schedule((4, 3), (1, 2)), strategies=["greedy-unvisited", "uniform-walk"],
         budget=8, seed=5, trials=[7], window=2)
@example(schedule=gm.Schedule((5, 3, 2), (1, 2, 4)), strategies=sorted(ex.STRATEGIES), budget=12,
         seed=21, trials=[0, 3, 1], window=ex.EXIT_WINDOW)
def test_lockstep_rows_match_one_session_per_trial(schedule, strategies, budget, seed, trials, window):
    """Windows cut from (strategy, trial) pairs, strategy-major, so that a
    window of 2 or EXIT_WINDOW mixes strategies; a window builds one oracle
    per distinct trial in it."""
    graph = gm.TreeGraph(schedule, schedule.levels)
    pairs = [(strategy, t) for strategy in strategies for t in trials]
    with mock.patch.object(ex, "EXIT_WINDOW", window), _counted_builds() as built:
        rows = ex.exit_trials(graph, pairs, budget, seed, 0.25)
    assert len(built) == sum(len({t for _, t in pairs[w : w + window]}) for w in range(0, len(pairs), window))
    assert rows == _one_session_per_trial(graph, pairs, budget, seed, 0.25)


@pytest.mark.parametrize("k, n", [(4, 25), (2, 3), (3, 1)])
def test_exit_window_builds_one_oracle_per_trial(k, n):
    """k strategies x n trials in one window build n oracles, not k * n."""
    assert k * n <= ex.EXIT_WINDOW
    pairs = [(s, t) for s in ex.EXPLORATION_STRATEGIES[:k] for t in range(n)]
    with _counted_builds() as built:
        rows = ex.exit_trials(gm.TreeGraph(gm.Schedule((4, 3), (1, 2)), 2), pairs, 8, 3, 0.25)
    assert [(r["strategy"], r["trial"]) for r in rows] == pairs
    assert len(built) == n


@pytest.mark.parametrize("preset, guiding, count, algorithms", [
    (ex.EXIT_TREE, "single-fixed-root", 1, ex.EXPLORATION_STRATEGIES[:3]),
    (ex.EXPLORE_GRAPH, "expander-uniform", 2, ex.EXPLORATION_STRATEGIES[1:4]),
    (ex.GGSP, "exact-ground-state", 2, ("echo-first-input", "walk-from-input", "ground-state-cheat")),
])
def test_run_trials_yields_pairs_in_order_one_oracle_per_window_trial(small_instance, preset, guiding, count,
                                                                      algorithms):
    """`run_trials` under each preset, in windows of 4 that split a trial's
    pairs: the pairs come back in order, a window builds one oracle per
    distinct trial, the sessions of a trial in one window share its oracle and
    inputs (the same labels in any window), and explore-tree's inputs are the
    label of the tree's root."""
    graph = gm.TreeGraph(gm.Schedule((4, 3), (1, 2)), 2) if preset is ex.EXIT_TREE else small_instance
    pairs = [(a, t) for t in (5, 0, 3) for a in algorithms]

    def make(key):
        return orc.LabeledOracle(graph, key, padding_ratio=0.5)

    with mock.patch.object(ex, "EXIT_WINDOW", 4), _counted_builds() as built:
        out = list(ex.run_trials(preset, pairs, make, guiding, count, 6, 11))
    assert [(s.strategy, t) for t, s, _ in out] == pairs
    windows = [out[w : w + 4] for w in range(0, len(out), 4)]
    assert len(built) == sum(len({t for t, _, _ in window}) for window in windows) == 5
    assert {id(s.oracle) for _, s, _ in out} == set(map(id, built))
    for window in windows:
        first = {}
        for t, s, inputs in window:
            oracle, drawn = first.setdefault(t, (s.oracle, inputs))
            assert s.oracle is oracle and inputs is drawn and len(inputs) == count
    labels = {}
    for t, s, inputs in out:
        assert labels.setdefault(t, inputs) == inputs
        if preset is ex.EXIT_TREE:
            assert inputs == [s.oracle.label_of(graph.root)]


def test_explorer_reads_no_private_oracle_attribute():
    """The oracle's memo has one owner: `explorer` touches none of its
    private attributes (`OracleWindow.resolve` and `indices_of` read them)."""
    private = {"_index", "_answers", "_label_at", "_index_at"}
    tree = ast.parse(Path(ex.__file__).read_text())
    hits = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in private]
    assert hits == []


@pytest.mark.parametrize("strategies", [
    ("greedy-unvisited", "uniform-walk"),
    ("frontier-bfs-random", "frontier-bfs-random"),
    ("non-backtracking-walk", "greedy-unvisited"),
])
def test_sessions_sharing_an_oracle_record_what_separate_oracles_do(monkeypatch, strategies):
    """Two sessions of one labeling, driven together on one oracle, record what
    they record on two oracles of the same key, and a step labels each missing
    (oracle, index) once: both ask for the root's neighbours at step 0, one
    array batch's worth."""
    graph = gm.TreeGraph(gm.Schedule((9, 3), (2, 3)), 2)
    key = derive_key("shared")

    def armed(oracle, strategy, t):
        name, fn = ex.resolve_strategy(strategy)
        session = ex.ExplorationSession(oracle, 12, t, name, stop_on_exit=True)
        return session.start(fn, [oracle.label_of(graph.root)], random.Random(t), query_roots=True)

    separate = [armed(orc.LabeledOracle(graph, key, padding_ratio=0.25), s, t) for t, s in enumerate(strategies)]
    ex.drive(separate)
    mapped = []
    forward, forward_array = orc.FeistelPermutation.forward, orc.FeistelPermutation.forward_array
    monkeypatch.setattr(orc.FeistelPermutation, "forward", lambda p, x: mapped.append(x) or forward(p, x))
    monkeypatch.setattr(orc.FeistelPermutation, "forward_array",
                        lambda p, x: mapped.extend(x) or forward_array(p, x))
    oracle = orc.LabeledOracle(graph, key, padding_ratio=0.25)
    shared = [armed(oracle, s, t) for t, s in enumerate(strategies)]
    assert 2 * len(separate[0].answers[0]) >= orc.ARRAY_MIN_LABELS  # the root's answer
    ex.drive(shared)
    assert [(record(s), steps(s), s.answers) for s in shared] == [
        (record(s), steps(s), s.answers) for s in separate
    ]
    assert oracle.query_count == sum(s.query_count for s in shared)
    assert len(mapped) == len(oracle._label_at)  # walks query only labels already mapped


@given(
    strategy=st.sampled_from(sorted(ex.STRATEGIES)),
    seed=st.integers(0, 1 << 32),
    trials=st.integers(1, 9),
    window=st.integers(1, 9),
    budget=st.integers(1, 12),
    query_roots=st.booleans(),
)
def test_drive_window_matches_lone_runs(small_instance, strategy, seed, trials, window, budget, query_roots):
    """Sessions driven together, `window` at a time, record what each records
    driven alone.  Each trial's first root is given twice (a strategy's
    repeated `Root` request is answered from the record), and `random-probe`'s
    fresh labels mostly hit isolated vertices (empty answers)."""
    name, fn = ex.resolve_strategy(strategy)

    def armed(t):
        oracle = orc.LabeledOracle(small_instance, derive_key("drive", seed, t), padding_ratio=2.0 ** -3)
        rng = random.Random(derive_seed("drive", seed, t))
        first, second = (gm.ExpanderVertex(rng.randrange(10)) for _ in range(2))
        roots = [oracle.label_of(first), oracle.label_of(first), oracle.label_of(second)]
        return ex.ExplorationSession(oracle, budget, seed, name).start(fn, roots, rng, query_roots)

    lone = [armed(t) for t in range(trials)]
    for session in lone:
        ex.drive([session])
    together = [armed(t) for t in range(trials)]
    for w in range(0, trials, window):
        ex.drive(together[w : w + window])
    assert [(record(s), steps(s), s.answers) for s in together] == [
        (record(s), steps(s), s.answers) for s in lone
    ]
    assert all(s.oracle.query_count == s.query_count for s in together)


def _reference_session(oracle, fn, roots, rng, budget, stop_on_exit, query_roots):
    """A session's record rebuilt by a plain loop: `LabeledOracle.query` for
    each counted query, scored by `classify_vertex` of `oracle.reveal(label)`."""
    record = {"steps": [], "answers": [], "events": [], "halted": "done", "output": None}
    root_answers = {}

    def ask(label, fresh, is_root):
        step = len(record["steps"])
        if step >= budget:
            record["halted"] = "budget"
            return None
        answer = oracle.query(label)
        record["steps"].append(Step(label, len(answer), fresh=fresh, is_root=is_root))
        record["answers"].append(answer)
        if is_root:
            root_answers[label] = answer
        scored = reference_events(oracle.graph, oracle.reveal(label), step)
        record["events"] += scored
        if stop_on_exit and scored and scored[-1]["kind"] == "exit_leaf":
            record["halted"] = "exit"
            return None
        return answer

    gen = fn(list(roots), rng, oracle.num_labels)
    if all(ask(r, False, True) is not None for r in (roots if query_roots else [])):
        reply = None
        while True:
            try:
                request = gen.send(reply)
            except StopIteration as stop:
                record["output"] = stop.value
                break
            label = int(request)
            if type(request) is ex.Root and label in root_answers:
                reply = root_answers[label]
                continue
            reply = ask(label, type(request) is ex.Fresh, type(request) is ex.Root)
            if reply is None:
                break
    return record


@given(
    schedule=schedules(max_degree=5, max_depth=3),
    strategy=st.sampled_from(sorted(ex.STRATEGIES)),
    budget=st.integers(1, 12),
    window=st.sampled_from([1, 2, ex.EXIT_WINDOW]),
    stop_on_exit=st.booleans(),
    query_roots=st.booleans(),
    seed=st.integers(0, 1 << 32),
)
def test_session_scoring_matches_revealed_classification(
    petersen, schedule, strategy, budget, window, stop_on_exit, query_roots, seed
):
    degrees = tuple(d - schedule.degrees[-1] + 3 for d in schedule.degrees)
    graph = gm.MainGraph(gm.GraphParams.scaled(degrees, schedule.depths, expander_size=10), petersen)
    n = graph.num_nonisolated
    fn = ex.STRATEGIES[strategy]
    pick = random.Random(seed)

    def oracle(t):
        return orc.LabeledOracle(graph, derive_key("score", seed, t), padding_ratio=0.5)

    def roots(o):
        # One or two roots, a quarter of them isolated.
        picks = [pick.randrange(n + n // 3) for _ in range(pick.randint(1, 2))]
        return [o.label_of(graph.vertex_at(i) if i < n else gm.IsolatedVertex(i - n)) for i in picks]

    sessions, references = [], []
    for t in range(window):
        o, ref_oracle = oracle(t), oracle(t)
        rs = roots(o)
        session = ex.ExplorationSession(o, budget, t, strategy, stop_on_exit=stop_on_exit)
        sessions.append(session.start(fn, rs, random.Random(t), query_roots))
        references.append(_reference_session(ref_oracle, fn, rs, random.Random(t), budget, stop_on_exit, query_roots))
    ex.drive(sessions)
    for session, ref in zip(sessions, references):
        got = {"steps": steps(session), "answers": session.answers, "events": events(session),
               "halted": session.halted, "output": session.output}
        assert got == ref

    sealed = oracle(window)
    rs = roots(sealed)
    sealed.seal()
    session = ex.ExplorationSession(sealed, budget, 0, strategy, stop_on_exit=stop_on_exit)
    with pytest.raises(orc.RevealSealedError):
        session.start(fn, rs, random.Random(0), query_roots)
    assert steps(session) == [] and events(session) == [] and sealed.query_count == 0


def _exact_nb_exit_probability(degrees, depths, k, budget):
    """Exact exit probability of the non-backtracking walk by dynamic
    programming over the materialized tree (independent of the MC path)."""
    graph = gm.TreeGraph(gm.Schedule(degrees, depths), k)
    mat = gm.materialize(graph)
    is_exit = [classify_vertex(graph, v).get("level") == 0 for v in mat.vertices]

    @lru_cache(maxsize=None)
    def prob(cur, prev, remaining):
        if remaining == 0:
            return 0.0
        options = [x for x in mat.adjacency[cur] if x != prev] or list(mat.adjacency[cur])
        total = 0.0
        for nxt in options:
            if is_exit[nxt]:
                total += 1.0
            else:
                total += prob(nxt, cur, remaining - 1)
        return total / len(options)

    return prob(0, -1, budget - 1)  # root query spends the first unit


def test_nb_exit_probability_matches_exact_enumeration():
    degrees, depths, k, budget = (4, 2), (1, 3), 2, 6
    exact = _exact_nb_exit_probability(degrees, depths, k, budget)
    est = ex.estimate_exit_probability(
        gm.Schedule(degrees, depths), k, "non-backtracking-walk", budget, trials=4000, seed=21
    )
    sigma = max(est.exit.stderr, math.sqrt(exact * (1 - exact) / est.trials))
    assert abs(est.exit.p_hat - exact) <= 4 * sigma + 1e-9


def test_exit_estimate_monotone_in_depth_gap():
    estimates = []
    for l2 in (2, 3, 4):
        est = ex.estimate_exit_probability(
            gm.Schedule((4, 2), (1, l2)), 2, "greedy-unvisited", budget=10, trials=3000, seed=31
        )
        estimates.append(est)
    for a, b in zip(estimates, estimates[1:]):
        slack = 3 * (a.exit.stderr + b.exit.stderr)
        assert b.exit.p_hat <= a.exit.p_hat + slack


def test_exit_estimate_dominated_by_avoidance_bound():
    sched = gm.Schedule((25, 12), (1, 2))
    avoid1 = bd.avoidance_bound(12, 25, 2, 1, 1)
    avoid2 = bd.avoidance_bound(12, 25, 2, 1, 2)
    for strategy in ex.EXPLORATION_STRATEGIES:
        est = ex.estimate_exit_probability(sched, 2, strategy, budget=3, trials=3000, seed=41)
        assert est.restricted[1].p_hat <= avoid1.value + 3 * est.restricted[1].stderr
        assert est.restricted[2].p_hat <= avoid2.value + 3 * est.restricted[2].stderr


def test_exit_estimate_wilson_interval_contains_p_hat():
    est = ex.estimate_exit_probability(
        gm.Schedule((4, 3), (1, 2)), 2, "uniform-walk", budget=6, trials=500, seed=3
    )
    lo, hi = est.exit.wilson
    assert lo <= est.exit.p_hat <= hi


# -- localization -------------------------------------------------------------

@pytest.fixture(scope="module")
def petersen_oracle(small_instance):
    return orc.LabeledOracle(small_instance, derive_key("loc"), padding_ratio=2.0 ** -4)


def test_echoed_root_fails_localization(petersen_oracle, small_instance):
    root = petersen_oracle.label_of(gm.ExpanderVertex(4))
    score = ex.score_localization(petersen_oracle, [root], root, threshold=2)
    assert score.distance == 1 and not score.success


def test_isolated_output_scored_as_failure(petersen_oracle):
    iso = petersen_oracle.label_of(gm.IsolatedVertex(2))
    root = petersen_oracle.label_of(gm.ExpanderVertex(0))
    score = ex.score_localization(petersen_oracle, [root], iso, threshold=2)
    assert score.distance is None and not score.success


def test_sealed_oracle_refuses_localization_scoring(small_instance):
    o = orc.LabeledOracle(small_instance, derive_key("loc-sealed"), padding_ratio=2.0 ** -4)
    root = o.label_of(gm.ExpanderVertex(4))
    o.seal()
    for output in (root, None):
        with pytest.raises(orc.RevealSealedError):
            ex.score_localization(o, [root], output, threshold=2)


def test_ground_state_outputs_localize_on_petersen(small_instance):
    def make(key):
        return orc.LabeledOracle(small_instance, key, padding_ratio=2.0 ** -4)

    report = ex.localization_experiment(
        ex.GGSP,
        make,
        "single-fixed-root",
        "ground-state-cheat",
        trials=400,
        inputs_per_trial=1,
        budget=4,
        threshold=2,
        seed=17,
    )
    assert report.localization.p_hat >= 0.6
    floor = bd.localization_bound(1, 3, 2, 10)
    assert report.localization.p_hat >= floor.value - 3 * report.localization.stderr


def test_echo_algorithm_fails_localization(small_instance):
    def make(key):
        return orc.LabeledOracle(small_instance, key, padding_ratio=2.0 ** -4)

    report = ex.localization_experiment(
        ex.GGSP, make, "exact-ground-state", "echo-first-input",
        trials=300, inputs_per_trial=3, budget=4, threshold=2, seed=23,
    )
    assert 1.0 - report.localization.p_hat >= 0.99


def test_walk_algorithm_runs_within_budget(small_instance):
    def make(key):
        return orc.LabeledOracle(small_instance, key, padding_ratio=2.0 ** -4)

    report = ex.localization_experiment(
        ex.GGSP, make, "expander-uniform", "walk-from-input",
        trials=50, inputs_per_trial=2, budget=6, threshold=3, seed=29,
    )
    assert report.trials == 50
    assert max(json.loads(line)["query_count"] for line in report.lines) <= 6
    assert report.budget_failures == 50  # walkers always run to their budget


# -- trials.jsonl lines -------------------------------------------------------

def _dumps(row) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def _drawn(oracle, guiding, seed, count):
    """A trial's inputs as labels, drawn as `run_trials` draws them."""
    draws = orc.input_draws(oracle.graph, guiding, seed)
    return [oracle._label(i) for i in itertools.islice(draws, count)]


_LINE_CASES = dict(
    trials=st.integers(1, 6),
    count=st.integers(1, 3),
    budget=st.integers(1, 12),
    threshold=st.integers(0, 3),
    guiding=st.sampled_from(["exact-ground-state", "expander-uniform"]),
    seed=st.integers(0, 1 << 32),
)


@given(strategy=st.sampled_from(sorted(ex.STRATEGIES)), **_LINE_CASES)
def test_explore_graph_lines_encode_the_lone_records(
    small_instance, strategy, trials, count, budget, threshold, guiding, seed
):
    """Each explore-graph line is `json.dumps` of the reference record of its
    trial run alone, plus the trial's fields.  `random-probe` hits isolated
    labels (padding ratio 1/2); walks reach exit leaves."""
    def make(key):
        return orc.LabeledOracle(small_instance, key, padding_ratio=0.5)

    report = ex.localization_experiment(ex.EXPLORE_GRAPH, make, guiding, strategy, count, budget, threshold,
                                        seed, trials)
    for t, line in enumerate(report.lines):
        oracle = make(derive_key("oracle", derive_seed(seed, "oracle", t)))
        roots = _drawn(oracle, guiding, derive_seed(seed, t), count)
        session = ex.ExplorationSession(oracle, budget, derive_seed(seed, "run", t), strategy)
        rng = random.Random(derive_seed("strategy", session.seed))
        ex.drive([session.start(ex.STRATEGIES[strategy], roots, rng, query_roots=True)])
        score = ex.score_localization(oracle, roots, session.output, threshold)
        row = dict(record(session), trial=t, audit_ok=ex.component_audit(session).ok,
                   localized=score.success, distance=score.distance)
        assert line == _dumps(row)


@given(algorithm=st.sampled_from(sorted(ex.ALGORITHMS)), **_LINE_CASES)
def test_ggsp_lines_encode_the_lone_rows(small_instance, algorithm, trials, count, budget, threshold, guiding, seed):
    """Each ggsp line is `json.dumps` of its trial's row, each algorithm run
    alone through one session: a `walk-from-input` output is None,
    `ground-state-cheat` makes no query."""
    def make(key):
        return orc.LabeledOracle(small_instance, key, padding_ratio=0.5)

    report = ex.localization_experiment(ex.GGSP, make, guiding, algorithm, count, budget, threshold, seed, trials)
    fn = ex.ALGORITHMS[algorithm]
    for t, line in enumerate(report.lines):
        oracle = make(derive_key("ggsp", seed, t))
        inputs = _drawn(oracle, guiding, derive_seed("ggsp-in", seed, t), count)
        rng = random.Random(derive_seed("ggsp-alg", seed, t))
        session = ex.ExplorationSession(oracle, budget, seed, algorithm)
        ex.drive([session.start(ex.arm(fn, oracle), inputs, rng, query_roots=False)])
        if algorithm == "ground-state-cheat":
            assert session.query_count == 0 and session.output is not None
        score = ex.score_localization(oracle, inputs, session.output, threshold)
        row = {"schema": ex.ExplorationSession.SCHEMA, "trial": t, "seed": seed, "strategy": algorithm,
               "budget": budget, "inputs": inputs, "output": session.output, "query_count": session.query_count,
               "budget_exhausted": session.halted == "budget", "localized": score.success,
               "distance": score.distance}
        assert line == _dumps(row)


def test_ground_state_cheat_refuses_a_sealed_oracle_before_it_samples(small_params, petersen):
    """The cheat reads the trusted side only through its session, which
    refuses to arm on a sealed oracle: no ground-state sampler is built."""
    graph = gm.MainGraph(small_params, petersen)

    def make(key):
        oracle = orc.LabeledOracle(graph, key, padding_ratio=2.0 ** -4)
        oracle.seal()
        return oracle

    with pytest.raises(orc.RevealSealedError):
        ex.localization_experiment(ex.GGSP, make, "expander-uniform", "ground-state-cheat",
                                   inputs_per_trial=1, budget=4, threshold=2, seed=5, trials=3)
    assert getattr(graph, "_sampler_cache", None) is None


@given(values=st.lists(st.none() | st.booleans() | st.integers(-(1 << 70), 1 << 70) | st.text()
                       | st.lists(st.integers()) | st.floats(allow_nan=False), min_size=4, max_size=4))
def test_trial_line_values_encode_as_json_dumps(values):
    """Values the program never writes (strings with escapes, floats, nested
    lists) still encode as `json.dumps` does."""
    strategy, output, inputs, seed = values
    score = ex.LocalizationScore(None, False, 2)
    session = ex.ExplorationSession(None, 1, seed, strategy)
    session.output = output
    line = ex.TrialLines().ggsp(0, session, inputs, True, score)
    row = {"schema": 1, "trial": 0, "seed": seed, "strategy": strategy, "budget": 1, "inputs": inputs,
           "output": output, "query_count": 0, "budget_exhausted": False, "localized": False, "distance": None}
    assert line == _dumps(row)


def test_readme_library_quick_start_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
