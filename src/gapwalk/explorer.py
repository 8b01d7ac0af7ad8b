"""Exploration strategies against labeled oracles, the trial record, and
post-hoc event scoring.

A strategy is a query algorithm written as a generator `strategy(roots, rng,
num_labels)`: `answer = yield request`, then `return output_label`.  A request
is a plain label (one counted query), a `Root` (the root's recorded answer, or
one counted query marked `is_root` on first use) or a `Fresh` label (a
declared, counted probe); a strategy never holds the oracle or the graph.

Every strategy run (exit trial, explore-graph trial, ggsp trial) is one
`ExplorationSession`: it owns the budget (no query once `len(steps)` reaches
it), records every query and answer, scores the vertex behind each query from
its `IndexInfo` (isolated hit, leaf level, which decoration copy a leaf belongs
to), stops the generator when the budget is spent or the watched exit fires,
and is the record `run_exploration` returns.  Scoring never leaks back into
the strategy.

Every trial runs through one loop, `drive`: it runs a list of sessions in
lockstep, a lone session as a window of one.  At each step it resolves every
live session's pending label once, to its index (the oracle's memo) and that
vertex's `IndexInfo` (the graph's per-index walk cache, so a vertex is walked
to once per graph, not once per query), labels the neighbours that the
oracles' memos lack in one `OracleWindow` batch, and hands each session its
`IndexInfo`: the session makes its counted query with those neighbours,
records the step, scores it from the same record and advances its generator.
Every experiment runs its trials through one windowing, `_windows`: windows
of EXIT_WINDOW trials, each with one oracle built per distinct trial, each
trial's roots or inputs drawn as canonical indices (`oracle.input_draws`) and
the window's missing labels mapped in one batch, then its sessions armed and
driven together.  `exit_trials` (over one shared tree, its windows cut from
(strategy, trial) pairs, so one window may run several strategies of a trial,
which share its oracle), `explore_graph_experiment` and `ggsp_experiment` all
run this way and emit rows in trial order; `run_exploration` is `drive` over
one session.  Sessions share only caches whose values the keys fix (the
graph's, a trial's oracle memo), so each record is the one it would be alone.

Steps and events are kept raw, as plain tuples and (kind, step, IndexInfo),
and built into `Step`s and dicts only when `steps`, `events` or `to_record` is
read: a window holds its sessions' records alive together, and plain tuples
of numbers cost the garbage collector nothing once it has seen them.  Scoring
reads the trusted side, so a session refuses to arm on a sealed oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence, Union

from . import spectral
from ._util import InputError, binomial_stderr, derive_key, derive_seed, wilson_interval
from .graph_model import IndexInfo, MainGraph, Schedule, TreeGraph
from .oracle import GuidingSpec, LabeledOracle, OracleWindow, RevealSealedError, input_draws


class UnknownStrategyError(InputError):
    pass


@dataclass
class Step:
    label: int
    answer_size: int
    fresh: bool = False
    is_root: bool = False


class Root(int):
    """Request for a root's answer: the recorded one, or one counted query
    (marked `is_root`) on first use, so a root is never queried twice."""


class Fresh(int):
    """Request for a declared fresh probe: one counted query that the audit
    counts instead of flagging."""


@dataclass(frozen=True)
class EventStats:
    trials: int
    successes: int
    p_hat: float
    stderr: float
    wilson: tuple

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "EventStats":
        p = successes / trials if trials else 0.0
        return cls(trials, successes, p, binomial_stderr(successes, trials), wilson_interval(successes, trials))


class ExplorationSession:
    """One strategy run and its record: budget, queries and answers, roots,
    scored events, how the run ended (`halted`) and the strategy's output."""

    SCHEMA = 1

    def __init__(self, oracle: LabeledOracle, budget: int, seed: int, strategy: str, stop_on_exit: bool = False):
        self.oracle = oracle
        self.budget = budget
        self.seed = seed
        self.strategy = strategy
        self.stop_on_exit = stop_on_exit
        self._steps: list[tuple] = []  # (label, answer_size, fresh, is_root); see `steps`
        self.answers: list[tuple] = []  # full answers, kept in memory for audits
        self._events: list[tuple] = []  # (kind, step, IndexInfo or None); see `events`
        self.roots: list[int] = []
        self.root_answers: dict[int, tuple] = {}
        self.halted = "done"
        self.output: Optional[int] = None
        self.pending: Optional[tuple] = None  # set by `start`

    @property
    def query_count(self) -> int:
        return len(self._steps)

    @property
    def steps(self) -> list[Step]:
        """The counted queries in order."""
        return [Step(*step) for step in self._steps]

    @property
    def events(self) -> list[dict]:
        """Scored events in query order: an isolated hit, a leaf (its level,
        and the reprs of its decoration copy and tree), and an exit leaf after
        each level-0 leaf."""
        text = {}  # id(IndexInfo) -> its reprs, made once however often a walk revisits it
        for _, _, info in self._events:
            if info is not None and id(info) not in text:
                text[id(info)] = {"decoration": repr(info.decoration), "tree": repr(info.tree)}
        return [
            {"kind": kind, "step": step} if info is None else
            {"kind": kind, "step": step, "level": info.leaf_level, **text[id(info)]}
            for kind, step, info in self._events
        ]

    def to_record(self) -> dict:
        """The run as a JSON-ready dict; its steps and answers stay in memory
        (`steps`, `answers`), which keeps trials.jsonl rows compact."""
        return {
            "schema": self.SCHEMA,
            "roots": list(self.roots),
            "events": self.events,
            "query_count": self.query_count,
            "seed": self.seed,
            "strategy": self.strategy,
            "budget": self.budget,
            "halted": self.halted,
            "output": self.output,
        }

    def start(self, strategy: Callable, roots: Sequence[int], rng: random.Random, query_roots: bool) -> "ExplorationSession":
        """Arm the run for `drive`: the roots' counted queries first when
        `query_roots` is set, then the strategy's generator.  `pending` holds
        the next counted query as (label, fresh, is_root), None once the run
        is over.  Scoring reads the trusted side, so a sealed oracle refuses
        here, before any query."""
        if self.oracle.sealed:
            raise RevealSealedError("scoring reads the trusted side, which is sealed on this oracle")
        self._gen = strategy(list(roots), rng, self.oracle.num_labels)
        self._root_queries = list(roots)[::-1] if query_roots else []
        self._reply = None
        self._advance()
        return self

    def run(self, strategy: Callable, roots: Sequence[int], rng: random.Random, query_roots: bool) -> "ExplorationSession":
        """One strategy run: `drive` over this session alone."""
        drive([self.start(strategy, roots, rng, query_roots)])
        return self

    def _advance(self):
        """Run the generator to its next counted query (a recorded root answer
        costs none), or end the run: the generator returned (its value is the
        output) or the budget is spent (the generator is closed, no output)."""
        self._prelude = bool(self._root_queries)
        if self._prelude:
            request = (self._root_queries.pop(), False, True)
        else:
            while True:
                try:
                    request = self._gen.send(self._reply)
                except StopIteration as stop:
                    self.output = stop.value
                    self.pending = None
                    return
                kind = type(request)
                if kind is Root:
                    label = int(request)
                    if label in self.root_answers:
                        self._reply = self.root_answers[label]
                        continue
                    request = (label, False, True)
                elif kind is Fresh:
                    request = (int(request), True, False)
                else:
                    request = (request, False, False)
                break
        if len(self._steps) >= self.budget:
            self.halted = "budget"
            self._end()
        else:
            self.pending = request

    def _end(self):
        self._gen.close()
        self.pending = None

    def answer(self, info: Optional[IndexInfo]):
        """The pending counted query, resolved by `drive` to its vertex's walk
        record `info` (None for an isolated vertex): query the oracle with the
        record's neighbours, record the step and score it from the same
        record, then hand the answer to the generator (a root's first query
        only records it) and advance, or end the run if it fired the watched
        exit."""
        label, fresh, is_root = self.pending
        step = len(self._steps)
        answer = self.oracle.query(label, info.neighbors if info else ())
        self._steps.append((label, len(answer), fresh, is_root))
        self.answers.append(answer)
        if is_root:
            self.roots.append(label)
            self.root_answers[label] = answer
        if info is None:
            self._events.append(("isolated_hit", step, None))
        elif info.leaf_level is not None:
            self._events.append(("leaf", step, info))
            if info.leaf_level == 0:
                self._events.append(("exit_leaf", step, None))
                if self.stop_on_exit:
                    self.halted = "exit"
                    self._end()
                    return
        if not self._prelude:
            self._reply = answer
        self._advance()


def drive(sessions: Sequence[ExplorationSession], window: Optional[OracleWindow] = None) -> None:
    """The one trial loop: run armed sessions (`ExplorationSession.start`)
    in lockstep to their ends; a lone session is a window of one.  At each
    step it resolves every live session's pending label once: its index from
    the oracle's memo, then the vertex's `IndexInfo` from the graph's walk
    cache.  It labels each neighbour (oracle, index) that the memos lack once,
    in one `OracleWindow.label` call (the memo holds a miss as None until
    then), except for a label its oracle has answered before, whose query
    returns the memoized answer.  It hands each session its `IndexInfo`
    (`ExplorationSession.answer`), which queries, records and scores from
    it.  Each session keeps its own budget, generator and `random.Random`,
    so its record is the one it would have run to alone; sessions of one
    trial may share its oracle, whose `query_count` is then their sum.
    `window` holds their distinct oracles (built here when not given)."""
    live = [s for s in sessions if s.pending is not None]
    if not live:
        return
    window = window or OracleWindow(dict.fromkeys(s.oracle for s in sessions))
    row_of = {oracle: row for row, oracle in enumerate(window.oracles)}
    live = [(row_of[s.oracle], s) for s in live]
    while live:
        rows, wanted, infos = [], [], []
        for row, s in live:
            oracle = s.oracle
            label = s.pending[0]
            index = oracle._index(label)
            info = None
            if index < oracle.num_nonisolated:
                info = oracle.graph.index_info(index)
                if label not in oracle._answers:  # else its query reads the memo
                    have = oracle._label_at
                    for j in info.neighbors:
                        if j not in have:
                            have[j] = None
                            rows.append(row)
                            wanted.append(j)
            infos.append(info)
        window.label(rows, wanted)
        for (_, s), info in zip(live, infos):
            s.answer(info)
        live = [(row, s) for row, s in live if s.pending is not None]


# ---------------------------------------------------------------------------
# strategies: generators (roots, rng, num_labels) -> output label
# ---------------------------------------------------------------------------

def uniform_walk(roots, rng, num_labels):
    cur = roots[0]
    answer = yield Root(cur)
    while answer:
        cur = answer[rng.randrange(len(answer))]
        answer = yield cur
    return cur


def non_backtracking_walk(roots, rng, num_labels):
    cur = roots[0]
    prev = None
    answer = yield Root(cur)
    while answer:
        options = [x for x in answer if x != prev] or answer
        prev = cur
        cur = options[rng.randrange(len(options))]
        answer = yield cur
    return cur


def greedy_unvisited(roots, rng, num_labels):
    cur = roots[0]
    queried = set(roots)
    answer = yield Root(cur)
    while answer:
        options = [x for x in answer if x not in queried] or answer
        cur = options[rng.randrange(len(options))]
        queried.add(cur)
        answer = yield cur
    return cur


def frontier_bfs_random(roots, rng, num_labels):
    seen = set(roots)
    frontier = []
    for r in roots:
        for x in (yield Root(r)):
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    last = roots[0]
    while frontier:
        i = rng.randrange(len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        last = frontier.pop()
        for x in (yield last):
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return last


def random_probe(roots, rng, num_labels):
    """Probes fresh uniformly random labels until the budget is spent; declared,
    so audits count the non-isolated hits instead of flagging violations."""
    while True:
        yield Fresh(rng.randrange(num_labels))


def scripted(plan: Sequence[int]):
    """Fixed query plan, replayed label by label (fixture strategy)."""

    def run(roots, rng, num_labels):
        last = roots[0] if roots else None
        for last in plan:
            yield last
        return last

    run.__name__ = "scripted"
    return run


STRATEGIES: dict[str, Callable] = {
    "uniform-walk": uniform_walk,
    "non-backtracking-walk": non_backtracking_walk,
    "greedy-unvisited": greedy_unvisited,
    "frontier-bfs-random": frontier_bfs_random,
    "random-probe": random_probe,
}

# Adjacency-disciplined strategies used in exploration sweeps.
EXPLORATION_STRATEGIES = (
    "uniform-walk",
    "non-backtracking-walk",
    "greedy-unvisited",
    "frontier-bfs-random",
)


def resolve_strategy(strategy: Union[str, Callable], registry: dict = STRATEGIES) -> tuple[str, Callable]:
    if callable(strategy):
        return getattr(strategy, "__name__", "custom"), strategy
    if isinstance(strategy, str) and strategy in registry:
        return strategy, registry[strategy]
    raise UnknownStrategyError(f"unknown strategy {strategy!r}; known: {sorted(registry)}")


def run_exploration(
    oracle: LabeledOracle,
    roots: Sequence[int],
    strategy: Union[str, Callable],
    budget: int,
    seed: int,
    stop_on_exit: bool = False,
) -> ExplorationSession:
    """Run one strategy against an oracle; roots are queried first (counted)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    name, fn = resolve_strategy(strategy)
    session = ExplorationSession(oracle, budget, seed, name, stop_on_exit=stop_on_exit)
    return session.run(fn, roots, random.Random(derive_seed("strategy", seed)), query_roots=True)


# ---------------------------------------------------------------------------
# exit-probability estimation on standalone trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExitEstimate:
    schedule: Schedule
    level: int
    strategy: str
    budget: int
    trials: int
    exit: EventStats
    restricted: dict  # w -> EventStats for [exit and fewer than w distinct decorations' level-1 leaves]
    mean_queries: float


RESTRICTED_W = (1, 2)


# Trials run in lockstep windows of this many (`exit_trials`): enough for one
# `forward_array` call per step to label a few hundred neighbours (its fixed
# cost is that of about 15 scalar labels), few enough that a window's sessions
# stay small in memory.
EXIT_WINDOW = 128


def exit_trials(
    graph: TreeGraph,
    pairs: Sequence[tuple],
    budget: int,
    seed: int,
    padding_ratio: float,
) -> list[dict]:
    """Run the exit trials `pairs`, each a (strategy, trial), on a standalone
    tree: each from the root under its trial's labeling key, running its own
    strategy and stopping at the exit event, in lockstep windows of
    EXIT_WINDOW pairs (`drive`), which may mix strategies and share a trial's
    key, seeds and oracle among its sessions; one row per pair (exit flag,
    distinct level-1 decorations, queries), in the pairs' order."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    resolved = {strategy: resolve_strategy(strategy) for strategy, _ in pairs}
    root = (graph.index_of(graph.root),)
    rows = []
    for window_pairs, window, oracles, roots in _windows(
        list(pairs),
        lambda t: LabeledOracle(graph, derive_key("exit-trial", seed, t), padding_ratio=padding_ratio),
        lambda t, oracle: root,
        1,
        trial_of=lambda pair: pair[1],
    ):
        seeds = {t: derive_seed(seed, t) for t in {t for _, t in window_pairs}}
        rng_seeds = {t: derive_seed("strategy", trial_seed) for t, trial_seed in seeds.items()}
        sessions = []
        for (strategy, t), orc, labels in zip(window_pairs, oracles, roots):
            name, fn = resolved[strategy]
            session = ExplorationSession(orc, budget, seeds[t], name, stop_on_exit=True)
            sessions.append(session.start(fn, labels, random.Random(rng_seeds[t]), query_roots=True))
        drive(sessions, window)
        for (_, t), session in zip(window_pairs, sessions):
            rows.append(
                {
                    "trial": t,
                    "strategy": session.strategy,
                    "exit": int(session.halted == "exit"),
                    "distinct_decorations": _distinct_level1_decorations(session),
                    "queries": session.query_count,
                }
            )
    return rows


def _windows(items: Sequence, oracle_of: Callable, draws_of: Callable, count: int, trial_of=None):
    """The one windowing of trials: `items` in windows of EXIT_WINDOW, each
    yielded as (its items, an `OracleWindow` of one `oracle_of(t)` per
    distinct trial t among them, each item's oracle, each item's inputs as
    labels).  An item is its own trial unless `trial_of` names it, and the
    items of one trial share its oracle and inputs.  Trial t's inputs are
    the first `count` draws of `draws_of(t, oracle)`, canonical indices
    (`input_draws`); the window's misses are labeled in one batch."""
    for w in range(0, len(items), EXIT_WINDOW):
        chunk = items[w : w + EXIT_WINDOW]
        keys = list(map(trial_of, chunk)) if trial_of else chunk
        ts = list(dict.fromkeys(keys))
        window = OracleWindow([oracle_of(t) for t in ts])
        draws = [list(islice(draws_of(t, o), count)) for t, o in zip(ts, window.oracles)]
        setup = dict(zip(ts, zip(window.oracles, window.label_inputs(draws))))
        oracles, inputs = zip(*(setup[t] for t in keys))
        yield chunk, window, oracles, inputs


def estimate_exit_probability(
    schedule: Schedule,
    level: int,
    strategy: Union[str, Callable],
    budget: int,
    trials: int,
    seed: int,
    padding_ratio: float = 0.25,
) -> ExitEstimate:
    """Monte Carlo estimate of the probability that a strategy, exploring a
    standalone tree from its root under a query budget, ever queries an
    outermost-core (exit) leaf.  Each trial runs under a fresh labeling key.

    Also tallies the avoidance-restricted events for w in RESTRICTED_W: exit
    with fewer than w distinct decoration copies having had a level-1 leaf
    queried (trials stop at the exit event, so the tally is the count at that
    moment).
    """
    pairs = [(strategy, t) for t in range(trials)]
    rows = exit_trials(TreeGraph(schedule, level), pairs, budget, seed, padding_ratio)
    exits = [r["distinct_decorations"] for r in rows if r["exit"]]
    return ExitEstimate(
        schedule=schedule,
        level=level,
        strategy=resolve_strategy(strategy)[0],
        budget=budget,
        trials=trials,
        exit=EventStats.from_counts(len(exits), trials),
        restricted={
            w: EventStats.from_counts(sum(d < w for d in exits), trials) for w in RESTRICTED_W
        },
        mean_queries=sum(r["queries"] for r in rows) / trials if trials else 0.0,
    )


def _distinct_level1_decorations(session: ExplorationSession) -> int:
    return len({(info.tree, info.decoration) for kind, _, info in session._events
                if kind == "leaf" and info.leaf_level == 1})


# ---------------------------------------------------------------------------
# trial audits and localization scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    ok: bool
    violations: tuple       # step indices of undeclared non-adjacent queries
    fresh_probes: int
    fresh_nonisolated_hits: int


def component_audit(session: ExplorationSession) -> AuditReport:
    """Check the adjacency discipline: every queried label must be a root, a
    declared fresh probe, or present in some earlier answer.  Fresh probes that
    hit non-isolated vertices (nonempty answers) are counted, not flagged."""
    seen = set(session.roots)
    violations = []
    fresh_probes = 0
    fresh_hits = 0
    for i, (label, answer_size, fresh, is_root) in enumerate(session._steps):
        if fresh:
            fresh_probes += 1
            if answer_size > 0:
                fresh_hits += 1
        elif not is_root and label not in seen:
            violations.append(i)
        seen.update(session.answers[i])
    return AuditReport(
        ok=not violations,
        violations=tuple(violations),
        fresh_probes=fresh_probes,
        fresh_nonisolated_hits=fresh_hits,
    )


@dataclass(frozen=True)
class LocalizationScore:
    distance: Optional[int]  # None when the output label is isolated
    success: bool
    threshold: int


def score_localization(
    oracle: LabeledOracle, root_labels: Sequence[int], output_label: Optional[int], threshold: int
) -> LocalizationScore:
    """Expander-vertex path distance from the root set to the output vertex,
    from each label's canonical index (the oracle's memo) and index arithmetic
    (`MainGraph.expander_distance_to_set`): no vertex is revealed or
    unranked.  A sealed oracle refuses; isolated or missing outputs fail."""
    graph = oracle.graph
    if not isinstance(graph, MainGraph):
        raise ValueError("localization scoring needs a main-graph oracle")
    if oracle.sealed:
        raise RevealSealedError("scoring reads the trusted side, which is sealed on this oracle")
    n = oracle.num_nonisolated
    out = n if output_label is None else oracle._index(output_label)
    roots = [i for i in map(oracle._index, root_labels) if i < n] if out < n else []
    if not roots:
        return LocalizationScore(None, False, threshold)
    dist = graph.expander_distance_to_set(roots, out)
    return LocalizationScore(dist, dist >= threshold, threshold)


@dataclass(frozen=True)
class GraphReport:
    strategy: str
    trials: int  # trials run; fewer than asked when the query limit stopped the run
    localization: EventStats
    audits_ok: int
    trial_rows: tuple = ()  # schema-versioned per-trial records, without their steps


def explore_graph_experiment(
    make_oracle: Callable[[bytes], LabeledOracle],
    guiding: GuidingSpec,
    strategy: Union[str, Callable],
    roots_per_trial: int,
    budget: int,
    threshold: int,
    seed: int,
    trials: int,
    query_limit: Optional[int] = None,
) -> GraphReport:
    """Per trial: draw `roots_per_trial` guiding roots under a fresh key, run
    the strategy from them (roots queried first, counted), audit its
    transcript and score its output's expander distance from the roots.  Trial
    t runs only while the queries of trials 0..t-1 stay below `query_limit`;
    the report then holds trials 0..t-1."""
    name, fn = resolve_strategy(strategy)
    successes = audits_ok = total_queries = 0
    rows = []

    def report(completed: int) -> GraphReport:
        stats = EventStats.from_counts(successes, completed)
        return GraphReport(name, completed, stats, audits_ok, tuple(rows))

    for ts, window, oracles, roots in _windows(
        range(trials),
        lambda t: make_oracle(derive_key("oracle", derive_seed(seed, "oracle", t))),
        lambda t, oracle: input_draws(oracle.graph, guiding, derive_seed(seed, t)),
        roots_per_trial,
    ):
        sessions = []
        for t, oracle, labels in zip(ts, oracles, roots):
            session = ExplorationSession(oracle, budget, derive_seed(seed, "run", t), name)
            rng = random.Random(derive_seed("strategy", session.seed))
            sessions.append(session.start(fn, labels, rng, query_roots=True))
        drive(sessions, window)
        for t, session, labels in zip(ts, sessions, roots):
            if query_limit is not None and total_queries >= query_limit:
                return report(t)
            total_queries += session.query_count
            audit = component_audit(session)
            audits_ok += audit.ok
            score = score_localization(session.oracle, labels, session.output, threshold)
            successes += score.success
            row = session.to_record()
            row.update(trial=t, audit_ok=audit.ok, localized=score.success, distance=score.distance)
            rows.append(row)
    return report(trials)


# ---------------------------------------------------------------------------
# end-to-end guided-output experiment
# ---------------------------------------------------------------------------

def echo_first_input(inputs, rng, num_labels):
    yield from ()
    return inputs[0]


def echo_random_input(inputs, rng, num_labels):
    yield from ()
    return inputs[rng.randrange(len(inputs))]


def ground_state_cheat(oracle: LabeledOracle, inputs, rng):
    """Reference algorithm that samples the exact ground state through the
    trusted side, ignoring its inputs; the upper-bound comparator.  The
    sampler (and its solve) is built once per graph."""
    return oracle.label_of(spectral.sampler_for_instance(oracle.graph).sample(rng))


ground_state_cheat.requires_trust = True


ALGORITHMS: dict[str, Callable] = {
    "echo-first-input": echo_first_input,
    "echo-random-input": echo_random_input,
    # Greedy exploration seeded at the first input; outputs the last queried label.
    "walk-from-input": lambda inputs, rng, num_labels: greedy_unvisited(inputs[:1], rng, num_labels),
    "ground-state-cheat": ground_state_cheat,
    **STRATEGIES,
}


@dataclass(frozen=True)
class GgspReport:
    algorithm: str
    trials: int
    inputs_per_trial: int
    budget: int
    threshold: int
    localization: EventStats
    mean_queries: float
    budget_failures: int
    trial_rows: tuple = ()  # schema-versioned per-trial records


def ggsp_experiment(
    make_oracle: Callable[[bytes], LabeledOracle],
    guiding_kind,
    algorithm: Union[str, Callable],
    trials: int,
    inputs_per_trial: int,
    budget: int,
    threshold: int,
    seed: int,
) -> GgspReport:
    """Per-trial: draw guiding inputs, run the algorithm under a budget, score
    the output's expander distance from the inputs.  `make_oracle` builds the
    oracle for a key, so fresh-key trials model averaging over labelings."""
    spec = guiding_kind if isinstance(guiding_kind, GuidingSpec) else GuidingSpec(kind=guiding_kind)
    name, fn = resolve_strategy(algorithm, ALGORITHMS)
    trusted = getattr(fn, "requires_trust", False)
    successes = 0
    total_queries = 0
    budget_failures = 0
    rows = []
    for ts, window, oracles, inputs in _windows(
        range(trials),
        lambda t: make_oracle(derive_key("ggsp", seed, t)),
        lambda t, oracle: input_draws(oracle.graph, spec, derive_seed("ggsp-in", seed, t)),
        inputs_per_trial,
    ):
        rngs = [random.Random(derive_seed("ggsp-alg", seed, t)) for t in ts]
        if trusted:
            runs = [(fn(o, x, rng), 0, False) for o, x, rng in zip(oracles, inputs, rngs)]
        else:
            sessions = [
                ExplorationSession(o, budget, seed, name).start(fn, x, rng, query_roots=False)
                for o, x, rng in zip(oracles, inputs, rngs)
            ]
            drive(sessions, window)
            runs = [(s.output, s.query_count, s.halted == "budget") for s in sessions]
        for t, oracle, x, (output, queries, exhausted) in zip(ts, oracles, inputs, runs):
            budget_failures += exhausted
            total_queries += queries
            score = score_localization(oracle, x, output, threshold)
            successes += score.success
            rows.append(
                {
                    "schema": ExplorationSession.SCHEMA,
                    "trial": t,
                    "seed": seed,
                    "strategy": name,
                    "budget": budget,
                    "inputs": x,
                    "output": output,
                    "query_count": queries,
                    "budget_exhausted": exhausted,
                    "localized": score.success,
                    "distance": score.distance,
                }
            )
    return GgspReport(
        algorithm=name,
        trials=trials,
        inputs_per_trial=inputs_per_trial,
        budget=budget,
        threshold=threshold,
        localization=EventStats.from_counts(successes, trials),
        mean_queries=total_queries / trials if trials else 0.0,
        budget_failures=budget_failures,
        trial_rows=tuple(rows),
    )
