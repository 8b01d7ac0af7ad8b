"""Exploration strategies against labeled oracles, the trial record, and
post-hoc event scoring.

A strategy is a query algorithm written as a generator `strategy(roots, rng,
num_labels)`: `answer = yield request`, then `return output_label`.  A request
is a plain label (one counted query), a `Root` (the root's recorded answer, or
one counted query marked `is_root` on first use) or a `Fresh` label (a
declared, counted probe); a strategy never holds the oracle or the graph.

Every strategy run (exit trial, localization trial) is one
`ExplorationSession`: it owns the budget (no query once its query count
reaches it), records every query and answer, scores the vertex behind each
query from its `IndexInfo` (isolated hit, leaf level, which decoration copy a
leaf belongs to), stops the generator when the budget is spent or the watched
exit fires, and is the record `run_exploration` returns.  Scoring never leaks
back into the strategy.

Every trial of every command runs through one generator, `run_trials`, under
one of three presets (`Preset`: registry, seed derivations, whether roots are
queried first, whether a run stops at the exit event, row writer).  It cuts
(algorithm, trial) pairs into windows of EXIT_WINDOW, builds one oracle per
distinct trial in a window, draws each trial's inputs as canonical indices
(`oracle.input_draws`), labels the window's missing inputs in one batch, arms
one session per pair and drives them together, and yields each pair's
session in order.  `EXIT_TREE` runs strategies from the root of one shared
tree to the exit event (`exit_trials`, one row dict per pair); a window may
run several strategies of a trial, which share its oracle.  `EXPLORE_GRAPH`
and `GGSP` draw guided inputs per trial, run an algorithm from them, and
`localization_experiment` audits and scores how far its output lands.  The
reference `ground-state-cheat` is a session like any other: a generator that
makes no query, with the oracle's trusted side bound in when it is armed.

The window's step loop is `drive`: at each step `OracleWindow.resolve`
resolves every live session's pending label once, to its index (the oracle's
memo) and its vertex's `IndexInfo` (the graph's per-index walk cache, so a
vertex is walked to once per graph, not once per query), and labels the
neighbours the memos lack in one batch; each session makes its counted query
with those neighbours, records the step, scores it from the same record and
advances its generator.  `run_exploration` is `drive` over one session.
Sessions share only caches whose values the keys fix (the graph's, a trial's
oracle memo), so each record is the one it would be alone.

Steps and events are kept raw, as plain tuples and (kind, step, IndexInfo): a
window holds its sessions' records alive together, and plain tuples of numbers
cost the garbage collector nothing once it has seen them.  The localization
experiment writes each trials.jsonl line as text straight from those raw
records and the trial's scores (`TrialLines`), so a report carries finished
lines, which the collector does not track, and no row dicts.  Scoring reads
the trusted side, so a session refuses to arm on a sealed oracle.
"""

from __future__ import annotations

import functools
import json
import random
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from . import spectral
from ._util import InputError, below, binomial_stderr, derive_key, derive_seed, wilson_interval
from .graph_model import IndexInfo, MainGraph, Schedule, TreeGraph
from .oracle import LabeledOracle, OracleWindow, RevealSealedError, input_draws


class UnknownStrategyError(InputError):
    pass


class Root(int):
    """Request for a root's answer: the recorded one, or one counted query
    (marked `is_root`) on first use, so a root is never queried twice."""


class Fresh(int):
    """Request for a declared fresh probe: one counted query that the audit
    counts instead of flagging."""


class EventStats(NamedTuple):
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
        self._steps: list[tuple] = []  # (label, answer_size, fresh, is_root) per counted query
        self.answers: list[tuple] = []  # full answers, kept in memory for audits
        self._events: list[tuple] = []  # (kind, step, IndexInfo or None); see `TrialLines`
        self.roots: list[int] = []
        self.root_answers: dict[int, tuple] = {}
        self.halted = "done"
        self.output: Optional[int] = None
        self.pending: Optional[tuple] = None  # set by `start`

    @property
    def query_count(self) -> int:
        return len(self._steps)

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
    """The step loop of a window: run armed sessions (`ExplorationSession.start`)
    in lockstep to their ends; a lone session is a window of one.  At each
    step `window.resolve` hands every live session its pending query's
    `IndexInfo`, which it queries, records and scores from
    (`ExplorationSession.answer`).  Each session keeps its own budget,
    generator and `random.Random`, so its record is the one it would have run
    to alone; sessions of one trial may share its oracle, whose `query_count`
    is then their sum.  `window` holds their distinct oracles (built here
    when not given)."""
    live = [s for s in sessions if s.pending is not None]
    if not live:
        return
    window = window or OracleWindow(dict.fromkeys(s.oracle for s in sessions))
    row_of = {oracle: row for row, oracle in enumerate(window.oracles)}
    rows = [row_of[s.oracle] for s in live]
    while live:
        for s, info in zip(live, window.resolve(rows, [s.pending[0] for s in live])):
            s.answer(info)
        rows = [row for row, s in zip(rows, live) if s.pending is not None]
        live = [s for s in live if s.pending is not None]


# ---------------------------------------------------------------------------
# strategies: generators (roots, rng, num_labels) -> output label
# ---------------------------------------------------------------------------

def uniform_walk(roots, rng, num_labels):
    cur, bits = roots[0], rng.getrandbits
    answer = yield Root(cur)
    while answer:
        cur = answer[below(bits, len(answer))]
        answer = yield cur
    return cur


def non_backtracking_walk(roots, rng, num_labels):
    cur, bits = roots[0], rng.getrandbits
    prev = None
    answer = yield Root(cur)
    while answer:
        options = [x for x in answer if x != prev] or answer
        prev = cur
        cur = options[below(bits, len(options))]
        answer = yield cur
    return cur


def greedy_unvisited(roots, rng, num_labels):
    cur, bits = roots[0], rng.getrandbits
    queried = set(roots)
    answer = yield Root(cur)
    while answer:
        options = [x for x in answer if x not in queried] or answer
        cur = options[below(bits, len(options))]
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
    last, bits = roots[0], rng.getrandbits
    while frontier:
        i = below(bits, len(frontier))
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
        yield Fresh(below(rng.getrandbits, num_labels))


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
    drive([session.start(fn, roots, random.Random(derive_seed("strategy", seed)), query_roots=True)])
    return session


# ---------------------------------------------------------------------------
# exit-probability estimation on standalone trees
# ---------------------------------------------------------------------------

class ExitEstimate(NamedTuple):
    schedule: Schedule
    level: int
    strategy: str
    budget: int
    trials: int
    exit: EventStats
    restricted: dict  # w -> EventStats for [exit and fewer than w distinct decorations' level-1 leaves]


RESTRICTED_W = (1, 2)


# Trials run in lockstep windows of this many (`run_trials`): enough for one
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
    tree (`run_trials` under `EXIT_TREE`): each from the root under its
    trial's labeling key, running its own strategy and stopping at the exit
    event; one row per pair (exit flag, distinct level-1 decorations,
    queries), in the pairs' order."""
    make_oracle = functools.partial(LabeledOracle, graph, padding_ratio=padding_ratio)
    return [
        {
            "trial": t,
            "strategy": session.strategy,
            "exit": int(session.halted == "exit"),
            "distinct_decorations": _distinct_level1_decorations(session),
            "queries": session.query_count,
        }
        for t, session, _ in run_trials(EXIT_TREE, pairs, make_oracle, "single-fixed-root", 1, budget, seed)
    ]


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
    )


def _distinct_level1_decorations(session: ExplorationSession) -> int:
    return len({(info.tree, info.decoration) for kind, _, info in session._events
                if kind == "leaf" and info.leaf_level == 1})


# ---------------------------------------------------------------------------
# trial audits and localization scoring
# ---------------------------------------------------------------------------

class AuditReport(NamedTuple):
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


class LocalizationScore(NamedTuple):
    distance: Optional[int]  # None when the output label is isolated
    success: bool
    threshold: int


def score_localization(
    oracle: LabeledOracle, root_labels: Sequence[int], output_label: Optional[int], threshold: int
) -> LocalizationScore:
    """Expander-vertex path distance from the root set to the output vertex,
    from each label's canonical index (`LabeledOracle.indices_of`) and index arithmetic
    (`MainGraph.expander_distance_to_set`): no vertex is revealed or
    unranked.  A sealed oracle refuses; isolated or missing outputs fail."""
    graph = oracle.graph
    if not isinstance(graph, MainGraph):
        raise ValueError("localization scoring needs a main-graph oracle")
    n = oracle.num_nonisolated
    roots = oracle.indices_of(root_labels)  # a sealed oracle refuses
    out = n if output_label is None else oracle.indices_of((output_label,))[0]
    roots = [i for i in roots if i < n] if out < n else []
    if not roots:
        return LocalizationScore(None, False, threshold)
    dist = graph.expander_distance_to_set(roots, out)
    return LocalizationScore(dist, dist >= threshold, threshold)


# `json.dumps(value, sort_keys=True, separators=(",", ":"))`, without building
# an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json(value) -> str:
    """`value` as `_dumps` writes it; None, bools and ints directly."""
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    return str(value) if type(value) is int else _dumps(value)


class TrialLines:
    """The one writer of explore-graph and ggsp trials.jsonl lines: the bytes
    `_dumps` writes for each trial's row, as text straight from a session's
    raw record and the trial's scores, with no row dict built or kept.  An
    event's text is made once per run and its step spliced in: a leaf's text
    is fixed by its tree, level and decoration copy, which sibling leaves share."""

    def __init__(self):
        # a bare event's kind, or a leaf's (tree, leaf_level, decoration) ->
        # the event's text before and after its step
        self._event_text = {}

    def _events(self, session: ExplorationSession) -> str:
        cache, parts = self._event_text, []
        for kind, step, info in session._events:
            key = kind if info is None else info[1:]
            text = cache.get(key)
            if text is None:
                text = cache[key] = (f'{{"kind":{_dumps(kind)},"step":', "}") if info is None else (
                    f'{{"decoration":{_dumps(repr(info.decoration))},"kind":{_dumps(kind)},'
                    f'"level":{info.leaf_level},"step":', f',"tree":{_dumps(repr(info.tree))}}}')
            parts.append(f"{text[0]}{step}{text[1]}")
        return f"[{','.join(parts)}]"

    def graph(self, t: int, session: ExplorationSession, inputs: list, audit_ok: bool,
              score: LocalizationScore) -> str:
        """An explore-graph row: the session's record (no steps or answers)
        with the trial's index, audit and localization score."""
        s = session
        return (
            f'{{"audit_ok":{_json(audit_ok)},"budget":{_json(s.budget)},"distance":{_json(score.distance)},'
            f'"events":{self._events(s)},"halted":{_json(s.halted)},"localized":{_json(score.success)},'
            f'"output":{_json(s.output)},"query_count":{s.query_count},"roots":{_json(s.roots)},'
            f'"schema":{s.SCHEMA},"seed":{_json(s.seed)},"strategy":{_json(s.strategy)},"trial":{_json(t)}}}\n'
        )

    def ggsp(self, t: int, session: ExplorationSession, inputs: list, audit_ok: bool,
             score: LocalizationScore) -> str:
        """A ggsp row: the trial's inputs, the session's output, query count
        and budget flag, and the trial's score."""
        s = session
        return (
            f'{{"budget":{_json(s.budget)},"budget_exhausted":{_json(s.halted == "budget")},'
            f'"distance":{_json(score.distance)},"inputs":{_json(inputs)},"localized":{_json(score.success)},'
            f'"output":{_json(s.output)},"query_count":{s.query_count},"schema":{s.SCHEMA},'
            f'"seed":{_json(s.seed)},"strategy":{_json(s.strategy)},"trial":{_json(t)}}}\n'
        )


# ---------------------------------------------------------------------------
# the trial generator, its three presets and the localization experiment
# ---------------------------------------------------------------------------

def echo_first_input(inputs, rng, num_labels):
    yield from ()
    return inputs[0]


def echo_random_input(inputs, rng, num_labels):
    yield from ()
    return inputs[below(rng.getrandbits, len(inputs))]


def ground_state_cheat(oracle: LabeledOracle, inputs, rng, num_labels):
    """Reference algorithm, the upper-bound comparator: it makes no query and
    outputs the label of an exact ground-state draw, read through the oracle's
    trusted side (bound in by `arm`), ignoring its inputs.  The sampler (and
    its solve) is built once per graph."""
    yield from ()
    return oracle.label_of(spectral.sampler_for_instance(oracle.graph).sample(rng))


# Algorithms that read the oracle's trusted side: `arm` binds the oracle in.
TRUSTED = frozenset({ground_state_cheat})


def arm(fn: Callable, oracle: LabeledOracle) -> Callable:
    """`fn` as a strategy generator on `oracle`: with the oracle as its first
    argument when it is TRUSTED, else as it is."""
    return functools.partial(fn, oracle) if fn in TRUSTED else fn


# The ggsp preset's registry: algorithms that echo an input, walk from the
# first, explore from all inputs as roots (STRATEGIES), or read the trusted
# side (the cheat, armed as a session that makes no query).
ALGORITHMS: dict[str, Callable] = {
    "echo-first-input": echo_first_input,
    "echo-random-input": echo_random_input,
    # Greedy exploration seeded at the first input.  It outputs only after an
    # empty answer, and on a main graph no answer is empty, so the budget
    # closes every run and the output is None.
    "walk-from-input": lambda inputs, rng, num_labels: greedy_unvisited(inputs[:1], rng, num_labels),
    "ground-state-cheat": ground_state_cheat,
    **STRATEGIES,
}


class Preset(NamedTuple):
    """What a trial command fixes of `run_trials`: its algorithm registry,
    whether a trial's inputs are queried (counted) as roots before the
    algorithm runs, whether a run stops at the exit event, trial t's oracle
    key, input seed and session seed as functions of (run seed, t), its
    strategy-RNG seed as a function of (run seed, t, session seed), and its
    trials.jsonl row writer (a `TrialLines` method; None for explore-tree,
    whose rows are dicts that `cli` appends and resumes)."""
    registry: dict
    query_roots: bool
    stop_on_exit: bool
    oracle_key: Callable
    input_seed: Callable
    session_seed: Callable
    rng_seed: Callable
    line: Optional[Callable]


EXIT_TREE = Preset(
    STRATEGIES, True, True,
    lambda seed, t: derive_key("exit-trial", seed, t),
    lambda seed, t: seed,  # unread: the tree's root is the only input
    derive_seed,
    lambda seed, t, session_seed: derive_seed("strategy", session_seed),
    None,
)
EXPLORE_GRAPH = Preset(
    STRATEGIES, True, False,
    lambda seed, t: derive_key("oracle", derive_seed(seed, "oracle", t)),
    derive_seed,
    lambda seed, t: derive_seed(seed, "run", t),
    lambda seed, t, session_seed: derive_seed("strategy", session_seed),
    TrialLines.graph,
)
GGSP = Preset(
    ALGORITHMS, False, False,
    lambda seed, t: derive_key("ggsp", seed, t),
    lambda seed, t: derive_seed("ggsp-in", seed, t),
    lambda seed, t: seed,
    lambda seed, t, session_seed: derive_seed("ggsp-alg", seed, t),
    TrialLines.ggsp,
)


def run_trials(
    preset: Preset,
    pairs: Sequence[tuple],
    make_oracle: Callable[[bytes], LabeledOracle],
    guiding: str,
    count: int,
    budget: int,
    seed: int,
) -> Iterator[tuple]:
    """The one trial loop: yield (t, session, inputs) for each (algorithm,
    trial t) of `pairs`, in order, each session run to its end under
    `preset`.  Per window of EXIT_WINDOW pairs it builds one oracle per
    distinct trial (`make_oracle` of its key) and draws that trial's first
    `count` inputs (`input_draws` of `guiding`) and its seeds once, labels
    the window's missing inputs in one batch, then arms one session per pair
    and drives them together (`drive`).  The pairs of one trial share its
    oracle, inputs and seeds, so a window may run several algorithms of a
    trial on one oracle."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pairs = list(pairs)
    resolved = {algorithm: resolve_strategy(algorithm, preset.registry) for algorithm, _ in pairs}
    for w in range(0, len(pairs), EXIT_WINDOW):
        chunk = pairs[w : w + EXIT_WINDOW]
        ts = list(dict.fromkeys(t for _, t in chunk))
        window = OracleWindow([make_oracle(preset.oracle_key(seed, t)) for t in ts])
        draws = [list(islice(input_draws(oracle.graph, guiding, preset.input_seed(seed, t)), count))
                 for t, oracle in zip(ts, window.oracles)]
        trial = {}
        for t, oracle, inputs in zip(ts, window.oracles, window.label_inputs(draws)):
            session_seed = preset.session_seed(seed, t)
            trial[t] = (oracle, inputs, session_seed, preset.rng_seed(seed, t, session_seed))
        sessions = []
        for algorithm, t in chunk:
            name, fn = resolved[algorithm]
            oracle, inputs, session_seed, rng_seed = trial[t]
            session = ExplorationSession(oracle, budget, session_seed, name, preset.stop_on_exit)
            sessions.append(session.start(arm(fn, oracle), inputs, random.Random(rng_seed), preset.query_roots))
        drive(sessions, window)
        for (_, t), session in zip(chunk, sessions):
            yield t, session, trial[t][1]


class LocalizationReport(NamedTuple):
    strategy: str
    trials: int  # trials run; fewer than asked when the query limit stopped the run
    localization: EventStats
    audits_ok: int
    budget_failures: int
    lines: list  # trials.jsonl lines (`Preset.line`), one per trial run


def localization_experiment(
    preset: Preset,
    make_oracle: Callable[[bytes], LabeledOracle],
    guiding: str,
    algorithm: Union[str, Callable],
    inputs_per_trial: int,
    budget: int,
    threshold: int,
    seed: int,
    trials: int,
    query_limit: Optional[int] = None,
) -> LocalizationReport:
    """Per trial, as `preset` derives it: draw `inputs_per_trial` guiding
    inputs under the trial's oracle key, run the algorithm from them under
    the budget, audit its transcript and score its output's expander
    distance from the inputs.  `make_oracle` builds the oracle for a key, so
    fresh-key trials model averaging over labelings.  Trial t runs only
    while the queries of trials 0..t-1 stay below `query_limit`; the report
    then holds trials 0..t-1."""
    name = resolve_strategy(algorithm, preset.registry)[0]
    successes = audits_ok = budget_failures = queries = 0
    writer, lines = TrialLines(), []

    def report(completed: int) -> LocalizationReport:
        stats = EventStats.from_counts(successes, completed)
        return LocalizationReport(name, completed, stats, audits_ok, budget_failures, lines)

    pairs = [(algorithm, t) for t in range(trials)]
    for t, session, inputs in run_trials(preset, pairs, make_oracle, guiding, inputs_per_trial, budget, seed):
        if query_limit is not None and queries >= query_limit:
            return report(t)
        queries += session.query_count
        audit_ok = component_audit(session).ok
        score = score_localization(session.oracle, inputs, session.output, threshold)
        successes += score.success
        audits_ok += audit_ok
        budget_failures += session.halted == "budget"
        lines.append(preset.line(writer, t, session, inputs, audit_ok, score))
    return report(trials)
