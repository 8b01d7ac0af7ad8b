"""The three benchmark workloads: set-up, one round of timed operations, and
the checks of every output against references computed apart from gapwalk.

A round is a fixed list of operations whose inputs derive from (seed, round
index) through a stable hash, so every round attempts the same operations and
a traced replay of round i sees the same inputs as the untraced round i.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import refs

EXPLORATION_STRATEGIES = (
    "uniform-walk",
    "non-backtracking-walk",
    "greedy-unvisited",
    "frontier-bfs-random",
)


# Nominal duration of one calibration loop.  Times are reported as measured
# seconds x REF_S / (calibration loop time around the operation): the
# measuring machine (2 vCPUs on a shared host) switches between speed states
# up to ~1.75x apart as neighbours load the host, and the loop, interpreter
# work like gapwalk's own, slows with it.
REF_S = 0.010
_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    return x ^ (x >> 27)


def calibration_loop() -> float:
    """Seconds for a fixed piece of interpreter work, about half of it tuple
    keys, dict lookups and float logs and half function calls with 64-bit
    integer mixing.  Of the loops tried, this mix's ratio to gapwalk's
    exploration and spectrum times moved least between speed states."""
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(6_000):
        key = ((i * 2654435761) & 0xFFFF, i & 7)
        table[key] = table.get(key, 0) + i
        acc += math.log(1.0 + (i & 255))
    bits = 0
    for i in range(12_000):
        bits ^= _mix(i)
    return time.perf_counter() - t0


# The same for set-up work dominated by dense linear algebra, which the
# interpreter loop tracks badly: a fixed symmetric eigensolve, nominally 30 ms.
LAPACK_REF_S = 0.030
_LAPACK_MATRIX = None


def lapack_calibration() -> float:
    """Seconds for numpy.linalg.eigvalsh of a fixed 640 x 640 symmetric matrix."""
    global _LAPACK_MATRIX
    if _LAPACK_MATRIX is None:
        m = np.random.default_rng(0).standard_normal((640, 640))
        _LAPACK_MATRIX = m + m.T
    t0 = time.perf_counter()
    np.linalg.eigvalsh(_LAPACK_MATRIX)
    return time.perf_counter() - t0


def sub_seed(*parts) -> int:
    """31-bit seed from labeled parts by SHA-256 (never the salted hash())."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass
class Op:
    kind: str
    seconds: float     # calibrated (see REF_S)
    attempts: int      # operations this step counts as attempted
    wall: float = 0.0  # measured wall seconds
    units: int = 0     # trial-level operations (trials or draws) inside it
    queries: int = 0   # oracle queries it made
    failed: bool = False
    expected_failure: bool = False


class Run:
    """One benchmark process: gapwalk modules, scratch directory, optional tracer."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.tracer = None  # a tracer.Tracer while a traced part runs
        self.failures: list[str] = []
        self._dirs = 0
        self._ref = None
        from gapwalk import cli, expander_gen, graph_model, spectral

        self.cli, self.expander_gen, self.gm, self.spectral = cli, expander_gen, graph_model, spectral

    def fresh_dir(self, tag: str) -> Path:
        """A path that does not exist yet; the CLI creates it empty."""
        self._dirs += 1
        return self.work / f"{tag}-{self._dirs}"

    def write_config(self, name: str, cfg: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(cfg))
        return path

    def fail(self, message: str):
        self.failures.append(message)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def measure(self, fn):
        """(result, calibrated seconds, wall seconds) of fn(), with calibration
        loops on both sides; the loop after one operation serves the next."""
        before = self._ref if self._ref is not None else calibration_loop()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self._ref = calibration_loop()
        return result, wall * 2 * REF_S / (before + self._ref), wall

    def invoke(self, kind: str, argv: list, expected_failure: bool = False):
        """Run `gapwalk <argv>` in-process; (Op, error text or None).  Time
        spent in an operation expected to fail is kept out of every metric."""
        buf = io.StringIO()
        excluded = (
            self.tracer.excluded() if self.tracer is not None and expected_failure
            else contextlib.nullcontext()
        )

        def call():
            with self.span(f"bench.{kind}"):
                try:
                    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                        rc = self.cli.main([str(a) for a in argv])
                except Exception as exc:  # a crash is a result here: count it and go on
                    return f"{type(exc).__name__}: {str(exc)[:200]}"
            return None if rc == 0 else f"exit code {rc}: {buf.getvalue().strip()[-200:]}"

        with excluded:
            error, seconds, wall = self.measure(call)
        if error is not None and not expected_failure:
            self.fail(f"{kind} {argv[0]} failed unexpectedly: {error}")
        op = Op(kind, seconds, attempts=1, wall=wall, failed=error is not None,
                expected_failure=expected_failure)
        return op, error

    def draws(self, sampler, count: int):
        """(Op, how many were core vertices) for `count` ground-state draws.
        Draws are not kept: a standard-family core index is a huge integer."""
        core_vertex = self.gm.ExpanderVertex

        def call():
            with self.span("bench.draws"):
                return sum(isinstance(sampler.sample(), core_vertex) for _ in range(count))

        core, seconds, wall = self.measure(call)
        return Op("draws", seconds, attempts=count, units=count, wall=wall), core

    def bytes_written(self, out: Path):
        if self.tracer is not None:
            self.tracer.counters["cli.bytes_written"] += sum(
                p.stat().st_size for p in out.iterdir() if p.is_file()
            )


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def read_jsonl(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# Timed and calibrated inside the child, after numpy and scipy have loaded:
# process start and numpy's own import are neither gapwalk's work nor steady.
_STARTUP = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import scipy.linalg, scipy.sparse.linalg, workloads
before = workloads.calibration_loop()
t0 = time.perf_counter()
import gapwalk.cli
wall = time.perf_counter() - t0
print(wall * 2 * workloads.REF_S / (before + workloads.calibration_loop()))
"""


def interpreter_startup(run: Run) -> float:
    """Calibrated seconds for a fresh interpreter to import the gapwalk CLI:
    the start-up every `gapwalk` command pays on top of numpy and scipy."""
    code = _STARTUP.format(src=str(run.root / "src"), bench=str(Path(__file__).resolve().parent))
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# exit-sweep
# ---------------------------------------------------------------------------

class ExitSweep:
    """`gapwalk explore-tree` over fixed 2- and 3-level schedules (taken from
    acceptance criterion 5) x the four exploration strategies."""

    name = "exit-sweep"
    setup_reps = 9
    trace_rounds = 3
    trial_kinds = ("explore-tree",)
    # (degrees, depths, budget)
    CELLS = (
        ((25, 12), (1, 2), 3),
        ((4, 2), (1, 3), 8),
        ((5, 3), (2, 4), 10),
        ((9, 5), (1, 2), 4),
        ((4, 3), (8, 15), 16),
        ((5, 4, 3), (1, 2, 3), 8),
        ((8, 6, 4), (2, 5, 9), 16),
        ((8, 6, 4), (2, 5, 9), 9),  # budget = outer-core depth: no exit reachable
    )
    TRIALS = 25  # per strategy per cell per round

    def __init__(self, run: Run):
        self.run = run
        self.configs = []
        for i, (degrees, depths, budget) in enumerate(self.CELLS):
            cfg = {
                "schedule": {"degrees": list(degrees), "depths": list(depths)},
                "strategies": list(EXPLORATION_STRATEGIES),
                "budget": budget,
            }
            self.configs.append(run.write_config(f"exit-cell-{i}.json", cfg))
        # (round, cell, strategy) -> [trials, exits, restricted w=1, restricted w=2];
        # keyed by round so a traced replay of a round is not counted twice.
        self.tallies = {}

    def setup(self, rep: int) -> float:
        return interpreter_startup(self.run)

    def round(self, index: int) -> list:
        ops = []
        for i, cfg in enumerate(self.configs):
            out = self.run.fresh_dir("explore-tree")
            seed = sub_seed(self.run.seed, self.name, index, i)
            op, error = self.run.invoke(
                "explore-tree",
                ["explore-tree", "--config", cfg, "--out", out, "--seed", seed,
                 "--trials", self.TRIALS, "--threads", 1],
            )
            op.attempts = op.units = self.TRIALS * len(EXPLORATION_STRATEGIES)
            if error is None:
                op.queries = self._check_cell(index, i, out)
                self.run.bytes_written(out)
            ops.append(op)
            shutil.rmtree(out, ignore_errors=True)
        return ops

    def _check_cell(self, index: int, i: int, out: Path) -> int:
        degrees, depths, budget = self.CELLS[i]
        fail = self.run.fail
        rows = read_jsonl(out / "trials.jsonl")
        keys = [(r["strategy"], r["trial"]) for r in rows]
        expected = {(s, t) for s in EXPLORATION_STRATEGIES for t in range(self.TRIALS)}
        if len(keys) != len(expected) or set(keys) != expected:
            fail(f"exit cell {i}: trials.jsonl rows are not one per (strategy, trial)")
        exit_depth = depths[-1]
        for r in rows:
            if r["queries"] > budget:
                fail(f"exit cell {i}: a trial used {r['queries']} > budget {budget} queries")
            if r["exit"] and r["queries"] < exit_depth + 1:
                fail(f"exit cell {i}: exit after {r['queries']} queries, fewer than depth + 1")
            if r["exit"] and budget <= exit_depth:
                fail(f"exit cell {i}: exit with budget {budget} <= outer-core depth {exit_depth}")
            tally = self.tallies.setdefault((index, i, r["strategy"]), [0, 0, 0, 0])
            tally[0] += 1
            tally[1] += r["exit"]
            tally[2] += r["exit"] and r["distinct_decorations"] < 1
            tally[3] += r["exit"] and r["distinct_decorations"] < 2
        bound = refs.recursion_bound(degrees, depths, budget)
        for rec in read_jsonl(out / "records.jsonl"):
            if not math.isclose(rec["bound"], bound, rel_tol=1e-9, abs_tol=1e-300):
                fail(f"exit cell {i}: reported bound {rec['bound']} != recomputed {bound}")
        return sum(r["queries"] for r in rows)

    def check(self):
        pooled = {}
        for (_, i, strategy), tally in self.tallies.items():
            total = pooled.setdefault((i, strategy), [0, 0, 0, 0])
            for k, v in enumerate(tally):
                total[k] += v
        for (i, strategy), (n, exits, r1, r2) in pooled.items():
            degrees, depths, budget = self.CELLS[i]
            ceilings = [
                ("exit", exits, refs.recursion_bound(degrees, depths, budget)),
                ("restricted w=1", r1, refs.avoidance_bound(degrees, depths, len(degrees), 1)),
                ("restricted w=2", r2, refs.avoidance_bound(degrees, depths, len(degrees), 2)),
            ]
            for what, count, ceiling in ceilings:
                p = count / n
                sigma = math.sqrt(p * (1 - p) / n)
                if p > ceiling + 3 * sigma:
                    self.run.fail(
                        f"exit cell {i} {strategy}: {what} p_hat {p:.4f} > bound {ceiling:.4f} + 3 sigma"
                    )

    def info(self, ops: list) -> dict:
        seconds = sum(op.seconds for op in ops)
        return {
            "exit_trials_per_s": rate(sum(op.units for op in ops), seconds),
            "queries_per_s": rate(sum(op.queries for op in ops), seconds),
        }


# ---------------------------------------------------------------------------
# spectrum-standard
# ---------------------------------------------------------------------------

class _Capture:
    """Pass-through around a function that keeps its last result."""

    def __init__(self, fn):
        self.fn = fn
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = self.fn(*args, **kwargs)
        return self.last


class SpectrumStandard:
    """`gapwalk spectrum` on the standard family at n = 16, 25, 36, plus exact
    ground-state draws from each solved instance."""

    name = "spectrum-standard"
    setup_reps = 9
    trace_rounds = 1
    trial_kinds = ("draws",)
    NS = (16, 25, 36)
    DRAWS = 2000  # per n per round

    def __init__(self, run: Run):
        self.run = run
        self.configs = {
            n: run.write_config(f"spectrum-{n}.json", {"instance": {"mode": "standard", "n": n}})
            for n in self.NS
        }
        self.failing = run.write_config(
            "sample-ground-16.json", {"instance": {"mode": "standard", "n": 16}}
        )
        self.capture = _Capture(run.spectral.solve_for_params)
        run.spectral.solve_for_params = self.capture
        self.checked = set()
        self.draws = {}  # (round, n) -> (draws, expander draws)
        self.ratio = {}

    def setup(self, rep: int) -> float:
        return interpreter_startup(self.run)

    def round(self, index: int) -> list:
        run, ops = self.run, []
        for n in self.NS:
            out = run.fresh_dir(f"spectrum-{n}")
            self.capture.last = None
            op, error = run.invoke(
                "spectrum", ["spectrum", "--config", self.configs[n], "--out", out, "--threads", 1]
            )
            ops.append(op)
            if error is not None:
                continue
            self._check_spectrum(n, json.loads((out / "spectrum.json").read_text()))
            run.bytes_written(out)
            shutil.rmtree(out, ignore_errors=True)
            sampler = run.spectral.GroundStateSampler(
                self.capture.last, seed=sub_seed(run.seed, self.name, index, n)
            )
            op, core = run.draws(sampler, self.DRAWS)
            ops.append(op)
            self.draws[(index, n)] = (self.DRAWS, core)
        # Fails every time today: standard-family anchors (~86,000-bit ints)
        # exceed Python's int-to-str digit limit when samples.jsonl is written.
        out = run.fresh_dir("sample-ground")
        op, _ = run.invoke(
            "sample-ground",
            ["sample-ground", "--config", self.failing, "--out", out, "--seed", 0,
             "--trials", 1, "--threads", 1],
            expected_failure=True,
        )
        ops.append(op)
        shutil.rmtree(out, ignore_errors=True)
        return ops

    def _check_spectrum(self, n: int, report: dict):
        fail = self.run.fail
        lam = report["lambda_g"]
        self.ratio[n] = report["norm_ratio"]
        lo, hi = n - 2 * math.sqrt(2 * n), n + 4
        if not all(lo <= a <= hi for a in report["alpha"]):
            fail(f"spectrum n={n}: loop weight outside [{lo:.4f}, {hi}]: {report['alpha']}")
        if report["one_minus_ratio"] * n > 2:
            fail(f"spectrum n={n}: (1 - ratio) * n = {report['one_minus_ratio'] * n:.4f} > 2")
        if (n, lam) in self.checked:
            return
        self.checked.add((n, lam))
        degrees, depths = refs.standard_schedule(n)
        below = refs.fixed_point_residual(lam * (1 - 1e-9), degrees, depths, float(n))
        above = refs.fixed_point_residual(lam * (1 + 1e-9), degrees, depths, float(n))
        if not below > 0 > above:
            fail(f"spectrum n={n}: residual does not change sign across lambda_g={lam!r}"
                 f" ({below:.3e}, {above:.3e})")

    def check(self):
        for n in self.NS:
            count = sum(c for (_, m), (c, _) in self.draws.items() if m == n)
            core = sum(e for (_, m), (_, e) in self.draws.items() if m == n)
            if count == 0 or n not in self.ratio:
                continue
            ratio = self.ratio[n]
            sigma = math.sqrt(ratio * (1 - ratio) / count)
            share = core / count
            if abs(share - ratio) > 4 * sigma:
                self.run.fail(
                    f"draws n={n}: expander share {share:.4f} not within 4 sigma of ratio {ratio:.4f}"
                )

    def info(self, ops: list) -> dict:
        solves = [op for op in ops if op.kind == "spectrum"]
        draws = [op for op in ops if op.kind == "draws"]
        return {
            "solve_s_per_grid": rate(sum(op.seconds for op in solves), len(solves) / len(self.NS)),
            "draws_per_s": rate(sum(op.units for op in draws), sum(op.seconds for op in draws)),
        }


# ---------------------------------------------------------------------------
# guided-localization
# ---------------------------------------------------------------------------

class GuidedLocalization:
    """Set-up generates and certifies a cubic core; rounds run explore-graph
    (greedy-unvisited from exact ground-state roots under fresh keys), ggsp
    with echo-first-input, and ground-state draws on the same instance."""

    name = "guided-localization"
    setup_reps = 7
    trace_rounds = 5
    trial_kinds = ("explore-graph", "ggsp")
    CORE_N = 2000
    DEGREES, DEPTHS = (5, 4, 3), (1, 2, 3)
    GRAPH_TRIALS, GRAPH_BUDGET = 100, 64
    GGSP_TRIALS, GGSP_INPUTS, GGSP_BUDGET = 300, 4, 32
    DRAWS = 5000
    PADDING = 2.0 ** -8
    TV_DRAWS = 20000

    def __init__(self, run: Run):
        self.run = run
        self.core_dir = None
        self.gen_config = run.write_config(
            "gen-expander.json",
            {"expander": {"N": self.CORE_N, "d": 3, "gap_min": 0.05, "girth_min": 4}},
        )
        self.failing = run.write_config("ggsp-greedy.json", {
            "instance": {"mode": "scaled", "degrees": list(self.DEGREES),
                         "depths": list(self.DEPTHS), "expander": {"petersen": True}},
            "algorithm": "greedy-unvisited", "guiding": "exact-ground-state",
            "t": self.GGSP_INPUTS, "budget": self.GGSP_BUDGET,
        })

    def setup(self, rep: int) -> float:
        """Calibrated against dense linear algebra, which certification is
        mostly made of (the N=2000 top eigenpair)."""
        out = self.run.fresh_dir("core")
        before = lapack_calibration()
        op, error = self.run.invoke(
            "gen-expander",
            ["gen-expander", "--config", self.gen_config, "--out", out,
             "--seed", sub_seed(self.run.seed, self.name, "core", rep)],
        )
        if error is None and self.core_dir is None:
            self.core_dir = out
            self._configure()
        elif error is None:
            shutil.rmtree(out, ignore_errors=True)
        return op.wall * 2 * LAPACK_REF_S / (before + lapack_calibration())

    def _configure(self):
        run = self.run
        self.cert = json.loads((self.core_dir / "expander.certificate.json").read_text())
        instance = {
            "mode": "scaled", "degrees": list(self.DEGREES), "depths": list(self.DEPTHS),
            "expander": {"file": str(self.core_dir / "expander.txt")},
            "girth_floor": int(self.cert["girth"]),
        }
        oracle = {"padding_ratio": self.PADDING}
        self.threshold = max(2, int(self.cert["girth"]) // 2)
        self.graph_config = run.write_config("explore-graph.json", {
            "instance": instance, "strategy": "greedy-unvisited",
            "guiding": "exact-ground-state", "roots": 1, "budget": self.GRAPH_BUDGET,
            "oracle": oracle,
        })
        self.ggsp_config = run.write_config("ggsp-echo.json", {
            "instance": instance, "algorithm": "echo-first-input",
            "guiding": "exact-ground-state", "t": self.GGSP_INPUTS,
            "budget": self.GGSP_BUDGET, "oracle": oracle,
        })
        self.spectrum_config = run.write_config("spectrum-core.json", {"instance": instance})
        gm = run.gm
        params = gm.GraphParams.scaled(self.DEGREES, self.DEPTHS, expander_size=self.CORE_N)
        graph = gm.MainGraph(params, run.expander_gen.load(self.core_dir / "expander.txt"))
        self.solution = run.spectral.solve_for_instance(graph)

    def round(self, index: int) -> list:
        run, ops = self.run, []
        if self.core_dir is None:
            run.fail("no certified core: set-up failed")
            return [Op("explore-graph", 0.0, attempts=1, failed=True)]
        out = run.fresh_dir("explore-graph")
        op, error = run.invoke("explore-graph", [
            "explore-graph", "--config", self.graph_config, "--out", out,
            "--seed", sub_seed(run.seed, self.name, index, "graph"),
            "--trials", self.GRAPH_TRIALS, "--threads", 1,
        ])
        op.attempts = op.units = self.GRAPH_TRIALS
        if error is None:
            op.queries = self._check_graph(out)
            run.bytes_written(out)
        ops.append(op)
        shutil.rmtree(out, ignore_errors=True)

        out = run.fresh_dir("ggsp")
        op, error = run.invoke("ggsp", [
            "ggsp", "--config", self.ggsp_config, "--out", out,
            "--seed", sub_seed(run.seed, self.name, index, "ggsp"),
            "--trials", self.GGSP_TRIALS, "--threads", 1,
        ])
        op.attempts = op.units = self.GGSP_TRIALS
        if error is None:
            self._check_ggsp(out)
            run.bytes_written(out)
        ops.append(op)
        shutil.rmtree(out, ignore_errors=True)

        sampler = run.spectral.GroundStateSampler(
            self.solution, seed=sub_seed(run.seed, self.name, index, "draws")
        )
        ops.append(run.draws(sampler, self.DRAWS)[0])

        # Fails every time today: ggsp hands strategies a view without root
        # answers, and every exploration strategy reads root_answer (KeyError).
        out = run.fresh_dir("ggsp-greedy")
        op, _ = run.invoke(
            "ggsp",
            ["ggsp", "--config", self.failing, "--out", out, "--seed", 0, "--trials", 1,
             "--threads", 1],
            expected_failure=True,
        )
        ops.append(op)
        shutil.rmtree(out, ignore_errors=True)
        return ops

    def _check_graph(self, out: Path) -> int:
        rows = read_jsonl(out / "trials.jsonl")
        fail = self.run.fail
        if sorted(r["trial"] for r in rows) != list(range(self.GRAPH_TRIALS)):
            fail("explore-graph: trials.jsonl rows are not one per trial")
        for r in rows:
            if not r["audit_ok"]:
                fail(f"explore-graph trial {r['trial']}: transcript fails component_audit")
            if r["query_count"] > self.GRAPH_BUDGET:
                fail(f"explore-graph trial {r['trial']}: {r['query_count']} queries > budget")
        return sum(r["query_count"] for r in rows)

    def _check_ggsp(self, out: Path):
        rows = read_jsonl(out / "trials.jsonl")
        fail = self.run.fail
        if sorted(r["trial"] for r in rows) != list(range(self.GGSP_TRIALS)):
            fail("ggsp: trials.jsonl rows are not one per trial")
        for r in rows:
            # The output is one of the inputs, so its distance to them is <= 1.
            if r["localized"] or r["distance"] is None or r["distance"] > 1:
                fail(f"ggsp echo trial {r['trial']}: localized={r['localized']} "
                     f"distance={r['distance']}, expected distance <= 1 < threshold")
            if len(r["inputs"]) != self.GGSP_INPUTS or r["output"] != r["inputs"][0]:
                fail(f"ggsp echo trial {r['trial']}: output is not the first input")

    def check(self):
        run, fail = self.run, self.run.fail
        if self.core_dir is None:
            return
        core = refs.read_core(self.core_dir / "expander.txt")
        a = refs.core_matrix(core)
        spectrum = refs.dense_spectrum(a)
        for key, ref in (("lambda1", spectrum[-1]), ("lambda2", spectrum[-2])):
            if abs(self.cert[key] - ref) > 1e-8:
                fail(f"certificate {key}={self.cert[key]!r} vs eigvalsh {ref!r}")
        triangles = refs.triangle_count(a)
        if self.cert["girth"] >= 4 and triangles:
            fail(f"core certified with girth {self.cert['girth']} has {triangles} triangles")
        if self.cert["girth"] == 3 and not triangles:
            fail("core certified with girth 3 has no triangle")

        out = run.fresh_dir("spectrum-core")
        _, error = run.invoke("spectrum", ["spectrum", "--config", self.spectrum_config,
                                           "--out", out])
        if error is None:
            lam = json.loads((out / "spectrum.json").read_text())["lambda_g"]
            keys, edges = refs.decorated_graph(core, self.DEGREES, self.DEPTHS)
            ref = refs.lanczos_top(refs.adjacency_matrix(len(keys), edges))
            if abs(lam - ref) > 1e-8 * ref:
                fail(f"lambda_g={lam!r} vs Lanczos on the materialized instance {ref!r}")
        self._check_sampler_tv()

    def _check_sampler_tv(self):
        """Program's sampler on a small instance vs the squared dense eigenvector."""
        run = self.run
        gm = run.gm
        keys, edges = refs.decorated_graph(refs.petersen_core(), self.DEGREES, self.DEPTHS)
        _, vec = refs.dense_top_vector(refs.adjacency_matrix(len(keys), edges))
        exact = vec * vec / float(vec @ vec)
        index = {k: i for i, k in enumerate(keys)}
        params = gm.GraphParams.scaled(self.DEGREES, self.DEPTHS, expander_size=10)
        solution = run.spectral.solve_for_instance(
            gm.MainGraph(params, run.expander_gen.petersen())
        )
        sampler = run.spectral.GroundStateSampler(
            solution, seed=sub_seed(run.seed, self.name, "tv")
        )
        counts = np.zeros(len(keys))
        for _ in range(self.TV_DRAWS):
            v = sampler.sample()
            if isinstance(v, gm.ExpanderVertex):
                counts[index[("e", v.index)]] += 1
            else:
                counts[index[("t", v.anchor, v.level, v.copy, tuple(v.address))]] += 1
        tv = refs.tv_distance(counts / self.TV_DRAWS, exact)
        limit = refs.tv_threshold(exact, self.TV_DRAWS)
        if tv > limit:
            run.fail(f"sampler TV distance {tv:.4f} > {limit:.4f} on the Petersen instance")

    def info(self, ops: list) -> dict:
        def total(kind, attr):
            return sum(getattr(op, attr) for op in ops if op.kind == kind)

        graph_s, ggsp_s, draw_s = (total(k, "seconds") for k in ("explore-graph", "ggsp", "draws"))
        return {
            "graph_trials_per_s": rate(total("explore-graph", "units"), graph_s),
            "ggsp_trials_per_s": rate(total("ggsp", "units"), ggsp_s),
            "queries_per_s": rate(total("explore-graph", "queries"), graph_s),
            "draws_per_s": rate(total("draws", "units"), draw_s),
        }


WORKLOADS = {w.name: w for w in (ExitSweep, SpectrumStandard, GuidedLocalization)}
