"""Experiment runner: configuration, orchestration, persistence, report emission.

Configs are single JSON files (nested key/value sections).  Every run writes
into its output directory:

    config.resolved.json   the fully resolved config that produced the results
    meta.json              command, status, effective seed/trials/budget and
                           timestamps (the only place timestamps live)
    records.jsonl          metric rows, each joined with its analytic bound
    trials.jsonl           per-trial rows (explore-tree resumes from them)
    summary.csv            plot-ready summary

records.jsonl and trials.jsonl contain no timestamps, so identical config plus
seed reproduces them byte for byte.

One `Run` owns the output directory.  It resolves --out, the seed and the
command's counts (--trials, --budget, or their config keys) and thread count
once.  A count below 1 is a config error, and so is a non-integer count or
config-only integer (t, roots, threshold, level, w, query_limit), a
non-number among the instance's and the core's values, or any value the
library refuses (an InputError).  Starting a run deletes
the files the command writes, then writes config.resolved.json and a
meta.json with status "running", so a failed rerun leaves none of an earlier
run's results.  Result files are written to a temporary name and renamed into
place.  meta.json is rewritten on every exit with the status of the exit
code.  A run that fails before it starts (no config, no --out, a bad count,
a resume mismatch) leaves the directory untouched.  expander.txt and
expander.certificate.json are cleared only by gen-expander, because other
commands may read a core from there.  A core read from a file must be
connected.  `report` only reads a run: it rewrites summary.csv and nothing else.

explore-tree lists its pending (strategy, trial) pairs in row order, strategy
by strategy, and maps one window function, in order, over that list cut into
windows of explorer.EXIT_WINDOW pairs (a window may span strategies), smaller
when there are too few pairs to keep every worker busy: builtin map with
--threads 1, one process pool per run otherwise (no other command uses
--threads).  It appends each window's rows to trials.jsonl as they arrive, so
an interruption loses only the windows in flight, and resumes from the rows it
finds.  Its meta.json carries a resume key, stored before the first row is
appended: the hash of the config without trials, threads and out, plus the
effective seed and budget.  Resuming rows under a different key exits 1.

Exit codes: 0 success, 1 usage/config error, 2 certification or verification
failure, 3 query-budget exhaustion.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import bounds as bounds_mod
from . import expander_gen, explorer, graph_model, oracle as oracle_mod, spectral
from ._util import InputError, derive_key, derive_seed

OUT_ENV_VAR = "GAPWALK_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATION = 2
EXIT_BUDGET = 3

STATUS = {EXIT_OK: "ok", EXIT_USAGE: "config-error", EXIT_CERTIFICATION: "check-failed",
          EXIT_BUDGET: "query-limit"}

RECORDS = ("records.jsonl", "summary.csv")
# Left out of explore-tree's resume key: they never change a trial row.
RESUME_FREE = ("trials", "threads", "out")


class UsageError(InputError):
    pass


class ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors raise UsageError instead of exiting 2, the
    code documented for check failures."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def resolve_out(args, cfg: dict) -> Path:
    out = args.out or cfg.get("out") or os.environ.get(OUT_ENV_VAR)
    if not out:
        raise UsageError(
            f"no output directory: pass --out, set 'out' in the config, or set ${OUT_ENV_VAR}"
        )
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _number(name: str, value) -> float:
    """`value` as a float; a non-number, NaN included, is a UsageError."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if math.isnan(number):
        raise UsageError(f"{name} must be a number, got {value!r}")
    return number


def _numbers(name: str, values) -> list:
    """`values` as a list of floats; anything else is a UsageError."""
    if not isinstance(values, list):
        raise UsageError(f"{name} must be a list of numbers, got {values!r}")
    return [_number(name, v) for v in values]


def _integer(name: str, value, low=None) -> int:
    """`value` as an int; a non-integer, or a value below `low`, is a UsageError."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, float) and value != number:
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if low is not None and number < low:
        raise UsageError(f"{name} must be at least {low}, got {number}")
    return number


def json_text(obj, sort_keys=True) -> str:
    return json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"


def jsonl(rows) -> str:
    """One compact, key-sorted JSON object per line."""
    return "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" for row in rows)


def read_jsonl(path: Path) -> list:
    if not path.exists():
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_trial_rows(path: Path) -> list:
    """Rows already in a resumable trials.jsonl.  A last line without its
    newline is a write torn by an interruption: it is cut from the file, so its
    trial runs again.  Any other line that is not a trial row is a UsageError."""
    if not path.exists():
        return []
    text = path.read_text()
    whole = text[: text.rfind("\n") + 1]
    if whole != text:
        path.write_text(whole)
    rows = []
    for n, line in enumerate(whole.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            row = None
        if not isinstance(row, dict) or not {"strategy", "trial", "exit"} <= row.keys():
            raise UsageError(f"{path} line {n} is not a trial row; resume into a fresh --out")
        rows.append(row)
    return rows


def summary_csv(records: list) -> str:
    fields = ["experiment", "metric", "value", "stderr", "bound", "bound_log2", "flags"]
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    for rec in records:
        writer.writerow(dict(rec, flags=";".join(rec.get("flags", []))))
    return buf.getvalue()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# ---------------------------------------------------------------------------
# the run object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    fn: Callable[["Run"], int]
    results: tuple = ()   # files the command writes; deleted when a run starts
    counts: dict = field(default_factory=dict)  # "trials"/"budget" -> (config key, default)
    resumes: bool = False  # appends to trials.jsonl, guarded by a resume key
    reader: bool = False  # only reads a run: never starts one, writes no meta.json


COMMANDS: dict[str, Command] = {}


def command(name: str, results=RECORDS, **spec):
    def register(fn):
        COMMANDS[name] = Command(fn, results, **spec)
        return fn
    return register


class Run:
    """One subcommand's run in its --out directory (see the module docstring)."""

    def __init__(self, name: str, args, cfg: dict):
        self.command = COMMANDS[name]
        self.cfg = cfg
        self.out = resolve_out(args, cfg)
        self.seed = _integer("seed", cfg.get("seed", 0) if args.seed is None else args.seed)
        threads = cfg.get("threads", 1) if args.threads is None else args.threads
        self.threads = _integer("threads (--threads)", threads, low=1)
        self.meta = {"command": name, "config_hash": config_hash(cfg), "seed": self.seed}
        for flag, (key, default) in self.command.counts.items():
            value = getattr(args, flag)
            self.meta[flag] = _integer(
                f"{key} (--{flag})", cfg.get(key, default) if value is None else value, low=1
            )
        self.trials = self.meta.get("trials")
        self.budget = self.meta.get("budget")
        self.records = []
        self.started = False

    def integer(self, key: str, default, low=None) -> int:
        """A config-only integer, checked like the counts."""
        return _integer(key, self.cfg.get(key, default), low)

    def start(self):
        """Claim --out: check a resumed file's key, delete the command's earlier
        results, write config.resolved.json and a 'running' meta.json."""
        if self.command.resumes:
            kept = {k: v for k, v in self.cfg.items() if k not in RESUME_FREE}
            key = config_hash(dict(kept, seed=self.seed, budget=self.budget))
            path = self.out / "trials.jsonl"
            if path.exists() and path.stat().st_size and self._earlier_meta().get("resume_key") != key:
                raise UsageError(
                    f"{path} holds rows of another config, seed or budget; "
                    "rerun with those or use a fresh --out"
                )
            self.meta["resume_key"] = key
        for name in self.command.results:
            (self.out / name).unlink(missing_ok=True)
        self.write("config.resolved.json", json_text(self.cfg))
        self.meta.update(status="running", started=_now())
        self.write("meta.json", json_text(self.meta))
        self.started = True

    def _earlier_meta(self) -> dict:
        try:
            meta = json.loads((self.out / "meta.json").read_text())
        except (OSError, ValueError):
            return {}
        return meta if isinstance(meta, dict) else {}

    def finish(self, code):
        """meta.json with the status of the exit code (None: an exception)."""
        self.meta.update(status=STATUS.get(code, "aborted"), finished=_now())
        self.write("meta.json", json_text(self.meta))

    def write(self, name: str, text: str):
        tmp = self.out / f".{name}.tmp"
        tmp.write_text(text, newline="")
        os.replace(tmp, self.out / name)

    def record(self, metric: str, value, stderr=0.0, bound=None, flags=(), **extra):
        """One records.jsonl row of this command; a row without a bound is
        flagged 'unbounded'."""
        flags = list(flags) + (["unbounded"] if bound is None else [])
        self.records.append({
            "experiment": self.meta["command"], "metric": metric, "value": value,
            "stderr": stderr, "bound": bound, "flags": flags,
            "config": self.meta["config_hash"][:12], **extra,
        })

    def write_records(self):
        if self.records:
            self.write("records.jsonl", jsonl(self.records))
            self.write("summary.csv", summary_csv(self.records))


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

def _require(cfg: dict, key: str, context: str):
    if not isinstance(cfg, dict):
        raise UsageError(f"{context} must be a JSON object, got {cfg!r}")
    if key not in cfg:
        raise UsageError(f"missing '{key}' in {context}")
    return cfg[key]


def _list(cfg: dict, key: str, context: str) -> list:
    """The JSON list under `key`."""
    values = _require(cfg, key, context)
    if not isinstance(values, list):
        raise UsageError(f"'{key}' in {context} must be a list, got {values!r}")
    return values


def _section(cfg: dict, key: str, context: str, required: bool = True) -> dict:
    """The JSON object under `key` ({} when it is optional and absent)."""
    section = _require(cfg, key, context) if required else cfg.get(key, {})
    if not isinstance(section, dict):
        raise UsageError(f"'{key}' in {context} must be a JSON object, got {section!r}")
    return section


def build_schedule(section: dict) -> graph_model.Schedule:
    lists = []
    for key in ("degrees", "depths"):
        values = _require(section, key, "schedule")
        if not isinstance(values, list):
            raise UsageError(f"schedule {key} must be a list of integers, got {values!r}")
        lists.append(tuple(_integer(f"schedule {key}", v) for v in values))
    return graph_model.Schedule(*lists)


def build_expander(section: dict, run: Run):
    """(graph, certificate or None); a generated core is written to --out."""
    if section.get("petersen"):
        return expander_gen.petersen(), None
    if "complete" in section:
        return expander_gen.complete_graph(_integer("expander.complete", section["complete"])), None
    if "file" in section:
        graph = expander_gen.load(section["file"])
        if not graph.is_connected():
            raise UsageError(f"expander file {section['file']} is not connected")
        return graph, None
    if "generate" in section:
        gen = _section(section, "generate", "expander")
        graph, cert = expander_gen.generate_certified(
            N=_integer("expander.generate.N", _require(gen, "N", "expander.generate")),
            d=_integer("expander.generate.d", _require(gen, "d", "expander.generate")),
            gap_min=_number("expander.generate.gap_min", gen.get("gap_min", 0.0)),
            girth_min=_number("expander.generate.girth_min", gen.get("girth_min", 3)),
            seed=_integer("expander.generate.seed", gen.get("seed", run.seed)),
            max_attempts=_integer("expander.generate.max_attempts", gen.get("max_attempts", 50), low=1),
        )
        run.write("expander.certificate.json", json_text(dataclasses.asdict(cert)))
        run.write("expander.txt", expander_gen.to_text(graph))
        return graph, cert
    raise UsageError(
        "expander section needs one of: petersen, complete, file, generate"
    )


def build_instance(run: Run):
    """(params, graph-or-None).  Standard-mode instances return params only
    (their cores are far too large to build)."""
    section = _section(run.cfg, "instance", "config")
    mode = section.get("mode", "scaled")
    if mode == "standard":
        params = graph_model.GraphParams.standard(_integer("instance.n", _require(section, "n", "instance")))
        return params, None
    sched = build_schedule(section)
    expander, _ = build_expander(_section(section, "expander", "instance"), run)
    params = graph_model.GraphParams.scaled(
        sched.degrees,
        sched.depths,
        expander_size=expander.N,
        girth_floor=_integer("instance.girth_floor", section.get("girth_floor", 3)),
        padding_ratio=_number("instance.padding_ratio", section.get("padding_ratio", 2.0 ** -20)),
    )
    return params, graph_model.MainGraph(params, expander)


def build_main_graph(run: Run, name: str):
    params, graph = build_instance(run)
    if graph is None:
        raise UsageError(f"{name} needs a scaled (materializable) instance")
    return params, graph


def oracle_maker(graph, cfg: dict):
    """key -> oracle over `graph` with the config's padding ratio and label
    width; a configured `oracle.key` (32 hex digits) replaces every trial's key."""
    section = _section(cfg, "oracle", "config", required=False)
    ratio, bits = section.get("padding_ratio"), section.get("label_bits")
    build = functools.partial(
        oracle_mod.LabeledOracle,
        graph,
        padding_ratio=None if ratio is None else _number("oracle.padding_ratio", ratio),
        label_bits=None if bits is None else _integer("oracle.label_bits", bits, low=1),
    )
    key_hex = section.get("key")
    if key_hex is not None and (
        not isinstance(key_hex, str) or not re.fullmatch(r"[0-9a-fA-F]{32}", key_hex)
    ):
        raise UsageError(f"oracle.key must be 32 hex digits, got {key_hex!r}")
    try:
        build(bytes(16))  # a label width the instance cannot use exits before any trial
    except oracle_mod.LabelSpaceError as exc:
        raise UsageError(f"oracle.label_bits: {exc}") from None
    if key_hex is None:
        return build
    key = bytes.fromhex(key_hex)
    return lambda _trial_key: build(key)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def certify(run: Run, graph, section: dict, name: str) -> int:
    """Certify `graph` against the section's gap_min and girth_min and write
    the certificate to `name`."""
    cert = expander_gen.certify_expander(
        graph, gap_min=_number("gap_min", section.get("gap_min", 0.0)),
        girth_min=_number("girth_min", section.get("girth_min", 3)),
    )
    if cert is None:
        print("certification rejected", file=sys.stderr)
        return EXIT_CERTIFICATION
    run.write(name, json_text(dataclasses.asdict(cert)))
    print(f"accepted: girth={cert.girth} gap={cert.gap:.6f} attempts={cert.attempts}")
    return EXIT_OK


@command("gen-expander", results=("expander.txt", "expander.certificate.json"))
def cmd_gen_expander(run: Run) -> int:
    section = _section(run.cfg, "expander", "config")
    graph, cert = build_expander({"generate": section} if "N" in section else section, run)
    if cert is not None:
        print(f"accepted: girth={cert.girth} gap={cert.gap:.6f} attempts={cert.attempts}")
        return EXIT_OK
    # Fixture sources certify on demand; the graph is written once accepted.
    code = certify(run, graph, section, "expander.certificate.json")
    if code == EXIT_OK:
        run.write("expander.txt", expander_gen.to_text(graph))
    return code


@command("certify", results=("certificate.json",))
def cmd_certify(run: Run) -> int:
    graph = expander_gen.load(_require(run.cfg, "expander_file", "config"))
    return certify(run, graph, run.cfg, "certificate.json")


@command("spectrum", results=("spectrum.json",) + RECORDS)
def cmd_spectrum(run: Run) -> int:
    section = _section(run.cfg, "instance", "config")
    if section.get("mode") == "custom":
        # An explicitly described decorated graph: a base eigenvalue plus
        # arbitrary attached-tree families (covers degenerate fixtures like a
        # single edge with one pendant vertex per endpoint).
        trees = [
            spectral.AttachedTree(
                build_schedule(t),
                _integer("instance.trees.level", t.get("level", len(t["degrees"]))),
                _integer("instance.trees.copies", t.get("copies", 1), low=1),
            )
            for t in _list(section, "trees", "instance")
        ]
        solution = spectral.solve_top_eigenvalue(
            _number("instance.lambda_e", _require(section, "lambda_e", "instance")),
            trees,
            beta=_number("instance.beta", section.get("beta", 1.0)),
            expander_size=_integer("instance.expander_size", section.get("expander_size", 1), low=1),
        )
    else:
        params, graph = build_instance(run)
        solution = spectral.solve_for_params(
            params, expander_size=graph.expander.N if graph else None
        )
    split = spectral.norm_decomposition(solution)
    # Stable key order: insertion order is the contract.
    report = {
        "lambda_g": solution.top_eigenvalue,
        "lambda_e": solution.base_eigenvalue,
        "alpha": list(solution.loop_weights),
        "norm_ratio": split.ratio,
        "one_minus_ratio": split.one_minus_ratio,
        "residual": solution.residual,
        "iterations": solution.iterations,
    }
    run.write("spectrum.json", json_text(report, sort_keys=False))
    run.record("lambda_g", report["lambda_g"])
    print(json.dumps(report))
    return EXIT_OK


@command("sample-ground", results=("samples.jsonl",) + RECORDS, counts={"trials": ("count", 1000)})
def cmd_sample_ground(run: Run) -> int:
    count = run.trials
    params, graph = build_instance(run)
    if graph is None:
        solution = spectral.solve_for_params(params)
    else:
        solution = spectral.solve_for_instance(graph)
    sampler = spectral.GroundStateSampler(solution, seed=derive_seed("sample", run.seed))
    # Standard-family anchors are ~86,000-bit integers at n=16: written in hex.
    anchor = int if graph is not None else hex
    rows = []
    for i in range(count):
        v = sampler.sample()
        if isinstance(v, graph_model.ExpanderVertex):
            rows.append({"i": i, "kind": "expander", "anchor": anchor(v.index)})
        else:
            rows.append(
                {
                    "i": i,
                    "kind": "tree",
                    "anchor": anchor(v.anchor),
                    "level": v.level,
                    "copy": v.copy,
                    "depth": len(v.address),
                }
            )
    run.write("samples.jsonl", jsonl(rows))
    expander_fraction = sum(1 for r in rows if r["kind"] == "expander") / count
    run.record(
        "expander_mass_fraction",
        expander_fraction,
        math.sqrt(max(expander_fraction * (1 - expander_fraction), 1e-12) / count),
        spectral.norm_decomposition(solution).ratio,
        ["bound-is-exact-expectation"],
    )
    print(f"wrote {count} samples; expander mass fraction {expander_fraction:.4f}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def exit_tree(degrees: tuple, depths: tuple, level: int) -> graph_model.TreeGraph:
    """explore-tree's tree, built once per process; one entry, so one tree is held."""
    return graph_model.TreeGraph(graph_model.Schedule(degrees, depths), level)


def exit_window(job: tuple) -> list:
    """The rows of one window of exit trials; module-level, so a pool can pickle it."""
    degrees, depths, level, budget, seed, padding, pairs = job
    return explorer.exit_trials(exit_tree(degrees, depths, level), pairs, budget, seed, padding)


@command("explore-tree", counts={"trials": ("trials", 1000), "budget": ("budget", 16)},
         resumes=True)
def cmd_explore_tree(run: Run) -> int:
    cfg, budget, trials = run.cfg, run.budget, run.trials
    sched = build_schedule(_require(cfg, "schedule", "config"))
    level = run.integer("level", sched.levels)
    strategies = cfg.get("strategies")
    if strategies is None:
        strategies = [cfg.get("strategy", "greedy-unvisited")]
    if not (isinstance(strategies, list) and strategies and all(isinstance(s, str) for s in strategies)
            and len(set(strategies)) == len(strategies)):
        raise UsageError(f"strategies must be a list of distinct strategy names, got {strategies!r}")
    w = run.integer("w", 2, low=1)
    padding = _number("padding_ratio", cfg.get("padding_ratio", 0.25))
    q_schedule = _numbers("q_schedule", cfg["q_schedule"]) if cfg.get("q_schedule") else [
        max(1.0, budget / (w ** (level - k))) for k in range(1, level + 1)
    ]

    tree = exit_tree(sched.degrees, sched.depths, level)  # a bad level or width exits 1 before any trial
    if 0 < padding <= 1 and math.log2(tree.num_nonisolated / padding) > oracle_mod.MAX_LABEL_BITS:
        raise UsageError(f"padding_ratio {padding} needs more than {oracle_mod.MAX_LABEL_BITS} label bits")
    trials_path = run.out / "trials.jsonl"
    all_rows = read_trial_rows(trials_path)
    done = {(row["strategy"], row["trial"]) for row in all_rows}
    pending = [(s, t) for s in strategies for t in range(trials) if (s, t) not in done]
    # Windows of EXIT_WINDOW trials, smaller where that would leave a worker idle.
    size = max(1, min(explorer.EXIT_WINDOW, math.ceil(len(pending) / run.threads)))
    jobs = [
        (sched.degrees, sched.depths, level, budget, run.seed, padding, pending[i : i + size])
        for i in range(0, len(pending), size)
    ]
    # Looked up here: only a pooled run imports multiprocessing.
    pool = concurrent.futures.ProcessPoolExecutor(run.threads) if run.threads > 1 else None
    try:
        for rows in (pool.map if pool else map)(exit_window, jobs):
            with open(trials_path, "a") as fh:
                fh.write(jsonl(rows))
            all_rows += rows
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        exit_tree.cache_clear()  # hold no tree after the run

    rec_reports = bounds_mod.recursion_bound(
        graph_model.Schedule(sched.degrees[:level], sched.depths[:level]), q_schedule, w
    )
    bound_rep = rec_reports[level - 1]
    for strategy in strategies:
        rows = [r for r in all_rows if r["strategy"] == strategy and r["trial"] < trials]
        stats = explorer.EventStats.from_counts(sum(r["exit"] for r in rows), len(rows))
        run.record(
            f"exit_probability[{strategy}]", stats.p_hat, stats.stderr, bound_rep.value,
            bound_rep.flags, bound_log2=bound_rep.log2_value,
        )
    for rec in run.records:
        print(
            f"{rec['metric']}: p_hat={rec['value']:.5f} +/- {rec['stderr']:.5f} "
            f"bound={rec['bound']:.5g} flags={rec['flags']}"
        )
    return EXIT_OK


@command("explore-graph", results=("trials.jsonl",) + RECORDS,
         counts={"trials": ("trials", 100), "budget": ("budget", 64)})
def cmd_explore_graph(run: Run) -> int:
    cfg, trials = run.cfg, run.trials
    params, graph = build_main_graph(run, "explore-graph")
    threshold = run.integer("threshold", max(2, params.girth_floor // 2))
    roots_count = run.integer("roots", 1, low=1)
    query_limit = cfg.get("query_limit")
    if query_limit is not None:
        query_limit = run.integer("query_limit", None, low=0)
    report = explorer.explore_graph_experiment(
        oracle_maker(graph, cfg),
        cfg.get("guiding", "expander-uniform"),
        cfg.get("strategy", "greedy-unvisited"),
        roots_count,
        run.budget,
        threshold,
        run.seed,
        trials,
        query_limit,
    )
    if report.trials < trials:
        run.meta["completed_trials"] = report.trials
        print(f"query limit {query_limit} exhausted after {report.trials} trials", file=sys.stderr)
        return EXIT_BUDGET
    run.write("trials.jsonl", jsonl(report.trial_rows))
    stats = report.localization
    lb = bounds_mod.localization_bound(
        roots_count, params.expander_degree, threshold, graph.expander.N
    )
    run.record(
        f"localization_rate[{report.strategy}]", stats.p_hat, stats.stderr, lb.value,
        lb.flags + ("bound-is-sampler-floor",),
    )
    run.record("audit_pass_rate", report.audits_ok / trials, bound=1.0)
    print(f"localization rate {stats.p_hat:.4f}; audit pass rate {report.audits_ok / trials:.4f}")
    return EXIT_OK


@command("ggsp", results=("trials.jsonl",) + RECORDS,
         counts={"trials": ("trials", 200), "budget": ("budget", 32)})
def cmd_ggsp(run: Run) -> int:
    cfg = run.cfg
    params, graph = build_main_graph(run, "ggsp")
    t_inputs = run.integer("t", 4, low=1)
    threshold = run.integer("threshold", max(2, params.girth_floor // 2))
    report = explorer.ggsp_experiment(
        oracle_maker(graph, cfg),
        cfg.get("guiding", "exact-ground-state"),
        cfg.get("algorithm", "echo-first-input"),
        run.trials,
        t_inputs,
        run.budget,
        threshold,
        run.seed,
    )
    run.write("trials.jsonl", jsonl(report.trial_rows))
    lb = bounds_mod.localization_bound(
        t_inputs, params.expander_degree, threshold, graph.expander.N
    )
    run.record(
        f"localization_rate[{report.algorithm}]", report.localization.p_hat,
        report.localization.stderr, lb.value, lb.flags,
    )
    run.record("budget_failures", report.budget_failures)
    print(
        f"{report.algorithm}: localization {report.localization.p_hat:.4f} "
        f"(bound floor {lb.value:.4f}), budget failures {report.budget_failures}"
    )
    return EXIT_OK


def _entry_integers(e: dict, *keys) -> list:
    return [_integer(f"bounds entry {k}", e[k]) for k in keys]


def _entry_numbers(e: dict, *keys) -> list:
    return [_number(f"bounds entry {k}", e[k]) for k in keys]


def _entry_w(e: dict) -> int:
    return _integer("bounds entry w", e.get("w", 2))


# bounds-entry name -> the BoundReport it asks for; arguments are entry keys,
# read as integers or numbers.
BOUNDS = {
    "avoidance": lambda e: bounds_mod.avoidance_bound(
        *_entry_integers(e, "d_k", "d_km1", "l_k", "l_km1"), _entry_w(e)
    ),
    "recursion": lambda e: bounds_mod.recursion_bound(
        build_schedule(e), _numbers("bounds entry q_schedule", e["q_schedule"]), _entry_w(e)
    )[-1],
    "closed-form": lambda e: bounds_mod.closed_form_exit_bound(*_entry_integers(e, "n", "k")),
    "localization": lambda e: bounds_mod.localization_bound(
        *_entry_integers(e, "u_size", "degree", "g", "n_e")
    ),
    "tv-budget": lambda e: bounds_mod.tv_budget_report(*_entry_numbers(e, "fidelity", "tv")),
    "gap-sum": lambda e: bounds_mod.gap_sum_bound(*_entry_numbers(e, "delta", "gamma")),
    "alpha": lambda e: bounds_mod.alpha_bounds(
        *_entry_numbers(e, "lambda_e", "max_degree", "beta"), *_entry_integers(e, "tree_count")
    ),
}


@command("bounds")
def cmd_bounds(run: Run) -> int:
    for entry in _list(run.cfg, "bounds", "config"):
        name = _require(entry, "name", "bounds entry")
        if not isinstance(name, str) or name not in BOUNDS:
            raise UsageError(f"unknown bound name {name!r}")
        try:
            rep = BOUNDS[name](entry)
        except KeyError as exc:
            raise UsageError(f"missing {exc} in bounds entry {name!r}") from None
        run.record(rep.name, rep.value, bound=rep.value, flags=rep.flags, bound_log2=rep.log2_value)
    for rec in run.records:
        print(f"{rec['metric']}: {rec['value']:.6g} (log2={rec['bound_log2']}) {rec['flags']}")
    return EXIT_OK


@command("verify-small")
def cmd_verify_small(run: Run) -> int:
    checks = run_verification_suite(seed=run.seed, planted_defect=bool(run.cfg.get("planted_defect", False)))
    for c in checks:
        run.record(c["name"], c["measured"], bound=c["threshold"], flags=[] if c["passed"] else ["FAILED"])
        print(
            f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: "
            f"measured {c['measured']:.3g} vs threshold {c['threshold']:.3g}"
        )
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_CERTIFICATION


def run_verification_suite(seed: int = 0, planted_defect: bool = False) -> list:
    """Brute-force equivalence suite on a small fixed instance."""
    checks = []

    def check(name, measured, threshold, higher_is_bad=True):
        passed = measured <= threshold if higher_is_bad else measured >= threshold
        checks.append(
            {"name": name, "measured": float(measured), "threshold": float(threshold), "passed": bool(passed)}
        )

    core = expander_gen.petersen()
    params = graph_model.GraphParams.scaled((5, 4, 3), (1, 2, 3), expander_size=10)
    graph = graph_model.MainGraph(params, core)
    check("degree-identity", 0.0 if graph.degree_identity() else 1.0, 0.5)

    mat = graph_model.materialize(graph)
    dual_bad = 0
    for i, nbrs in enumerate(mat.adjacency):
        for j in nbrs:
            if i not in mat.adjacency[j]:
                dual_bad += 1
    check("neighbor-duality-violations", dual_bad, 0.5)

    solution = spectral.solve_for_instance(graph)
    ref = spectral.dense_top_eigenpair(mat)
    check("lambda-relative-error", abs(solution.top_eigenvalue - ref.lambda1) / ref.lambda1, 1e-8)

    amps = spectral.assemble_amplitudes(solution, mat)
    if planted_defect:
        amps = amps.copy()
        amps[len(amps) // 2] *= 1.001
    exp_idx = [mat.index[graph_model.ExpanderVertex(u)] for u in range(10)]
    dense = ref.vector / np.mean(ref.vector[exp_idx])
    check("amplitude-max-relative-error", np.max(np.abs(amps - dense) / np.abs(dense)), 1e-8)
    check("expander-marginal-nonuniformity", np.max(np.abs(dense[exp_idx] - 1.0)), 1e-8)

    a_mat = graph_model.adjacency_matrix(mat.adjacency).toarray()
    resid = np.linalg.norm(a_mat @ amps - solution.top_eigenvalue * amps) / np.linalg.norm(amps)
    check("eigen-residual", resid, 1e-8)

    exact = spectral.exact_distribution(solution, mat)
    sampler = spectral.GroundStateSampler(solution, seed=derive_seed("verify", seed))
    counts = {}
    n_samples = 20000
    for _ in range(n_samples):
        v = sampler.sample()
        counts[v] = counts.get(v, 0) + 1
    emp = np.array([counts.get(v, 0) / n_samples for v in mat.vertices])
    check("sampler-tv-distance", 0.5 * float(np.abs(emp - exact).sum()), 0.05)

    orc = oracle_mod.LabeledOracle(graph, derive_key("verify", seed), padding_ratio=2.0 ** -6)
    rng = random.Random(seed)
    bad_roundtrip = 0
    bad_symmetry = 0
    for _ in range(100):
        v = mat.vertices[rng.randrange(mat.n)]
        label = orc.label_of(v)
        if orc.reveal(label) != v:
            bad_roundtrip += 1
        answer = orc.query(label)
        if any(label not in orc.query(x) for x in answer[:3]):
            bad_symmetry += 1
    check("oracle-roundtrip-failures", bad_roundtrip, 0.5)
    check("oracle-symmetry-failures", bad_symmetry, 0.5)

    # Negative control: a perturbed amplitude vector must fail the residual check.
    amps_bad = amps.copy()
    amps_bad[mat.n // 2] *= 1.001
    resid_bad = np.linalg.norm(a_mat @ amps_bad - solution.top_eigenvalue * amps_bad) / np.linalg.norm(amps_bad)
    check("negative-control-detects-perturbation", resid_bad, 1e-8, higher_is_bad=False)

    return checks


@command("report", results=(), reader=True)
def cmd_report(run: Run) -> int:
    src = Path(run.cfg.get("dir") or run.out)
    records = read_jsonl(src / "records.jsonl")
    if not records:
        raise UsageError(f"no records.jsonl under {src}")
    run.write("summary.csv", summary_csv(records))
    width = max(len(r["metric"]) for r in records)
    for r in records:
        bound = r.get("bound")
        bound_txt = f" bound={bound:.5g}" if isinstance(bound, (int, float)) else ""
        print(f"{r['metric']:<{width}}  value={r['value']:.6g}{bound_txt}  {';'.join(r.get('flags', []))}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = ArgumentParser(
        prog="gapwalk",
        description="Decorated-expander experiments: spectra, oracles, exploration bounds.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path)
    for flag in ("seed", "trials", "budget", "threads"):
        parser.add_argument(f"--{flag}", type=int)
    parser.add_argument("--out", type=Path)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"{parser.format_usage()}gapwalk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    run = code = None
    try:
        cfg = load_config(args.config) if args.config else {}
        run = Run(args.command, args, cfg)
        if not run.command.reader:
            run.start()
        code = run.command.fn(run)
        run.write_records()
    except (InputError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except expander_gen.GenerationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        code = EXIT_CERTIFICATION
    finally:
        if run is not None and run.started:
            run.finish(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
