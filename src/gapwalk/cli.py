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

CONFIG_KEYS holds every config key: the commands that read it, its kind,
default and limits.  One `Run` owns the output directory.  It refuses a key
outside its command's rows, then resolves --out, the seed, the thread count
and the command's counts (--trials, --budget, or their config keys) once;
every other key is read through `Run.get` where the command uses it.  A value
of the wrong kind or past its row's limits is a config error, as is any value
the library refuses (an InputError).  Starting a run deletes the files the
command writes, then writes config.resolved.json and a meta.json with status
"running", so a failed rerun leaves none of an earlier run's results.  Result
files are written to a temporary name and renamed into place; meta.json is
rewritten on every exit with the status of the exit code.  A run that fails
before it starts (no config, no --out, an unknown key, a bad count, a resume
mismatch) leaves the directory untouched.  Only gen-expander clears
expander.txt and expander.certificate.json, since other commands may read a
core from there; a core read from a file must be connected.  `report` only
reads a run: it rewrites summary.csv and nothing else.

explore-tree maps one window function, in order, over its pending (strategy,
trial) pairs in row order, cut into windows of explorer.EXIT_WINDOW pairs
(smaller where that would leave a worker idle; a window may span strategies):
builtin map with --threads 1, otherwise one process pool per run of at most
one worker per CPU (no other command uses --threads).  It appends each
window's rows to trials.jsonl as they arrive, so an interruption loses only
the windows in flight, and resumes from the rows it finds.  Its meta.json
carries a resume key, stored before the first row is appended: the hash of
the config without the keys that command-line flags override (FLAGS), plus
the effective seed and budget.  Resuming rows under a different key exits 1.

Exit codes: 0 success, 1 usage/config error, 2 certification or verification
failure, 3 query-budget exhaustion.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
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
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import expander_gen, explorer, graph_model, oracle as oracle_mod, spectral
from ._util import InputError, below, derive_key, derive_seed

OUT_ENV_VAR = "GAPWALK_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATION = 2
EXIT_BUDGET = 3

STATUS = {EXIT_OK: "ok", EXIT_USAGE: "config-error", EXIT_CERTIFICATION: "check-failed",
          EXIT_BUDGET: "query-limit"}

RECORDS = ("records.jsonl", "summary.csv")
# Config keys that a command-line flag of the same name overrides.
FLAGS = ("seed", "trials", "budget", "threads", "out")


class UsageError(InputError):
    pass


class ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors raise UsageError instead of exiting 2, the
    code documented for check failures."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config keys
# ---------------------------------------------------------------------------

ALL = ("gen-expander", "certify", "spectrum", "sample-ground", "explore-tree", "explore-graph",
       "ggsp", "bounds", "verify-small", "report")
INSTANCE = ("spectrum", "sample-ground", "explore-graph", "ggsp")
GRAPH = ("explore-graph", "ggsp")
COUNTED = ("explore-tree",) + GRAPH
CORE = ("gen-expander",)
INT_MAX = 2**63 - 1
INT_ANY = (-INT_MAX - 1, INT_MAX)
# A trial's guiding inputs or roots are all held in memory at once: past
# MAX_INPUTS a run exits 1 instead of ending in a MemoryError.  sample-ground
# writes each sample as it is drawn; MAX_SAMPLES bounds its run and its file.
MAX_INPUTS = 1 << 12
MAX_SAMPLES = 1 << 20
REQUIRED = ...
# A core section's rows without their commands: its fixture sources, and the
# keys of a generated core.  gen-expander reads both under "expander.", the
# instance its sources under "instance.expander." and the generation keys
# under "instance.expander.generate.".
CORE_SOURCE = (("petersen", "bool", False), ("complete", "int", None, (2, INT_MAX)), ("file", "str", None))
CORE_GENERATE = (("N", "int", None, (2, INT_MAX)), ("d", "int", REQUIRED, (1, INT_MAX)),
                 ("gap_min", "number", 0.0), ("girth_min", "number", 3.0), ("seed", "int", None, INT_ANY),
                 ("max_attempts", "int", 50, (1, INT_MAX)))

# path: (commands that read it, kind, default[, limits]).  A path steps into
# an object with "." and into every entry of a list of objects with "[].".
# Kinds: int, number (finite), str, bool, choice; ints, numbers and strs
# (lists of those); object, and objects (a list of objects).  The limits are
# an int's (or an ints entry's) [low, high] and a choice's values.  A default
# of None is worked out where the key is read, or means "none"; a dict holds
# one default per command.  Where a key's legal set depends on the mode or the
# bound name, the row takes the union.  JSON null reads as a key left out.
CONFIG_KEYS = {
    "seed": (ALL, "int", 0, INT_ANY),
    "threads": (ALL, "int", 1, (1, INT_MAX)),
    "out": (ALL, "str", None),
    "trials": (COUNTED, "int", {"explore-tree": 1000, "explore-graph": 100, "ggsp": 200}, (1, INT_MAX)),
    "budget": (COUNTED, "int", {"explore-tree": 16, "explore-graph": 64, "ggsp": 32}, (1, INT_MAX)),
    "count": (("sample-ground",), "int", 1000, (1, MAX_SAMPLES)),
    # gen-expander: a fixture core, or one generated when N is given
    "expander": (CORE, "object", REQUIRED),
    **{f"expander.{key}": (CORE, *row) for key, *row in CORE_SOURCE + CORE_GENERATE},
    # certify
    "expander_file": (("certify",), "str", REQUIRED),
    "gap_min": (("certify",), "number", 0.0),
    "girth_min": (("certify",), "number", 3.0),
    # the instance: standard (n), scaled (a schedule and a core) or, for
    # spectrum only, custom (a base eigenvalue and attached tree families)
    "instance": (INSTANCE, "object", REQUIRED),
    "instance.mode": (INSTANCE, "choice", "scaled", ("standard", "scaled", "custom")),
    "instance.n": (INSTANCE, "int", REQUIRED, (1, 1024)),  # core size 2^(21 n^2 log2(n)^2), held exactly
    "instance.degrees": (INSTANCE, "ints", REQUIRED, (1, INT_MAX)),
    "instance.depths": (INSTANCE, "ints", REQUIRED, (0, INT_MAX)),
    "instance.girth_floor": (INSTANCE, "int", 3, (0, INT_MAX)),
    "instance.padding_ratio": (INSTANCE, "number", 2.0 ** -20),
    "instance.expander": (INSTANCE, "object", REQUIRED),
    **{f"instance.expander.{key}": (INSTANCE, *row) for key, *row in CORE_SOURCE},
    "instance.expander.generate": (INSTANCE, "object", None),
    **{f"instance.expander.generate.{key}": (INSTANCE, *row) for key, *row in CORE_GENERATE},
    "instance.lambda_e": (("spectrum",), "number", REQUIRED),
    "instance.beta": (("spectrum",), "number", 1.0),
    "instance.expander_size": (("spectrum",), "int", 1, (1, INT_MAX)),
    "instance.trees": (("spectrum",), "objects", REQUIRED),
    "instance.trees[].degrees": (("spectrum",), "ints", REQUIRED, (1, INT_MAX)),
    "instance.trees[].depths": (("spectrum",), "ints", REQUIRED, (0, INT_MAX)),
    "instance.trees[].level": (("spectrum",), "int", None, (1, INT_MAX)),
    "instance.trees[].copies": (("spectrum",), "int", 1, (1, INT_MAX)),
    # explore-tree
    "schedule": (("explore-tree",), "object", REQUIRED),
    "schedule.degrees": (("explore-tree",), "ints", REQUIRED, (1, INT_MAX)),
    "schedule.depths": (("explore-tree",), "ints", REQUIRED, (0, INT_MAX)),
    "level": (("explore-tree",), "int", None, (1, INT_MAX)),
    "strategies": (("explore-tree",), "strs", None),
    "strategy": (("explore-tree", "explore-graph"), "str", "greedy-unvisited"),
    "w": (("explore-tree",), "int", 2, (1, INT_MAX)),
    "padding_ratio": (("explore-tree",), "number", 0.25),
    "q_schedule": (("explore-tree",), "numbers", None),
    # explore-graph and ggsp
    "guiding": (GRAPH, "str", {"explore-graph": "expander-uniform", "ggsp": "exact-ground-state"}),
    "threshold": (GRAPH, "int", None, (0, INT_MAX)),
    "roots": (("explore-graph",), "int", 1, (1, MAX_INPUTS)),
    "query_limit": (("explore-graph",), "int", None, (0, INT_MAX)),
    "algorithm": (("ggsp",), "str", "echo-first-input"),
    "t": (("ggsp",), "int", 4, (1, MAX_INPUTS)),
    "oracle": (GRAPH, "object", None),
    "oracle.padding_ratio": (GRAPH, "number", None),
    "oracle.label_bits": (GRAPH, "int", None, (1, INT_MAX)),
    "oracle.key": (GRAPH, "str", None),
    # bounds: each entry names its bound and gives that bound's arguments
    "bounds": (("bounds",), "objects", REQUIRED),
    "bounds[].name": (("bounds",), "str", REQUIRED),
    "bounds[].d_k": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].d_km1": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].l_k": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].l_km1": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].w": (("bounds",), "int", 2, INT_ANY),
    "bounds[].degrees": (("bounds",), "ints", REQUIRED, (1, INT_MAX)),
    "bounds[].depths": (("bounds",), "ints", REQUIRED, (0, INT_MAX)),
    "bounds[].q_schedule": (("bounds",), "numbers", REQUIRED),
    "bounds[].n": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].k": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].u_size": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].degree": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].g": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].n_e": (("bounds",), "int", REQUIRED, INT_ANY),
    "bounds[].fidelity": (("bounds",), "number", REQUIRED),
    "bounds[].tv": (("bounds",), "number", REQUIRED),
    "bounds[].delta": (("bounds",), "number", REQUIRED),
    "bounds[].gamma": (("bounds",), "number", REQUIRED),
    "bounds[].lambda_e": (("bounds",), "number", REQUIRED),
    "bounds[].max_degree": (("bounds",), "number", REQUIRED),
    "bounds[].beta": (("bounds",), "number", REQUIRED),
    "bounds[].tree_count": (("bounds",), "int", REQUIRED, INT_ANY),
    # verify-small and report
    "planted_defect": (("verify-small",), "bool", False),
    "dir": (("report",), "str", None),
}

_TYPES = {"str": str, "bool": bool, "object": dict}


def typed(path: str, value, name=None, kind=None):
    """`value` as the kind of `path`'s CONFIG_KEYS row; anything else, or an
    int outside the row's limits, is a UsageError naming `name` (or `path`)."""
    _, row_kind, _, *limits = CONFIG_KEYS[path]
    name, kind = name or path, kind or row_kind
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind in ("ints", "numbers", "strs", "objects") and isinstance(value, list):
        return [typed(path, v, name, kind[:-1]) for v in value]
    if kind == "int" and number and (isinstance(value, int) or value.is_integer()):
        value, (low, high) = int(value), limits[0]
        if not low <= value <= high:
            raise UsageError(f"{name} must be at {'least' if value < low else 'most'} "
                             f"{low if value < low else high}, got {value}")
        return value
    if kind == "number" and number and abs(value) <= sys.float_info.max:  # finite, and no float overflow
        return float(value)
    if kind == "choice" and isinstance(value, str) and value in limits[0]:
        return value
    if isinstance(value, _TYPES.get(kind, ())):
        return value
    raise UsageError(f"{name} must be {'one of ' + ', '.join(limits[0]) if kind == 'choice' else kind}, "
                     f"got {value!r}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}")
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def json_text(obj, sort_keys=True) -> str:
    return json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"


def jsonl(rows) -> str:
    """One compact, key-sorted JSON object per line."""
    return "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" for row in rows)


def read_rows(path: Path, kind: str, is_row, cut_torn: bool = False) -> list:
    """The rows of the JSON-lines file at `path` ([] when there is none),
    blank lines skipped.  A file that cannot be read as text, or a line that is
    not an object for which `is_row` holds, is a UsageError.  With `cut_torn`
    a last line without its newline, a write torn by an interruption, is cut
    from the file (so a resumed trial runs again)."""
    if not path.exists():
        return []
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path} as text: {exc}") from None
    if cut_torn and text and not text.endswith("\n"):
        text = text[: text.rfind("\n") + 1]
        path.write_text(text)
    rows = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            row = None
        if not (isinstance(row, dict) and is_row(row)):
            raise UsageError(f"{path} line {n} is not {kind}")
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

class Command(NamedTuple):
    fn: Callable[["Run"], int]
    results: tuple = ()   # files the command writes; deleted when a run starts
    counts: Mapping[str, str] = MappingProxyType({})  # "trials"/"budget" -> its config key
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
        self.name, self.command, self.cfg = name, COMMANDS[name], cfg
        self.check_keys(cfg)
        out = args.out or self.get("out") or os.environ.get(OUT_ENV_VAR)
        if not out:
            raise UsageError(f"no output directory: pass --out, set 'out' in the config or set ${OUT_ENV_VAR}")
        self.out = Path(out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot make the output directory {out}: {exc.strerror}") from None
        self.seed = self.get("seed") if args.seed is None else typed("seed", args.seed)
        self.threads = self.get("threads") if args.threads is None else typed("threads", args.threads)
        self.meta = {"command": name, "config_hash": config_hash(cfg), "seed": self.seed}
        for flag, key in self.command.counts.items():
            value = getattr(args, flag)
            self.meta[flag] = self.get(key) if value is None else typed(key, value, f"{key} (--{flag})")
        self.trials, self.budget = self.meta.get("trials"), self.meta.get("budget")
        self.records, self.started = [], False

    def check_keys(self, obj: dict, prefix: str = ""):
        """Refuse a key of `obj` (at `prefix`) that no CONFIG_KEYS row gives this command."""
        for key, value in obj.items():
            path = prefix + key
            commands, kind, *_ = CONFIG_KEYS.get(path, ((), None))
            if self.name not in commands or "." in key:
                raise UsageError(f"unknown config key '{path}' for {self.name}")
            if kind == "object" and isinstance(value, dict):
                self.check_keys(value, path + ".")
            elif kind == "objects" and isinstance(value, list):
                for entry in value:
                    if isinstance(entry, dict):
                        self.check_keys(entry, path + "[].")

    def get(self, path: str, entry: dict = None, default=None):
        """The config value at `path`, read as its CONFIG_KEYS row says.  `entry`
        is the list entry that holds it, for a path through a list of objects;
        `default` stands in for a row default of None.  A required key that is
        missing is a UsageError."""
        parent, _, key = path.rpartition(".")
        holder = entry if entry is not None else self.get(parent) if parent else self.cfg
        value = None if holder is None else holder.get(key)
        if value is not None:
            return typed(path, value)
        fallback = CONFIG_KEYS[path][2]
        if isinstance(fallback, dict):
            fallback = fallback[self.name]
        if fallback is REQUIRED:
            raise UsageError(f"missing '{path}' in the config")
        return default if fallback is None else fallback

    def start(self):
        """Claim --out: check a resumed file's key, delete the command's earlier
        results, write config.resolved.json and a 'running' meta.json."""
        if self.command.resumes:
            kept = {k: v for k, v in self.cfg.items() if k not in FLAGS}
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

    def write(self, name: str, text):
        """Write `text`, one str or an iterable of strs, to `name` in one
        rename; an iterable is written as it is produced."""
        tmp = self.out / f".{name}.tmp"
        with open(tmp, "w", newline="") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
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

def build_schedule(run: Run, at: str, entry: dict = None) -> graph_model.Schedule:
    """The schedule of the degrees and depths at config path `at`."""
    return graph_model.Schedule(*(tuple(run.get(f"{at}.{k}", entry)) for k in ("degrees", "depths")))


def build_expander(run: Run, at: str, gen: str):
    """(graph, certificate or None) of the core section at `at`: a fixture, or
    a core generated from the section at `gen` when it gives N, written to --out."""
    if run.get(f"{at}.petersen"):
        return expander_gen.petersen(), None
    if (n := run.get(f"{at}.complete")) is not None:
        return expander_gen.complete_graph(n), None
    if (path := run.get(f"{at}.file")) is not None:
        graph = expander_gen.load(path)
        if not graph.is_connected():
            raise UsageError(f"expander file {path} is not connected")
        return graph, None
    if run.get(f"{gen}.N") is None:
        raise UsageError(f"{at} needs one of: petersen, complete, file, {gen}.N")
    # N is set here, so the run's seed stands in only for an unset core seed.
    graph, cert = expander_gen.generate_certified(
        **{key: run.get(f"{gen}.{key}", default=run.seed) for key, *_ in CORE_GENERATE})
    run.write("expander.certificate.json", json_text(cert._asdict()))
    run.write("expander.txt", expander_gen.to_text(graph))
    return graph, cert


def build_instance(run: Run):
    """(params, graph-or-None).  Standard-mode instances return params only
    (their cores are far too large to build)."""
    mode = run.get("instance.mode")
    if mode == "standard":
        return graph_model.GraphParams.standard(run.get("instance.n")), None
    if mode == "custom":
        raise UsageError("a custom instance is read only by spectrum")
    sched = build_schedule(run, "instance")
    expander, _ = build_expander(run, "instance.expander", "instance.expander.generate")
    params = graph_model.GraphParams(sched, expander.N, run.get("instance.girth_floor"),
                                     run.get("instance.padding_ratio"))
    return params, graph_model.MainGraph(params, expander)


def build_main_graph(run: Run):
    params, graph = build_instance(run)
    if graph is None:
        raise UsageError(f"{run.name} needs a scaled (materializable) instance")
    return params, graph


def oracle_maker(graph, run: Run):
    """key -> oracle over `graph` with the config's padding ratio and label
    width; a configured `oracle.key` (32 hex digits) replaces every trial's key."""
    label_bits = run.get("oracle.label_bits")
    build = functools.partial(oracle_mod.LabeledOracle, graph, padding_ratio=run.get("oracle.padding_ratio"),
                              label_bits=label_bits)
    key_hex = run.get("oracle.key")
    if key_hex is not None and not re.fullmatch(r"[0-9a-fA-F]{32}", key_hex):
        raise UsageError(f"oracle.key must be 32 hex digits, got {key_hex!r}")
    try:
        build(bytes(16))  # a label width the instance cannot use exits before any trial
    except oracle_mod.LabelSpaceError as exc:
        if label_bits is None:
            raise
        raise UsageError(f"oracle.label_bits: {exc}") from None
    if key_hex is None:
        return build
    key = bytes.fromhex(key_hex)
    return lambda _trial_key: build(key)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def certify(run: Run, graph, prefix: str, name: str) -> int:
    """Certify `graph` against the config's `{prefix}gap_min` and
    `{prefix}girth_min` and write the certificate to `name`."""
    cert = expander_gen.certify_expander(graph, run.get(f"{prefix}gap_min"), run.get(f"{prefix}girth_min"))
    if cert is None:
        print("certification rejected", file=sys.stderr)
        return EXIT_CERTIFICATION
    run.write(name, json_text(cert._asdict()))
    print(f"accepted: girth={cert.girth} gap={cert.gap:.6f} attempts={cert.attempts}")
    return EXIT_OK


@command("gen-expander", results=("expander.txt", "expander.certificate.json"))
def cmd_gen_expander(run: Run) -> int:
    graph, cert = build_expander(run, "expander", "expander")
    if cert is not None:
        print(f"accepted: girth={cert.girth} gap={cert.gap:.6f} attempts={cert.attempts}")
        return EXIT_OK
    # Fixture sources certify on demand; the graph is written once accepted.
    code = certify(run, graph, "expander.", "expander.certificate.json")
    if code == EXIT_OK:
        run.write("expander.txt", expander_gen.to_text(graph))
    return code


@command("certify", results=("certificate.json",))
def cmd_certify(run: Run) -> int:
    return certify(run, expander_gen.load(run.get("expander_file")), "", "certificate.json")


def attached_tree(run: Run, entry: dict) -> spectral.AttachedTree:
    sched = build_schedule(run, "instance.trees[]", entry)
    return spectral.AttachedTree(sched, run.get("instance.trees[].level", entry, sched.levels),
                                 run.get("instance.trees[].copies", entry))


@command("spectrum", results=("spectrum.json",) + RECORDS)
def cmd_spectrum(run: Run) -> int:
    if run.get("instance.mode") == "custom":
        # An explicitly described decorated graph: a base eigenvalue plus
        # arbitrary attached-tree families (covers degenerate fixtures like a
        # single edge with one pendant vertex per endpoint).
        solution = spectral.solve_top_eigenvalue(
            run.get("instance.lambda_e"), [attached_tree(run, t) for t in run.get("instance.trees")],
            beta=run.get("instance.beta"), expander_size=run.get("instance.expander_size"),
        )
    else:
        solution = spectral.solve_for_params(build_instance(run)[0])
    split = spectral.norm_decomposition(solution)
    report = {  # stable key order: insertion order is the contract
        "lambda_g": solution.top_eigenvalue, "lambda_e": solution.base_eigenvalue,
        "alpha": list(solution.loop_weights), "norm_ratio": split.ratio,
        "one_minus_ratio": split.one_minus_ratio, "residual": solution.residual,
        "iterations": solution.iterations,
    }
    run.write("spectrum.json", json_text(report, sort_keys=False))
    run.record("lambda_g", report["lambda_g"])
    print(json.dumps(report))
    return EXIT_OK


@command("sample-ground", results=("samples.jsonl",) + RECORDS, counts={"trials": "count"})
def cmd_sample_ground(run: Run) -> int:
    count = run.trials
    params, graph = build_instance(run)
    solution = spectral.solve_for_params(params) if graph is None else spectral.solve_for_instance(graph)
    sampler = spectral.GroundStateSampler(solution, seed=derive_seed("sample", run.seed))
    # Standard-family anchors are ~86,000-bit integers at n=16: written in hex.
    anchor = int if graph is not None else hex
    hits = 0  # expander draws

    def lines():  # one row at a time: memory does not grow with count
        nonlocal hits
        for i in range(count):
            v = sampler.sample()
            if isinstance(v, graph_model.ExpanderVertex):
                hits += 1
                row = {"i": i, "kind": "expander", "anchor": anchor(v.index)}
            else:
                row = {"i": i, "kind": "tree", "anchor": anchor(v.anchor), "level": v.level,
                       "copy": v.copy, "depth": len(v.address)}
            yield jsonl((row,))

    run.write("samples.jsonl", lines())
    expander_fraction = hits / count
    run.record(
        "expander_mass_fraction", expander_fraction,
        math.sqrt(max(expander_fraction * (1 - expander_fraction), 1e-12) / count),
        spectral.norm_decomposition(solution).ratio, ["bound-is-exact-expectation"],
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


@command("explore-tree", counts={"trials": "trials", "budget": "budget"}, resumes=True)
def cmd_explore_tree(run: Run) -> int:
    budget, trials = run.budget, run.trials
    sched = build_schedule(run, "schedule")
    level = run.get("level", default=sched.levels)
    strategies = run.get("strategies", default=[run.get("strategy")])
    if not strategies or len(set(strategies)) < len(strategies):
        raise UsageError(f"strategies must be a list of distinct strategy names, got {strategies!r}")
    w = run.get("w")
    padding = run.get("padding_ratio")
    q_schedule = run.get("q_schedule") or [max(1.0, budget / (w ** (level - k))) for k in range(1, level + 1)]

    # A bad level, label width, w or q_schedule exits 1 before any trial.
    tree = exit_tree(sched.degrees, sched.depths, level)
    oracle_mod.label_width(tree.num_nonisolated, padding)
    bound_rep = bounds_mod.recursion_bound(
        graph_model.Schedule(sched.degrees[:level], sched.depths[:level]), q_schedule, w)[level - 1]
    trials_path = run.out / "trials.jsonl"
    all_rows = read_rows(trials_path, "a trial row; resume into a fresh --out",
                         lambda row: {"strategy", "trial", "exit"} <= row.keys(), cut_torn=True)
    done = {(row["strategy"], row["trial"]) for row in all_rows}
    pending = [(s, t) for s in strategies for t in range(trials) if (s, t) not in done]
    # A pool of at most one worker per CPU: a fork pool starts all its workers
    # at once.  Windows of EXIT_WINDOW trials, smaller where that would leave a
    # worker idle.
    workers = min(run.threads, os.cpu_count() or 1)
    size = max(1, min(explorer.EXIT_WINDOW, math.ceil(len(pending) / workers)))
    jobs = [(sched.degrees, sched.depths, level, budget, run.seed, padding, pending[i : i + size])
            for i in range(0, len(pending), size)]
    # Looked up here: only a pooled run imports multiprocessing.
    pool = concurrent.futures.ProcessPoolExecutor(workers) if workers > 1 else None
    try:
        for rows in (pool.map if pool else map)(exit_window, jobs):
            with open(trials_path, "a") as fh:
                fh.write(jsonl(rows))
            all_rows += rows
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        exit_tree.cache_clear()  # hold no tree after the run

    for strategy in strategies:
        rows = [r for r in all_rows if r["strategy"] == strategy and r["trial"] < trials]
        stats = explorer.EventStats.from_counts(sum(r["exit"] for r in rows), len(rows))
        run.record(
            f"exit_probability[{strategy}]", stats.p_hat, stats.stderr, bound_rep.value,
            bound_rep.flags, bound_log2=bound_rep.log2_value,
        )
    for rec in run.records:
        print(f"{rec['metric']}: p_hat={rec['value']:.5f} +/- {rec['stderr']:.5f} "
              f"bound={rec['bound']:.5g} flags={rec['flags']}")
    return EXIT_OK


# command -> (its `explorer.Preset`, its algorithm key, its inputs-per-trial
# key, the rate row's extra flags, its second row's metric and value).
LOCALIZATION = {
    "explore-graph": (explorer.EXPLORE_GRAPH, "strategy", "roots", ("bound-is-sampler-floor",),
                      lambda report: ("audit_pass_rate", report.audits_ok / report.trials, 1.0)),
    "ggsp": (explorer.GGSP, "algorithm", "t", (),
             lambda report: ("budget_failures", report.budget_failures, None)),
}


# The inner decorator registers first: explore-graph precedes ggsp in COMMANDS.
@command("ggsp", results=("trials.jsonl",) + RECORDS, counts={"trials": "trials", "budget": "budget"})
@command("explore-graph", results=("trials.jsonl",) + RECORDS, counts={"trials": "trials", "budget": "budget"})
def cmd_localization(run: Run) -> int:
    preset, algorithm_key, count_key, extra_flags, second_row = LOCALIZATION[run.name]
    count, query_limit = run.get(count_key), run.get("query_limit")  # None for ggsp, which has no such key
    params, graph = build_main_graph(run)
    threshold = run.get("threshold", default=max(2, params.girth_floor // 2))
    report = explorer.localization_experiment(
        preset, oracle_maker(graph, run), run.get("guiding"), run.get(algorithm_key), count, run.budget,
        threshold, run.seed, run.trials, query_limit,
    )
    if report.trials < run.trials:
        run.meta["completed_trials"] = report.trials
        print(f"query limit {query_limit} exhausted after {report.trials} trials", file=sys.stderr)
        return EXIT_BUDGET
    run.write("trials.jsonl", report.lines)
    stats = report.localization
    lb = bounds_mod.localization_bound(count, params.schedule.degrees[-1], threshold, graph.expander.N)
    run.record(f"localization_rate[{report.strategy}]", stats.p_hat, stats.stderr, lb.value, lb.flags + extra_flags)
    metric, value, bound = second_row(report)
    run.record(metric, value, bound=bound)
    print(f"{report.strategy}: localization rate {stats.p_hat:.4f} (bound floor {lb.value:.4f}); "
          f"{metric} {value:.4g}")
    return EXIT_OK


def _recursion(degrees, depths, q_schedule, w):
    return bounds_mod.recursion_bound(graph_model.Schedule(tuple(degrees), tuple(depths)), q_schedule, w)[-1]


# bounds-entry name -> (the function of the BoundReport it asks for, the
# entry keys it takes, in order).
BOUNDS = {
    "avoidance": (bounds_mod.avoidance_bound, ("d_k", "d_km1", "l_k", "l_km1", "w")),
    "recursion": (_recursion, ("degrees", "depths", "q_schedule", "w")),
    "closed-form": (bounds_mod.closed_form_exit_bound, ("n", "k")),
    "localization": (bounds_mod.localization_bound, ("u_size", "degree", "g", "n_e")),
    "tv-budget": (bounds_mod.tv_budget_report, ("fidelity", "tv")),
    "gap-sum": (bounds_mod.gap_sum_bound, ("delta", "gamma")),
    "alpha": (bounds_mod.alpha_bounds, ("lambda_e", "max_degree", "beta", "tree_count")),
}


@command("bounds")
def cmd_bounds(run: Run) -> int:
    for entry in run.get("bounds"):
        name = run.get("bounds[].name", entry)
        if name not in BOUNDS:
            raise UsageError(f"unknown bound name {name!r}")
        fn, keys = BOUNDS[name]
        rep = fn(*(run.get(f"bounds[].{k}", entry) for k in keys))
        run.record(rep.name, rep.value, bound=rep.value, flags=rep.flags, bound_log2=rep.log2_value)
    for rec in run.records:
        print(f"{rec['metric']}: {rec['value']:.6g} (log2={rec['bound_log2']}) {rec['flags']}")
    return EXIT_OK


@command("verify-small")
def cmd_verify_small(run: Run) -> int:
    checks = run_verification_suite(seed=run.seed, planted_defect=run.get("planted_defect"))
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
        checks.append({"name": name, "measured": float(measured), "threshold": float(threshold),
                       "passed": bool(passed)})

    core = expander_gen.petersen()
    params = graph_model.GraphParams.scaled((5, 4, 3), (1, 2, 3), expander_size=10)
    graph = graph_model.MainGraph(params, core)
    mat = graph_model.materialize(graph)
    # Every vertex but a leaf has degree d_1.
    d1 = params.schedule.degrees[0]
    check("degree-identity", sum(len(nbrs) not in (1, d1) for nbrs in mat.adjacency), 0.5)
    dual_bad = sum(i not in mat.adjacency[j] for i, nbrs in enumerate(mat.adjacency) for j in nbrs)
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
        v = mat.vertices[below(rng.getrandbits, mat.n)]
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
    src = Path(run.get("dir") or run.out)
    records = read_rows(src / "records.jsonl", "a records row (a string metric, a numeric value)",
                        lambda row: isinstance(row.get("metric"), str)
                        and isinstance(row.get("value"), (int, float)))
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
    for flag in FLAGS:
        parser.add_argument(f"--{flag}", type=Path if flag == "out" else int)
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
    except InputError as exc:
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
