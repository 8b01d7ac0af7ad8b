"""Experiment runner: configuration, orchestration, persistence, report emission.

Configs are single JSON files (nested key/value sections).  Every run writes
into its output directory:

    config.resolved.json   the fully resolved config that produced the results
    meta.json              wall-clock metadata (the only place timestamps live)
    records.jsonl          metric rows, each joined with its analytic bound
    trials.jsonl           per-trial rows for resumable experiments
    summary.csv            plot-ready summary

records.jsonl and trials.jsonl contain no timestamps, so identical config plus
seed reproduces them byte for byte.

Exit codes: 0 success, 1 usage/config error, 2 certification or verification
failure, 3 query-budget exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import bounds as bounds_mod
from . import expander_gen, explorer, graph_model, oracle as oracle_mod, spectral
from ._util import derive_key, derive_seed

OUT_ENV_VAR = "GAPWALK_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATION = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


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


def resolve_seed(args, cfg: dict) -> int:
    """--seed if given, else the config's seed, else 0."""
    return int(args.seed if args.seed is not None else cfg.get("seed", 0))


def resolve_out(args, cfg: dict) -> Path:
    out = args.out or cfg.get("out") or os.environ.get(OUT_ENV_VAR)
    if not out:
        raise UsageError(
            f"no output directory: pass --out, set 'out' in the config, or set ${OUT_ENV_VAR}"
        )
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path: Path, obj, stable=True):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=stable)
        fh.write("\n")


def jsonl(rows) -> str:
    """One compact, key-sorted JSON object per line."""
    return "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" for row in rows)


def append_jsonl(path: Path, rows):
    with open(path, "a") as fh:
        fh.write(jsonl(rows))


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


def write_records(out: Path, records: list, cfg: dict | None = None):
    if cfg is not None:
        tag = config_hash(cfg)[:12]
        for rec in records:
            rec.setdefault("config", tag)
    for rec in records:
        if rec.get("bound") is None and "unbounded" not in rec.get("flags", []):
            rec.setdefault("flags", []).append("unbounded")
    (out / "records.jsonl").write_text(jsonl(records))
    write_summary_csv(out, records)


def write_summary_csv(out: Path, records: list):
    fields = ["experiment", "metric", "value", "stderr", "bound", "bound_log2", "flags"]
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for rec in records:
            row = dict(rec)
            row["flags"] = ";".join(rec.get("flags", []))
            writer.writerow(row)


def start_meta(out: Path, cfg: dict, command: str) -> dict:
    meta = {
        "command": command,
        "config_hash": config_hash(cfg),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    write_json(out / "config.resolved.json", cfg)
    return meta


def finish_meta(out: Path, meta: dict, **extra):
    meta["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    meta.update(extra)
    write_json(out / "meta.json", meta)


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise UsageError(f"missing '{key}' in {context}")
    return cfg[key]


def build_schedule(section: dict) -> graph_model.Schedule:
    try:
        return graph_model.Schedule(
            tuple(_require(section, "degrees", "schedule")),
            tuple(_require(section, "depths", "schedule")),
        )
    except graph_model.ScheduleError as exc:
        raise UsageError(str(exc))


def build_expander(section: dict, out: Path | None, seed: int):
    if section.get("petersen"):
        return expander_gen.petersen(), None
    if "complete" in section:
        return expander_gen.complete_graph(int(section["complete"])), None
    if "file" in section:
        return expander_gen.load(section["file"]), None
    if "generate" in section:
        gen = section["generate"]
        graph, cert = expander_gen.generate_certified(
            N=int(_require(gen, "N", "expander.generate")),
            d=int(_require(gen, "d", "expander.generate")),
            gap_min=float(gen.get("gap_min", 0.0)),
            girth_min=float(gen.get("girth_min", 3)),
            seed=int(gen.get("seed", seed)),
            max_attempts=int(gen.get("max_attempts", 50)),
        )
        if out is not None:
            expander_gen.save(graph, out / "expander.txt")
            write_json(out / "expander.certificate.json", cert.as_dict())
        return graph, cert
    raise UsageError(
        "expander section needs one of: petersen, complete, file, generate"
    )


def build_instance(cfg: dict, out: Path | None, seed: int):
    """(params, graph-or-None).  Standard-mode instances return params only
    (their cores are far too large to build)."""
    section = _require(cfg, "instance", "config")
    mode = section.get("mode", "scaled")
    if mode == "standard":
        params = graph_model.GraphParams.standard(int(_require(section, "n", "instance")))
        return params, None
    sched = build_schedule(section)
    expander, _ = build_expander(_require(section, "expander", "instance"), out, seed)
    params = graph_model.GraphParams.scaled(
        sched.degrees,
        sched.depths,
        expander_size=expander.N,
        girth_floor=int(section.get("girth_floor", 3)),
        padding_ratio=float(section.get("padding_ratio", 2.0 ** -20)),
    )
    return params, graph_model.MainGraph(params, expander)


def oracle_maker(graph, cfg: dict):
    """key -> oracle over `graph` with the config's padding ratio and label
    width; a configured `oracle.key` (32 hex digits) replaces every trial's key."""
    section = cfg.get("oracle", {})
    build = functools.partial(
        oracle_mod.build_oracle,
        graph,
        padding_ratio=section.get("padding_ratio"),
        label_bits=section.get("label_bits"),
    )
    key_hex = section.get("key")
    if key_hex is None:
        return build
    if not isinstance(key_hex, str) or not re.fullmatch(r"[0-9a-fA-F]{32}", key_hex):
        raise UsageError(f"oracle.key must be 32 hex digits, got {key_hex!r}")
    key = bytes.fromhex(key_hex)
    return lambda _trial_key: build(key)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_expander(cfg: dict, out: Path, args) -> int:
    meta = start_meta(out, cfg, "gen-expander")
    section = _require(cfg, "expander", "config")
    seed = resolve_seed(args, cfg)
    try:
        graph, cert = build_expander(
            {"generate": section} if "N" in section else section, out, seed
        )
    except expander_gen.GenerationError as exc:
        finish_meta(out, meta, status="rejected", attempts=exc.attempts)
        print(f"certification failed after {exc.attempts} attempts: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    if cert is None:  # fixture sources certify on demand
        cert = expander_gen.certify_expander(
            graph,
            gap_min=float(section.get("gap_min", 0.0)),
            girth_min=float(section.get("girth_min", 3)),
        )
        if cert is None:
            finish_meta(out, meta, status="rejected")
            return EXIT_CERTIFICATION
        expander_gen.save(graph, out / "expander.txt")
        write_json(out / "expander.certificate.json", cert.as_dict())
    finish_meta(out, meta, status="accepted")
    print(f"accepted: girth={cert.girth} gap={cert.gap:.6f} attempts={cert.attempts}")
    return EXIT_OK


def cmd_certify(cfg: dict, out: Path, args) -> int:
    meta = start_meta(out, cfg, "certify")
    graph = expander_gen.load(_require(cfg, "expander_file", "config"))
    cert = expander_gen.certify_expander(
        graph, gap_min=float(cfg.get("gap_min", 0.0)), girth_min=float(cfg.get("girth_min", 3))
    )
    if cert is None:
        finish_meta(out, meta, status="rejected")
        print("certification rejected", file=sys.stderr)
        return EXIT_CERTIFICATION
    write_json(out / "certificate.json", cert.as_dict())
    finish_meta(out, meta, status="accepted")
    print(f"accepted: girth={cert.girth} gap={cert.gap:.6f}")
    return EXIT_OK


def _report_solution(solution: spectral.SpectralSolution) -> dict:
    split = spectral.norm_decomposition(solution)
    # Stable key order: insertion order is the contract.
    return {
        "lambda_g": solution.top_eigenvalue,
        "lambda_e": solution.base_eigenvalue,
        "alpha": list(solution.loop_weights),
        "norm_ratio": split.ratio,
        "one_minus_ratio": split.one_minus_ratio,
        "residual": solution.residual,
        "iterations": solution.iterations,
    }


def spectrum_report(params: graph_model.GraphParams, expander_size=None) -> dict:
    return _report_solution(spectral.solve_for_params(params, expander_size=expander_size))


def custom_spectrum_report(section: dict) -> dict:
    """Spectrum of an explicitly described decorated graph: a base eigenvalue
    plus arbitrary attached-tree families (covers degenerate fixtures like a
    single edge with one pendant vertex per endpoint)."""
    trees = [
        spectral.AttachedTree(
            graph_model.Schedule(tuple(t["degrees"]), tuple(t["depths"])),
            int(t.get("level", len(t["degrees"]))),
            int(t.get("copies", 1)),
        )
        for t in _require(section, "trees", "instance")
    ]
    return _report_solution(spectral.solve_top_eigenvalue(
        float(_require(section, "lambda_e", "instance")),
        trees,
        beta=float(section.get("beta", 1.0)),
        expander_size=int(section.get("expander_size", 1)),
    ))


def cmd_spectrum(cfg: dict, out: Path, args) -> int:
    meta = start_meta(out, cfg, "spectrum")
    seed = resolve_seed(args, cfg)
    section = _require(cfg, "instance", "config")
    if section.get("mode") == "custom":
        report = custom_spectrum_report(section)
    else:
        params, graph = build_instance(cfg, out, seed)
        report = spectrum_report(params, expander_size=graph.expander.N if graph else None)
    write_json(out / "spectrum.json", report, stable=False)
    records = [
        {
            "experiment": "spectrum",
            "metric": "lambda_g",
            "value": report["lambda_g"],
            "stderr": 0.0,
            "bound": None,
            "flags": [],
        }
    ]
    write_records(out, records, cfg)
    finish_meta(out, meta)
    print(json.dumps(report))
    return EXIT_OK


def cmd_sample_ground(cfg: dict, out: Path, args) -> int:
    meta = start_meta(out, cfg, "sample-ground")
    seed = resolve_seed(args, cfg)
    count = int(args.trials or cfg.get("count", 1000))
    params, graph = build_instance(cfg, out, seed)
    if graph is None:
        solution = spectral.solve_for_params(params)
    else:
        solution = spectral.solve_for_instance(graph)
    sampler = spectral.GroundStateSampler(solution, seed=derive_seed("sample", seed))
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
    (out / "samples.jsonl").write_text(jsonl(rows))
    expander_fraction = sum(1 for r in rows if r["kind"] == "expander") / count
    split = spectral.norm_decomposition(solution)
    write_records(
        out,
        [
            {
                "experiment": "sample-ground",
                "metric": "expander_mass_fraction",
                "value": expander_fraction,
                "stderr": math.sqrt(max(expander_fraction * (1 - expander_fraction), 1e-12) / count),
                "bound": split.ratio,
                "flags": ["bound-is-exact-expectation"],
            }
        ],
        cfg,
    )
    finish_meta(out, meta, samples=count)
    print(f"wrote {count} samples; expander mass fraction {expander_fraction:.4f}")
    return EXIT_OK


def _exit_trial_worker(payload: tuple) -> list:
    """Module-level so a process pool can pickle it; each call builds its own
    tree in the worker process."""
    degrees, depths, level, strategy, budget, seed, padding, indices = payload
    graph = graph_model.TreeGraph(graph_model.Schedule(tuple(degrees), tuple(depths)), level)
    return explorer.exit_trials(graph, strategy, budget, seed, indices, padding)


def cmd_explore_tree(cfg: dict, out: Path, args) -> int:
    meta = start_meta(out, cfg, "explore-tree")
    sched = build_schedule(_require(cfg, "schedule", "config"))
    level = int(cfg.get("level", sched.levels))
    strategies = cfg.get("strategies") or [cfg.get("strategy", "greedy-unvisited")]
    budget = int(args.budget or cfg.get("budget", 16))
    trials = int(args.trials or cfg.get("trials", 1000))
    seed = resolve_seed(args, cfg)
    w = int(cfg.get("w", 2))
    padding = float(cfg.get("padding_ratio", 0.25))
    q_schedule = cfg.get("q_schedule") or [
        max(1.0, budget / (w ** (level - k))) for k in range(1, level + 1)
    ]
    threads = max(1, int(args.threads or cfg.get("threads", 1)))

    trials_path = out / "trials.jsonl"
    all_rows = read_trial_rows(trials_path)
    graph = graph_model.TreeGraph(sched, level)  # shared by the strategies' trials
    done = {(row["strategy"], row["trial"]) for row in all_rows}
    for strategy in strategies:
        pending = [t for t in range(trials) if (strategy, t) not in done]
        if not pending:
            continue
        if threads > 1:
            payloads = [
                (sched.degrees, sched.depths, level, strategy, budget, seed, padding, pending[i::threads])
                for i in range(min(threads, len(pending)))
            ]
            with ProcessPoolExecutor(max_workers=threads) as pool:
                rows = [r for rs in pool.map(_exit_trial_worker, payloads) for r in rs]
            rows.sort(key=lambda r: r["trial"])
        else:
            rows = explorer.exit_trials(graph, strategy, budget, seed, pending, padding)
        append_jsonl(trials_path, rows)
        all_rows += rows

    rec_reports = bounds_mod.recursion_bound(
        graph_model.Schedule(sched.degrees[:level], sched.depths[:level]), q_schedule, w
    )
    bound_rep = rec_reports[level - 1]
    records = []
    for strategy in strategies:
        rows = [r for r in all_rows if r["strategy"] == strategy and r["trial"] < trials]
        stats = explorer.EventStats.from_counts(sum(r["exit"] for r in rows), len(rows))
        records.append(
            {
                "experiment": "explore-tree",
                "metric": f"exit_probability[{strategy}]",
                "value": stats.p_hat,
                "stderr": stats.stderr,
                "bound": bound_rep.value,
                "bound_log2": bound_rep.log2_value,
                "flags": list(bound_rep.flags),
            }
        )
    write_records(out, records, cfg)
    finish_meta(out, meta, trials=trials, strategies=strategies)
    for rec in records:
        print(
            f"{rec['metric']}: p_hat={rec['value']:.5f} +/- {rec['stderr']:.5f} "
            f"bound={rec['bound']:.5g} flags={rec['flags']}"
        )
    return EXIT_OK


def cmd_explore_graph(cfg: dict, out: Path, args) -> int:
    meta = start_meta(out, cfg, "explore-graph")
    seed = resolve_seed(args, cfg)
    params, graph = build_instance(cfg, out, seed)
    if graph is None:
        raise UsageError("explore-graph needs a scaled (materializable) instance")
    budget = int(args.budget or cfg.get("budget", 64))
    trials = int(args.trials or cfg.get("trials", 100))
    threshold = int(cfg.get("threshold", max(2, params.girth_floor // 2)))
    strategy = cfg.get("strategy", "greedy-unvisited")
    roots_count = int(cfg.get("roots", 1))
    guiding = oracle_mod.GuidingSpec(kind=cfg.get("guiding", "expander-uniform"))
    query_limit = cfg.get("query_limit")
    make_oracle = oracle_maker(graph, cfg)
    records_rows = []
    successes = 0
    audits_ok = 0
    total_queries = 0
    from itertools import islice

    for t in range(trials):
        orc = make_oracle(derive_key("oracle", derive_seed(seed, "oracle", t)))
        if query_limit is not None and total_queries >= int(query_limit):
            for name in ("trials.jsonl", "records.jsonl", "summary.csv"):
                (out / name).unlink(missing_ok=True)  # an earlier run's results
            finish_meta(out, meta, status="query-limit", completed_trials=t)
            print(f"query limit {query_limit} exhausted after {t} trials", file=sys.stderr)
            return EXIT_BUDGET
        roots = list(islice(oracle_mod.input_sampler(orc, guiding, derive_seed(seed, t)), roots_count))
        trial = explorer.run_exploration(
            orc, roots, strategy, budget, seed=derive_seed(seed, "run", t)
        )
        total_queries += trial.query_count
        audit = explorer.component_audit(trial)
        audits_ok += audit.ok
        score = explorer.score_localization(orc, roots, trial.output, threshold)
        successes += score.success
        row = trial.to_record()
        row.pop("steps")  # answers stay in memory only; keep rows compact
        row.update(
            {
                "trial": t,
                "audit_ok": audit.ok,
                "localized": score.success,
                "distance": score.distance,
            }
        )
        records_rows.append(row)
    (out / "trials.jsonl").write_text(jsonl(records_rows))
    stats = explorer.EventStats.from_counts(successes, trials)
    lb = bounds_mod.localization_bound(
        roots_count, params.expander_degree, threshold, graph.expander.N
    )
    records = [
        {
            "experiment": "explore-graph",
            "metric": f"localization_rate[{strategy}]",
            "value": stats.p_hat,
            "stderr": stats.stderr,
            "bound": lb.value,
            "flags": list(lb.flags) + ["bound-is-sampler-floor"],
        },
        {
            "experiment": "explore-graph",
            "metric": "audit_pass_rate",
            "value": audits_ok / trials,
            "stderr": 0.0,
            "bound": 1.0,
            "flags": [],
        },
    ]
    write_records(out, records, cfg)
    finish_meta(out, meta, trials=trials)
    print(f"localization rate {stats.p_hat:.4f}; audit pass rate {audits_ok / trials:.4f}")
    return EXIT_OK


def cmd_ggsp(cfg: dict, out: Path, args) -> int:
    meta = start_meta(out, cfg, "ggsp")
    seed = resolve_seed(args, cfg)
    params, graph = build_instance(cfg, out, seed)
    if graph is None:
        raise UsageError("ggsp needs a scaled (materializable) instance")
    algorithm = cfg.get("algorithm", "echo-first-input")
    if algorithm == "ground-state-cheat":
        algorithm = explorer.GroundStateCheat()
    trials = int(args.trials or cfg.get("trials", 200))
    t_inputs = int(cfg.get("t", 4))
    budget = int(args.budget or cfg.get("budget", 32))
    threshold = int(cfg.get("threshold", max(2, params.girth_floor // 2)))
    guiding = cfg.get("guiding", "exact-ground-state")
    report = explorer.ggsp_experiment(
        oracle_maker(graph, cfg), guiding, algorithm, trials, t_inputs, budget, threshold, seed
    )
    (out / "trials.jsonl").write_text(jsonl(report.trial_rows))
    lb = bounds_mod.localization_bound(
        t_inputs, params.expander_degree, threshold, graph.expander.N
    )
    records = [
        {
            "experiment": "ggsp",
            "metric": f"localization_rate[{report.algorithm}]",
            "value": report.localization.p_hat,
            "stderr": report.localization.stderr,
            "bound": lb.value,
            "flags": list(lb.flags),
        },
        {
            "experiment": "ggsp",
            "metric": "budget_failures",
            "value": report.budget_failures,
            "stderr": 0.0,
            "bound": None,
            "flags": [],
        },
    ]
    write_records(out, records, cfg)
    finish_meta(out, meta, trials=trials)
    print(
        f"{report.algorithm}: localization {report.localization.p_hat:.4f} "
        f"(bound floor {lb.value:.4f}), budget failures {report.budget_failures}"
    )
    return EXIT_OK


def cmd_bounds(cfg: dict, out: Path, args) -> int:
    meta = start_meta(out, cfg, "bounds")
    requests = _require(cfg, "bounds", "config")
    records = []
    for req in requests:
        name = _require(req, "name", "bounds entry")
        if name == "avoidance":
            rep = bounds_mod.avoidance_bound(
                req["d_k"], req["d_km1"], req["l_k"], req["l_km1"], req.get("w", 2)
            )
        elif name == "recursion":
            sched = build_schedule(req)
            reports = bounds_mod.recursion_bound(sched, req["q_schedule"], req.get("w", 2))
            rep = reports[-1]
        elif name == "closed-form":
            rep = bounds_mod.closed_form_exit_bound(req["n"], req["k"])
        elif name == "localization":
            rep = bounds_mod.localization_bound(
                req["u_size"], req["degree"], req["g"], req["n_e"]
            )
        elif name == "tv-budget":
            rep = bounds_mod.tv_budget_report(req["fidelity"], req["tv"])
        elif name == "gap-sum":
            rep = bounds_mod.gap_sum_bound(req["delta"], req["gamma"])
        elif name == "alpha":
            rep = bounds_mod.alpha_bounds(
                req["lambda_e"], req["max_degree"], req["beta"], req["tree_count"]
            )
        else:
            raise UsageError(f"unknown bound name {name!r}")
        records.append(
            {
                "experiment": "bounds",
                "metric": rep.name,
                "value": rep.value,
                "stderr": 0.0,
                "bound": rep.value,
                "bound_log2": rep.log2_value,
                "flags": list(rep.flags),
            }
        )
    write_records(out, records, cfg)
    finish_meta(out, meta)
    for rec in records:
        print(f"{rec['metric']}: {rec['value']:.6g} (log2={rec['bound_log2']}) {rec['flags']}")
    return EXIT_OK


def cmd_verify_small(cfg: dict, out: Path, args) -> int:
    meta = start_meta(out, cfg, "verify-small")
    seed = resolve_seed(args, cfg)
    planted = bool(cfg.get("planted_defect", False))
    checks = run_verification_suite(seed=seed, planted_defect=planted)
    records = [
        {
            "experiment": "verify-small",
            "metric": c["name"],
            "value": c["measured"],
            "stderr": 0.0,
            "bound": c["threshold"],
            "flags": [] if c["passed"] else ["FAILED"],
        }
        for c in checks
    ]
    write_records(out, records, cfg)
    ok = all(c["passed"] for c in checks)
    finish_meta(out, meta, status="pass" if ok else "fail")
    for c in checks:
        print(
            f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: "
            f"measured {c['measured']:.3g} vs threshold {c['threshold']:.3g}"
        )
    return EXIT_OK if ok else EXIT_CERTIFICATION


def run_verification_suite(seed: int = 0, planted_defect: bool = False) -> list:
    """Brute-force equivalence suite on a small fixed instance."""
    import numpy as np

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

    import random as _random

    exact = spectral.exact_distribution(solution, mat)
    sampler = spectral.GroundStateSampler(solution, seed=derive_seed("verify", seed))
    counts = {}
    n_samples = 20000
    for _ in range(n_samples):
        v = sampler.sample()
        counts[v] = counts.get(v, 0) + 1
    emp = np.array([counts.get(v, 0) / n_samples for v in mat.vertices])
    check("sampler-tv-distance", 0.5 * float(np.abs(emp - exact).sum()), 0.05)

    orc = oracle_mod.build_oracle(graph, derive_key("verify", seed), padding_ratio=2.0 ** -6)
    rng = _random.Random(seed)
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


def cmd_report(cfg: dict, out: Path, args) -> int:
    src = Path(cfg.get("dir") or out)
    records = read_jsonl(src / "records.jsonl")
    if not records:
        raise UsageError(f"no records.jsonl under {src}")
    write_summary_csv(out, records)
    width = max(len(r["metric"]) for r in records)
    for r in records:
        bound = r.get("bound")
        bound_txt = f" bound={bound:.5g}" if isinstance(bound, (int, float)) else ""
        print(f"{r['metric']:<{width}}  value={r['value']:.6g}{bound_txt}  {';'.join(r.get('flags', []))}")
    return EXIT_OK


COMMANDS = {
    "gen-expander": cmd_gen_expander,
    "certify": cmd_certify,
    "spectrum": cmd_spectrum,
    "sample-ground": cmd_sample_ground,
    "explore-tree": cmd_explore_tree,
    "explore-graph": cmd_explore_graph,
    "ggsp": cmd_ggsp,
    "bounds": cmd_bounds,
    "verify-small": cmd_verify_small,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapwalk",
        description="Decorated-expander experiments: spectra, oracles, exploration bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        out = resolve_out(args, cfg)
        return COMMANDS[args.command](cfg, out, args)
    except (
        UsageError,
        graph_model.ScheduleError,
        bounds_mod.BoundDomainError,
        explorer.UnknownStrategyError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except expander_gen.GenerationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
