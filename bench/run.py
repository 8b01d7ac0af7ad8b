"""gapwalk benchmark runner.

    python3 bench/run.py --workload exit-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Runs one workload (or, with `all`, each workload in its own process) against
the gapwalk sources under ./src of the checkout, driving the CLI in-process
with --threads 1.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs the same rounds untraced and then traced and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  A result file with the
environment (nproc, Python, numpy, scipy) goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"


def locate_program():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "gapwalk" / "__init__.py").is_file():
        sys.exit(f"bench: no gapwalk sources under {src}")
    sys.path.insert(0, str(src))
    import gapwalk

    if Path(gapwalk.__file__).resolve().parent != (src / "gapwalk").resolve():
        sys.exit(f"bench: imported gapwalk from {gapwalk.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def measured_seconds(ops, attr="seconds") -> float:
    return sum(getattr(op, attr) for op in ops if not op.expected_failure)


def end_to_end(wl, setup_times, rounds) -> dict:
    import figures
    import workloads

    round_s = [measured_seconds(ops) for ops in rounds]
    rates = []
    for ops in rounds:
        trial_ops = [op for op in ops if op.kind in wl.trial_kinds and not op.failed]
        rates.append(workloads.rate(sum(op.units for op in trial_ops),
                                    sum(op.seconds for op in trial_ops)))
    return {
        "setup_s": {"value": figures.median(setup_times), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
        },
        "round_s": {"value": figures.median(round_s), "unit": "s"},
        "trials_per_s": {"value": figures.median(rates), "unit": "1/s"},
    }


def run_workload(args) -> dict:
    locate_program()
    import figures
    import workloads
    from tracer import Tracer, per_layer_metrics

    work = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        run = workloads.Run(ROOT, work, args.seed)
        wl = workloads.WORKLOADS[args.workload](run)

        def traced(fn):
            run.tracer = tracer
            tracer.install()
            try:
                return fn()
            finally:
                tracer.uninstall()
                run.tracer = None

        def set_up():
            return [wl.setup(rep) for rep in range(wl.setup_reps)]

        setup_times = traced(set_up) if tracer else set_up()
        rounds, traced_rounds = [], []
        if tracer:
            # A fixed number of rounds, so per-layer counts repeat for a seed.
            rounds = [wl.round(i) for i in range(wl.trace_rounds)]
            traced_rounds = traced(lambda: [wl.round(i) for i in range(wl.trace_rounds)])
        else:
            t0 = time.perf_counter()
            while not rounds or time.perf_counter() - t0 < args.seconds:
                rounds.append(wl.round(len(rounds)))
        wl.check()

        all_ops = [op for ops in rounds + traced_rounds for op in ops]
        attempted = sum(op.attempts for op in all_ops)
        failed = sum(op.attempts for op in all_ops if op.failed)
        if tracer:
            untraced = sum(measured_seconds(ops) for ops in rounds)
            traced_s = sum(measured_seconds(ops) for ops in traced_rounds)
            metrics = per_layer_metrics(tracer, traced_s / untraced if untraced else 0.0)
            tracer.write(results / f"{args.workload}-seed{args.seed}-spans.csv.gz")
        else:
            metrics = end_to_end(wl, setup_times, rounds)
        info = wl.info([op for ops in rounds for op in ops if not op.failed])
        result = {
            "correct": not run.failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(), "rounds": len(rounds),
            "round_s": figures.summarize(measured_seconds(ops) for ops in rounds),
            "round_wall_s": figures.summarize(measured_seconds(ops, "wall") for ops in rounds),
            "setup_s": figures.summarize(setup_times), "workload_rates": info,
            "failures": run.failures, **result,
        }
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )
        for message in run.failures:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        print(f"{args.workload}: seed={args.seed} rounds={len(rounds)} "
              f"attempted={attempted} failed={failed} correct={result['correct']}")
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
        for name, value in info.items():
            print(f"  ({name:<38} {value:.6g})")
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main():
    # Single-threaded BLAS, set before numpy loads: one process, one core of work.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
