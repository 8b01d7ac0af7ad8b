import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gapwalk import cli, expander_gen as eg, explorer as ex, graph_model as gm


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


# -- plumbing -----------------------------------------------------------------

def test_missing_config_is_usage_error(tmp_path, capsys):
    code = run(["spectrum", "--config", tmp_path / "nope.json", "--out", tmp_path / "o"])
    assert code == cli.EXIT_USAGE
    assert "config" in capsys.readouterr().err


def test_config_path_of_a_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["spectrum", "--config", tmp_path, "--out", out]) == cli.EXIT_USAGE
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_out_below_a_file_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", {"instance": {"mode": "standard", "n": 16}})
    assert run(["spectrum", "--config", cfg, "--out", cfg / "o"]) == cli.EXIT_USAGE
    assert "config error:" in capsys.readouterr().err


def test_invalid_schedule_is_usage_error(tmp_path):
    cfg = write_config(
        tmp_path, "bad.json",
        {"instance": {"mode": "scaled", "degrees": [3, 3], "depths": [1, 2],
                      "expander": {"petersen": True}}},
    )
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("package", ["scipy", "dataclasses"])
def test_cli_import_leaves_unloaded(package):
    """scipy is most of the package's import time; only the dense eigensolves
    and adjacency matrices load it, when they first run.  The records are
    NamedTuples and plain classes, since building a dataclass execs generated
    code at import."""
    code = f"import sys, gapwalk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "envout"))
    cfg = write_config(
        tmp_path, "s.json",
        {"instance": {"mode": "scaled", "degrees": [4, 3], "depths": [1, 2],
                      "expander": {"petersen": True}}},
    )
    assert run(["spectrum", "--config", cfg]) == cli.EXIT_OK
    assert (tmp_path / "envout" / "spectrum.json").exists()


def test_no_output_directory_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUT_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "s.json", {"instance": {"mode": "standard", "n": 16}})
    assert run(["spectrum", "--config", cfg]) == cli.EXIT_USAGE
    assert "no output directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def test_resolved_config_and_meta_written(tmp_path):
    cfg = write_config(
        tmp_path, "s.json",
        {"instance": {"mode": "scaled", "degrees": [4, 3], "depths": [1, 2],
                      "expander": {"petersen": True}}, "seed": 5},
    )
    out = tmp_path / "o"
    assert run(["spectrum", "--config", cfg, "--out", out]) == cli.EXIT_OK
    resolved = json.loads((out / "config.resolved.json").read_text())
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config_hash"] == cli.config_hash(resolved)
    assert "started" in meta and "finished" in meta
    records = (out / "records.jsonl").read_text()
    assert "timestamp" not in records


# -- gen-expander / certify ---------------------------------------------------

def test_gen_expander_deterministic_bytes(tmp_path):
    """Two runs write the same core and certificate bytes, from a dense
    certification (N=60) and from a Lanczos one (N=1000)."""
    for n in (60, 1000):
        cfg = write_config(
            tmp_path, f"g{n}.json",
            {"expander": {"N": n, "d": 3, "gap_min": 0.05, "girth_min": 4, "seed": 7}},
        )
        outs = [tmp_path / f"{n}-{side}" for side in "ab"]
        for out in outs:
            assert run(["gen-expander", "--config", cfg, "--out", out]) == cli.EXIT_OK
        for name in ("expander.txt", "expander.certificate.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (n, name)


def test_gen_expander_unreachable_thresholds_exit_2(tmp_path):
    cfg = write_config(
        tmp_path, "g.json",
        {"expander": {"N": 20, "d": 3, "gap_min": 2.9, "girth_min": 4, "seed": 1,
                      "max_attempts": 3}},
    )
    assert run(["gen-expander", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CERTIFICATION


def test_certify_petersen_fixture(tmp_path):
    (tmp_path / "petersen.txt").write_text(eg.to_text(eg.petersen()))
    cfg = write_config(
        tmp_path, "c.json",
        {"expander_file": str(tmp_path / "petersen.txt"), "gap_min": 1.5, "girth_min": 5},
    )
    out = tmp_path / "o"
    assert run(["certify", "--config", cfg, "--out", out]) == cli.EXIT_OK
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["girth"] == 5
    assert abs(cert["gap"] - 2.0) < 1e-8


def test_certify_rejection_exit_2(tmp_path):
    (tmp_path / "petersen.txt").write_text(eg.to_text(eg.petersen()))
    cfg = write_config(
        tmp_path, "c.json",
        {"expander_file": str(tmp_path / "petersen.txt"), "gap_min": 1.5, "girth_min": 6},
    )
    assert run(["certify", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CERTIFICATION


# -- spectrum -----------------------------------------------------------------

def test_spectrum_standard_mode_without_materialization(tmp_path):
    cfg = write_config(tmp_path, "p.json", {"instance": {"mode": "standard", "n": 16}})
    out = tmp_path / "o"
    assert run(["spectrum", "--config", cfg, "--out", out]) == cli.EXIT_OK
    rep = json.loads((out / "spectrum.json").read_text())
    lo, hi = 16 - 2 * math.sqrt(32), 20
    assert all(lo <= a <= hi for a in rep["alpha"])
    assert list(rep.keys()) == [
        "lambda_g", "lambda_e", "alpha", "norm_ratio", "one_minus_ratio",
        "residual", "iterations",
    ]


def test_spectrum_custom_trees_golden_ratio(tmp_path):
    cfg = write_config(
        tmp_path, "p4.json",
        {"instance": {"mode": "custom", "lambda_e": 1.0, "expander_size": 2,
                      "trees": [{"degrees": [2], "depths": [0], "copies": 1}]}},
    )
    out = tmp_path / "o"
    assert run(["spectrum", "--config", cfg, "--out", out]) == cli.EXIT_OK
    rep = json.loads((out / "spectrum.json").read_text())
    assert abs(rep["lambda_g"] - (1 + math.sqrt(5)) / 2) < 1e-9


def test_explore_tree_threads_do_not_change_results(tmp_path):
    cfg = write_config(tmp_path, "t.json", dict(TREE_CFG, trials=200))
    assert run(["explore-tree", "--config", cfg, "--out", tmp_path / "one"]) == cli.EXIT_OK
    assert run(["explore-tree", "--config", cfg, "--out", tmp_path / "two",
                "--threads", 2]) == cli.EXIT_OK
    for name in ("records.jsonl", "trials.jsonl"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_explore_tree_pool_splits_a_small_run_across_workers(tmp_path, monkeypatch, in_process_pool):
    cfg = write_config(tmp_path, "t.json", dict(TREE_CFG, strategies=["uniform-walk"], trials=10))
    assert run(["explore-tree", "--config", cfg, "--out", tmp_path / "one"]) == cli.EXIT_OK
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert run(["explore-tree", "--config", cfg, "--out", tmp_path / "three",
                "--threads", 3]) == cli.EXIT_OK
    assert (in_process_pool.workers, in_process_pool.windows) == ([3], [4, 4, 2])
    for name in ("records.jsonl", "trials.jsonl"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()


@pytest.mark.parametrize("cpus, workers, windows", [(2, 2, [5, 5]), (None, 1, [])])
def test_explore_tree_pool_has_at_most_one_worker_per_cpu(tmp_path, monkeypatch, in_process_pool,
                                                          cpus, workers, windows):
    """A fork pool starts all its workers at the first submit: --threads
    100000 must not ask for 100,000 processes."""
    cfg = write_config(tmp_path, "t.json", dict(TREE_CFG, strategies=["uniform-walk"], trials=10))
    assert run(["explore-tree", "--config", cfg, "--out", tmp_path / "one"]) == cli.EXIT_OK
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run(["explore-tree", "--config", cfg, "--out", tmp_path / "many",
                "--threads", 100000]) == cli.EXIT_OK
    assert in_process_pool.workers == ([workers] if workers > 1 else [])
    assert in_process_pool.windows == windows
    for name in ("records.jsonl", "trials.jsonl"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "many" / name).read_bytes()


def test_ggsp_writes_per_trial_records(tmp_path):
    cfg = graph_cfg(tmp_path, {"algorithm": "echo-first-input", "trials": 10,
                               "t": 2, "budget": 6, "threshold": 2,
                               "guiding": "expander-uniform"})
    out = tmp_path / "o"
    assert run(["ggsp", "--config", cfg, "--out", out]) == cli.EXIT_OK
    rows = [json.loads(l) for l in (out / "trials.jsonl").read_text().splitlines()]
    assert len(rows) == 10
    for row in rows:
        assert row["schema"] == 1
        assert set(row) >= {"trial", "seed", "strategy", "budget", "inputs",
                            "output", "query_count", "localized", "distance"}


def test_spectrum_beta_zero_instance(tmp_path):
    cfg = write_config(
        tmp_path, "z.json",
        {"instance": {"mode": "scaled", "degrees": [3], "depths": [1],
                      "expander": {"petersen": True}}},
    )
    out = tmp_path / "o"
    assert run(["spectrum", "--config", cfg, "--out", out]) == cli.EXIT_OK
    rep = json.loads((out / "spectrum.json").read_text())
    assert rep["lambda_g"] == rep["lambda_e"] == 3.0


# -- sample-ground ------------------------------------------------------------

@pytest.mark.parametrize("instance, hex_anchors", [
    ({"mode": "scaled", "degrees": [4, 3], "depths": [1, 2], "expander": {"petersen": True}}, False),
    ({"mode": "standard", "n": 16}, True),
])
def test_sample_ground_writes_rows(tmp_path, instance, hex_anchors):
    cfg = write_config(tmp_path, "s.json", {"instance": instance, "count": 50})
    out = tmp_path / "o"
    assert run(["sample-ground", "--config", cfg, "--out", out, "--trials", 2]) == cli.EXIT_OK
    rows = [json.loads(l) for l in (out / "samples.jsonl").read_text().splitlines()]
    assert [r["i"] for r in rows] == [0, 1]
    for r in rows:
        assert r["kind"] in ("expander", "tree")
        if hex_anchors:
            assert int(r["anchor"], 16) >= 0
        else:
            assert 0 <= r["anchor"] < 10


# -- explore-tree -------------------------------------------------------------

TREE_CFG = {
    "schedule": {"degrees": [4, 3], "depths": [1, 2]},
    "level": 2,
    "strategies": ["greedy-unvisited", "uniform-walk"],
    "budget": 6,
    "trials": 300,
    "seed": 12,
}


def test_explore_tree_records_join_bounds(tmp_path):
    cfg = write_config(tmp_path, "t.json", TREE_CFG)
    out = tmp_path / "o"
    assert run(["explore-tree", "--config", cfg, "--out", out]) == cli.EXIT_OK
    records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for rec in records:
        assert "bound" in rec and "bound_log2" in rec
        assert 0 <= rec["value"] <= 1
    assert (out / "summary.csv").read_text().startswith("experiment,")


def test_explore_tree_resume_no_duplicate_trials(tmp_path):
    cfg = write_config(tmp_path, "t.json", TREE_CFG)
    out = tmp_path / "o"
    assert run(["explore-tree", "--config", cfg, "--out", out]) == cli.EXIT_OK
    assert run(["explore-tree", "--config", cfg, "--out", out, "--trials", 400]) == cli.EXIT_OK
    rows = [json.loads(l) for l in (out / "trials.jsonl").read_text().splitlines()]
    keys = [(r["strategy"], r["trial"]) for r in rows]
    assert len(keys) == len(set(keys)) == 800


def test_explore_tree_replay_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "t.json", TREE_CFG)
    assert run(["explore-tree", "--config", cfg, "--out", tmp_path / "a"]) == cli.EXIT_OK
    assert run(["explore-tree", "--config", cfg, "--out", tmp_path / "b"]) == cli.EXIT_OK
    for name in ("records.jsonl", "trials.jsonl", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_explore_tree_sweep_monotone_in_depth_gap(tmp_path):
    values = []
    for i, depths in enumerate(([1, 2], [1, 3])):
        cfg = write_config(
            tmp_path, f"s{i}.json",
            {"schedule": {"degrees": [4, 2], "depths": depths}, "level": 2,
             "strategy": "greedy-unvisited", "budget": 8, "trials": 800, "seed": 3},
        )
        out = tmp_path / f"o{i}"
        assert run(["explore-tree", "--config", cfg, "--out", out]) == cli.EXIT_OK
        rec = json.loads((out / "records.jsonl").read_text().splitlines()[0])
        values.append((rec["value"], rec["stderr"]))
    assert values[1][0] <= values[0][0] + 3 * (values[0][1] + values[1][1])


# -- explore-graph / ggsp -----------------------------------------------------

def graph_cfg(tmp_path, extra):
    base = {
        "instance": {"mode": "scaled", "degrees": [4, 3], "depths": [1, 2],
                     "expander": {"petersen": True}, "padding_ratio": 0.0625},
        "seed": 8,
    }
    base.update(extra)
    return write_config(tmp_path, "g.json", base)


def test_explore_graph_records_and_audit(tmp_path):
    cfg = graph_cfg(tmp_path, {"strategy": "greedy-unvisited", "trials": 20,
                               "budget": 10, "threshold": 2, "roots": 1})
    out = tmp_path / "o"
    assert run(["explore-graph", "--config", cfg, "--out", out]) == cli.EXIT_OK
    records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
    metrics = {r["metric"].split("[")[0] for r in records}
    assert metrics == {"localization_rate", "audit_pass_rate"}
    audit = next(r for r in records if r["metric"] == "audit_pass_rate")
    assert audit["value"] == 1.0


def test_explore_graph_query_limit_exit_3(tmp_path):
    out = tmp_path / "o"
    cfg = graph_cfg(tmp_path, {"strategy": "greedy-unvisited", "trials": 20, "budget": 10})
    assert run(["explore-graph", "--config", cfg, "--out", out]) == cli.EXIT_OK
    cfg = graph_cfg(tmp_path, {"strategy": "greedy-unvisited", "trials": 50,
                               "budget": 10, "query_limit": 15})
    assert run(["explore-graph", "--config", cfg, "--out", out]) == cli.EXIT_BUDGET
    # The earlier run's results must not read as this run's.
    for name in ("trials.jsonl", "records.jsonl", "summary.csv"):
        assert not (out / name).exists(), name
    assert json.loads((out / "meta.json").read_text())["status"] == "query-limit"


@pytest.mark.parametrize("command, extra", [
    ("explore-graph", {"strategy": "greedy-unvisited", "trials": 5, "budget": 6, "threshold": 2}),
    ("ggsp", {"algorithm": "walk-from-input", "trials": 5, "t": 2, "budget": 6, "threshold": 2}),
])
def test_one_level_instance_runs(tmp_path, command, extra):
    """A core with no attached trees: every vertex is a core vertex."""
    cfg = write_config(tmp_path, "c.json", dict(
        extra, seed=8, guiding="exact-ground-state",
        instance={"mode": "scaled", "degrees": [3], "depths": [2], "expander": {"petersen": True},
                  "padding_ratio": 0.0625},
    ))
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == cli.EXIT_OK
    rows = [json.loads(l) for l in (out / "trials.jsonl").read_text().splitlines()]
    assert [r["trial"] for r in rows] == list(range(5))


def test_ggsp_echo_and_cheat(tmp_path):
    cfg = graph_cfg(tmp_path, {"algorithm": "echo-first-input", "trials": 60,
                               "t": 2, "budget": 6, "threshold": 2,
                               "guiding": "exact-ground-state"})
    out = tmp_path / "echo"
    assert run(["ggsp", "--config", cfg, "--out", out]) == cli.EXIT_OK
    rec = json.loads((out / "records.jsonl").read_text().splitlines()[0])
    assert rec["value"] <= 0.01
    cfg2 = graph_cfg(tmp_path, {"algorithm": "ground-state-cheat", "trials": 60,
                                "t": 2, "budget": 6, "threshold": 2,
                                "guiding": "exact-ground-state"})
    out2 = tmp_path / "cheat"
    assert run(["ggsp", "--config", cfg2, "--out", out2]) == cli.EXIT_OK
    rec2 = json.loads((out2 / "records.jsonl").read_text().splitlines()[0])
    assert rec2["value"] >= rec2["bound"] - 3 * rec2["stderr"]


@pytest.mark.parametrize("algorithm", ex.EXPLORATION_STRATEGIES)
def test_ggsp_runs_every_exploration_strategy(tmp_path, algorithm):
    cfg = graph_cfg(tmp_path, {"algorithm": algorithm, "trials": 5, "t": 2, "budget": 8,
                               "threshold": 2, "guiding": "exact-ground-state"})
    out = tmp_path / "o"
    assert run(["ggsp", "--config", cfg, "--out", out]) == cli.EXIT_OK
    rows = [json.loads(l) for l in (out / "trials.jsonl").read_text().splitlines()]
    assert [r["trial"] for r in rows] == list(range(5))
    assert all(r["strategy"] == algorithm and r["query_count"] <= 8 for r in rows)


# -- golden outputs -----------------------------------------------------------

PETERSEN_INSTANCE = {"mode": "scaled", "degrees": [4, 3], "depths": [1, 2],
                     "expander": {"petersen": True}, "padding_ratio": 0.0625}
GGSP_GOLDEN = {"instance": PETERSEN_INSTANCE, "trials": 20, "t": 3, "budget": 6,
               "threshold": 2, "guiding": "exact-ground-state", "seed": 8}
GRAPH_GOLDEN = {"instance": PETERSEN_INSTANCE, "strategy": "greedy-unvisited", "roots": 2,
                "guiding": "exact-ground-state", "trials": 20, "budget": 10, "threshold": 2,
                "seed": 8}
# More trials than one lockstep window (explorer.EXIT_WINDOW).
TREE_WINDOWS = {"schedule": {"degrees": [5, 4, 3], "depths": [1, 2, 3]}, "level": 3,
                "strategies": list(ex.EXPLORATION_STRATEGIES), "budget": 8, "trials": 150,
                "seed": 12}
MULTI_WINDOW = ("explore-tree:windows", "explore-graph:windows", "ggsp:echo-first-input")
# Cases first run with this many trials, then resumed to the config's count.
RESUME_FROM = {"explore-tree:resume": 101}

# SHA-256 of (records.jsonl, trials.jsonl) written by the pinned configs; a
# refactor that changes any row, byte or trial order changes these.
GOLDEN = {
    "explore-tree": (
        {"schedule": {"degrees": [4, 3], "depths": [1, 2]}, "level": 2,
         "strategies": list(ex.EXPLORATION_STRATEGIES), "budget": 6, "trials": 40, "seed": 12},
        "f5c9a087d95132d9eb9afedf58dcd7f8f2677ec6cb8c80c028146c0ed93cbf9a",
        "000ffaa98dc22b883deb5d93307b64870a3a2321ee7f6aea1b8e0918f5498e27",
    ),
    # Three levels: leaf-level and decoration classification (21 exits,
    # distinct_decorations of 0 and 1).
    "explore-tree:3-level": (
        {"schedule": {"degrees": [5, 4, 3], "depths": [1, 2, 3]}, "level": 3,
         "strategies": list(ex.EXPLORATION_STRATEGIES), "budget": 8, "trials": 40, "seed": 12},
        "d020a287d480fc7ba24587e146bbbd49c08ed672b7115ad92b7119597cf14b89",
        "61c0c2d89b9f95f9b7b0847eb5b1a81fa8f62c9c7213ae750cee71ccc50bc988",
    ),
    "explore-tree:windows": (
        TREE_WINDOWS,
        "cf502510f325b11abd4fd5e48c67aa2a764a68ede0248432908081ee2f2e5483",
        "c20adcbb2c879e61210c7be00a0aae7cee5bc3061be31d2f6efc2ef570dd6b7d",
    ),
    # Resumed at trial 101, inside the clean run's first window; each
    # strategy's trials 101-149 are appended after all first 101 rows.
    "explore-tree:resume": (
        TREE_WINDOWS,
        "cf502510f325b11abd4fd5e48c67aa2a764a68ede0248432908081ee2f2e5483",
        "7008835949b3fca28902562839bb495c4c063e49a17ecd5e58dddc912e43f136",
    ),
    "explore-graph": (
        GRAPH_GOLDEN,
        "70f7fbcf8bc51bc8e2c31686fc95353b30f8e9be8dabc6edc6217fec1edfa199",
        "f098716334d821b8101649ede08248c004454e070e2589a5df7ead6ef6303ddb",
    ),
    "explore-graph:windows": (
        dict(GRAPH_GOLDEN, trials=150),
        "a09055ed62bb11ab09810efdad5e805c35d72b4ad75b112c4a5cbf5f431af69e",
        "7fd86a7ed930e92bffa76ac9d985d43f6e91548e2ed40fe0266764e15307935f",
    ),
    # Declared fresh probes: `audit_ok` depends on the fresh flag.
    "explore-graph:random-probe": (
        {"instance": PETERSEN_INSTANCE, "strategy": "random-probe", "roots": 2,
         "guiding": "exact-ground-state", "trials": 20, "budget": 10, "threshold": 2,
         "seed": 8},
        "6df3b7ac3e949ca3e8e18334ed556026dd50020eaabf50eed115378cc4567f43",
        "25c6224724bee557424ba6c74dcb71f317f281622cd0bd83ed352fc8b5223f2e",
    ),
    # Trials 18 and 19 draw duplicate inputs: lazy root answers.
    "ggsp:frontier-bfs-random": (
        dict(GGSP_GOLDEN, algorithm="frontier-bfs-random"),
        "9a7c34c79a4beaced57dd0ca3572c1de63b8f9c3cb9fadb779ac5384ca2bc5ba",
        "a99f3e4f104fcd4f7c362348bab7c4353592f3670f5dc405ec604fc05f649782",
    ),
    # The guided-localization benchmark's algorithm, over two windows.
    "ggsp:echo-first-input": (
        dict(GGSP_GOLDEN, algorithm="echo-first-input", trials=150),
        "f9ee269582b24b051a832b41c887198ef12b19593668614da49fe89b049b0002",
        "cf86f2109fa0f31a7f3a07fa3860affc66b69582bc69794cdbc36852ab9536fe",
    ),
    "ggsp:echo-random-input": (
        dict(GGSP_GOLDEN, algorithm="echo-random-input"),
        "2102950f99647a801fd7e9f0252cf17411d94e7f01f4e6e95f487f188d432208",
        "7f8f09b9442be40943f3c04875b042edf063733b5b1150051465eb3b65ffbcf3",
    ),
    "ggsp:walk-from-input": (
        dict(GGSP_GOLDEN, algorithm="walk-from-input"),
        "b0b2f024c56301fa90ee9960e971174a6f6bf8e84050606235c63f89a6b99eb1",
        "607adc6c2e4ebd45e9a45e0fc4689426d41e66e8460c70bb32dc12b56c4a8e00",
    ),
    # A generated 200-vertex cubic core: outputs score distances 1-8, past the
    # Petersen instance's 1-3.
    "ggsp:ground-state-cheat": (
        dict(GGSP_GOLDEN, algorithm="ground-state-cheat", trials=40, threshold=5,
             instance=dict(PETERSEN_INSTANCE, expander={"generate": {"N": 200, "d": 3, "seed": 3}})),
        "82897ddcc8a6bad784c5ed311299944fe53b972ca6823a373a3d6f074aafe516",
        "bfeac77e517bbef510324845215e43aafc0cc12694a3ca8f14a5e1a2e937c644",
    ),
}


CORE_200 = "core-200.txt"  # a certified 200-vertex cubic core, read as a file core
FILE_CORE_INSTANCE = dict(PETERSEN_INSTANCE, expander={"file": CORE_200})
BENCH_SHAPE = {"instance": {"mode": "scaled", "degrees": [5, 4, 3], "depths": [1, 2, 3],
                            "expander": {"file": CORE_200}},
               "guiding": "exact-ground-state", "oracle": {"padding_ratio": 2 ** -8}, "seed": 8}
# The same contract on a `{"file": ...}` core; the path is relative (the test
# runs in its own directory), so the config hash does not depend on it.
FILE_CORE_GOLDEN = {
    "explore-graph:file-core": (
        dict(GRAPH_GOLDEN, instance=FILE_CORE_INSTANCE, trials=40),
        "3ffddeb29d8bd6a7897e15d458a13e1966fd19c32a0d81b0ea2a3cba3de3126c",
        "e40e28319c6662ae9550135413c2ba95400c8845b94c971fce578e3de4eaff63",
    ),
    "ggsp:echo-first-input:file-core": (
        dict(GGSP_GOLDEN, algorithm="echo-first-input", instance=FILE_CORE_INSTANCE, trials=40),
        "3bd547aa30b71b35f79d06dc49f03f1823aa8ba0cd8f554c3d83e26a034709f3",
        "9f36522fee20609b172210c90982d0cccefa30022301bd9bad149b0520f68075",
    ),
    # The guided-localization benchmark's shapes on the 200-vertex core:
    # three-level trees, so rows carry leaf events of levels 0-2.
    "explore-graph:bench-shape": (
        dict(BENCH_SHAPE, strategy="greedy-unvisited", roots=1, budget=64, trials=130),
        "3f17aaefbc8e09332c70b6e347ae85e5dd3b22356ed5cf02978da4f86013397d",
        "fd2ef0cc778a8648dfdabdae2bb7889554432d74b57e2ef4f6c119275b2f9f13",
    ),
    "ggsp:bench-shape": (
        dict(BENCH_SHAPE, algorithm="echo-first-input", t=4, budget=32, trials=300),
        "e2de109af40f33e4e783780ab981049516cadf9ac9cc43b2143194c2f37e9d09",
        "076b4960ad33856bbb508e734ddc1440c16ed80e20596fe5f23a4059bcf6c9cd",
    ),
}


# gen-expander's own outputs.  At seed 4 the girth-5 config rejects nine
# candidates on girth, six of them with a triangle, before the tenth certifies.
GEN_EXPANDER_GOLDEN = {
    "girth-5": (
        {"N": 100, "d": 3, "girth_min": 5}, 4,
        "58e88c1069c7cc834b1016eec4655727efefb2ba4373ade4400d9074c20bd7fc",
        "16822dbb724688722a884be1b3878401f748e17dcd2fdc125f8670af8a0604d5",
    ),
    "quartic": (
        {"N": 60, "d": 4, "gap_min": 0.5}, 3,
        "d302f20654e61fc3c0b6c8e13b9e143d2800460fabe4fa229b4b6f88a7954e78",
        "30868a48b99475a6eda5a9399eec07ac67bf204668c08d2a553a41fb9667793a",
    ),
    # A fixture, certified on demand and written once accepted.
    "complete-5": (
        {"complete": 5}, 0,
        "83c445703b4fb9b5f124b51e61c0b8563a83e0660a63ae7f375e9ceae43004b1",
        "b9f3b2ef0366f602a13a7a81e284233629f7471ee4e9f42d4e4e223f20dc0574",
    ),
}


# SHA-256 of (spectrum.json, records.jsonl): every solver step and the norm
# split, to the last bit of each printed float.
SPECTRUM_GOLDEN = {
    "standard-16": (
        {"mode": "standard", "n": 16},
        "93349e4f8693f88d3c7528e31107f5bccceddb58305dec963ecddbf61744249f",
        "d9ae94275f99b1e90d406fdfe506ecc75f22a96a33debfafc70794cf3727bcc1",
    ),
    "standard-36": (
        {"mode": "standard", "n": 36},
        "2970eade824ef5ba850b08952e8d8ab435adade82958fee8962778a1d09cead3",
        "dee467a27d93b9816f70d886df60405bb31022a77f4e3d6a37e4bfa2c641ad23",
    ),
    # Two levels of one schedule at different copy counts, on a base
    # eigenvalue below the trees' norm bound.
    "custom-trees": (
        {"mode": "custom", "lambda_e": 3.0, "expander_size": 10,
         "trees": [{"degrees": [4, 3], "depths": [1, 2], "level": 1, "copies": 1},
                   {"degrees": [4, 3], "depths": [1, 2], "level": 2, "copies": 3}]},
        "59c6725c39f5efd6214b46de0eb3e3bd76da201ef8ee0b672b9077e096f47537",
        "5e02a18e8a6ef8587fb8cdd88573c691e22f353fed0be4bb98753bfce6d346fd",
    ),
}


def assert_canonical_lines(path):
    """Every line is the compact, key-sorted `json.dumps` of what it reads back as."""
    for line in path.read_text().splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")), line


@pytest.mark.parametrize("case", sorted(SPECTRUM_GOLDEN))
def test_spectrum_outputs_match_golden_digests(tmp_path, case):
    instance, spectrum_sha, records_sha = SPECTRUM_GOLDEN[case]
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {"instance": instance})
    assert run(["spectrum", "--config", cfg, "--out", out]) == cli.EXIT_OK
    for name, expected in (("spectrum.json", spectrum_sha), ("records.jsonl", records_sha)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, name


@pytest.mark.parametrize("case", sorted(GEN_EXPANDER_GOLDEN))
def test_gen_expander_outputs_match_golden_digests(tmp_path, case):
    cfg, seed, core_sha, cert_sha = GEN_EXPANDER_GOLDEN[case]
    out = tmp_path / "o"
    argv = ["gen-expander", "--config", write_config(tmp_path, "c.json", {"expander": cfg}),
            "--out", out, "--seed", seed]
    assert run(argv) == cli.EXIT_OK
    for name, expected in (("expander.txt", core_sha), ("expander.certificate.json", cert_sha)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, name


@pytest.mark.parametrize("case", sorted(FILE_CORE_GOLDEN))
def test_file_core_outputs_match_golden_digests(tmp_path, monkeypatch, case):
    cfg, records_sha, trials_sha = FILE_CORE_GOLDEN[case]
    monkeypatch.chdir(tmp_path)
    core, _ = eg.generate_certified(200, 3, gap_min=0.05, girth_min=4, seed=5)
    (tmp_path / CORE_200).write_text(eg.to_text(core))
    out = tmp_path / "o"
    argv = [case.split(":")[0], "--config", write_config(tmp_path, "c.json", cfg), "--out", out]
    assert run(argv) == cli.EXIT_OK
    for name, expected in (("records.jsonl", records_sha), ("trials.jsonl", trials_sha)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, name
        assert_canonical_lines(out / name)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_digests(tmp_path, case):
    cfg, records_sha, trials_sha = GOLDEN[case]
    out = tmp_path / "o"
    command = case.split(":")[0]
    assert case not in MULTI_WINDOW or cfg["trials"] > ex.EXIT_WINDOW
    argv = [command, "--config", write_config(tmp_path, "c.json", cfg), "--out", out]
    if case in RESUME_FROM:
        assert run(argv + ["--trials", RESUME_FROM[case]]) == cli.EXIT_OK
    assert run(argv) == cli.EXIT_OK
    for name, expected in (("records.jsonl", records_sha), ("trials.jsonl", trials_sha)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, name
        assert_canonical_lines(out / name)


def test_explore_graph_query_limit_inside_a_window(tmp_path, capsys):
    """Trials 128-149 of the second window run, but only 128 and 129 fit under
    the limit: exit 3 after 130 trials, with nothing written."""
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", dict(GRAPH_GOLDEN, trials=150, query_limit=1295))
    assert run(["explore-graph", "--config", path, "--out", out]) == cli.EXIT_BUDGET
    assert "exhausted after 130 trials" in capsys.readouterr().err
    meta = json.loads((out / "meta.json").read_text())
    assert (meta["status"], meta["completed_trials"]) == ("query-limit", 130)
    assert not (out / "trials.jsonl").exists()


@pytest.mark.parametrize("command, cfg", [
    ("explore-graph", GOLDEN["explore-graph"][0]),
    ("ggsp", dict(GGSP_GOLDEN, algorithm="walk-from-input", trials=4)),
])
def test_rerun_into_same_out_rewrites_trials(tmp_path, command, cfg):
    path = write_config(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", tmp_path / "once"]) == cli.EXIT_OK
    for _ in range(2):
        assert run([command, "--config", path, "--out", tmp_path / "twice"]) == cli.EXIT_OK
    for name in ("records.jsonl", "trials.jsonl"):
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "twice" / name).read_bytes()


def test_ggsp_uses_configured_oracle_key(tmp_path):
    trials = []
    for fill in ("0", "f"):
        cfg = dict(GGSP_GOLDEN, algorithm="walk-from-input", trials=4, oracle={"key": fill * 32})
        out = tmp_path / fill
        assert run(["ggsp", "--config", write_config(tmp_path, "c.json", cfg), "--out", out]) == cli.EXIT_OK
        trials.append((out / "trials.jsonl").read_bytes())
    assert trials[0] != trials[1]


@pytest.mark.parametrize("command, cfg", [
    ("explore-graph", GOLDEN["explore-graph"][0]),
    ("ggsp", GGSP_GOLDEN),
])
@pytest.mark.parametrize("key", ["00ff", "zz" * 16, 7, ""])
def test_malformed_oracle_key_is_config_error(tmp_path, capsys, command, cfg, key):
    path = write_config(tmp_path, "c.json", dict(cfg, oracle={"key": key}))
    assert run([command, "--config", path, "--out", tmp_path / "o"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error:" in err and "oracle.key" in err


def test_explore_tree_resume_drops_torn_last_line(tmp_path):
    path = write_config(tmp_path, "t.json", dict(TREE_CFG, strategies=["uniform-walk"], trials=5))
    clean, torn = tmp_path / "clean", tmp_path / "torn"
    assert run(["explore-tree", "--config", path, "--out", clean, "--trials", 10]) == cli.EXIT_OK
    assert run(["explore-tree", "--config", path, "--out", torn]) == cli.EXIT_OK
    with open(torn / "trials.jsonl", "a") as fh:
        fh.write('{"exit":1,"stra')
    assert run(["explore-tree", "--config", path, "--out", torn, "--trials", 10]) == cli.EXIT_OK
    for name in ("records.jsonl", "trials.jsonl"):
        assert (clean / name).read_bytes() == (torn / name).read_bytes()


def test_explore_tree_resume_rejects_bad_middle_line(tmp_path, capsys):
    path = write_config(tmp_path, "t.json", dict(TREE_CFG, strategies=["uniform-walk"], trials=5))
    out = tmp_path / "o"
    assert run(["explore-tree", "--config", path, "--out", out]) == cli.EXIT_OK
    lines = (out / "trials.jsonl").read_text().splitlines(keepends=True)
    lines[2] = lines[2][:10] + "\n"
    (out / "trials.jsonl").write_text("".join(lines))
    assert run(["explore-tree", "--config", path, "--out", out, "--trials", 10]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error:" in err and "line 3" in err


@pytest.mark.parametrize("command, cfg", [
    ("explore-tree", dict(TREE_CFG, strategies=None, strategy="warp", trials=5)),
    ("explore-graph", {"instance": PETERSEN_INSTANCE, "strategy": "warp", "trials": 2}),
    ("ggsp", dict(GGSP_GOLDEN, algorithm="warp", trials=2)),
])
def test_unknown_strategy_is_config_error(tmp_path, capsys, command, cfg):
    path = write_config(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", tmp_path / "o"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error:" in err and "warp" in err
    assert "Traceback" not in err


# -- bounds / verify-small / report -------------------------------------------

def test_bounds_command(tmp_path):
    cfg = write_config(
        tmp_path, "b.json",
        {"bounds": [
            {"name": "closed-form", "n": 16, "k": 4},
            {"name": "avoidance", "d_k": 2, "d_km1": 4, "l_k": 4, "l_km1": 1, "w": 1},
            {"name": "gap-sum", "delta": 8, "gamma": 2 * math.sqrt(32)},
        ]},
    )
    out = tmp_path / "o"
    assert run(["bounds", "--config", cfg, "--out", out]) == cli.EXIT_OK
    records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
    closed = next(r for r in records if r["metric"] == "exit-closed-form")
    assert closed["bound_log2"] == -128.0
    gap = next(r for r in records if r["metric"] == "gap-sum")
    assert "vacuous" in gap["flags"]


def test_bounds_unknown_name_usage_error(tmp_path):
    cfg = write_config(tmp_path, "b.json", {"bounds": [{"name": "nonsense"}]})
    assert run(["bounds", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_USAGE


def test_verify_small_passes_by_default(tmp_path, capsys):
    assert run(["verify-small", "--out", tmp_path / "o", "--seed", 3]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert "vs threshold" in text


def test_verify_small_planted_defect_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", {"planted_defect": True})
    assert run(["verify-small", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CERTIFICATION
    text = capsys.readouterr().out
    assert "FAIL  eigen-residual" in text or "FAIL  amplitude-max-relative-error" in text


# verify-small --seed 0: every row but its value, plus the values of the exact
# (counting) rows.  The other rows come from LAPACK or from float sums, whose
# last bits another BLAS kernel or libm may move, so they are checked against
# their thresholds only.
VERIFY_SMALL_ROWS = [
    ("degree-identity", 0.5, 0.0),
    ("neighbor-duality-violations", 0.5, 0.0),
    ("lambda-relative-error", 1e-08, None),
    ("amplitude-max-relative-error", 1e-08, None),
    ("expander-marginal-nonuniformity", 1e-08, None),
    ("eigen-residual", 1e-08, None),
    ("sampler-tv-distance", 0.05, None),
    ("oracle-roundtrip-failures", 0.5, 0.0),
    ("oracle-symmetry-failures", 0.5, 0.0),
    ("negative-control-detects-perturbation", 1e-08, None),
]


def test_verify_small_records_are_pinned(tmp_path):
    out = tmp_path / "o"
    assert run(["verify-small", "--out", out, "--seed", 0]) == cli.EXIT_OK
    records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == len(VERIFY_SMALL_ROWS)
    for rec, (metric, bound, value) in zip(records, VERIFY_SMALL_ROWS):
        measured = rec.pop("value")
        assert rec == {"bound": bound, "config": "44136fa355b3", "experiment": "verify-small",
                       "flags": [], "metric": metric, "stderr": 0.0}
        if value is not None:
            assert measured == value
        elif metric.startswith("negative-control"):
            assert measured >= bound
        else:
            assert measured <= bound


def test_verify_small_degree_row_sees_a_dropped_neighbour(tmp_path, monkeypatch):
    materialize = cli.graph_model.materialize

    def drop_one(graph):
        mat = materialize(graph)
        mat.adjacency[0].pop()  # the core vertex 0 keeps d_1 - 1 neighbours
        return mat

    monkeypatch.setattr(cli.graph_model, "materialize", drop_one)
    out = tmp_path / "o"
    assert run(["verify-small", "--out", out, "--seed", 0]) == cli.EXIT_CERTIFICATION
    degree_row = json.loads((out / "records.jsonl").read_text().splitlines()[0])
    assert (degree_row["metric"], degree_row["value"], degree_row["flags"]) == ("degree-identity", 1.0, ["FAILED"])


def test_report_reads_records(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", {"instance": {"mode": "standard", "n": 16}})
    out = tmp_path / "o"
    assert run(["spectrum", "--config", cfg, "--out", out]) == cli.EXIT_OK
    assert run(["report", "--out", out]) == cli.EXIT_OK
    assert "lambda_g" in capsys.readouterr().out
    assert (out / "summary.csv").exists()


def test_report_without_records_usage_error(tmp_path):
    assert run(["report", "--out", tmp_path / "empty"]) == cli.EXIT_USAGE


GOOD_RECORD = '{"metric": "m", "value": 1.0}\n'


@pytest.mark.parametrize("records", [
    GOOD_RECORD + "not json\n",
    GOOD_RECORD + "[1, 2]\n",
    GOOD_RECORD + '{"value": 2.0}\n',
    None,  # records.jsonl is a directory
], ids=["not-json", "not-an-object", "no-metric", "a-directory"])
def test_report_refuses_a_line_that_is_not_a_records_row(tmp_path, capsys, records):
    src = tmp_path / "run"
    src.mkdir()
    if records is None:
        (src / "records.jsonl").mkdir()
    else:
        (src / "records.jsonl").write_text(records)
    assert run(["report", "--out", src]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error:" in err and "records.jsonl" in err
    assert records is None or "line 2" in err
    assert not (src / "summary.csv").exists()


# -- run directory ------------------------------------------------------------

@pytest.mark.parametrize("command, cfg, argv", [
    ("explore-tree", TREE_CFG, ["--trials", 0]),
    ("explore-tree", TREE_CFG, ["--budget", 0]),
    ("explore-tree", TREE_CFG, ["--trials", -3]),
    ("explore-graph", {"instance": PETERSEN_INSTANCE, "trials": 0, "budget": 6}, []),
    ("explore-graph", {"instance": PETERSEN_INSTANCE, "trials": 2}, ["--budget", 0]),
    ("ggsp", dict(GGSP_GOLDEN, trials=0), []),
    ("ggsp", GGSP_GOLDEN, ["--budget", -1]),
    ("sample-ground", {"instance": PETERSEN_INSTANCE, "count": 0}, []),
    ("sample-ground", {"instance": PETERSEN_INSTANCE}, ["--trials", 0]),
])
def test_count_below_one_is_config_error(tmp_path, capsys, command, cfg, argv):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", out] + argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error:" in err and "at least 1" in err
    assert not any(out.iterdir())


GRAPH_CFG = dict(GOLDEN["explore-graph"][0], trials=2)
CUSTOM_INSTANCE = {"mode": "custom", "lambda_e": 1.0, "expander_size": 2,
                   "trees": [{"degrees": [2], "depths": [0], "copies": 1}]}
# A valid instance with a ~12,000-bit vertex count.
HUGE_INSTANCE = dict(PETERSEN_INSTANCE, degrees=[28, 3], depths=[2560, 2561])


@pytest.mark.parametrize("command, cfg", [
    ("ggsp", dict(GGSP_GOLDEN, t=0)),
    ("ggsp", dict(GGSP_GOLDEN, threshold=2.5)),
    ("explore-graph", dict(GRAPH_CFG, roots=0)),
    ("explore-graph", dict(GRAPH_CFG, threshold="x")),
    ("explore-graph", dict(GRAPH_CFG, query_limit="many")),
    ("explore-tree", dict(TREE_CFG, w="two")),
    ("explore-tree", dict(TREE_CFG, level=1.5)),
    # The instance's and the core's numbers, integer or not.
    ("ggsp", dict(GGSP_GOLDEN, instance=dict(PETERSEN_INSTANCE, girth_floor="x"))),
    ("explore-graph", dict(GRAPH_CFG, instance=dict(PETERSEN_INSTANCE, padding_ratio="big"))),
    ("spectrum", {"instance": {"mode": "standard", "n": "sixteen"}}),
    ("spectrum", {"instance": dict(PETERSEN_INSTANCE, expander={"complete": "four"})}),
    ("gen-expander", {"expander": {"N": "x", "d": 3}}),
    ("gen-expander", {"expander": {"N": 20, "d": "three"}}),
    ("gen-expander", {"expander": {"N": 20, "d": 3, "seed": "s"}}),
    ("gen-expander", {"expander": {"N": 20, "d": 3, "max_attempts": "lots"}}),
    ("gen-expander", {"expander": {"N": 20, "d": 3, "gap_min": "wide"}}),
    ("gen-expander", {"expander": {"petersen": True, "girth_min": "x"}}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, lambda_e="one")}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, beta="x")}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, expander_size="two")}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, trees=[{"degrees": [2], "depths": [0], "level": "x"}])}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, trees=[{"degrees": [2], "depths": [0], "copies": "x"}])}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, trees=[{"degrees": [2], "depths": [0], "copies": 0}])}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, expander_size=0)}),
    ("gen-expander", {"expander": {"N": 20, "d": 3, "max_attempts": 0}}),
    ("gen-expander", {"expander": {"N": 20, "d": 3, "max_attempts": -3}}),
])
def test_bad_config_integer_is_config_error(tmp_path, capsys, command, cfg):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", out]) == cli.EXIT_USAGE
    assert "config error:" in capsys.readouterr().err
    assert json.loads((out / "meta.json").read_text())["status"] == "config-error"


NOT_REGULAR = "not-regular.txt"  # header "4 3 0" over two edges
BAD_EDGE = "bad-edge.txt"  # header "4 1 0", then an edge to vertex 7
ONE_VERTEX, NO_VERTEX = "one-vertex.txt", "no-vertex.txt"  # "1 0 0" and "0 0 0"
HUGE_CORE = "huge-core.txt"  # header "1000000000000000 3 0": past MAX_CORE_STUBS
NOT_UTF8_CORE = "not-utf8.txt"  # a header, then a byte that is not UTF-8


@pytest.mark.parametrize("command, cfg", [
    # Out-of-range values the library refuses.
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, lambda_e=-1)}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, beta="nan")}),
    ("spectrum", {"instance": dict(PETERSEN_INSTANCE, expander={"complete": 1})}),
    ("gen-expander", {"expander": {"N": -5, "d": 3}}),
    ("explore-tree", dict(TREE_CFG, padding_ratio=0)),
    ("explore-graph", dict(GRAPH_CFG, guiding="nonsense")),
    ("ggsp", dict(GGSP_GOLDEN, guiding="nonsense")),
    ("explore-graph", dict(GRAPH_CFG, oracle={"padding_ratio": 2})),
    ("explore-graph", dict(GRAPH_CFG, oracle={"padding_ratio": "x"})),
    ("ggsp", dict(GGSP_GOLDEN, oracle={"label_bits": "x"})),
    ("explore-graph", dict(GRAPH_CFG, instance=dict(PETERSEN_INSTANCE, expander={"file": NOT_REGULAR}))),
    ("certify", {"expander_file": NOT_REGULAR}),
    # Values read without a check.
    ("spectrum", {"instance": CUSTOM_INSTANCE, "threads": "x"}),
    ("explore-tree", dict(TREE_CFG, threads=-2)),
    ("explore-tree", dict(TREE_CFG, threads=math.inf)),  # json writes Infinity
    ("explore-tree", dict(TREE_CFG, schedule={"degrees": [math.inf, 2], "depths": [1, 2]})),
    ("explore-tree", dict(TREE_CFG, padding_ratio="x")),
    ("explore-tree", dict(TREE_CFG, schedule={"degrees": [4.5, 2], "depths": [1, 2]})),
    ("explore-tree", dict(TREE_CFG, schedule={"degrees": "42", "depths": [1, 2]})),
    ("spectrum", {"instance": dict(PETERSEN_INSTANCE, depths="12")}),
    ("explore-tree", dict(TREE_CFG, strategies=5)),
    # A label width the instance cannot use, too narrow or above MAX_LABEL_BITS.
    ("explore-graph", dict(GRAPH_CFG, oracle={"label_bits": 5})),
    ("explore-graph", dict(GRAPH_CFG, oracle={"label_bits": 63})),
    ("ggsp", dict(GGSP_GOLDEN, oracle={"label_bits": 5})),
    ("ggsp", dict(GGSP_GOLDEN, oracle={"label_bits": 63})),
    # A core file edge past N, and sections that are not JSON objects.
    ("spectrum", {"instance": dict(PETERSEN_INSTANCE, expander={"file": BAD_EDGE})}),
    ("certify", {"expander_file": BAD_EDGE}),
    ("spectrum", {"instance": [1]}),
    ("spectrum", {"instance": dict(PETERSEN_INSTANCE, expander=[1])}),
    ("explore-graph", dict(GRAPH_CFG, oracle=[1])),
    # Bounds entry values are read as integers or numbers.
    ("bounds", {"bounds": [{"name": "closed-form", "n": "x", "k": 4}]}),
    ("bounds", {"bounds": [{"name": "gap-sum", "delta": "x", "gamma": 0.1}]}),
    ("bounds", {"bounds": [{"name": "recursion", "degrees": [4, 3], "depths": [1, 2],
                            "q_schedule": ["x", 4]}]}),
    # Names that are not strings, and lists that are not lists.
    ("explore-graph", dict(GRAPH_CFG, strategy=[1])),
    ("explore-graph", dict(GRAPH_CFG, guiding=[1])),
    ("ggsp", dict(GGSP_GOLDEN, algorithm=[1])),
    ("ggsp", dict(GGSP_GOLDEN, guiding=[1])),
    ("bounds", {"bounds": [{"name": [1]}]}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, trees=5)}),
    ("bounds", {"bounds": 5}),
    # explore-tree strategy lists that repeat a name or name none, and a padding
    # ratio whose label width is past MAX_LABEL_BITS.
    ("explore-tree", dict(TREE_CFG, strategies=["uniform-walk", "uniform-walk"])),
    ("explore-tree", dict(TREE_CFG, strategies=[])),
    ("explore-tree", dict(TREE_CFG, padding_ratio=1e-30)),
    # NaN reads as a number; json writes it as NaN.
    ("explore-tree", dict(TREE_CFG, schedule={"degrees": [4, 2], "depths": [1, 3]},
                          q_schedule=[math.nan, 2])),
    ("bounds", {"bounds": [{"name": "recursion", "degrees": [4, 2], "depths": [1, 3],
                            "q_schedule": [math.nan, 2]}]}),
    ("bounds", {"bounds": [{"name": "gap-sum", "delta": math.nan, "gamma": 0.1}]}),
    # A guiding kind outside the three that input_draws knows.
    ("explore-graph", dict(GRAPH_CFG, guiding="mixture")),
    ("ggsp", dict(GGSP_GOLDEN, guiding="mixture")),
    # A core of fewer than two vertices, generated, complete or read from a file.
    ("gen-expander", {"expander": {"N": 1, "d": 0}}),
    ("gen-expander", {"expander": {"complete": 1}}),
    ("gen-expander", {"expander": {"complete": 0}}),
    ("certify", {"expander_file": ONE_VERTEX}),
    ("certify", {"expander_file": NO_VERTEX}),
    # A standard family whose exact core size would not fit in memory.
    ("spectrum", {"instance": {"mode": "standard", "n": 10**10}}),
    # A core path that names a directory.
    ("certify", {"expander_file": "."}),
    ("spectrum", {"instance": dict(PETERSEN_INSTANCE, expander={"file": "."})}),
    # A base eigenvalue whose fixed point cannot be bracketed, or that is not finite.
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, lambda_e=1e308)}),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, lambda_e=math.inf)}),
    # Integers past 2**63 - 1, and numbers past the largest float.
    ("gen-expander", {"expander": {"N": 20, "d": 3, "seed": 2**300}}),
    ("ggsp", dict(GGSP_GOLDEN, t=2**70)),
    ("explore-graph", dict(GRAPH_CFG, roots=2**70)),
    ("bounds", {"bounds": [{"name": "avoidance", "d_k": 2, "d_km1": 4, "l_k": 2**2000, "l_km1": 1}]}),
    ("bounds", {"bounds": [{"name": "tv-budget", "fidelity": 2**2000, "tv": 0.1}]}),
    # A tree or main graph whose labels need more than MAX_LABEL_BITS: a ~65-bit
    # count, and ~12,000-bit counts, past the largest float.
    ("explore-tree", dict(TREE_CFG, schedule={"degrees": [9, 5], "depths": [12, 14]})),
    ("explore-tree", dict(TREE_CFG, schedule={"degrees": [28], "depths": [2560]}, level=1)),
    ("explore-graph", dict(GRAPH_CFG, instance=HUGE_INSTANCE)),
    ("ggsp", dict(GGSP_GOLDEN, instance=HUGE_INSTANCE)),
    # More inputs or roots per trial, or samples, than the key table allows.
    ("ggsp", dict(GGSP_GOLDEN, t=cli.MAX_INPUTS + 1)),
    ("explore-graph", dict(GRAPH_CFG, roots=cli.MAX_INPUTS + 1)),
    # A tree level past the schedule.
    ("explore-tree", dict(TREE_CFG, level=3)),
    ("spectrum", {"instance": dict(CUSTOM_INSTANCE, trees=[{"degrees": [2], "depths": [0], "level": 2}])}),
    # A core whose degree is not d_K (the cubic Petersen core under d_K = 4).
    ("spectrum", {"instance": dict(PETERSEN_INSTANCE, degrees=[5, 4])}),
    # A core file whose header is past the stub cap, and one that is not UTF-8.
    ("certify", {"expander_file": HUGE_CORE}),
    ("certify", {"expander_file": NOT_UTF8_CORE}),
    ("spectrum", {"instance": dict(PETERSEN_INSTANCE, expander={"file": NOT_UTF8_CORE})}),
    # An instance mode the command does not read.
    ("sample-ground", {"instance": {"mode": "custom"}}),
    ("explore-graph", dict(GRAPH_CFG, instance={"mode": "standard", "n": 16})),
])
def test_bad_config_value_is_config_error(tmp_path, monkeypatch, capsys, command, cfg):
    monkeypatch.chdir(tmp_path)
    (tmp_path / NOT_REGULAR).write_text("4 3 0\n0 1\n2 3\n")
    (tmp_path / BAD_EDGE).write_text("4 1 0\n0 1\n2 7\n")
    (tmp_path / ONE_VERTEX).write_text("1 0 0\n")
    (tmp_path / NO_VERTEX).write_text("0 0 0\n")
    (tmp_path / HUGE_CORE).write_text("1000000000000000 3 0\n")
    (tmp_path / NOT_UTF8_CORE).write_bytes(b"10 3 0\n0 1\xff\n")
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", out]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error:" in err
    if cfg.get("instance") is HUGE_INSTANCE:  # no oracle.label_bits set: the message names the count
        assert "12181-bit vertex count needs more than 62 label bits" in err and "label_bits" not in err
    if "threads" in cfg:  # read before the run starts: nothing is written
        assert not any(out.iterdir())
    else:
        assert json.loads((out / "meta.json").read_text())["status"] == "config-error"


@pytest.mark.parametrize("command, cfg", [
    ("gen-expander", {"expander": {"complete": 10**6}}),
    ("gen-expander", {"expander": {"N": 10**9, "d": 3}}),
    ("explore-graph", dict(GRAPH_CFG, instance=dict(GRAPH_CFG["instance"],
                                                    expander={"generate": {"N": 10**9, "d": 3}}))),
])
def test_core_past_the_stub_cap_is_config_error(tmp_path, command, cfg):
    """A core with more than MAX_CORE_STUBS stubs exits 1 before its stubs or
    edges are allocated."""
    out, stderr = run_in_one_gib(tmp_path, command, cfg)
    assert "config error:" in stderr and "stubs" in stderr
    assert json.loads((out / "meta.json").read_text())["status"] == "config-error"


def run_in_one_gib(tmp_path, command, cfg):
    """(--out, stderr) of a child run with its address space capped at 1 GiB,
    so a run that allocates what it should refuse fails there, not on the
    machine; the run must exit 1."""
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from gapwalk import cli; sys.exit(cli.main(sys.argv[1:]))")
    out = tmp_path / "o"
    argv = [command, "--config", str(write_config(tmp_path, "c.json", cfg)), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == cli.EXIT_USAGE, done.stderr
    return out, done.stderr


@pytest.mark.parametrize("command, cfg", [
    ("ggsp", dict(GGSP_GOLDEN, t=10**9)),
    ("explore-graph", dict(GRAPH_CFG, roots=10**9)),
    ("sample-ground", {"instance": PETERSEN_INSTANCE, "count": 10**9}),
    ("sample-ground", {"instance": PETERSEN_INSTANCE, "count": cli.MAX_SAMPLES + 1}),
])
def test_draws_past_their_cap_are_config_errors(tmp_path, command, cfg):
    """More guiding inputs or roots per trial, or ground-state samples, than
    the key table allows exits 1 before any is drawn."""
    _, stderr = run_in_one_gib(tmp_path, command, cfg)
    assert "config error:" in stderr and "must be at most" in stderr


def test_sample_ground_writes_rows_as_drawn(tmp_path):
    """Standard-family rows carry ~21 KB anchors; 400 of them make an 8.6 MB
    file, written while the run's memory peak stays far below it."""
    cfg = write_config(tmp_path, "c.json", {"instance": {"mode": "standard", "n": 16}, "count": 400})
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        assert run(["sample-ground", "--config", cfg, "--out", out]) == cli.EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (out / "samples.jsonl").stat().st_size
    assert size > 8 << 20 and peak < 2 << 20


def test_explore_graph_runs_past_two_to_the_fifty(tmp_path):
    """A ~57-bit vertex count still fits a 62-bit label: the run ranks its
    vertices exactly and writes every trial."""
    degrees, depths = [25, 16, 3], [4, 8, 12]
    graph = gm.MainGraph(gm.GraphParams.scaled(degrees, depths, expander_size=10), eg.petersen())
    assert 50 < graph.num_nonisolated.bit_length() <= 62
    instance = dict(PETERSEN_INSTANCE, degrees=degrees, depths=depths, padding_ratio=1.0)
    cfg = write_config(tmp_path, "c.json", dict(GRAPH_CFG, instance=instance, oracle={"padding_ratio": 1.0}))
    out = tmp_path / "o"
    assert run(["explore-graph", "--config", cfg, "--out", out]) == cli.EXIT_OK
    assert len((out / "trials.jsonl").read_text().splitlines()) == GRAPH_CFG["trials"]
    assert json.loads((out / "meta.json").read_text())["status"] == "ok"


@pytest.mark.parametrize("command, cfg", [
    ("explore-tree", dict(TREE_CFG, seed=2**300)),
    ("explore-tree", dict(TREE_CFG, strateg="uniform-walk")),  # a misspelt key
    ("explore-graph", dict(GRAPH_CFG, t=2)),  # a key of another command
    ("ggsp", dict(GGSP_GOLDEN, instance=dict(PETERSEN_INSTANCE, expander={"petersen": True, "N": 10}))),
    ("report", {"dir": 5}),
    ("report", {"dir.x": "a"}),
    # Config files that are not JSON, not UTF-8, or not an object (bytes are written as they are).
    pytest.param("spectrum", b'{"instance": ', id="spectrum-not-json"),
    pytest.param("spectrum", b'{"seed": "\xff"}', id="spectrum-not-utf8"),
    ("spectrum", [1]),
])
def test_config_refused_before_the_run_leaves_out_untouched(tmp_path, capsys, command, cfg):
    """An unknown key, a seed or directory of the wrong kind, or a config file
    that is not a JSON object exits 1 before the run starts: --out keeps an
    earlier run's files as they were."""
    out = tmp_path / "o"
    out.mkdir()
    (out / "records.jsonl").write_text("an earlier run's row\n")
    if isinstance(cfg, bytes):
        (path := tmp_path / "c.json").write_bytes(cfg)
    else:
        path = write_config(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", out]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["records.jsonl"]
    assert (out / "records.jsonl").read_text() == "an earlier run's row\n"


def test_explore_tree_interruption_keeps_appended_windows(tmp_path, monkeypatch):
    path = write_config(tmp_path, "t.json", dict(TREE_CFG, strategies=["uniform-walk"], trials=300))
    clean, cut = tmp_path / "clean", tmp_path / "cut"
    assert run(["explore-tree", "--config", path, "--out", clean]) == cli.EXIT_OK
    drive, calls = ex.drive, []

    def drive_once(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return drive(*args)

    monkeypatch.setattr(ex, "drive", drive_once)
    with pytest.raises(RuntimeError):
        run(["explore-tree", "--config", path, "--out", cut])
    assert len((cut / "trials.jsonl").read_text().splitlines()) == ex.EXIT_WINDOW
    monkeypatch.setattr(ex, "drive", drive)
    assert run(["explore-tree", "--config", path, "--out", cut]) == cli.EXIT_OK
    for name in ("records.jsonl", "trials.jsonl"):
        assert (clean / name).read_bytes() == (cut / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["warp"],
    [],
    ["spectrum", "--seed", "x"],
    ["spectrum", "--colour", "red"],
])
def test_usage_error_exits_1_and_leaves_out_untouched(tmp_path, capsys, argv):
    out = tmp_path / "o"
    out.mkdir()
    (out / "records.jsonl").write_text("an earlier run's row\n")
    assert run(argv + ["--out", out]) == cli.EXIT_USAGE
    assert "usage: gapwalk" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["records.jsonl"]
    assert (out / "records.jsonl").read_text() == "an earlier run's row\n"


@pytest.mark.parametrize("command", ["explore-graph", "ggsp"])
def test_disconnected_file_core_is_config_error(tmp_path, capsys, command):
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges = k4 + [(u + 4, v + 4) for u, v in k4]
    core = tmp_path / "two-k4.txt"
    core.write_text("8 3 0\n" + "".join(f"{u} {v}\n" for u, v in edges))
    instance = dict(PETERSEN_INSTANCE, expander={"file": str(core)})
    cfg = {"explore-graph": GRAPH_GOLDEN, "ggsp": GGSP_GOLDEN}[command]  # each its own keys
    path = write_config(tmp_path, "c.json", dict(cfg, trials=5, instance=instance))
    out = tmp_path / "o"
    assert run([command, "--config", path, "--out", out]) == cli.EXIT_USAGE
    assert "config error:" in capsys.readouterr().err
    assert json.loads((out / "meta.json").read_text())["status"] == "config-error"


@pytest.mark.parametrize("flag, value", [("--seed", 99), ("--budget", 2)])
def test_explore_tree_resume_with_other_seed_or_budget_exits_1(tmp_path, capsys, flag, value):
    path = write_config(tmp_path, "t.json", dict(TREE_CFG, trials=20))
    out = tmp_path / "o"
    assert run(["explore-tree", "--config", path, "--out", out]) == cli.EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(["explore-tree", "--config", path, "--out", out, flag, value]) == cli.EXIT_USAGE
    assert "config error:" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("bad", [{"w": 3}, {"q_schedule": [6]}])
def test_explore_tree_refuses_its_bound_before_any_trial(tmp_path, capsys, bad):
    """A w or q_schedule that the recursion bound refuses exits 1 with no trial
    row appended, so the corrected rerun into the same --out is not refused as
    rows of another config."""
    out = tmp_path / "o"
    assert run(["explore-tree", "--config", write_config(tmp_path, "bad.json", dict(TREE_CFG, **bad)),
                "--out", out]) == cli.EXIT_USAGE
    assert "config error:" in capsys.readouterr().err
    assert not (out / "trials.jsonl").exists()
    good = write_config(tmp_path, "good.json", dict(TREE_CFG, w=2))
    assert run(["explore-tree", "--config", good, "--out", out]) == cli.EXIT_OK
    assert len((out / "trials.jsonl").read_text().splitlines()) == 2 * TREE_CFG["trials"]


def test_explore_tree_resume_key_ignores_trials_and_seed_source(tmp_path):
    """The config's seed and an equal --seed write the same rows: resume accepts both."""
    seeded = write_config(tmp_path, "a.json", dict(TREE_CFG, trials=10))
    unseeded = write_config(tmp_path, "b.json", {k: v for k, v in TREE_CFG.items() if k != "seed"})
    out = tmp_path / "o"
    assert run(["explore-tree", "--config", seeded, "--out", out]) == cli.EXIT_OK
    assert run(["explore-tree", "--config", unseeded, "--out", out, "--seed", 12,
                "--trials", 20, "--threads", 2]) == cli.EXIT_OK
    rows = (out / "trials.jsonl").read_text().splitlines()
    assert len(rows) == 2 * 20


def test_explore_tree_resume_key_is_pinned(tmp_path):
    """The resume key explore-tree stores for TREE_WINDOWS at seed 12 (it
    leaves out --trials): a key stored by an earlier version stays valid."""
    path = write_config(tmp_path, "c.json", TREE_WINDOWS)
    out = tmp_path / "o"
    assert run(["explore-tree", "--config", path, "--out", out, "--trials", 1]) == cli.EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    assert meta["resume_key"] == "168a20d8ceccea69ebcefaa31a1fa00343e057d993cbfad306af0d7e4dd91dca"


def _spectrum_rerun_fails(tmp_path):
    out = tmp_path / "o"
    good = write_config(tmp_path, "good.json", {"instance": {"mode": "standard", "n": 16}})
    assert run(["spectrum", "--config", good, "--out", out]) == cli.EXIT_OK
    bad = write_config(tmp_path, "bad.json", {"instance": {"mode": "standard", "n": 15}})
    assert run(["spectrum", "--config", bad, "--out", out]) == cli.EXIT_USAGE
    return out


def test_failed_rerun_leaves_no_earlier_results(tmp_path):
    out = _spectrum_rerun_fails(tmp_path)
    for name in ("spectrum.json", "records.jsonl", "summary.csv"):
        assert not (out / name).exists(), name


def test_failed_run_meta_has_status_and_matching_config_hash(tmp_path):
    out = _spectrum_rerun_fails(tmp_path)
    meta = json.loads((out / "meta.json").read_text())
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["instance"]["n"] == 15
    assert meta["status"] == "config-error"
    assert meta["config_hash"] == cli.config_hash(resolved)
    assert "finished" in meta


def test_every_command_writes_meta_with_status_and_effective_values(tmp_path):
    (tmp_path / "petersen.txt").write_text(eg.to_text(eg.petersen()))
    graph = {"instance": PETERSEN_INSTANCE, "threshold": 2, "seed": 8}
    # command -> (config, extra argv, expected meta entries)
    cases = {
        "gen-expander": ({"expander": {"petersen": True, "gap_min": 1.5, "girth_min": 5}},
                         ["--seed", 4], {"seed": 4}),
        "certify": ({"expander_file": str(tmp_path / "petersen.txt")}, [], {"seed": 0}),
        "spectrum": ({"instance": PETERSEN_INSTANCE, "seed": 2}, [], {"seed": 2}),
        "sample-ground": ({"instance": PETERSEN_INSTANCE, "count": 5}, [],
                          {"seed": 0, "trials": 5}),
        "explore-tree": (TREE_CFG, ["--trials", 4], {"seed": 12, "trials": 4, "budget": 6}),
        "explore-graph": (dict(graph, trials=3, budget=6), ["--seed", 5],
                          {"seed": 5, "trials": 3, "budget": 6}),
        "ggsp": (dict(graph, trials=3, t=2), ["--budget", 4], {"seed": 8, "trials": 3, "budget": 4}),
        "bounds": ({"bounds": [{"name": "closed-form", "n": 16, "k": 4}]}, [], {"seed": 0}),
        "verify-small": ({}, ["--seed", 3], {"seed": 3}),
    }
    assert set(cases) | {"report"} == set(cli.COMMANDS)
    for command, (cfg, argv, expected) in cases.items():
        out = tmp_path / command
        path = write_config(tmp_path, f"{command}.json", cfg)
        assert run([command, "--config", path, "--out", out] + argv) == cli.EXIT_OK, command
        meta = json.loads((out / "meta.json").read_text())
        assert meta["status"] == "ok" and meta["command"] == command
        assert {k: meta.get(k) for k in expected} == expected, command
        assert ("trials" in meta, "budget" in meta) == ("trials" in expected, "budget" in expected)
    # report only reads a run: the run's own files stay as they were.
    source = tmp_path / "spectrum"
    before = {p.name: p.read_bytes() for p in source.iterdir()}
    assert run(["report", "--out", source]) == cli.EXIT_OK
    assert {p.name: p.read_bytes() for p in source.iterdir()} == before
