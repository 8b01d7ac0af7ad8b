"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured numbers and wall time (run with `pytest -v -s` to see them).

Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from gapwalk import (
    bounds as bd,
    cli,
    expander_gen as eg,
    explorer as ex,
    graph_model as gm,
    oracle as orc,
    spectral as sp,
)
from gapwalk._util import derive_key, derive_seed

PHI = (1 + math.sqrt(5)) / 2


def _report(num, name, ok, detail, elapsed, budget):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.1f}s of {budget}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


# -- 1: golden-ratio fixture ---------------------------------------------------

def test_criterion_1_golden_ratio_fixture():
    t0 = time.perf_counter()
    single = gm.Schedule((2,), (0,))
    sol = sp.solve_top_eigenvalue(1.0, [sp.AttachedTree(single, 1, 1)])
    err = abs(sol.top_eigenvalue - PHI)
    dense = sp.dense_top_eigenpair([[1], [0, 2], [1, 3], [2]]).lambda1
    dense_err = abs(sol.top_eigenvalue - dense)
    elapsed = time.perf_counter() - t0
    _report(1, "golden-ratio", err <= 1e-9 and dense_err <= 1e-9,
            f"|lambda-phi|={err:.2e}, |lambda-dense|={dense_err:.2e}", elapsed, 1.0)


# -- 2: brute-force spectral equivalence ----------------------------------------

def _criterion2_instances():
    petersen = eg.petersen()
    cubic30, _ = eg.generate_certified(30, 3, gap_min=0.1, girth_min=4, seed=101)
    cubic50, _ = eg.generate_certified(50, 3, gap_min=0.1, girth_min=4, seed=102)
    k8 = eg.complete_graph(8)
    specs = [
        (petersen, (4, 3), (1, 2)),
        (petersen, (5, 4, 3), (1, 2, 3)),
        (petersen, (5, 4, 3), (2, 3, 4)),
        (cubic30, (5, 4, 3), (1, 2, 3)),
        (cubic50, (4, 3), (1, 3)),
        (k8, (8, 7), (1, 2)),
    ]
    for core, degrees, depths in specs:
        params = gm.GraphParams.scaled(degrees, depths, expander_size=core.N)
        yield gm.MainGraph(params, core)


def test_criterion_2_dense_equivalence():
    t0 = time.perf_counter()
    worst_lam = worst_amp = worst_uniform = 0.0
    count = 0
    total_vertices = 0
    for graph in _criterion2_instances():
        assert graph.schedule.levels <= 3
        sol = sp.solve_for_instance(graph)
        mat = gm.materialize(graph)
        total_vertices += mat.n
        assert mat.n <= 20_000
        ref = sp.dense_top_eigenpair(mat.adjacency)
        exp_idx = range(graph.expander.N)  # a core vertex's index is its core index
        dense = ref.vector / np.mean(ref.vector[exp_idx])
        mine = sp.assemble_amplitudes(sol, mat)
        worst_lam = max(worst_lam, abs(sol.top_eigenvalue - ref.lambda1) / abs(ref.lambda1))
        worst_amp = max(worst_amp, float(np.max(np.abs(mine - dense) / np.abs(dense))))
        worst_uniform = max(worst_uniform, float(np.max(np.abs(dense[exp_idx] - 1.0))))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = count >= 5 and worst_lam <= 1e-8 and worst_amp <= 1e-8 and worst_uniform <= 1e-8
    _report(2, "dense-equivalence", ok,
            f"{count} instances ({total_vertices} vertices total), "
            f"lam_err={worst_lam:.2e}, amp_err={worst_amp:.2e}, uniformity={worst_uniform:.2e}",
            elapsed, 120.0)


# -- 3: standard-family spectral arithmetic -------------------------------------

def test_criterion_3_standard_grid():
    t0 = time.perf_counter()
    C = 2.0
    in_bounds = True
    trend = []
    for n in (16, 25, 36):
        sol = sp.solve_for_params(gm.GraphParams.standard(n))
        lo, hi = n - 2 * math.sqrt(2 * n), n + 4
        in_bounds &= all(lo <= a <= hi for a in sol.loop_weights)
        split = sp.norm_decomposition(sol)
        trend.append(split.one_minus_ratio * n)
    elapsed = time.perf_counter() - t0
    ok = in_bounds and max(trend) <= C
    _report(3, "standard-grid", ok,
            f"alpha in bounds={in_bounds}, (1-ratio)*n={['%.3f' % t for t in trend]} <= {C}",
            elapsed, 300.0)


# -- 4: closed-form bound identities --------------------------------------------

def test_criterion_4_bound_identities():
    t0 = time.perf_counter()
    closed = bd.closed_form_exit_bound(16, 4)
    exact = closed.log2_value == -128.0
    params = gm.GraphParams.standard(16)
    reps = bd.recursion_bound(params.schedule, bd.standard_q_schedule(16), 2)
    dominated = all(
        rep.log2_value <= bd.closed_form_exit_bound(16, rep.inputs["k"]).log2_value
        for rep in reps
    )
    total, residual = bd.tv_budget(9 / 16, 1 / 5)
    tv_ok = total <= 0.87 and residual >= 1 / 10
    elapsed = time.perf_counter() - t0
    _report(4, "bound-identities", exact and dominated and tv_ok,
            f"closed(16,4) log2={closed.log2_value}, recursion<=closed={dominated}, "
            f"tv total={total:.4f} residual={residual:.4f}",
            elapsed, 1.0)


# -- 5: Monte Carlo vs analytic dominance ---------------------------------------

ACCEPTANCE_SCHEDULES = [
    # (degrees, depths, level, budget)
    ((25, 12), (1, 2), 2, 3),    # tightness row: nonvacuous avoidance 0.48
    ((4, 2), (1, 3), 2, 8),
    ((4, 2), (1, 4), 2, 8),
    ((4, 3), (1, 2), 2, 6),
    ((5, 3), (2, 4), 2, 10),
    ((6, 2), (1, 3), 2, 6),
    ((5, 4, 3), (1, 2, 3), 3, 8),
    ((6, 4, 2), (1, 2, 4), 3, 8),
    ((8, 6, 4), (2, 5, 9), 3, 16),
    ((4, 3), (8, 15), 2, 16),    # nonvacuous w=2 recursion bound 0.365
    ((9, 5), (1, 2), 2, 4),
]

TRIALS_PER_CELL = 10_000


@pytest.mark.slow
def test_criterion_5_dominance():
    t0 = time.perf_counter()
    violations = []
    tight_ok = False
    tight_detail = ""
    for degrees, depths, level, budget in ACCEPTANCE_SCHEDULES:
        sched = gm.Schedule(degrees, depths)
        q_chain = [budget / (2 ** (level - k)) for k in range(1, level + 1)]
        rec = bd.recursion_bound(sched, q_chain, 2)[level - 1]
        avoid = {
            w: bd.avoidance_bound(
                degrees[level - 1], degrees[level - 2], depths[level - 1], depths[level - 2], w,
            )
            for w in (1, 2)
        }
        best_restricted = 0.0
        for strategy in ex.EXPLORATION_STRATEGIES:
            est = ex.estimate_exit_probability(
                sched, level, strategy, budget, TRIALS_PER_CELL,
                seed=derive_seed("criterion-5", *degrees, *depths, strategy),
            )
            ceiling = min(1.0, rec.value)
            if est.exit.p_hat > ceiling + 3 * est.exit.stderr:
                violations.append((degrees, strategy, "recursion", est.exit.p_hat, ceiling))
            for w in (1, 2):
                stats = est.restricted[w]
                if stats.p_hat > min(1.0, avoid[w].value) + 3 * stats.stderr:
                    violations.append((degrees, strategy, f"avoidance w={w}", stats.p_hat, avoid[w].value))
            best_restricted = max(best_restricted, est.restricted[1].p_hat)
        if degrees == (25, 12):
            bound = avoid[1].value
            tight_ok = (not avoid[1].vacuous) and bound < 0.5 and best_restricted >= bound / 4
            tight_detail = f"tight row: best p_hat={best_restricted:.4f} vs bound {bound:.4f}"
    elapsed = time.perf_counter() - t0
    ok = not violations and tight_ok
    _report(5, "mc-dominance", ok,
            f"{len(ACCEPTANCE_SCHEDULES)} schedules x {len(ex.EXPLORATION_STRATEGIES)} strategies "
            f"x {TRIALS_PER_CELL} trials, violations={violations[:3]}, {tight_detail}",
            elapsed, 900.0)


# -- 6: localization suite -------------------------------------------------------

def test_criterion_6_localization():
    t0 = time.perf_counter()
    core, cert = eg.generate_certified(500, 3, gap_min=0.05, girth_min=4, seed=61)
    params = gm.GraphParams.scaled((4, 3), (1, 2), expander_size=500,
                                   girth_floor=int(cert.girth))
    graph = gm.MainGraph(params, core)
    solution = sp.solve_for_instance(graph)
    sampler = sp.GroundStateSampler(solution, seed=62)
    threshold = 3
    dist = gm.bfs_distances(core.adjacency, 0)  # from the root, expander vertex 0
    assert len(dist) == core.N  # a certified core is connected
    n_samples = 100_000
    hits = 0
    for _ in range(n_samples):
        v = sampler.sample()
        anchor = v.index if isinstance(v, gm.ExpanderVertex) else v.anchor
        if 1 + dist[anchor] >= threshold:
            hits += 1
    measured = hits / n_samples
    stderr = math.sqrt(measured * (1 - measured) / n_samples)
    floor = bd.localization_bound(1, 3, threshold, 500)
    sampling_ok = measured >= floor.value - 3 * stderr

    def make(key):
        return orc.LabeledOracle(graph, key, padding_ratio=2.0 ** -8)

    echo = ex.localization_experiment(
        ex.GGSP, make, "exact-ground-state", "echo-first-input",
        trials=300, inputs_per_trial=3, budget=8, threshold=threshold, seed=63,
    )
    echo_fail = 1.0 - echo.localization.p_hat
    elapsed = time.perf_counter() - t0
    ok = sampling_ok and echo_fail >= 0.99
    _report(6, "localization", ok,
            f"measured={measured:.4f} vs floor={floor.value:.4f} (3sig={3*stderr:.4f}), "
            f"echo fail rate={echo_fail:.4f}",
            elapsed, 300.0)


# -- 7: oracle hygiene -----------------------------------------------------------

def test_criterion_7_oracle_hygiene(tmp_path):
    t0 = time.perf_counter()
    # Bijectivity on 2^20 > 1e6 labels, zero collisions.
    perm = orc.FeistelPermutation(20, derive_key("acceptance-bij"))
    labels = np.arange(1 << 20, dtype=np.uint64)
    images = perm.forward_array(labels)
    bijective = len(np.unique(images)) == 1 << 20

    # Fresh-probe non-isolated hit rate within 4 sigma of the label density.
    params = gm.GraphParams.scaled((4, 3), (1, 2), expander_size=10,
                                   padding_ratio=2.0 ** -10)
    graph = gm.MainGraph(params, eg.petersen())
    o = orc.LabeledOracle(graph, derive_key("acceptance-pad"))
    n_probes = 100_000
    tr = ex.run_exploration(
        o, [o.label_of(gm.ExpanderVertex(0))], "random-probe",
        budget=n_probes + 1, seed=71,
    )
    audit = ex.component_audit(tr)
    p = o.nonisolated_fraction
    sigma = math.sqrt(p * (1 - p) * audit.fresh_probes)
    probe_ok = abs(audit.fresh_nonisolated_hits - audit.fresh_probes * p) <= 4 * sigma

    # Component audits pass across 100 seeds.
    tree = gm.TreeGraph(gm.Schedule((5, 4, 3), (1, 2, 3)), 3)
    audits_ok = True
    for seed in range(100):
        key = derive_key("acceptance-audit", seed)
        ot = orc.LabeledOracle(tree, key, padding_ratio=0.25)
        strategy = ex.EXPLORATION_STRATEGIES[seed % 4]
        t = ex.run_exploration(ot, [ot.label_of(tree.root)], strategy, budget=25, seed=seed)
        audits_ok &= ex.component_audit(t).ok

    # Full determinism: replaying one CLI experiment is byte-identical.
    cfg = tmp_path / "tree.json"
    cfg.write_text(json.dumps({
        "schedule": {"degrees": [4, 3], "depths": [1, 2]}, "level": 2,
        "strategies": ["greedy-unvisited"], "budget": 6, "trials": 500, "seed": 77,
    }))
    assert cli.main(["explore-tree", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["explore-tree", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    replay_ok = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("records.jsonl", "trials.jsonl", "summary.csv")
    )
    elapsed = time.perf_counter() - t0
    ok = bijective and probe_ok and audits_ok and replay_ok
    _report(7, "oracle-hygiene", ok,
            f"bijective={bijective}, probe hits={audit.fresh_nonisolated_hits} "
            f"(expect {audit.fresh_probes * p:.1f} +/- {4 * sigma:.1f}), "
            f"audits={audits_ok}, replay={replay_ok}",
            elapsed, 300.0)


# -- 8: expander certification ----------------------------------------------------

def test_criterion_8_expander_certification():
    t0 = time.perf_counter()
    accepted = 0
    lam_ok = True
    for seed in range(20):
        try:
            _, cert = eg.generate_certified(
                1000, 3, gap_min=0.05, girth_min=4, seed=seed, max_attempts=20
            )
        except eg.GenerationError:
            continue
        accepted += 1
        lam_ok &= abs(cert.lambda1 - 3.0) <= 1e-8
    petersen_cert = eg.certify_expander(eg.petersen(), gap_min=1.5, girth_min=5)
    petersen_ok = (
        petersen_cert is not None
        and petersen_cert.girth == 5
        and abs(petersen_cert.gap - 2.0) <= 1e-9
    )
    elapsed = time.perf_counter() - t0
    ok = accepted >= 10 and lam_ok and petersen_ok
    _report(8, "expander-certification", ok,
            f"accepted {accepted}/20 seeds, lambda1==3 within 1e-8: {lam_ok}, "
            f"petersen=(girth {petersen_cert.girth}, gap {petersen_cert.gap:.10f})",
            elapsed, 120.0)
