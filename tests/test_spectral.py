import math
import random
from collections import Counter

import numpy as np
import pytest

from gapwalk import expander_gen as eg, graph_model as gm, spectral as sp
from gapwalk._util import InputError, logsumexp

PHI = (1 + math.sqrt(5)) / 2

SINGLE_VERTEX = gm.Schedule((2,), (0,))


def p4_solution():
    """Base graph a single edge (top eigenvalue 1), one pendant vertex per base
    vertex; the decorated graph is the 4-path."""
    return sp.solve_top_eigenvalue(1.0, [sp.AttachedTree(SINGLE_VERTEX, 1, 1)], expander_size=2)


# -- root resolvent -----------------------------------------------------------

def test_resolvent_single_vertex():
    assert sp.root_resolvent(SINGLE_VERTEX, 1, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_resolvent_two_vertex_path():
    # Dense inverse of (2I - A) for a single edge has diagonal 2/3.
    sched = gm.Schedule((2,), (1,))
    assert sp.root_resolvent(sched, 1, 2.0) == pytest.approx(2 / 3, abs=1e-15)


def test_resolvent_star_with_two_leaves():
    sched = gm.Schedule((3,), (1,))
    assert sp.root_resolvent(sched, 1, 2.0) == pytest.approx(1.0, abs=1e-15)


def test_resolvent_matches_dense_inverse_on_decorated_tree():
    sched = gm.Schedule((5, 4, 3), (1, 2, 3))
    tree = gm.TreeGraph(sched, 3)
    mat = gm.materialize(tree)
    lam = 5.0
    a = np.zeros((mat.n, mat.n))
    for u, nbrs in enumerate(mat.adjacency):
        for v in nbrs:
            a[u, v] = 1.0
    dense = np.linalg.inv(lam * np.eye(mat.n) - a)[0, 0]
    assert sp.root_resolvent(sched, 3, lam) == pytest.approx(dense, rel=1e-12)


def test_tables_match_full_depth_recursion():
    """Every column reads, at every depth, the bits of the plain recursion run
    over the whole segment, while storing only the depths before its fixed
    point."""
    sched = gm.Schedule((5, 4, 3), (3, 40, 400))
    lam = 6.0
    tables = sp._TreeTables(sched, 3, lam)
    for j in (1, 2, 3):
        b, depth, decorations = sched.table[j]
        dec_sum = sum(copies * tables.m[i][0] for i, copies in decorations)
        m = [1.0 / lam] * (depth + 1)
        for p in range(depth - 1, -1, -1):
            m[p] = 1.0 / (lam - dec_sum - b * m[p + 1])
        log_m = [math.log(x) for x in m]
        log_dec_S = logsumexp(
            math.log(copies) + 2.0 * tables.log_m[i][0] + tables.log_S[i][0] for i, copies in decorations
        )
        log_S = [0.0] * (depth + 1)
        for p in range(depth - 1, -1, -1):
            log_S[p] = logsumexp([0.0, math.log(b) + 2.0 * log_m[p + 1] + log_S[p + 1], log_dec_S])
        for column, full in ((tables.m[j], m), (tables.log_m[j], log_m), (tables.log_S[j], log_S)):
            assert [column[p] for p in range(depth + 1)] == full
    assert len(tables.m[3].run) < 40 and len(tables.log_S[3].run) < 40


def test_resolvent_domain_error_inside_spectrum():
    sched = gm.Schedule((4, 3), (1, 2))
    with pytest.raises(sp.SpectrumDomainError):
        sp.root_resolvent(sched, 2, 0.5)


# -- fixed point --------------------------------------------------------------

def test_golden_ratio_fixture():
    sol = p4_solution()
    assert sol.top_eigenvalue == pytest.approx(PHI, abs=1e-9)
    assert sol.residual <= 1e-10 * sol.top_eigenvalue
    assert sol.loop_weights[0] == pytest.approx(PHI, abs=1e-9)


@pytest.mark.parametrize("level, copies", [(0, 1), (3, 1), (1, 0), (2, -1)])
def test_attached_tree_refuses_absent_level_or_no_copies(level, copies):
    with pytest.raises(InputError):
        sp.AttachedTree(gm.Schedule((4, 3), (1, 2)), level, copies)


def test_beta_zero_returns_base_eigenvalue():
    sol = sp.solve_top_eigenvalue(3.0, [sp.AttachedTree(SINGLE_VERTEX, 1, 1)], beta=0.0)
    assert sol.top_eigenvalue == 3.0
    assert sol.residual == 0.0


def test_fixed_point_rhs_strictly_decreasing_on_bracket():
    sched = gm.Schedule((5, 4, 3), (1, 2, 3))
    trees = [sp.AttachedTree(sched, 1, 1), sp.AttachedTree(sched, 2, 1)]
    sol = sp.solve_top_eigenvalue(3.0, trees)
    lam = sol.top_eigenvalue
    lo, hi = lam * 1.0000001, lam * 3.0
    values = []
    for i in range(100):
        x = lo + (hi - lo) * i / 99
        values.append(sum(sp.root_resolvent(sched, t.level, x) for t in trees))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_solver_residual_invariant(small_solution):
    sol = small_solution
    assert sol.residual <= 1e-10 * sol.top_eigenvalue
    # alpha_k solves alpha^(-1) = m_k(lambda_G) by construction; check consistency.
    for idx, alpha in enumerate(sol.loop_weights):
        assert alpha * sol.root_resolvent(idx) == pytest.approx(1.0, rel=1e-12)


def test_loop_weights_within_interval_when_base_clears_norm_bound():
    # Complete-graph core K8 (top eigenvalue 7) with star decorations: the
    # closed-form interval from the degree bound applies.
    from gapwalk import bounds

    sched = gm.Schedule((8, 7), (1, 2))
    trees = [sp.AttachedTree(sched, 1, 1)]
    sol = sp.solve_top_eigenvalue(7.0, trees)
    lo, hi = bounds.alpha_interval(7.0, 8.0, 1.0, 1)
    assert lo <= sol.loop_weights[0] <= hi


# -- dense equivalence --------------------------------------------------------

def _check_instance_against_dense(graph, rel_tol=1e-8):
    sol = sp.solve_for_instance(graph)
    mat = gm.materialize(graph)
    ref = sp.dense_top_eigenpair(mat)
    assert abs(sol.top_eigenvalue - ref.lambda1) <= rel_tol * abs(ref.lambda1)
    exp_idx = [mat.index[gm.ExpanderVertex(u)] for u in range(graph.expander.N)]
    dense = ref.vector / np.mean(ref.vector[exp_idx])
    mine = sp.assemble_amplitudes(sol, mat)
    assert np.max(np.abs(mine - dense) / np.abs(dense)) <= rel_tol
    assert np.max(np.abs(dense[exp_idx] - 1.0)) <= rel_tol
    return sol, mat, ref


def test_recursion_matches_dense_on_petersen_instance(small_instance):
    _check_instance_against_dense(small_instance)


def test_recursion_matches_dense_on_k8_core():
    params = gm.GraphParams.scaled((8, 7), (1, 2), expander_size=8)
    graph = gm.MainGraph(params, eg.complete_graph(8))
    sol, mat, ref = _check_instance_against_dense(graph)
    # Non-vacuous inherited-gap floor: expander gap minus twice the tree norm.
    tree_norm = sp.dense_top_eigenpair(gm.materialize(gm.TreeGraph(params.schedule, 1))).lambda1
    floor = 8.0 - 2.0 * tree_norm
    assert floor > 0
    assert ref.lambda1 - ref.lambda2 >= floor - 1e-9


def test_self_loop_consistency(small_instance, small_solution):
    # Adding the solved loop weight at a tree root reproduces the instance's
    # top eigenvalue on the standalone tree.
    sol = small_solution
    for idx, tree in enumerate(sol.trees):
        mat = gm.materialize(gm.TreeGraph(tree.schedule, tree.level))
        a = np.zeros((mat.n, mat.n))
        for u, nbrs in enumerate(mat.adjacency):
            for v in nbrs:
                a[u, v] = 1.0
        a[0, 0] = sol.loop_weights[idx]
        lam = np.linalg.eigvalsh(a)[-1]
        assert lam == pytest.approx(sol.top_eigenvalue, abs=1e-8)


def test_assembled_vector_eigen_residual(small_instance, small_solution, small_materialized):
    mat = small_materialized
    psi = sp.assemble_amplitudes(small_solution, mat)
    a = np.zeros((mat.n, mat.n))
    for u, nbrs in enumerate(mat.adjacency):
        for v in nbrs:
            a[u, v] = 1.0
    res = np.linalg.norm(a @ psi - small_solution.top_eigenvalue * psi)
    assert res <= 1e-8 * np.linalg.norm(psi)


def test_isolated_amplitude_is_exact_zero(small_solution):
    assert small_solution.log_amplitude(gm.IsolatedVertex(3)) == float("-inf")


# -- norms --------------------------------------------------------------------

def test_norm_split_p4():
    sol = p4_solution()
    split = sp.norm_decomposition(sol)
    expected = 2 / (2 + 2 / PHI ** 2)
    assert split.ratio == pytest.approx(expected, rel=1e-10)
    assert split.one_minus_ratio == pytest.approx(1 - expected, rel=1e-10)


def test_norm_split_beta_zero():
    sol = sp.solve_top_eigenvalue(2.0, [], expander_size=5)
    split = sp.norm_decomposition(sol)
    assert split.ratio == 1.0 and split.one_minus_ratio == 0.0


def test_norm_split_matches_dense(small_instance, small_solution, small_materialized):
    psi = sp.assemble_amplitudes(small_solution, small_materialized)
    exp_idx = [
        small_materialized.index[gm.ExpanderVertex(u)]
        for u in range(small_instance.expander.N)
    ]
    dense_ratio = float(np.sum(psi[exp_idx] ** 2) / np.sum(psi ** 2))
    split = sp.norm_decomposition(small_solution)
    assert split.ratio == pytest.approx(dense_ratio, rel=1e-10)


@pytest.mark.parametrize("root", range(4, 17))
def test_standard_family_closed_form(root):
    """On the standard family (n = root^2) every attached tree's root
    resolvent is m = 1/(n - 1), and lambda_1 = n + sqrt(n)/(sqrt(n) + 1).

    The segments are deep enough to sit at the depth recursion's fixed point.
    There every internal vertex of a level-j segment has d_j - 1 core children
    and sum_{i<j} (d_i - d_{i+1}) = d_1 - d_j decoration roots, d_1 - 1
    subtrees in all, each with the same root resolvent m; so
    1/m = lambda - (d_1 - 1) m.  A core vertex carries root - 1 attached
    levels of root = d_k - d_{k+1} copies each, n - sqrt(n) roots in all, so
    lambda = n + (n - sqrt(n)) m.  With d_1 = 2n - sqrt(n), alpha = 1/m = n - 1
    solves both: lambda = n + (n - sqrt(n))/(n - 1) = n + sqrt(n)/(sqrt(n) + 1).
    """
    n = root * root
    sol = sp.solve_for_params(gm.GraphParams.standard(n))
    assert sol.top_eigenvalue == pytest.approx(n + root / (root + 1), rel=1e-12)
    assert list(sol.loop_weights) == pytest.approx([n - 1] * (root - 1), rel=1e-12)


def test_standard_grid_loop_weights_and_norm_trend():
    for n in (16, 25):
        params = gm.GraphParams.standard(n)
        sol = sp.solve_for_params(params)
        lo, hi = n - 2 * math.sqrt(2 * n), n + 4
        assert all(lo <= a <= hi for a in sol.loop_weights)
        split = sp.norm_decomposition(sol)
        assert (split.one_minus_ratio * n) <= 2.0


# -- sampling -----------------------------------------------------------------

def test_sampler_stop_probabilities_sum_to_one(small_solution):
    sampler = sp.GroundStateSampler(small_solution, seed=0)
    sol = small_solution
    for tree in sol.trees:
        tables = sol.tables_for(tree)
        for seg in range(1, tree.level + 1):
            b, seg_depth, decorations = tree.schedule.table[seg]
            for depth in range(seg_depth):
                s_here = math.exp(tables.log_S[seg][depth])
                total = 1.0
                total += b * math.exp(
                    2 * tables.log_m[seg][depth + 1] + tables.log_S[seg][depth + 1]
                )
                for lvl, c in decorations:
                    total += c * math.exp(2 * tables.log_m[lvl][0] + tables.log_S[lvl][0])
                assert total / s_here == pytest.approx(1.0, abs=1e-12)


def test_sampler_p4_pendant_frequency():
    sol = p4_solution()
    sampler = sp.GroundStateSampler(sol, seed=7)
    n = 100_000
    inner = sum(1 for _ in range(n) if isinstance(sampler.sample(), gm.ExpanderVertex))
    p_inner_each = 1 / (2 + 2 / PHI ** 2)
    expected = 2 * p_inner_each
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(inner / n - expected) <= 4 * sigma


def test_sampler_beta_zero_uniform_over_base():
    sol = sp.solve_top_eigenvalue(2.0, [], expander_size=6)
    sampler = sp.GroundStateSampler(sol, seed=3)
    counts = Counter(sampler.sample().index for _ in range(6000))
    assert set(counts) == set(range(6))
    for c in counts.values():
        assert abs(c - 1000) <= 4 * math.sqrt(1000)


def _assert_anchors_uniform(sampler, size, n=40_000):
    anchors = Counter()
    for _ in range(n):
        v = sampler.sample()
        anchors[v.index if isinstance(v, gm.ExpanderVertex) else v.anchor] += 1
    assert set(anchors) == set(range(size))
    p = 1 / size
    sigma = math.sqrt(p * (1 - p) * n)
    for u in range(size):
        assert abs(anchors[u] - n * p) <= 4 * sigma


def test_sampler_anchor_marginal_uniform(small_solution):
    _assert_anchors_uniform(sp.GroundStateSampler(small_solution, seed=5), 10)


def test_sampler_anchor_marginal_uniform_on_power_of_two():
    """n = 16 takes the path where `randrange(n)` would read one bit more
    than the anchor draw."""
    sched = gm.Schedule((4, 3), (1, 2))
    sol = sp.solve_top_eigenvalue(3.0, [sp.AttachedTree(sched, 2, 1)], expander_size=16)
    _assert_anchors_uniform(sp.GroundStateSampler(sol, seed=5), 16)


@pytest.mark.parametrize("size", [3, 10, 2000])
def test_sampler_anchor_stream_is_randrange_off_powers_of_two(size):
    sampler = sp.GroundStateSampler(sp.solve_top_eigenvalue(2.0, [], expander_size=size))
    mine, ref = random.Random(17), random.Random(17)
    for _ in range(500):
        assert sampler.sample(mine).index == ref.randrange(size)
        ref.random()  # the draw's stop-or-descend uniform


def test_sampler_single_anchor():
    sampler = sp.GroundStateSampler(sp.solve_top_eigenvalue(2.0, [], expander_size=1), seed=2)
    assert {sampler.sample().index for _ in range(20)} == {0}


def test_sampler_total_variation_against_exact(small_instance, small_solution, small_materialized):
    exact = sp.exact_distribution(small_solution, small_materialized)
    sampler = sp.GroundStateSampler(small_solution, seed=11)
    n = 200_000
    counts = Counter(sampler.sample() for _ in range(n))
    emp = np.array([counts.get(v, 0) / n for v in small_materialized.vertices])
    tv = 0.5 * np.abs(emp - exact).sum()
    assert tv <= 0.02


def test_sampler_is_deterministic_given_seed(small_solution):
    a, b = sp.GroundStateSampler(small_solution, seed=9), sp.GroundStateSampler(small_solution, seed=9)
    assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]


# -- dense reference ----------------------------------------------------------

def test_dense_reference_p4():
    adj = [[1], [0, 2], [1, 3], [2]]
    ref = sp.dense_top_eigenpair(adj)
    assert ref.lambda1 == pytest.approx(PHI, abs=1e-12)
    assert not ref.degenerate


def test_dense_reference_single_edge():
    ref = sp.dense_top_eigenpair([[1], [0]])
    assert ref.lambda1 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(ref.vector), [math.sqrt(0.5)] * 2, atol=1e-12)


def test_dense_reference_flags_disconnected_multiplicity():
    adj = [[1], [0], [3], [2]]  # two disjoint edges: top eigenvalue is double
    ref = sp.dense_top_eigenpair(adj)
    assert ref.degenerate


def test_dense_reference_size_cap():
    with pytest.raises(gm.SizeCapError):
        sp.dense_top_eigenpair([[] for _ in range(sp.REFERENCE_CAP + 1)])
