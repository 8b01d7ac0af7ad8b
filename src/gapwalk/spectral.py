"""Exact spectral data of the decorated graph family.

The top eigenvalue of the assembled graph solves a one-dimensional fixed point:
attach trees to every vertex of a regular base graph and the eigenvalue shifts
from lambda_E to the unique root of

    lambda = lambda_E + beta * sum_t copies_t * m_t(lambda),

where m_t is the root entry of the resolvent (lambda*I - A_T)^(-1) of tree t.
For the self-similar trees here m_t is computed by the continued-fraction
recursion m = 1/(lambda - sum_children m_child), memoized per (segment level,
depth) class, so the whole stack runs in time independent of the vertex count.

Amplitudes of the top eigenvector (normalized to 1 on the base graph) follow by
multiplying one child-subtree resolvent per downward edge; they decay
geometrically with depth, so everything is carried in log domain.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ._util import NEG_INF, InputError, log1p_from_log, logsumexp
from .graph_model import (
    CORE,
    DECOR,
    ExpanderVertex,
    GraphParams,
    IsolatedVertex,
    MainGraph,
    MaterializedGraph,
    Schedule,
    SizeCapError,
    TreeVertex,
    Vertex,
    top_eigenpairs,
)

REFERENCE_CAP = 20000


class SpectrumDomainError(ValueError):
    """Resolvent evaluated at or below the tree spectrum (nonpositive denominator)."""


class SolverError(RuntimeError):
    """Fixed-point bracketing or bisection failure."""


@dataclass(frozen=True)
class AttachedTree:
    """One family of identical trees attached to every base vertex."""

    schedule: Schedule
    level: int
    copies: int = 1

    def __post_init__(self):
        self.schedule._check_level(self.level)
        if self.copies < 1:
            raise InputError("copies must be >= 1")

    def norm_upper_bound(self) -> float:
        """Safe upper bound on the tree's spectral radius: 2*sqrt(d_1 - 1)."""
        return 2.0 * math.sqrt(self.schedule.degrees[0] - 1)


class _TreeTables:
    """Per-(segment level, depth) resolvent and squared-norm tables at fixed lambda.

    m[j][p]    : root resolvent of the subtree whose root is a level-j segment
                 node at depth p.
    log_S[j][p]: log of the squared norm of that subtree's eigenvector slice,
                 normalized to 1 at its own root.

    The depth recursions converge geometrically; once two consecutive values
    agree bitwise every shallower depth repeats the same float, so the loop
    fills and stops early (exact, not a truncation).
    """

    def __init__(self, schedule: Schedule, k: int, lam: float, with_norms: bool = True):
        if lam <= 0:
            raise SpectrumDomainError(f"lambda={lam} is not above the tree spectrum")
        self.schedule = schedule
        self.k = k
        self.lam = lam
        self.m: dict[int, list[float]] = {}
        self.log_m: dict[int, list[float]] = {}
        self.log_S: dict[int, list[float]] = {}
        for j in range(1, k + 1):
            self._fill_level(j, with_norms)

    def _fill_level(self, j: int, with_norms: bool):
        sched, lam = self.schedule, self.lam
        b = sched.branching(j)
        depth = sched.depth(j)
        dec_sum = sum(
            sched.decoration_count(i) * self.m[i][0] for i in sched.decoration_levels(j)
        )
        arr = [0.0] * (depth + 1)
        arr[depth] = 1.0 / lam
        prev = arr[depth]
        for p in range(depth - 1, -1, -1):
            den = lam - dec_sum - b * prev
            if den <= 0.0:
                raise SpectrumDomainError(
                    f"lambda={lam} inside the spectrum of the level-{j} segment"
                )
            cur = 1.0 / den
            arr[p] = cur
            if cur == prev:
                for q in range(p - 1, -1, -1):
                    arr[q] = cur
                break
            prev = cur
        self.m[j] = arr
        self.log_m[j] = [math.log(x) for x in arr]
        if not with_norms:
            return
        log_dec_S = logsumexp(
            math.log(sched.decoration_count(i)) + 2.0 * self.log_m[i][0] + self.log_S[i][0]
            for i in sched.decoration_levels(j)
        )
        log_b = math.log(b) if b > 0 else NEG_INF
        sarr = [0.0] * (depth + 1)
        prev_s = 0.0
        prev_m = self.log_m[j][depth]
        for p in range(depth - 1, -1, -1):
            cur = logsumexp([0.0, log_b + 2.0 * prev_m + prev_s, log_dec_S])
            sarr[p] = cur
            if cur == prev_s and self.log_m[j][p] == prev_m:
                for q in range(p - 1, -1, -1):
                    sarr[q] = cur
                break
            prev_s = cur
            prev_m = self.log_m[j][p]
        self.log_S[j] = sarr

    def root_resolvent(self) -> float:
        return self.m[self.k][0]


def root_resolvent(schedule: Schedule, k: int, lam: float) -> float:
    """Root entry of (lambda*I - A_T)^(-1) for the fully decorated level-k tree."""
    return _TreeTables(schedule, k, lam, with_norms=False).root_resolvent()


def tree_spectral_radius(schedule: Schedule, k: int) -> float:
    """Top eigenvalue of the level-k tree, located to relative width 1e-13 by
    bisection on the validity of the resolvent recursion (valid iff lambda is
    above the spectrum)."""
    hi = 2.0 * math.sqrt(schedule.degrees[0] - 1) + 1.0
    lo = 0.0
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        try:
            _TreeTables(schedule, k, mid, with_norms=False)
            hi = mid
        except SpectrumDomainError:
            lo = mid
    return hi


@dataclass
class SpectralSolution:
    """Solved spectral data for a decorated instance."""

    base_eigenvalue: float
    beta: float
    trees: tuple
    top_eigenvalue: float
    residual: float
    iterations: int
    expander_size: Optional[int] = None

    def __post_init__(self):
        self._tables: dict = {}
        for tree in self.trees:
            key = (tree.schedule, tree.level)
            if key not in self._tables:
                self._tables[key] = _TreeTables(tree.schedule, tree.level, self.top_eigenvalue)
        self._level_index = {}
        for idx, tree in enumerate(self.trees):
            self._level_index.setdefault(tree.level, idx)

    def tables_for(self, tree: AttachedTree) -> _TreeTables:
        return self._tables[(tree.schedule, tree.level)]

    def root_resolvent(self, tree_index: int) -> float:
        tree = self.trees[tree_index]
        return self.tables_for(tree).m[tree.level][0]

    @property
    def loop_weights(self) -> tuple:
        """Per-tree self-loop weight alpha = 1/m making the looped tree share
        the top eigenvalue."""
        return tuple(1.0 / self.root_resolvent(i) for i in range(len(self.trees)))

    # -- amplitudes ----------------------------------------------------------

    def log_amplitude_tree(self, tree_index: int, address: tuple) -> float:
        """log of the eigenvector entry at `address` inside one attached tree,
        relative to base-vertex amplitude 1.  The empty address is the tree root."""
        tree = self.trees[tree_index]
        tables = self.tables_for(tree)
        seg, depth = tree.level, 0
        log_amp = tables.log_m[seg][0]
        for hop in address:
            if hop[0] == CORE:
                depth += 1
                log_amp += tables.log_m[seg][depth]
            else:
                seg, depth = hop[1], 0
                log_amp += tables.log_m[seg][0]
        return log_amp

    def log_amplitude(self, v: Vertex) -> float:
        """log of the top-eigenvector entry at a vertex of the assembled graph,
        normalized to 1 on the expander.  Isolated vertices return -inf (exact 0)."""
        if isinstance(v, ExpanderVertex):
            return 0.0
        if isinstance(v, IsolatedVertex):
            return NEG_INF
        if isinstance(v, TreeVertex):
            idx = self._level_index.get(v.level)
            if idx is None:
                raise ValueError(f"no attached tree at level {v.level}")
            return self.log_amplitude_tree(idx, v.address)
        raise ValueError(f"unknown vertex {v!r}")

    def amplitude(self, v: Vertex) -> float:
        return math.exp(self.log_amplitude(v))

    # -- norms ---------------------------------------------------------------

    def log_tree_mass(self) -> float:
        """log of x = beta * sum_t copies_t * m_t^2 * S_t, the per-base-vertex
        squared-norm contribution of attached trees relative to the vertex itself."""
        terms = []
        for tree in self.trees:
            tables = self.tables_for(tree)
            terms.append(
                math.log(self.beta * tree.copies)
                + 2.0 * tables.log_m[tree.level][0]
                + tables.log_S[tree.level][0]
            )
        return logsumexp(terms)


@dataclass(frozen=True)
class NormSplit:
    log_core_sq: float
    log_total_sq: float
    ratio: float            # |psi_core|^2 / |psi_total|^2
    one_minus_ratio: float  # computed directly, precise when tiny


def norm_decomposition(solution: SpectralSolution, expander_size: Optional[int] = None) -> NormSplit:
    """Split the squared eigenvector norm into the base-graph part and the total.

    The base restriction is the uniform vector on a regular base graph, so its
    squared norm is the base size; the total multiplies by (1 + x) with x the
    per-vertex tree mass.
    """
    n_e = expander_size if expander_size is not None else solution.expander_size
    if n_e is None:
        raise ValueError("expander_size required (solution is not instance-bound)")
    log_core = math.log(n_e)
    log_x = solution.log_tree_mass() if solution.trees else NEG_INF
    log_total = log_core + log1p_from_log(log_x)
    if log_x == NEG_INF:
        ratio, one_minus = 1.0, 0.0
    elif log_x > 40.0:
        one_minus = 1.0 - math.exp(-log_x)
        ratio = math.exp(-log_x)
    else:
        x = math.exp(log_x)
        ratio = 1.0 / (1.0 + x)
        one_minus = x / (1.0 + x)
    return NormSplit(log_core, log_total, ratio, one_minus)


# ---------------------------------------------------------------------------
# fixed-point solver
# ---------------------------------------------------------------------------

def _tree_mass_sum(trees: Sequence[AttachedTree], beta: float, lam: float) -> float:
    total = 0.0
    cache: dict = {}
    for tree in trees:
        key = (tree.schedule, tree.level)
        if key not in cache:
            cache[key] = root_resolvent(tree.schedule, tree.level, lam)
        total += beta * tree.copies * cache[key]
    return total


def solve_top_eigenvalue(
    lambda_e: float,
    trees: Sequence[AttachedTree],
    beta: float = 1.0,
    expander_size: Optional[int] = None,
) -> SpectralSolution:
    """Solve lambda = lambda_E + beta * sum copies * m(lambda) by bisection, to
    relative width 1e-12 within 200 halvings.

    The right side is strictly decreasing in lambda above the tree spectra, so
    the root is unique.  The lower bracket starts at max(lambda_E, 2*sqrt(d-1))
    and is walked down adaptively when the root lies below that crude norm
    bound (a real case for small bases with comparably-branchy trees); the
    upper bracket uses the closed-form ceiling when lambda_E clears the norm
    bound and geometric expansion otherwise.
    """
    trees = tuple(trees)
    if not beta >= 0:
        raise InputError(f"beta must be >= 0, got {beta}")
    if not lambda_e > 0:
        raise InputError(f"lambda_E must be positive, got {lambda_e}")
    if beta == 0 or not trees:
        return SpectralSolution(
            base_eigenvalue=lambda_e,
            beta=beta,
            trees=trees,
            top_eigenvalue=lambda_e,
            residual=0.0,
            iterations=0,
            expander_size=expander_size,
        )

    def gap(lam: float) -> float:
        return lambda_e + _tree_mass_sum(trees, beta, lam) - lam

    norm_bound = max(tree.norm_upper_bound() for tree in trees)
    total_copies = beta * sum(t.copies for t in trees)

    # Lower bracket: a valid point with gap > 0.
    lo = max(lambda_e, norm_bound) * (1.0 + 1e-12) + 1e-300
    lo_gap = _try_gap(gap, lo)
    if lo_gap is None or lo_gap <= 0.0:
        lo = _walk_down_lower(gap, lambda_e, lo)

    # Upper bracket: a point with gap < 0.
    if lambda_e > norm_bound:
        hi = lambda_e + total_copies / (lambda_e - norm_bound) + 1.0
    else:
        hi = max(lo * 2.0, lambda_e + total_copies + 1.0)
    for _ in range(200):
        if gap(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise SolverError("could not bracket the fixed point from above")

    iterations = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        iterations += 1
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    lam = 0.5 * (lo + hi)
    return SpectralSolution(
        base_eigenvalue=lambda_e,
        beta=beta,
        trees=trees,
        top_eigenvalue=lam,
        residual=abs(gap(lam)),
        iterations=iterations,
        expander_size=expander_size,
    )


def _try_gap(gap, lam: float) -> Optional[float]:
    try:
        return gap(lam)
    except SpectrumDomainError:
        return None


def _walk_down_lower(gap, lambda_e: float, start: float) -> float:
    """Find a valid lambda with gap > 0 below `start`.

    Such a point exists strictly between max(lambda_E, true tree norm) and the
    fixed point; bisect the interval (lambda_E, start] keeping an invalid /
    nonpositive-gap bracket around it.
    """
    invalid_lo = lambda_e  # below or at the left edge of the search region
    hi = start
    for _ in range(200):
        mid = 0.5 * (invalid_lo + hi)
        if mid <= lambda_e or hi - invalid_lo <= 1e-15 * max(1.0, hi):
            break
        g = _try_gap(gap, mid)
        if g is None:
            invalid_lo = mid
        elif g > 0.0:
            return mid
        else:
            hi = mid
    raise SolverError(
        "no valid lower bracket: the fixed point is too close to the tree spectrum"
    )


def solve_for_params(params: GraphParams, expander_size: Optional[int] = None) -> SpectralSolution:
    """Spectral solution for the assembled family at given parameters, without
    any materialization; the base eigenvalue is the expander degree."""
    trees = tuple(
        AttachedTree(params.schedule, k, params.schedule.decoration_count(k))
        for k in params.attached_levels()
    )
    return solve_top_eigenvalue(
        float(params.expander_degree),
        trees,
        expander_size=expander_size if expander_size is not None else params.expander_size,
    )


def solve_for_instance(graph: MainGraph) -> SpectralSolution:
    solution = getattr(graph, "_spectral_cache", None)
    if solution is None:
        solution = solve_for_params(graph.params, expander_size=graph.expander.N)
        graph._spectral_cache = solution
    return solution


def sampler_for_instance(graph: MainGraph) -> "GroundStateSampler":
    """The instance's ground-state sampler, built once per graph like its
    solve; callers pass their own rng to every draw, so they share no state."""
    sampler = getattr(graph, "_sampler_cache", None)
    if sampler is None:
        sampler = GroundStateSampler(solve_for_instance(graph), graph.expander.N)
        graph._sampler_cache = sampler
    return sampler


# ---------------------------------------------------------------------------
# exact ground-state sampling (never materializes the graph)
# ---------------------------------------------------------------------------

class GroundStateSampler:
    """Draws i.i.d. vertices from the squared-amplitude distribution.

    The anchor marginal is uniform by construction; within an anchor the walk
    descends class by class, stopping at a node with probability 1/S(node) and
    entering a child subtree with probability m_child^2 * S_child / S(node).
    Telescoping makes the draw exact.
    """

    def __init__(self, solution: SpectralSolution, expander_size: Optional[int] = None, seed: int = 0):
        self.solution = solution
        n_e = expander_size if expander_size is not None else solution.expander_size
        if n_e is None:
            raise ValueError("expander_size required")
        self.expander_size = n_e
        self.seed = seed
        # Anchor-level weights: stop weight 1, one group per attached tree family.
        self._groups = []
        for idx, tree in enumerate(solution.trees):
            copies = solution.beta * tree.copies
            if copies != int(copies):
                raise ValueError("sampling requires an integer copy count per tree family")
            tables = solution.tables_for(tree)
            per_copy = math.exp(
                2.0 * tables.log_m[tree.level][0] + tables.log_S[tree.level][0]
            )
            weight = copies * per_copy
            self._groups.append((idx, tree, int(copies), weight))
        self._anchor_total = 1.0 + sum(g[3] for g in self._groups)

    @functools.cached_property
    def _rng(self) -> random.Random:
        """The sampler's own stream, seeded on first use: callers that always
        pass an `rng` never pay for it."""
        return random.Random(self.seed)

    def sample(self, rng: Optional[random.Random] = None) -> Vertex:
        rng = rng or self._rng
        anchor = rng.randrange(self.expander_size)
        x = rng.random() * self._anchor_total
        if x < 1.0:
            return ExpanderVertex(anchor)
        x -= 1.0
        for idx, tree, copies, weight in self._groups:
            if x < weight:
                copy = rng.randrange(copies)
                address = self._descend(tree, rng)
                return TreeVertex(anchor, tree.level, copy, address)
            x -= weight
        # Float roundoff at the top edge: retry.
        return self.sample(rng)

    def _descend(self, tree: AttachedTree, rng: random.Random) -> tuple:
        sched = tree.schedule
        tables = self.solution.tables_for(tree)
        seg, depth = tree.level, 0
        hops = []
        while True:
            if depth == sched.depth(seg):
                return tuple(hops)
            s_here = math.exp(tables.log_S[seg][depth])
            x = rng.random() * s_here
            if x < 1.0:
                return tuple(hops)
            x -= 1.0
            b = sched.branching(seg)
            core_w = b * math.exp(
                2.0 * tables.log_m[seg][depth + 1] + tables.log_S[seg][depth + 1]
            )
            if x < core_w:
                hops.append((CORE, rng.randrange(b)))
                depth += 1
                continue
            x -= core_w
            moved = False
            for lvl in sched.decoration_levels(seg):
                c = sched.decoration_count(lvl)
                w = c * math.exp(2.0 * tables.log_m[lvl][0] + tables.log_S[lvl][0])
                if x < w:
                    hops.append((DECOR, lvl, rng.randrange(c)))
                    seg, depth = lvl, 0
                    moved = True
                    break
                x -= w
            if not moved:
                # Roundoff at the group edge: treat as a stop.
                return tuple(hops)

    def sample_many(self, count: int, rng: Optional[random.Random] = None) -> list:
        return [self.sample(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# dense reference (brute force oracle for small instances)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseEig:
    lambda1: float
    lambda2: float
    vector: np.ndarray
    degenerate: bool  # top eigenvalue not simple (e.g. disconnected input)


def dense_top_eigenpair(adjacency: Union[list, MaterializedGraph]) -> DenseEig:
    """Top two eigenvalues and the top eigenvector of an adjacency-list graph.

    The one top-eigenpair routine (`graph_model.top_eigenpairs`: dense up to
    DENSE_EIG_LIMIT vertices, Lanczos above); refuses more than REFERENCE_CAP
    vertices.
    """
    if isinstance(adjacency, MaterializedGraph):
        adjacency = adjacency.adjacency
    n = len(adjacency)
    if n > REFERENCE_CAP:
        raise SizeCapError(f"{n} vertices exceeds the dense-reference cap {REFERENCE_CAP}")
    if n == 1:
        return DenseEig(0.0, float("-inf"), np.ones(1), False)
    lam1, lam2, vec, _, _ = top_eigenpairs(adjacency)
    if vec.sum() < 0:
        vec = -vec
    degenerate = (lam1 - lam2) <= 1e-9 * max(1.0, abs(lam1))
    return DenseEig(lam1, lam2, vec, degenerate)


def assemble_amplitudes(solution: SpectralSolution, materialized: MaterializedGraph) -> np.ndarray:
    """Eigenvector assembled from the recursion, aligned with a materialized
    instance's canonical vertex order (expander entries equal 1)."""
    return np.array([solution.amplitude(v) for v in materialized.vertices])


def exact_distribution(solution: SpectralSolution, materialized: MaterializedGraph) -> np.ndarray:
    """Ground-state probabilities per materialized vertex."""
    amps = assemble_amplitudes(solution, materialized)
    sq = amps * amps
    return sq / sq.sum()
