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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._util import NEG_INF, InputError, below, logsumexp
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


class SolverError(InputError):
    """Fixed-point bracketing or bisection failure: no spectrum for these inputs."""


class AttachedTree:
    """One family of identical trees attached to every base vertex."""

    def __init__(self, schedule: Schedule, level: int, copies: int = 1):
        schedule.check_level(level)
        if copies < 1:
            raise InputError("copies must be >= 1")
        self.schedule, self.level, self.copies = schedule, level, copies

    def norm_upper_bound(self) -> float:
        """Safe upper bound on the tree's spectral radius: 2*sqrt(d_1 - 1)."""
        return 2.0 * math.sqrt(self.schedule.degrees[0] - 1)


class _Column:
    """One table column over depths 0..depth, stored as its computed deep run.

    The recursions run from the leaf depth up and reach a bitwise fixed point;
    from there every shallower depth repeats the same float (exact, not a
    truncation), so only the run up to that point is kept.  `run[i]` is the
    value at depth `depth - i`, and `run[-1]` the value at every shallower depth.
    """

    __slots__ = ("depth", "run")

    def __init__(self, depth: int, run: list):
        self.depth = depth
        self.run = run

    def __getitem__(self, p: int) -> float:
        i = self.depth - p
        run = self.run
        return run[i] if i < len(run) else run[-1]


class _TreeTables:
    """Per-(segment level, depth) resolvent and squared-norm tables at fixed lambda.

    m[j][p]    : root resolvent of the subtree whose root is a level-j segment
                 node at depth p.
    log_S[j][p]: log of the squared norm of that subtree's eigenvector slice,
                 normalized to 1 at its own root.

    Level j reads only lower levels, so one table at level k holds the root
    resolvent of every level up to k.  Each column is a `_Column`: the depth
    recursions stop at their fixed point, so a table costs the depths before
    convergence, not the segment depths.
    """

    def __init__(self, schedule: Schedule, k: int, lam: float, with_norms: bool = True):
        if lam <= 0:
            raise SpectrumDomainError(f"lambda={lam} is not above the tree spectrum")
        self.schedule = schedule
        self.lam = lam
        self.m: dict[int, _Column] = {}
        self.log_m: dict[int, _Column] = {}
        self.log_S: dict[int, _Column] = {}
        for j in range(1, k + 1):
            self._fill_level(j, with_norms)

    def _fill_level(self, j: int, with_norms: bool):
        lam = self.lam
        b, depth, decorations = self.schedule.table[j]
        dec_sum = sum(copies * self.m[i][0] for i, copies in decorations)
        prev = 1.0 / lam
        run = [prev]
        for _ in range(depth):
            den = lam - dec_sum - b * prev
            if den <= 0.0:
                raise SpectrumDomainError(
                    f"lambda={lam} inside the spectrum of the level-{j} segment"
                )
            cur = 1.0 / den
            if cur == prev:
                break
            run.append(cur)
            prev = cur
        self.m[j] = _Column(depth, run)
        if not with_norms:
            return
        log_m = self.log_m[j] = _Column(depth, [math.log(x) for x in run])
        log_dec_S = logsumexp(
            math.log(copies) + 2.0 * self.log_m[i][0] + self.log_S[i][0] for i, copies in decorations
        )
        log_b = math.log(b) if b > 0 else NEG_INF
        prev_s, prev_m = 0.0, log_m[depth]
        srun = [prev_s]
        for p in range(depth - 1, -1, -1):
            cur = logsumexp([0.0, log_b + 2.0 * prev_m + prev_s, log_dec_S])
            m_here = log_m[p]
            if cur == prev_s and m_here == prev_m:
                break
            srun.append(cur)
            prev_s, prev_m = cur, m_here
        self.log_S[j] = _Column(depth, srun)


def root_resolvent(schedule: Schedule, k: int, lam: float) -> float:
    """Root entry of (lambda*I - A_T)^(-1) for the fully decorated level-k tree."""
    return _TreeTables(schedule, k, lam, with_norms=False).m[k][0]


class SpectralSolution:
    """Solved spectral data for a decorated instance."""

    def __init__(self, base_eigenvalue: float, beta: float, trees: tuple, top_eigenvalue: float,
                 residual: float, iterations: int, expander_size: Optional[int] = None):
        self.base_eigenvalue, self.beta, self.trees = base_eigenvalue, beta, trees
        self.top_eigenvalue, self.residual, self.iterations = top_eigenvalue, residual, iterations
        self.expander_size = expander_size
        self.__post_init__()

    def __post_init__(self):
        """Build the tables at the top eigenvalue; a method of its own, which
        `bench/tracer.py` times as `spectral.tables`."""
        self._tables = _tables(self.trees, self.top_eigenvalue, with_norms=True)
        self._level_index = {}
        for idx, tree in enumerate(self.trees):
            self._level_index.setdefault(tree.level, idx)

    def tables_for(self, tree: AttachedTree) -> _TreeTables:
        return self._tables[tree.schedule]

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


class NormSplit(NamedTuple):
    ratio: float            # |psi_core|^2 / |psi_total|^2
    one_minus_ratio: float  # computed directly, precise when tiny


def norm_decomposition(solution: SpectralSolution) -> NormSplit:
    """Split the squared eigenvector norm into the base-graph part and the total.

    The base restriction is the uniform vector on a regular base graph, so its
    squared norm is the base size; the total multiplies by (1 + x) with x the
    per-vertex tree mass, so the base share is 1 / (1 + x) at any base size.
    """
    log_x = solution.log_tree_mass() if solution.trees and solution.beta else NEG_INF  # beta 0: no tree mass
    if log_x == NEG_INF:
        ratio, one_minus = 1.0, 0.0
    elif log_x > 40.0:
        one_minus = 1.0 - math.exp(-log_x)
        ratio = math.exp(-log_x)
    else:
        x = math.exp(log_x)
        ratio = 1.0 / (1.0 + x)
        one_minus = x / (1.0 + x)
    return NormSplit(ratio, one_minus)


# ---------------------------------------------------------------------------
# fixed-point solver
# ---------------------------------------------------------------------------

def _tables(trees: Sequence[AttachedTree], lam: float, with_norms: bool) -> dict:
    """{schedule: its `_TreeTables` at lam}, each at the schedule's deepest
    attached level, which holds the root resolvent of every attached tree of
    the schedule."""
    deepest: dict = {}
    for tree in trees:
        deepest[tree.schedule] = max(tree.level, deepest.get(tree.schedule, 0))
    return {schedule: _TreeTables(schedule, k, lam, with_norms) for schedule, k in deepest.items()}


def _tree_mass_sum(trees: Sequence[AttachedTree], beta: float, lam: float) -> float:
    # An explicit float loop: `sum` compensates float sums from Python 3.12
    # on, which would move the solved eigenvalue.
    tables = _tables(trees, lam, with_norms=False)
    total = 0.0
    for tree in trees:
        total += beta * tree.copies * tables[tree.schedule].m[tree.level][0]
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
    while math.isfinite(hi) and not gap(hi) < 0.0:
        hi *= 2.0
    if not math.isfinite(hi):
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
    nonpositive-gap bracket around it.  When the fixed point lies within a
    float step of lambda_E (a base eigenvalue far above the tree spectrum), no
    such point is a float, and lambda_E itself is the bracket if gap >= 0 there.
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
    g = _try_gap(gap, lambda_e)
    if g is not None and g >= 0.0:
        return lambda_e
    raise SolverError(
        "no valid lower bracket: the fixed point is too close to the tree spectrum"
    )


def solve_for_params(params: GraphParams) -> SpectralSolution:
    """Spectral solution for the assembled family at given parameters, without
    any materialization; the base eigenvalue is the core degree d_K."""
    schedule = params.schedule
    trees = tuple(
        AttachedTree(schedule, k, copies) for k, copies in schedule.table[schedule.levels].decorations[::-1]
    )
    return solve_top_eigenvalue(float(schedule.degrees[-1]), trees, expander_size=params.expander_size)


def solve_for_instance(graph: MainGraph) -> SpectralSolution:
    solution = getattr(graph, "_spectral_cache", None)
    if solution is None:
        solution = solve_for_params(graph.params)
        graph._spectral_cache = solution
    return solution


def sampler_for_instance(graph: MainGraph) -> "GroundStateSampler":
    """The instance's ground-state sampler, built once per graph like its
    solve; callers pass their own rng to every draw, so they share no state."""
    sampler = getattr(graph, "_sampler_cache", None)
    if sampler is None:
        sampler = GroundStateSampler(solve_for_instance(graph))
        graph._sampler_cache = sampler
    return sampler


# ---------------------------------------------------------------------------
# exact ground-state sampling (never materializes the graph)
# ---------------------------------------------------------------------------

class GroundStateSampler:
    """Draws i.i.d. vertices from the squared-amplitude distribution.

    The anchor marginal is uniform by construction: `getrandbits(k)` with
    k = (n - 1).bit_length(), redrawn at or above n.  For n not a power of two
    that is `below(n)`'s own stream; for the standard family's n = 2^K it
    reads K bits once where `below` reads K + 1 and rejects half the time.

    Within an anchor the walk descends class by class, stopping at a node with
    probability 1/S(node) and entering a child subtree with probability
    m_child^2 * S_child / S(node).  Telescoping makes the draw exact.
    """

    def __init__(self, solution: SpectralSolution, seed: int = 0):
        self.solution = solution
        if solution.expander_size is None:
            raise ValueError("expander_size required (solution is not instance-bound)")
        self.expander_size = solution.expander_size
        self._anchor_bits = (self.expander_size - 1).bit_length()
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
        anchor = rng.getrandbits(self._anchor_bits)
        while anchor >= self.expander_size:
            anchor = rng.getrandbits(self._anchor_bits)
        x = rng.random() * self._anchor_total
        if x < 1.0:
            return ExpanderVertex(anchor)
        x -= 1.0
        for idx, tree, copies, weight in self._groups:
            if x < weight:
                copy = below(rng.getrandbits, copies)
                address = self._descend(tree, rng)
                return TreeVertex(anchor, tree.level, copy, address)
            x -= weight
        # Float roundoff at the top edge: retry.
        return self.sample(rng)

    def _descend(self, tree: AttachedTree, rng: random.Random) -> tuple:
        table = tree.schedule.table
        tables = self.solution.tables_for(tree)
        seg, depth = tree.level, 0
        hops = []
        while True:
            b, seg_depth, decorations = table[seg]
            if depth == seg_depth:
                return tuple(hops)
            s_here = math.exp(tables.log_S[seg][depth])
            x = rng.random() * s_here
            if x < 1.0:
                return tuple(hops)
            x -= 1.0
            core_w = b * math.exp(
                2.0 * tables.log_m[seg][depth + 1] + tables.log_S[seg][depth + 1]
            )
            if x < core_w:
                hops.append((CORE, below(rng.getrandbits, b)))
                depth += 1
                continue
            x -= core_w
            moved = False
            for lvl, c in decorations:
                w = c * math.exp(2.0 * tables.log_m[lvl][0] + tables.log_S[lvl][0])
                if x < w:
                    hops.append((DECOR, lvl, below(rng.getrandbits, c)))
                    seg, depth = lvl, 0
                    moved = True
                    break
                x -= w
            if not moved:
                # Roundoff at the group edge: treat as a stop.
                return tuple(hops)


# ---------------------------------------------------------------------------
# dense reference (brute force oracle for small instances)
# ---------------------------------------------------------------------------

class DenseEig(NamedTuple):
    lambda1: float
    lambda2: float
    vector: np.ndarray
    degenerate: bool  # top eigenvalue not simple (e.g. disconnected input)


def dense_top_eigenpair(adjacency: list) -> DenseEig:
    """Top two eigenvalues and the top eigenvector of an adjacency-list graph.

    The brute-force reference the recursion is checked against, through the
    one top-eigenpair routine `graph_model.top_eigenpairs`: dense `eigh` up to
    DENSE_EIG_LIMIT vertices and seeded Lanczos above, so a larger reference
    is not dense, but is as reproducible.  Refuses more than REFERENCE_CAP
    vertices.
    """
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
