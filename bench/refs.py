"""Independent references the benchmark checks gapwalk's outputs against.

Nothing here imports gapwalk.  Each function recomputes a quantity from its
definition with plain Python, numpy or scipy, so a fault in the program cannot
hide by being shared with its check.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


# ---------------------------------------------------------------------------
# continued fraction for the top eigenvalue of the decorated family
# ---------------------------------------------------------------------------

def tree_root_resolvents(degrees, depths, lam: float, levels: int) -> list:
    """Root resolvents R_1..R_levels of the fully decorated level-j trees at lam.

    A level-j node at depth p < l_j has d_j - 1 core children and, for each
    i < j, d_i - d_{i+1} pendant level-i trees; leaves (depth l_j) have no
    children.  Resolvent recursion: m = 1 / (lam - sum of child resolvents),
    evaluated over every depth without early stopping.
    """
    roots = []
    for j in range(1, levels + 1):
        branch = degrees[j - 1] - 1
        pendant = sum((degrees[i - 1] - degrees[i]) * roots[i - 1] for i in range(1, j))
        m = 1.0 / lam
        for _ in range(depths[j - 1]):
            den = lam - pendant - branch * m
            if den <= 0.0:
                raise ValueError(f"lambda={lam} is not above the level-{j} tree spectrum")
            m = 1.0 / den
        roots.append(m)
    return roots


def fixed_point_residual(lam: float, degrees, depths, lambda_e: float) -> float:
    """lambda_E + sum_k copies_k * m_k(lam) - lam, with level-k trees for
    k = 1..K-1 attached d_k - d_{k+1} times to every core vertex."""
    levels = len(degrees) - 1
    roots = tree_root_resolvents(degrees, depths, lam, levels)
    attached = sum((degrees[k - 1] - degrees[k]) * roots[k - 1] for k in range(1, levels + 1))
    return lambda_e + attached - lam


# ---------------------------------------------------------------------------
# explicit construction of the decorated graph
# ---------------------------------------------------------------------------

def read_core(path) -> list:
    """Adjacency lists of a core saved as 'N d seed' then one 'u v' edge per line."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    n = int(lines[0][0])
    adj = [[] for _ in range(n)]
    for u, v in lines[1:]:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    return adj


def petersen_core() -> list:
    adj = [[] for _ in range(10)]
    for i in range(5):
        for u, v in ((i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)):
            adj[u].append(v)
            adj[v].append(u)
    return adj


def decorated_graph(core_adj, degrees, depths):
    """(keys, edges) of the core plus its attached trees.

    Keys follow the package's documented vertex identities: ("e", index) for
    a core vertex and ("t", anchor, level, copy, address) for a tree vertex,
    where an address is a tuple of ("c", child) and ("d", level, slot) hops.
    """
    K = len(degrees)
    keys = [("e", u) for u in range(len(core_adj))]
    edges = [(u, v) for u, nbrs in enumerate(core_adj) for v in nbrs if u < v]
    for anchor in range(len(core_adj)):
        for level in range(1, K):
            for copy in range(degrees[level - 1] - degrees[level]):
                stack = [((), level, 0, anchor)]
                while stack:
                    address, seg, depth, parent = stack.pop()
                    node = len(keys)
                    keys.append(("t", anchor, level, copy, address))
                    edges.append((parent, node))
                    if depth == depths[seg - 1]:
                        continue
                    for child in range(degrees[seg - 1] - 1):
                        stack.append((address + (("c", child),), seg, depth + 1, node))
                    for lvl in range(seg - 1, 0, -1):
                        for slot in range(degrees[lvl - 1] - degrees[lvl]):
                            stack.append((address + (("d", lvl, slot),), lvl, 0, node))
    return keys, edges


def adjacency_matrix(n: int, edges) -> scipy.sparse.csr_matrix:
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    return scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def core_matrix(core_adj) -> scipy.sparse.csr_matrix:
    edges = [(u, v) for u, nbrs in enumerate(core_adj) for v in nbrs if u < v]
    return adjacency_matrix(len(core_adj), edges)


# ---------------------------------------------------------------------------
# eigen-references and graph invariants
# ---------------------------------------------------------------------------

def dense_spectrum(a) -> np.ndarray:
    """All eigenvalues, ascending, by numpy's dense symmetric solver."""
    dense = a.toarray() if scipy.sparse.issparse(a) else np.asarray(a, dtype=float)
    return np.linalg.eigvalsh(dense)


def dense_top_vector(a) -> tuple[float, np.ndarray]:
    """Top eigenvalue and its eigenvector (made non-negative) by dense numpy."""
    dense = a.toarray() if scipy.sparse.issparse(a) else np.asarray(a, dtype=float)
    vals, vecs = np.linalg.eigh(dense)
    vec = vecs[:, -1]
    return float(vals[-1]), vec if vec.sum() >= 0 else -vec


def lanczos_top(a) -> float:
    """Largest algebraic eigenvalue by scipy's Lanczos solver at full precision."""
    vals = scipy.sparse.linalg.eigsh(a, k=1, which="LA", tol=0, return_eigenvectors=False)
    return float(vals[0])


def triangle_count(a) -> int:
    """Triangles of a simple graph: sum of (A @ A) * A over all entries, / 6."""
    a = scipy.sparse.csr_matrix(a)
    return int(round((a @ a).multiply(a).sum() / 6))


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def tv_threshold(p: np.ndarray, draws: int) -> float:
    """1.5 * sum_i sqrt(p_i (1 - p_i) / draws) / 2: by Jensen the expected TV
    distance of an exact sampler's empirical law is at most the sum without the
    1.5 factor, and sits near 0.8 of it."""
    p = np.asarray(p)
    return 1.5 * 0.5 * float(np.sqrt(p * (1.0 - p) / draws).sum())


# ---------------------------------------------------------------------------
# closed-form exploration bounds
# ---------------------------------------------------------------------------

def avoidance_bound(degrees, depths, k: int, w: int) -> float:
    """(d_k / d_{k-1}) ** ((l_k - l_{k-1}) / w), clamped to 1."""
    value = (degrees[k - 1] / degrees[k - 2]) ** ((depths[k - 1] - depths[k - 2]) / w)
    return min(1.0, value)


def recursion_bound(degrees, depths, budget: float, w: int = 2) -> float:
    """Exit ceiling of the level-K tree under `budget` queries: q_k = budget /
    w^(K-k); bound_1 = 0 if q_1 <= l_1 else 1; bound_k = avoidance_k + q_k *
    bound_{k-1}; clamped to 1 at every level."""
    K = len(degrees)
    q = [max(1.0, budget / w ** (K - k)) for k in range(1, K + 1)]
    bound = 0.0 if q[0] <= depths[0] else 1.0
    for k in range(2, K + 1):
        bound = min(1.0, avoidance_bound(degrees, depths, k, w) + q[k - 1] * bound)
    return bound


def standard_schedule(n: int) -> tuple[tuple, tuple]:
    """Degrees 2n - k sqrt(n) and depths round(10 k n^1.5 log2 n), k = 1..sqrt(n)."""
    root = math.isqrt(n)
    degrees = tuple(2 * n - k * root for k in range(1, root + 1))
    depths = tuple(round(k * 10 * n * root * math.log2(n)) for k in range(1, root + 1))
    return degrees, depths
