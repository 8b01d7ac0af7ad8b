"""Closed-form ceilings for the exploration and localization experiments.

Every calculator takes arbitrary schedules so desk-scale runs compare against
meaningful numbers; the standard-family formulas are thin wrappers that
instantiate schedules from n.  Probability bounds are computed in log base 2
(values can be minuscule) and clamped to [0, 1] in linear domain, with vacuous
results flagged rather than silently clamped.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from ._util import NEG_INF, InputError, log2sumexp
from .graph_model import Schedule, _exact_sqrt


class BoundDomainError(InputError):
    """Inputs outside the range a bound statement covers."""


class BoundReport(NamedTuple):
    name: str
    inputs: dict
    value: float                      # linear domain, clamped to [0,1] for probabilities
    log2_value: Optional[float] = None  # None for non-probability bounds
    vacuous: bool = False
    flags: tuple = ()


def _report(name: str, inputs: dict, value: float, vacuous: bool,
            log2_value: Optional[float] = None, flags: tuple = ()) -> BoundReport:
    """Every report is built here: it carries the "vacuous" flag exactly when it is vacuous."""
    return BoundReport(name, inputs, value, log2_value, vacuous, flags + (("vacuous",) if vacuous else ()))


def _prob_report(name: str, inputs: dict, log2_value: float, flags: tuple = ()) -> BoundReport:
    vacuous = log2_value >= 0.0
    value = 1.0 if vacuous else 2.0 ** log2_value if log2_value > -1074 else 0.0
    return _report(name, inputs, min(1.0, value), vacuous, min(0.0, log2_value), flags)


# ---------------------------------------------------------------------------
# tree-exploration bounds
# ---------------------------------------------------------------------------

def avoidance_bound(d_k: int, d_km1: int, l_k: int, l_km1: int, w: int) -> BoundReport:
    """Ceiling on [exit and fewer than w distinct decorations' level-1 leaves
    queried]: (d_k / d_{k-1}) ** ((l_k - l_{k-1}) / w).

    Only w in {1, 2} is covered by the underlying argument; larger w is refused.
    """
    if w not in (1, 2):
        raise BoundDomainError(f"w={w} not supported; only w in {{1, 2}} is proven")
    if not 0 < d_k < d_km1:
        raise BoundDomainError(f"need 0 < d_k < d_(k-1), got {d_k}, {d_km1}")
    if l_k < l_km1:
        raise BoundDomainError(f"need l_k >= l_(k-1), got {l_k}, {l_km1}")
    exponent = (l_k - l_km1) / w
    log2_value = exponent * math.log2(d_k / d_km1)
    return _prob_report(
        "avoidance",
        {"d_k": d_k, "d_km1": d_km1, "l_k": l_k, "l_km1": l_km1, "w": w},
        log2_value,
        flags=("empty-exponent",) if l_k == l_km1 else (),
    )


def recursion_bound(
    schedule: Schedule, q_schedule: Sequence[float], w: int
) -> list[BoundReport]:
    """Per-level exit-probability ceilings from the inductive recursion

        bound_k = avoidance_k(w) + q_k * bound_{k-1},

    with the exact base case for an undecorated perfect tree: bound_1 is 0 when
    the budget q_1 cannot cover a root-to-leaf path (q_1 <= l_1), else 1.

    Budgets mean "at most q queries", counting the root query.  Soundness of
    level k as an any-algorithm ceiling needs q_{k-1} >= q_k / w (the
    self-similarity step hands the subtree q_k / w queries); levels violating
    that chain are evaluated anyway and flagged "unsound-chain".
    """
    if w not in (1, 2):
        raise BoundDomainError(f"w={w} not supported; only w in {{1, 2}} is proven")
    q = list(q_schedule)
    if len(q) != schedule.levels:
        raise BoundDomainError(
            f"q_schedule has {len(q)} entries for {schedule.levels} levels"
        )
    if any(x < 1 for x in q):
        raise BoundDomainError("budgets must be >= 1")
    d, l = schedule.degrees, schedule.depths
    reports = []
    chain_sound = True
    base_log2 = 0.0 if q[0] > l[0] else NEG_INF
    reports.append(
        _prob_report(
            "exit-recursion",
            {"k": 1, "q": q[0], "w": w, "l_1": l[0]},
            base_log2,
            flags=("base-case",),
        )
    )
    prev_log2 = reports[0].log2_value if not reports[0].vacuous else 0.0
    for k in range(2, schedule.levels + 1):
        flags = []
        if q[k - 2] < q[k - 1] / w:
            chain_sound = False
        if not chain_sound:
            flags.append("unsound-chain")
        avoid = avoidance_bound(d[k - 1], d[k - 2], l[k - 1], l[k - 2], w)
        log2_val = log2sumexp([avoid.log2_value, math.log2(q[k - 1]) + prev_log2])
        rep = _prob_report(
            "exit-recursion",
            {"k": k, "q": q[k - 1], "w": w, "avoidance_log2": avoid.log2_value},
            log2_val,
            flags=tuple(flags),
        )
        reports.append(rep)
        prev_log2 = rep.log2_value if not rep.vacuous else 0.0
    return reports


def standard_q_schedule(n: int) -> list[int]:
    """Budget schedule 2^k of the standard family."""
    root = _exact_sqrt(n)
    return [2 ** k for k in range(1, root + 1)]


def closed_form_exit_bound(n: int, k: int) -> BoundReport:
    """Closed-form exit ceiling of the standard family:
    2 ** (-2 n log2(n) + (sqrt(n)+1)(k - sqrt(n))); exact in log2 domain."""
    root = _exact_sqrt(n)
    if not 1 <= k <= root:
        raise BoundDomainError(f"level k={k} out of range [1, {root}]")
    log2_value = -2.0 * n * math.log2(n) + (root + 1) * (k - root)
    return _prob_report("exit-closed-form", {"n": n, "k": k}, log2_value)


# ---------------------------------------------------------------------------
# localization and fidelity bounds
# ---------------------------------------------------------------------------

def localization_bound(u_size: int, degree: int, g: int, n_e: int) -> BoundReport:
    """Floor on Pr[sampled vertex at expander distance >= g from a size-|U| set]:
    max(0, 1 - |U| * degree^g / N_E), evaluated in log2 domain."""
    if u_size < 1 or degree < 1 or g < 0 or n_e < 1:
        raise BoundDomainError("inputs must be positive (g may be 0)")
    loss_log2 = math.log2(u_size) + g * math.log2(degree) - math.log2(n_e)
    vacuous = loss_log2 >= 0.0
    value = 0.0 if vacuous else -math.expm1(loss_log2 * math.log(2.0))  # 1 - 2^loss, precise near 1
    return _report("localization", {"u_size": u_size, "degree": degree, "g": g, "n_e": n_e}, value, vacuous)


def tv_budget(fidelity: float, tv: float) -> tuple[float, float]:
    """Total statistical loss sqrt(1 - F) + tv and the residual 1 - total left
    for the localization event."""
    if not 0 <= fidelity <= 1 or not 0 <= tv <= 1:
        raise BoundDomainError("fidelity and tv must lie in [0, 1]")
    total = math.sqrt(1.0 - fidelity) + tv
    return total, 1.0 - total


def tv_budget_report(fidelity: float, tv: float) -> BoundReport:
    total, residual = tv_budget(fidelity, tv)
    return _report("tv-budget", {"fidelity": fidelity, "tv": tv, "residual": residual}, total, residual <= 0)


def gap_sum_bound(delta: float, gamma: float) -> BoundReport:
    """Spectral gap floor delta - 2*gamma for a gapped matrix plus a bounded
    perturbation; negative values are vacuous, returned unclamped."""
    value = delta - 2.0 * gamma
    return _report("gap-sum", {"delta": delta, "gamma": gamma}, value, value <= 0)


def alpha_interval(
    lambda_e: float, max_degree: float, beta: float, tree_count: int
) -> tuple[float, float]:
    """Interval for the per-tree self-loop weights:
    [lambda_E - 2*sqrt(Delta), lambda_E + beta * tree_count / (lambda_E - 2*sqrt(Delta))],
    where tree_count is the number of attached tree families and Delta bounds
    their degrees.  The upper end is infinite when lambda_E <= 2*sqrt(Delta)."""
    if lambda_e <= 0 or max_degree < 0 or beta < 0 or tree_count < 0:
        raise BoundDomainError("inputs must be non-negative with lambda_E > 0")
    lo = lambda_e - 2.0 * math.sqrt(max_degree)
    return lo, lambda_e + (beta * tree_count / lo if lo > 0 else math.inf)


def alpha_bounds(
    lambda_e: float, max_degree: float, beta: float, tree_count: int
) -> BoundReport:
    """`alpha_interval`'s lower end as a report; vacuous when it is <= 0."""
    lo, _ = alpha_interval(lambda_e, max_degree, beta, tree_count)
    inputs = {"lambda_e": lambda_e, "max_degree": max_degree, "beta": beta, "tree_count": tree_count}
    return _report("loop-weight-interval", inputs, lo, lo <= 0)
