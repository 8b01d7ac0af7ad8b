import math

import pytest

from gapwalk import bounds as bd, graph_model as gm


# -- avoidance ----------------------------------------------------------------

def test_avoidance_simple_value():
    rep = bd.avoidance_bound(2, 4, 4, 1, 1)
    assert rep.value == pytest.approx(0.125, abs=1e-15)
    assert not rep.vacuous


def test_avoidance_empty_exponent_is_vacuous_one():
    rep = bd.avoidance_bound(3, 4, 5, 5, 1)
    assert rep.value == 1.0
    assert rep.vacuous


def test_avoidance_standard_value_in_log_domain():
    rep = bd.avoidance_bound(24, 28, 5120, 2560, 2)
    assert rep.log2_value == pytest.approx((2560 / 2) * math.log2(24 / 28), rel=1e-12)
    assert rep.log2_value == pytest.approx(-284.66, abs=0.01)


def test_avoidance_rejects_unproven_w():
    with pytest.raises(bd.BoundDomainError):
        bd.avoidance_bound(2, 4, 3, 1, 3)


def test_avoidance_monotonicity_sweeps():
    # Decreasing in the depth gap, increasing in the degree ratio.
    gap_values = [bd.avoidance_bound(2, 4, 1 + g, 1, 1).value for g in range(0, 8)]
    assert all(a >= b for a, b in zip(gap_values, gap_values[1:]))
    ratio_values = [bd.avoidance_bound(dk, 24, 5, 1, 1).value for dk in range(2, 24)]
    assert all(a <= b for a, b in zip(ratio_values, ratio_values[1:]))


def test_log_and_linear_domains_agree_when_representable():
    for d_k, d_km1, gap in ((2, 4, 3), (3, 5, 7), (9, 10, 20)):
        rep = bd.avoidance_bound(d_k, d_km1, 1 + gap, 1, 1)
        linear = (d_k / d_km1) ** gap
        assert rep.value == pytest.approx(linear, rel=1e-12)


# -- recursion ----------------------------------------------------------------

def test_recursion_single_level_base_case():
    sched = gm.Schedule((4,), (5,))
    below, above = bd.recursion_bound(sched, [5], 2), bd.recursion_bound(sched, [6], 2)
    assert below[0].value == 0.0  # budget cannot cover root + 5 descents
    assert above[0].value == 1.0 and above[0].vacuous


def test_recursion_matches_hand_evaluation():
    # Independent evaluation of bound_k = avoid_k + q_k * bound_{k-1} for the
    # schedule d=(8,6,4), l=(2,5,9) with budgets (4,16,64), w=2.
    sched = gm.Schedule((8, 6, 4), (2, 5, 9))
    q = [4, 16, 64]
    b1 = 1.0  # q_1 = 4 > l_1 = 2
    b2 = (6 / 8) ** ((5 - 2) / 2) + 16 * b1
    b3 = (4 / 6) ** ((9 - 5) / 2) + 64 * min(1.0, b2)
    reports = bd.recursion_bound(sched, q, 2)
    assert reports[0].value == 1.0
    assert reports[1].value == min(1.0, b2)
    assert reports[2].value == min(1.0, b3)
    # This budget schedule violates q_{k-1} >= q_k / w and must say so.
    assert "unsound-chain" in reports[2].flags


def test_recursion_chain_soundness_flagging():
    sched = gm.Schedule((8, 6, 4), (2, 5, 9))
    sound = bd.recursion_bound(sched, [4, 8, 16], 2)
    assert all("unsound-chain" not in rep.flags for rep in sound)


def test_recursion_standard_16_below_closed_form_at_every_level():
    params = gm.GraphParams.standard(16)
    reports = bd.recursion_bound(params.schedule, bd.standard_q_schedule(16), 2)
    for rep in reports:
        k = rep.inputs["k"]
        closed = bd.closed_form_exit_bound(16, k)
        assert rep.log2_value <= closed.log2_value
    assert reports[-1].log2_value <= -128.0


def test_recursion_rejects_mismatched_budgets():
    sched = gm.Schedule((4, 3), (1, 2))
    with pytest.raises(bd.BoundDomainError):
        bd.recursion_bound(sched, [4], 2)


# -- closed form --------------------------------------------------------------

def test_closed_form_exact_at_n16():
    assert bd.closed_form_exit_bound(16, 4).log2_value == -128.0
    assert bd.closed_form_exit_bound(16, 3).log2_value == -133.0


def test_closed_form_rejects_non_standard_inputs():
    with pytest.raises(gm.ScheduleError):
        bd.closed_form_exit_bound(15, 1)
    with pytest.raises(bd.BoundDomainError):
        bd.closed_form_exit_bound(16, 5)


# -- localization -------------------------------------------------------------

def test_localization_petersen_value():
    rep = bd.localization_bound(1, 3, 2, 10)
    assert rep.value == pytest.approx(0.1, abs=1e-12)


def test_localization_clamps_to_zero_when_ball_covers_graph():
    rep = bd.localization_bound(1, 10, 5, 10)
    assert rep.value == 0.0 and rep.vacuous


def test_localization_full_scale_positive_in_log_domain():
    # |U| = n^b with n = 16, b = 2; threshold half the girth; the core size
    # dominates and the bound must stay strictly positive.
    n = 16
    params = gm.GraphParams.standard(n)
    rep = bd.localization_bound(n ** 2, n, params.girth_floor // 2, params.expander_size)
    assert not rep.vacuous
    assert rep.value > 0.99


# -- tv budget ----------------------------------------------------------------

def test_tv_budget_reference_values():
    total, residual = bd.tv_budget(9 / 16, 1 / 5)
    assert total == pytest.approx(math.sqrt(7 / 16) + 0.2, rel=1e-12)
    assert total <= 0.87
    assert residual >= 1 / 10
    assert bd.tv_budget(1.0, 0.0) == (0.0, 1.0)
    total, _ = bd.tv_budget(0.81, 0.1)
    assert total == pytest.approx(math.sqrt(0.19) + 0.1, rel=1e-12)


def test_tv_budget_rejects_bad_inputs():
    with pytest.raises(bd.BoundDomainError):
        bd.tv_budget(1.5, 0.0)


# -- gap sum ------------------------------------------------------------------

def test_gap_sum_values_and_vacuity():
    assert bd.gap_sum_bound(5.0, 0.0).value == 5.0
    active = bd.gap_sum_bound(128, 2 * math.sqrt(512))
    assert active.value == pytest.approx(128 - 4 * math.sqrt(512), rel=1e-12)
    assert not active.vacuous
    vacuous = bd.gap_sum_bound(8, 2 * math.sqrt(32))
    assert vacuous.value < 0 and vacuous.vacuous


# -- loop-weight interval -----------------------------------------------------

def test_alpha_interval_standard_display():
    for n in (16, 25, 36):  # sqrt(n) copies of sqrt(n)-1 trees of degree <= 2n on an n-regular core
        root = math.isqrt(n)
        lo, hi = bd.alpha_interval(float(n), 2.0 * n, float(root), root - 1)
        assert lo == pytest.approx(n - 2 * math.sqrt(2 * n), rel=1e-12)
        assert hi <= n + 4


def test_alpha_interval_beta_zero():
    lo, hi = bd.alpha_interval(5.0, 4.0, 0.0, 3)
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(5.0)


def test_alpha_interval_flags_degenerate_base():
    rep = bd.alpha_bounds(1.0, 4.0, 1.0, 1)
    assert rep.vacuous


def test_probability_reports_clamped_to_unit_interval():
    for rep in (
        bd.avoidance_bound(3, 4, 2, 1, 1),
        bd.closed_form_exit_bound(16, 4),
        bd.localization_bound(2, 3, 1, 100),
    ):
        assert 0.0 <= rep.value <= 1.0
