import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    DegenerateDenominator,
    act,
    q_sense_fallback,
    q_sense_wait,
    th1,
    th2,
    threshold_fixed_point,
    wait_thresholds,
)
from osa.channel import ChannelParams, stationary_idle
from osa.errors import NotThreshold
from osa.policy import (
    CSV_HEADER,
    MemorylessPolicy,
    ThresholdPolicy,
    check_structure,
    dedicated_switch_delay,
    extract_thresholds,
    switch_margin,
)
from osa.sim import _compile
from osa.solver import Action, RewardParams, solve_single_channel
from test_solver import PRESET_REWARDS, zero_value_function


@pytest.fixture(scope="module")
def scen1_solve():
    return solve_single_channel(ChannelParams(0.15, 0.1), RewardParams(**PRESET_REWARDS))


def test_th1_hand_value():
    p = ChannelParams(0.15, 0.1)
    vf = zero_value_function(p, RewardParams(**PRESET_REWARDS))
    assert th1(vf, 0.0, 1) == pytest.approx(50.0 / 250.0)


def test_th1_increases_with_sensing_cost():
    p = ChannelParams(0.15, 0.1)
    lo = th1(zero_value_function(p, RewardParams(350, 50, 100, 800, 10)), 0.2, 3)
    hi = th1(zero_value_function(p, RewardParams(350, 120, 100, 800, 10)), 0.2, 3)
    assert hi > lo


def test_th2_hand_value():
    p = ChannelParams(0.15, 0.1)
    vf = zero_value_function(p, RewardParams(**PRESET_REWARDS))
    assert th2(vf, 0.0, 1) == pytest.approx(500.0 / 700.0)


def test_th2_degenerate_denominator():
    p = ChannelParams(0.15, 0.1)
    # p_3g barely above p_p with zero values makes the denominator vanish.
    vf = zero_value_function(p, RewardParams(350, 50, 100, 100 + 1e-13, 10))
    with pytest.raises(DegenerateDenominator):
        th2(vf, 0.1, 1)


def test_th2_uses_only_delay_one_and_next(scen1_solve):
    # Perturbing values at unrelated delays leaves th2 unchanged.
    from dataclasses import replace as dc_replace

    before = th2(scen1_solve, 0.3, 4)
    values = scen1_solve.values.copy()
    values[:, 20] += 123.0
    poked = dc_replace(scen1_solve, values=values)
    assert th2(poked, 0.3, 4) == pytest.approx(before)


def test_extract_thresholds_structure(scen1_solve):
    tp = extract_thresholds(scen1_solve)
    assert tp.l_max == scen1_solve.l_max
    assert np.all(tp.lambda_star >= 0) and np.all(tp.lambda_star <= 1)
    # The cap row admits only the fallback, so no waiting is recorded there.
    assert tp.lambda_star[-1] == 0.0
    # Scenario-1 solve waits at low beliefs for small delays.
    assert tp.lambda_star[0] > 0.1


def test_extract_thresholds_midpoint(scen1_solve):
    tp = extract_thresholds(scen1_solve)
    pts = scen1_solve.grid.points
    for l in (1, 5, 10):
        wait = scen1_solve.actions[:, l - 1] == int(Action.WAIT)
        k = int(np.argmin(wait))
        assert tp.lambda_star[l - 1] == pytest.approx(0.5 * (pts[k - 1] + pts[k]))


def test_extract_thresholds_rejects_interleaved(scen1_solve):
    from dataclasses import replace as dc_replace

    actions = scen1_solve.actions.copy()
    actions[:, 0] = int(Action.SENSE_WAIT)
    actions[5, 0] = int(Action.WAIT)  # isolated wait above a sensing point
    corrupt = dc_replace(scen1_solve, actions=actions)
    with pytest.raises(NotThreshold):
        extract_thresholds(corrupt)


def test_extract_thresholds_matches_per_state_loop(scen1_solve):
    # The solved table and copies with a few grid points switched to wait or
    # to sensing; each reads as the per-state loop reads it, and a copy that
    # breaks the rule raises at its first violating delay.
    from dataclasses import replace as dc_replace

    rng = np.random.default_rng(3)
    pts = scen1_solve.grid.points.tolist()
    raised = 0
    for trial in range(12):
        actions = scen1_solve.actions.copy()
        if trial:
            rows = rng.integers(0, len(pts), 4)
            cols = rng.integers(0, 12, 4)
            actions[rows, cols] = int(Action.WAIT) if trial % 2 else int(Action.SENSE_WAIT)
        vf = dc_replace(scen1_solve, actions=actions)
        states = [
            (b, l, a == int(Action.WAIT))
            for l in range(1, vf.l_max + 1)
            for b, a in zip(pts, actions[:, l - 1].tolist())
        ]
        want_lam, want_violations = wait_thresholds(states, vf.l_max)
        detail = check_structure(vf)["threshold_prefix"].detail
        assert detail == (f"violating delays {want_violations}" if want_violations else "")
        if not want_violations:
            assert extract_thresholds(vf).lambda_star.tolist() == want_lam
            continue
        raised += 1
        with pytest.raises(NotThreshold) as err:
            extract_thresholds(vf)
        l = want_violations[0]
        first_non = min(b for b, d, w in states if d == l and not w)
        bad = [b for b, d, w in states if d == l and w and b > first_non]
        assert (err.value.delay, err.value.beliefs) == (l, bad[:5])
    assert 0 < raised < 11


def test_threshold_policy_action_rule():
    lam = np.array([0.4, 0.3, 0.0, 0.0])
    tp = ThresholdPolicy(lambda_star=lam, l_star=3)
    assert act(tp, 0.35, 1) == Action.WAIT
    assert act(tp, 0.45, 1) == Action.SENSE_WAIT
    assert act(tp, 0.25, 2) == Action.WAIT
    assert act(tp, 0.35, 2) == Action.SENSE_WAIT
    assert act(tp, 0.25, 3) == Action.SENSE_FALLBACK
    assert act(tp, 0.0, 3) == Action.SENSE_FALLBACK  # empty wait region at l>=3
    assert act(tp, 0.99, 4) == Action.SENSE_FALLBACK


def test_threshold_policy_total():
    # Exactly one action for every (belief, delay) pair, and it is the one
    # the slot kernel's compiled lists take, past the policy's l_max too.
    lam = np.array([0.5, 0.2, 0.0])
    tp = ThresholdPolicy(lambda_star=lam, l_star=2)
    wait_below, sense = _compile(tp, 5)
    for l in range(1, 6):
        for b in np.linspace(0, 1, 33).tolist():
            assert act(tp, b, l) in (Action.WAIT, Action.SENSE_WAIT, Action.SENSE_FALLBACK)
            assert act(tp, b, l) == (Action.WAIT if b <= wait_below[l] else sense[l])


def test_switch_margin_belief_independent(scen1_solve):
    for l in (1, 4, 9):
        margins = [
            (q_sense_fallback(scen1_solve, b, l) - q_sense_wait(scen1_solve, b, l)) / (1 - b)
            for b in (0.0, 0.3, 0.6)
        ]
        assert max(margins) - min(margins) < 1e-6
        assert margins[0] == pytest.approx(switch_margin(scen1_solve, l), abs=1e-6)


def test_dedicated_switch_delay_cross_oracle(scen1_solve):
    l_star = dedicated_switch_delay(scen1_solve)
    beta = scen1_solve.channel.beta
    for l in range(1, scen1_solve.l_max):
        prefers_fallback = q_sense_fallback(scen1_solve, beta, l) > q_sense_wait(scen1_solve, beta, l)
        assert prefers_fallback == (l >= l_star)


def test_dedicated_switch_depends_on_sensing_cost_through_values():
    p = ChannelParams(0.15, 0.1)
    hi_cost = solve_single_channel(p, RewardParams(350, 200, 100, 800, 10), tol=1e-8)
    assert dedicated_switch_delay(hi_cost) < hi_cost.l_max


def test_cap_bound_warns(scen1_solve):
    import warnings as w

    from osa.policy import DelayCapBound

    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        tp = extract_thresholds(scen1_solve)
    assert tp.cap_bound
    assert any(issubclass(c.category, DelayCapBound) for c in caught)


def test_vanishing_delay_penalty_binds_cap():
    # With almost no delay pressure the dedicated channel is never chosen
    # before the cap forces it.
    vf = solve_single_channel(ChannelParams(0.15, 0.1), RewardParams(350, 50, 100, 800, 0.01),
                              l_max=20, tol=1e-7)
    tp = extract_thresholds(vf)
    assert tp.l_star == 20 and tp.cap_bound


def test_switch_delay_robust_to_solver_tolerance():
    p = ChannelParams(0.15, 0.1)
    r = RewardParams(350, 200, 100, 800, 10)
    loose = solve_single_channel(p, r, tol=1e-4)
    tight = solve_single_channel(p, r, tol=1e-9)
    assert dedicated_switch_delay(loose) == dedicated_switch_delay(tight)


def test_never_wait_implies_switch_at_one():
    # phi >= p_3g: the fallback pays at least what waiting saves at any
    # delay, so a busy sense never waits.
    vf = solve_single_channel(ChannelParams(0.85, 0.7), RewardParams(900, 50, 100, 800, 10), tol=1e-8)
    assert dedicated_switch_delay(vf) == 1


def test_huge_sensing_cost_waits_almost_everywhere():
    # Sensing cost within 5 units of the idle payoff: waiting dominates at
    # nearly every belief below the switch.  (A wait region covering belief 1
    # exactly would need c_s > phi, which the parameter invariants forbid:
    # at belief 1 a sense is a sure success worth phi - c_s - p_p >= 0.)
    p = ChannelParams(0.6, 0.2)
    vf = solve_single_channel(p, RewardParams(1000, 895, 100, 2000, 5), tol=1e-8)
    tp = extract_thresholds(vf)
    assert tp.l_star > 1
    assert tp.lambda_star[0] >= 0.9
    assert np.all(tp.lambda_star[:10] >= 0.5)
    assert np.all(tp.lambda_star[: tp.l_star - 1] > 0.0)


def test_check_structure_positive_gain_all_pass():
    vf = solve_single_channel(ChannelParams(0.85, 0.7), RewardParams(**PRESET_REWARDS))
    rep = check_structure(vf)
    assert all(res.status != "fail" for res in rep.results)
    assert all(res.status == "pass" for res in rep.results)


def test_check_structure_detects_corruption():
    vf = solve_single_channel(ChannelParams(0.85, 0.7), RewardParams(**PRESET_REWARDS))
    vf.values = vf.values.copy()
    vf.values[40, 2] += 10.0
    rep = check_structure(vf)
    assert rep["convex_belief"].status == "fail"


def test_check_structure_gates_on_channel_order():
    vf = solve_single_channel(ChannelParams(0.3, 0.8), RewardParams(**PRESET_REWARDS), tol=1e-8)
    rep = check_structure(vf)
    assert rep["monotone_belief"].status == "skip"
    assert rep["convex_belief"].status == "skip"
    assert rep["monotone_delay"].status == "pass"


def test_structure_report_text(scen1_solve):
    rep = check_structure(scen1_solve)
    text = rep.to_text()
    assert "monotone_delay: PASS" in text
    assert text.endswith("\n")


def test_threshold_fixed_point_consistency(scen1_solve):
    tp = extract_thresholds(scen1_solve)
    res = float(np.max(np.diff(scen1_solve.grid.points)))  # the widest cell
    for l in range(1, scen1_solve.l_max):
        lam = tp.lambda_star[l - 1]
        if 0.0 < lam < 1.0:
            assert abs(lam - threshold_fixed_point(scen1_solve, lam, l)) <= res + 1e-12


def test_memoryless_policy():
    mp = MemorylessPolicy(3)
    assert act(mp, 0.9, 1) == Action.SENSE_WAIT
    assert act(mp, 0.1, 2) == Action.SENSE_WAIT
    assert act(mp, 0.9, 3) == Action.SENSE_FALLBACK
    assert act(mp, 0.1, 9) == Action.SENSE_FALLBACK
    assert act(MemorylessPolicy(1), 0.5, 1) == Action.SENSE_FALLBACK
    with pytest.raises(ValueError):
        MemorylessPolicy(0)
    with pytest.raises(ValueError):
        act(mp, 0.5, 0)
    # The memoryless baseline is the threshold policy with an empty wait
    # region and switch delay k, and compiles to the slot kernel's lists that
    # its own rule gave: never wait, sense-wait below k, fall back from k on.
    assert isinstance(mp, ThresholdPolicy)
    assert mp.k == mp.l_star == 3
    l_max = 6
    for k in (1, 3, l_max - 1, l_max, l_max + 1, 2 * l_max):
        sense = [int(Action.SENSE_WAIT if d < k else Action.SENSE_FALLBACK)
                 for d in range(1, l_max + 1)]
        assert _compile(MemorylessPolicy(k), l_max) == (
            [None] + [-math.inf] * l_max, [None] + sense
        )


def test_threshold_policy_rejects_delay_below_one():
    # A delay below 1 would index lambda_star from its end: the cap row's
    # 0.9 would make act(tp, 0.5, 0) wait.
    tp = ThresholdPolicy(lambda_star=np.array([0.0, 0.0, 0.9]), l_star=2)
    for delay in (0, -2):
        with pytest.raises(ValueError, match=f"delay={delay} must be >= 1"):
            act(tp, 0.5, delay)
    assert act(tp, 0.5, 3) == Action.WAIT


def test_policy_csv_roundtrip(tmp_path, scen1_solve):
    tp = extract_thresholds(scen1_solve)
    path = tmp_path / "policy.csv"
    tp.to_csv(path)
    back = ThresholdPolicy.from_csv(path)
    assert back.l_star == tp.l_star
    assert back.l_max == tp.l_max
    np.testing.assert_allclose(back.lambda_star, tp.lambda_star)
    header = path.read_text().splitlines()[0]
    assert header == "delay,lambda_star,action_above_threshold"


def test_threshold_policy_l_max_is_the_length_of_its_thresholds(tmp_path):
    # l_max is read off lambda_star, so a policy cannot name more delays
    # than it has thresholds (which failed inside the slot kernel) or fewer
    # (which to_csv cut short).
    tp = ThresholdPolicy(np.array([0.3, 0.3, 0.3, 0.0, 0.0]), 4)
    assert tp.l_max == 5
    with pytest.raises(AttributeError):
        tp.l_max = 2
    path = tmp_path / "policy.csv"
    tp.to_csv(path)
    assert ThresholdPolicy.from_csv(path).lambda_star.tolist() == [0.3, 0.3, 0.3, 0.0, 0.0]


def test_policy_csv_with_missing_delays_is_rejected(tmp_path):
    # A gap would leave lambda_star shorter than l_max and fail mid-episode.
    path = tmp_path / "policy.csv"
    path.write_text(
        "delay,lambda_star,action_above_threshold\n"
        "1,0.5,sense_wait\n2,0.5,sense_wait\n5,0.0,sense_fallback\n"
    )
    with pytest.raises(ValueError, match="policy delays"):
        ThresholdPolicy.from_csv(path)


@pytest.mark.parametrize("rows,match", [
    # Once read as l_star=2 with a NaN threshold and the typo taken for
    # sense_wait; each of its defects is also checked alone below.
    ([CSV_HEADER, "1,0.0,sense_wait", "2,0.0,sense_fallback", "3,0.0,sense_wait",
      "4,nan,sense_fallbak"], "sense_wait at delay 3|nan|sense_fallbak"),
    ([CSV_HEADER, "1,0.5,sense_wait", "2,0.0,sense_fallbak"], "unknown action 'sense_fallbak'"),
    ([CSV_HEADER, "1,0.5,sense_wait", "2,0.0,sense_fallback", "3,0.0,sense_wait",
      "4,0.0,sense_fallback"], "sense_wait at delay 3 after sense_fallback at delay 2"),
    ([CSV_HEADER, "1,0.5,sense_wait", "2,0.0,sense_wait"], "last policy row"),
    ([CSV_HEADER], "last policy row"),
    ([CSV_HEADER, "1,nan,sense_wait", "2,0.0,sense_fallback"], "outside"),
    ([CSV_HEADER, "1,1.5,sense_wait", "2,0.0,sense_fallback"], "outside"),
    ([CSV_HEADER, "1,-0.1,sense_wait", "2,0.0,sense_fallback"], "outside"),
    (["delay,lambda,action", "1,0.0,sense_fallback"], "^unexpected policy header: delay,lambda,"),
])
def test_policy_csv_that_to_csv_cannot_write_is_rejected(tmp_path, rows, match):
    path = tmp_path / "policy.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=match):
        ThresholdPolicy.from_csv(path)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_policy_csv_round_trip_property(tmp_path, data):
    l_max = data.draw(st.integers(1, 60))
    lam = data.draw(st.lists(st.floats(0.0, 1.0), min_size=l_max, max_size=l_max))
    tp = ThresholdPolicy(np.array(lam), data.draw(st.integers(1, l_max)))
    path = tmp_path / "policy.csv"
    tp.to_csv(path)
    back = ThresholdPolicy.from_csv(path)
    assert (back.lambda_star.tolist(), back.l_star, back.l_max) == (lam, tp.l_star, l_max)


def test_no_wait_above_stationary_positive_gain():
    # Where the gain is positive the solver never waits above the stationary
    # belief, matching the structural theory.
    for a, b in ((0.85, 0.7), (0.95, 0.05)):
        vf = solve_single_channel(ChannelParams(a, b), RewardParams(**PRESET_REWARDS), tol=1e-8)
        assert vf.gain > 0
        pi0 = stationary_idle(vf.channel)
        wait_any = (vf.actions == int(Action.WAIT)).any(axis=1)
        waited = vf.grid.points[wait_any]
        assert waited.size == 0 or waited.max() <= pi0 + 1e-12
