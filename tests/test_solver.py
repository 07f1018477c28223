import math

import numpy as np
import pytest

from oracles import (
    interpolate,
    q_sense_fallback,
    q_sense_wait,
    q_wait,
    state_key,
    wait_then_sense_value,
)
from osa import multichannel, solver
from osa.channel import ChannelParams, stationary_idle
from osa.errors import DegenerateChain, NoConvergence
from osa.multichannel import solve_multichannel
from osa.sim import SimConfig, _solve
from osa.solver import (
    DEFAULT_TOL,
    BeliefGrid,
    RewardParams,
    ValueFunction,
    bellman_backup,
    check_model,
    solve_single_channel,
)

PRESET_REWARDS = dict(phi=350.0, c_s=50.0, p_p=100.0, p_3g=800.0, gamma=10.0)


@pytest.fixture(scope="module")
def scen1_channel():
    return ChannelParams(0.15, 0.1)


@pytest.fixture(scope="module")
def preset_rewards():
    return RewardParams(**PRESET_REWARDS)


def zero_value_function(p, r, l_max=50):
    grid = BeliefGrid.for_channel(p)
    n = len(grid)
    return ValueFunction(
        grid=grid,
        values=np.zeros((n, l_max)),
        actions=np.zeros((n, l_max), dtype=np.int8),
        gain=0.0,
        l_max=l_max,
        channel=p,
        rewards=r,
    )


def test_reward_params_invariants():
    with pytest.raises(ValueError):
        RewardParams(phi=100, c_s=80, p_p=30, p_3g=800, gamma=10)  # phi - c_s - p_p < 0
    with pytest.raises(ValueError):
        RewardParams(phi=350, c_s=50, p_p=100, p_3g=100, gamma=10)  # p_3g == p_p
    with pytest.raises(ValueError):
        RewardParams(phi=350, c_s=50, p_p=100, p_3g=800, gamma=-1)
    for field in PRESET_REWARDS:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field}={value} must be finite"):
                RewardParams(**{**PRESET_REWARDS, field: value})


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
def test_check_settings_rejects_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        check_model(ChannelParams(0.15, 0.1), tol, 10)


def test_delay_penalty():
    r = RewardParams(**PRESET_REWARDS)  # gamma 10
    assert r.penalty(1) == 0.0
    assert r.penalty(math.e) == pytest.approx(10.0)
    assert r.penalty(2) == pytest.approx(10 * math.log(2))
    with pytest.raises(ValueError):
        r.penalty(0.5)
    # Non-decreasing on integers, and the table holds the scalar penalties.
    table = r.penalty_table(20)
    assert np.all(np.diff(table) >= 0)
    assert table[0] == 0.0
    np.testing.assert_allclose(table, [r.penalty(l) for l in range(1, 21)], rtol=1e-15)


@pytest.mark.parametrize(
    "alpha,beta,n_points",
    [
        (0.15, 0.1, 1001),  # pi0 replaces a uniform point
        (0.0004, 0.0004, 1002),  # one special, three times, inserted next to 0
        (0.9996, 0.9996, 1002),  # the same next to 1
        (0.5, 0.5, 1001),  # every special on a uniform point
        (0.95, 0.05, 1001),  # beta on a uniform point, alpha and pi0 replace two
        # A special on a uniform point keeps it from a later special that
        # rounds to the same point, which is inserted instead.
        (0.01, 0.02, 1002),
        (0.02, 0.01, 1002),
        (0.04, 0.05, 1002),
        (0.5, 0.501, 1002),
    ],
)
def test_grid_contains_specials(alpha, beta, n_points):
    p = ChannelParams(alpha, beta)
    grid = BeliefGrid.for_channel(p)
    for x in (0.0, 1.0, alpha, beta, stationary_idle(p)):
        assert grid.index_of(x) >= 0
    assert np.all(np.diff(grid.points) > 0)
    assert len(grid) == n_points


def test_grid_snapping_keeps_spacing_bounded():
    # A special value close to a uniform point replaces it instead of creating
    # a near-duplicate cell.
    p = ChannelParams(0.1500000001, 0.1)
    grid = BeliefGrid.for_channel(p)
    assert grid.index_of(0.1500000001) >= 0
    assert np.min(np.diff(grid.points)) > 5e-4


def test_interpolate_exact_and_linear(scen1_channel, preset_rewards):
    vf = zero_value_function(scen1_channel, preset_rewards)
    vf.values[:, 0] = vf.grid.points * 2.0  # linear ramp
    i = vf.grid.index_of(0.15)
    assert interpolate(vf, 0.15, 1) == vf.values[i, 0]
    mid = 0.5 * (vf.grid.points[3] + vf.grid.points[4])
    expect = 0.5 * (vf.values[3, 0] + vf.values[4, 0])
    assert interpolate(vf, mid, 1) == pytest.approx(expect)


def test_interpolation_preserves_convexity(scen1_channel, preset_rewards):
    rng = np.random.default_rng(3)
    vf = zero_value_function(scen1_channel, preset_rewards)
    # Random convex table: integrate non-decreasing slopes.
    slopes = np.cumsum(rng.uniform(0, 1, len(vf.grid) - 1))
    vf.values[:, 0] = np.concatenate([[0.0], np.cumsum(slopes * np.diff(vf.grid.points))])
    xs = np.linspace(0, 1, 401)
    ys = np.array([interpolate(vf, x, 1) for x in xs])
    second = np.diff(ys, 2)
    assert second.min() >= -1e-9


def test_q_wait_examples(scen1_channel, preset_rewards):
    vf = zero_value_function(scen1_channel, preset_rewards)
    assert q_wait(vf, 0.3, 1) == pytest.approx(0.0)
    assert q_wait(vf, 0.3, 2) == pytest.approx(-10 * math.log(2))


def test_q_sense_wait_examples(scen1_channel, preset_rewards):
    vf = zero_value_function(scen1_channel, preset_rewards)
    assert q_sense_wait(vf, 1.0, 1) == pytest.approx(200.0)
    assert q_sense_wait(vf, 0.0, 1) == pytest.approx(-50.0)
    expected = -50 + 0.5 * 250 + 0.5 * (-10 * math.log(2))
    assert q_sense_wait(vf, 0.5, 2) == pytest.approx(expected)
    assert expected == pytest.approx(71.5342640972, abs=1e-6)


def test_q_sense_fallback_examples(scen1_channel, preset_rewards):
    vf = zero_value_function(scen1_channel, preset_rewards)
    assert q_sense_fallback(vf, 1.0, 1) == pytest.approx(200.0)
    assert q_sense_fallback(vf, 0.0, 1) == pytest.approx(-500.0)
    # Independent of delay.
    for l in (1, 2, 7, 30):
        assert q_sense_fallback(vf, 0.4, l) == q_sense_fallback(vf, 0.4, 1)


def test_backup_zero_value_argmax(scen1_channel, preset_rewards):
    # At (belief 0, delay 1) with zero continuation, waiting is free while
    # sensing costs c_s and the fallback pays the dedicated price.
    vf = zero_value_function(scen1_channel, preset_rewards)
    q0 = q_wait(vf, 0.0, 1)
    q1 = q_sense_wait(vf, 0.0, 1)
    q2 = q_sense_fallback(vf, 0.0, 1)
    assert q0 == 0.0 and q0 > q1 > q2


def test_backup_normalizes_reference(scen1_channel, preset_rewards):
    vf = zero_value_function(scen1_channel, preset_rewards)
    values, gain = bellman_backup(vf)
    ref = vf.grid.index_of(stationary_idle(scen1_channel))
    assert values[ref, 0] == 0.0
    assert np.isfinite(values).all()
    assert np.isfinite(gain)


def test_backup_preserves_delay_monotonicity(scen1_channel, preset_rewards):
    rng = np.random.default_rng(11)
    vf = zero_value_function(scen1_channel, preset_rewards)
    # Random table, non-increasing along delay.
    base = rng.uniform(-100, 100, (len(vf.grid), 1))
    drops = np.cumsum(rng.uniform(0, 5, (len(vf.grid), vf.l_max)), axis=1)
    vf.values = base - drops
    values, _ = bellman_backup(vf)
    assert np.all(values[:, :-1] - values[:, 1:] >= -1e-9)


def test_greedy_takes_the_lowest_action_within_tie_tol():
    # One state per row: (q0, q1, q2) and the action greedy must pick.  The
    # best value is 1.0, so a value 0.5 TIE_TOL below it ties and one 2
    # TIE_TOL below it does not.
    inside, outside = 1.0 - 0.5 * solver.TIE_TOL, 1.0 - 2.0 * solver.TIE_TOL
    rows = [
        ((1.0, 1.0, 1.0), 0),  # exact three-way tie
        ((1.0, 1.0, 0.0), 0),  # exact two-way ties
        ((1.0, 0.0, 1.0), 0),
        ((0.0, 1.0, 1.0), 1),
        ((inside, 0.0, 1.0), 0),  # within TIE_TOL of the best
        ((0.0, inside, 1.0), 1),
        ((inside, inside, 1.0), 0),
        ((inside, 1.0, 0.0), 0),
        ((outside, 0.0, 1.0), 2),  # just outside TIE_TOL
        ((0.0, outside, 1.0), 2),
        ((outside, 1.0, 0.0), 1),
        ((1.0, 0.0, 0.0), 0),  # a clear best
        ((0.0, 1.0, 0.0), 1),
        ((0.0, 0.0, 1.0), 2),
        ((np.nan, 1.0, 0.0), 2),  # a NaN ties nothing
    ]
    q0, q1, q2 = (np.array(col) for col in zip(*(q for q, _ in rows)))
    w, actions = solver.greedy(q0, q1, q2, np.s_[len(rows):])
    assert actions.dtype == np.int8
    assert actions.tolist() == [a for _, a in rows]
    assert np.array_equal(w[:-1], np.max([q for q, _ in rows[:-1]], axis=1))


def test_greedy_forces_fallback_at_the_cap():
    # Wait and sense-wait win everywhere, yet the cap states, given as a
    # slice or (in the grid's layout) as the last column, fall back, and
    # their backup value is the fallback value.
    q0, q1, q2 = np.full(6, 5.0), np.full(6, 5.0), np.arange(6.0)
    w, actions = solver.greedy(q0, q1, q2, np.s_[4:])
    assert actions.dtype == np.int8
    assert actions.tolist() == [0, 0, 0, 0, 2, 2]
    assert w.tolist() == [5.0, 5.0, 5.0, 5.0, 4.0, 5.0]
    assert np.all(q0[4:] == -np.inf) and np.all(q1[4:] == -np.inf)
    grid = [np.full((3, 4), 5.0), np.full((3, 4), 5.0), np.zeros((3, 4))]
    w, actions = solver.greedy(*grid, np.s_[:, -1])
    assert actions.dtype == np.int8
    assert actions.tolist() == [[0, 0, 0, 2]] * 3
    assert np.all(w[:, -1] == 0.0)


@pytest.mark.parametrize(
    "solve",
    [solve_single_channel, lambda p, r, **kw: solve_multichannel(2, p, r, **kw)],
    ids=["grid", "descriptor"],
)
def test_solver_rejects_degenerate_and_bad_args(solve, preset_rewards):
    with pytest.raises(DegenerateChain):
        solve(ChannelParams(1.0, 0.0), preset_rewards)
    with pytest.raises(DegenerateChain):
        solve(ChannelParams(0.0, 0.0), preset_rewards)
    with pytest.raises(ValueError):
        solve(ChannelParams(0.15, 0.1), preset_rewards, tol=0.0)
    with pytest.raises(ValueError):
        solve(ChannelParams(0.15, 0.1), preset_rewards, l_max=1)


def test_solver_no_convergence_reports_span(scen1_channel, preset_rewards, monkeypatch):
    monkeypatch.setattr(multichannel, "MAX_ITER", 3)
    with pytest.raises(NoConvergence) as err:
        solve_single_channel(scen1_channel, preset_rewards)
    assert err.value.iterations == 3
    assert err.value.span > err.value.tol


@pytest.mark.parametrize(
    "alpha,beta,c_s",
    [(0.15, 0.10, 50.0), (0.85, 0.70, 50.0), (0.95, 0.05, 50.0), (0.15, 0.10, 200.0)],
)
def test_solver_returns_bellman_fixed_point(alpha, beta, c_s):
    # Every grid cell holds the best "wait j slots, then sense" value built
    # from the exact descriptor solve's gain and its values at (alpha, 1) and
    # (beta, l), and every descriptor belief on the grid its descriptor value.
    p, l_max = ChannelParams(alpha, beta), 20
    r = RewardParams(**{**PRESET_REWARDS, "c_s": c_s})
    vf = solve_single_channel(p, r, l_max=l_max)
    mvf = solve_multichannel(1, p, r, k_trunc=l_max + 1, l_max=l_max)
    assert vf.gain == mvf.gain
    space = mvf.space
    value = dict(zip(mvf.reach.keys.tolist(), mvf.values.tolist()))
    v_alpha1 = value[state_key(space, [space.idle_fresh], 1)]
    v_beta = [value[state_key(space, [space.busy_fresh], l)] for l in range(1, l_max + 1)]
    want = [[wait_then_sense_value(p, r, mvf.gain, v_alpha1, v_beta, b, l)
             for l in range(1, l_max + 1)] for b in vf.grid.points.tolist()]
    assert np.abs(vf.values - want).max() <= 1e-9
    beliefs = space.belief[mvf.reach.codes[:, 0]]
    shared = np.isin(beliefs, vf.grid.points)
    assert shared.sum() >= 2 * l_max + 1  # beta and pi0 at every delay, alpha at 1
    on_grid = vf.values[np.searchsorted(vf.grid.points, beliefs[shared]), mvf.delays[shared] - 1]
    assert np.abs(on_grid - mvf.values[shared]).max() <= 1e-9


def test_solver_tolerance_below_final_residual_stops(scen1_channel, preset_rewards):
    # The policy settles in a few steps; a tolerance tighter than the final
    # residual is reported then, not after MAX_ITER steps.
    with pytest.raises(NoConvergence) as err:
        solve_single_channel(scen1_channel, preset_rewards, tol=1e-15)
    assert err.value.iterations < 50
    assert err.value.span > err.value.tol


def test_solver_deterministic(scen1_channel, preset_rewards):
    a = solve_single_channel(scen1_channel, preset_rewards, tol=1e-8)
    b = solve_single_channel(scen1_channel, preset_rewards, tol=1e-8)
    assert a.gain == b.gain
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.actions, b.actions)


def test_solver_gain_matches_renewal_oracle(scen1_channel, preset_rewards):
    # The solved gain must not be beaten by any fixed-shape policy from the
    # renewal-cycle oracle, and must be close to the best of them.
    from oracles import fixed_shape, renewal_gain

    vf = solve_single_channel(scen1_channel, preset_rewards, tol=1e-8)
    best = max(
        renewal_gain(scen1_channel, preset_rewards, fixed_shape(l_star, wait))
        for l_star in (10, 20, 30, 40, 50)
        for wait in (0, 2, 5, 8)
    )
    assert vf.gain >= best - 1e-3
    assert vf.gain == pytest.approx(best, abs=5.0)


def test_solver_gain_does_not_drift_from_the_simulated_solve():
    # At (0.15, 0.1), gamma 1 and l_max 100 a policy iteration on the
    # interpolated grid reached -6.443185; the exact optimum is -6.443865,
    # and simulate solves the same model to the same gain.
    p, r = ChannelParams(0.15, 0.1), RewardParams(**{**PRESET_REWARDS, "gamma": 1.0})
    vf = solve_single_channel(p, r, l_max=100)
    assert vf.gain == pytest.approx(-6.443865, abs=1e-6)
    exact = solve_multichannel(1, p, r, k_trunc=101, l_max=100)
    cfg = SimConfig(channels=[p], rewards=r, policy=None, l_max=100)
    assert vf.gain == exact.gain == _solve(cfg, r.gamma, DEFAULT_TOL).gain


def test_solver_positive_gain_regime():
    # Mostly-idle channel earns a positive average reward.
    vf = solve_single_channel(ChannelParams(0.85, 0.7), RewardParams(**PRESET_REWARDS))
    assert vf.gain > 0


def test_value_csv_roundtrip(tmp_path, scen1_channel, preset_rewards):
    vf = solve_single_channel(scen1_channel, preset_rewards, l_max=5, tol=1e-6)
    path = tmp_path / "vf.csv"
    vf.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "belief,delay,value,action"
    assert len(lines) == 1 + len(vf.grid) * vf.l_max
    b, l, v, a = lines[1].split(",")
    assert float(b) == vf.grid.points[0]
    assert int(l) == 1
    assert float(v) == vf.values[0, 0]


def test_value_csv_matches_the_row_by_row_format(tmp_path, scen1_channel, preset_rewards):
    vf = solve_single_channel(scen1_channel, preset_rewards, l_max=7, tol=1e-6)
    path = tmp_path / "vf.csv"
    vf.to_csv(path)
    rows = "".join(
        f"{float(b)!r},{l},{float(vf.values[i, l - 1])!r},{int(vf.actions[i, l - 1])}\n"
        for l in range(1, vf.l_max + 1)
        for i, b in enumerate(vf.grid.points)
    )
    assert path.read_text() == "belief,delay,value,action\n" + rows


WARM_CHANNELS = [ChannelParams(0.15, 0.1), ChannelParams(0.85, 0.7), ChannelParams(0.95, 0.05)]
GAMMA_LADDER = [float(g) for g in np.geomspace(0.5, 2000.0, 8)]


@pytest.mark.parametrize("p", WARM_CHANNELS)
def test_warm_started_descriptor_solves_match_cold_solves(p):
    start = None
    for gamma in reversed(GAMMA_LADDER):
        r = RewardParams(**{**PRESET_REWARDS, "gamma": gamma})
        warm = solve_multichannel(2, p, r, k_trunc=8, l_max=10, start=start)
        cold = solve_multichannel(2, p, r, k_trunc=8, l_max=10)
        assert np.array_equal(warm.actions, cold.actions)
        assert abs(warm.gain - cold.gain) <= 1e-9
        start = warm.actions


@pytest.mark.parametrize(
    "solve",
    [lambda p, r, l_max, **kw: solve_multichannel(1, p, r, k_trunc=l_max + 1, l_max=l_max, **kw),
     lambda p, r, **kw: solve_multichannel(2, p, r, k_trunc=4, **kw)],
    ids=["one-channel", "descriptor"],
)
def test_start_table_must_fit_the_model(solve, scen1_channel, preset_rewards):
    table = solve(scen1_channel, preset_rewards, l_max=6).actions
    assert np.array_equal(solve(scen1_channel, preset_rewards, l_max=6, start=table).actions,
                          table)
    with pytest.raises(ValueError, match="shape"):
        solve(scen1_channel, preset_rewards, l_max=7, start=table)
    waiting = np.zeros_like(table)  # waits everywhere, the delay cap included
    with pytest.raises(ValueError, match="fallback action at the delay cap"):
        solve(scen1_channel, preset_rewards, l_max=6, start=waiting)


@pytest.mark.parametrize("fill", [7, -1, 0.7, 2.9, 2.0, None], ids=str)
def test_start_table_must_hold_integer_actions(fill, scen1_channel, preset_rewards):
    # An entry outside 0, 1 and 2, or any table of floats, is refused rather
    # than cast to int8; None puts one action 3 below the cap of a valid table.
    model = dict(n_channels=2, p=scen1_channel, r=preset_rewards, k_trunc=5, l_max=6)
    start = solve_multichannel(**model).actions
    if fill is None:
        start[0] = 3
    else:
        start = np.full(start.shape, fill)
    with pytest.raises(ValueError, match="integer actions 0, 1 or 2"):
        solve_multichannel(**model, start=start)
