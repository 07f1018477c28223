import time

import numpy as np
import pytest

from osa.channel import ChannelParams, stationary_idle
from osa.errors import NoConvergence, StateSpaceTooLarge
from osa.multichannel import (
    STALE,
    DescriptorSpace,
    build_reachable_states,
    solve_multichannel,
)
from osa.solver import Action, RewardParams, solve_single_channel

PRESET = RewardParams(350.0, 50.0, 100.0, 800.0, 10.0)


def test_descriptor_beliefs_match_channel_math():
    p = ChannelParams(0.85, 0.7)
    space = DescriptorSpace(p, k_trunc=6)
    assert space.belief[STALE] == pytest.approx(stationary_idle(p))
    assert space.belief[space.idle_fresh] == pytest.approx(0.85)
    assert space.belief[space.busy_fresh] == pytest.approx(0.7)
    # Aging walks the unsensed update and collapses to stale at the cap.
    c = space.idle_fresh
    b = 0.85
    for _ in range(4):
        c = space.aged[c]
        b = p.beta + (p.alpha - p.beta) * b
        assert space.belief[c] == pytest.approx(b) or c == STALE
    assert space.aged[c] == STALE


def test_descriptor_code_for_age():
    space = DescriptorSpace(ChannelParams(0.5, 0.2), k_trunc=4)
    assert space.codes_for(True, 1) == 1
    assert space.codes_for(False, 2) == 5
    assert space.codes_for(True, 4) == STALE
    assert space.codes_for(False, 99) == STALE


def test_reachable_states_single_channel_small_trunc():
    # k_trunc=2 leaves three descriptors per channel: stale, fresh idle,
    # fresh busy; every delay pairs with each reachable descriptor.
    p = ChannelParams(0.15, 0.1)
    space, states, index = build_reachable_states(1, p, k_trunc=2, l_max=4)
    descs = {codes for codes, _l in states}
    assert descs == {(0,), (1,), (2,)}
    assert len(states) <= 3 * 4
    assert (tuple([STALE]), 1) in index


def test_reachable_states_merged_symmetric():
    p = ChannelParams(0.15, 0.1)
    space, states, index = build_reachable_states(3, p, k_trunc=3, l_max=3)
    for codes, _l in states:
        assert tuple(sorted(codes)) == codes


def test_state_cap_enforced():
    p = ChannelParams(0.15, 0.1)
    with pytest.raises(StateSpaceTooLarge):
        build_reachable_states(4, p, k_trunc=20, l_max=15, state_cap=100)


def test_single_channel_equivalence():
    # The descriptor solver with one channel reproduces the grid solver.
    p = ChannelParams(0.85, 0.7)
    mvf = solve_multichannel(1, p, PRESET, k_trunc=20, l_max=15)
    vf = solve_single_channel(p, PRESET, l_max=15)
    assert mvf.gain == pytest.approx(vf.gain, abs=1e-3)
    agree = sum(
        int(mvf.actions[sid]) == int(vf.action(mvf.max_belief(codes), l))
        for sid, (codes, l) in enumerate(mvf.states)
    )
    assert agree / len(mvf.states) >= 0.99


@pytest.mark.parametrize(
    "alpha,beta,rewards",
    [
        (0.15, 0.10, PRESET),
        (0.85, 0.70, PRESET),
        (0.95, 0.05, PRESET),
        (0.15, 0.10, RewardParams(350.0, 200.0, 100.0, 800.0, 10.0)),
        (0.6, 0.2, RewardParams(1000.0, 895.0, 100.0, 2000.0, 5.0)),
    ],
)
def test_single_channel_descriptor_gain_matches_grid_gain(alpha, beta, rewards):
    # Independent oracle for the grid solver: with one channel the descriptor
    # MDP reaches the same optimum over exact beliefs, without a belief grid.
    p = ChannelParams(alpha, beta)
    mvf = solve_multichannel(1, p, rewards, k_trunc=20, l_max=15)
    vf = solve_single_channel(p, rewards, l_max=15)
    assert mvf.gain == pytest.approx(vf.gain, abs=2e-9)


def test_multichannel_deterministic():
    p = ChannelParams(0.85, 0.7)
    a = solve_multichannel(2, p, PRESET, k_trunc=8, l_max=8, tol=1e-8)
    b = solve_multichannel(2, p, PRESET, k_trunc=8, l_max=8, tol=1e-8)
    assert a.gain == b.gain
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.actions, b.actions)


def test_more_channels_never_hurt():
    # Extra i.i.d. channels can only improve the achievable average reward.
    p = ChannelParams(0.85, 0.7)
    g1 = solve_multichannel(1, p, PRESET, k_trunc=10, l_max=10, tol=1e-8).gain
    g2 = solve_multichannel(2, p, PRESET, k_trunc=10, l_max=10, tol=1e-8).gain
    g4 = solve_multichannel(4, p, PRESET, k_trunc=10, l_max=10, tol=1e-8).gain
    assert g2 >= g1 - 1e-6
    assert g4 >= g2 - 1e-6


def test_forced_fallback_at_cap():
    p = ChannelParams(0.85, 0.7)
    mvf = solve_multichannel(2, p, PRESET, k_trunc=6, l_max=6, tol=1e-8)
    for sid, (codes, l) in enumerate(mvf.states):
        if l == mvf.l_max:
            assert mvf.actions[sid] == int(Action.SENSE_FALLBACK)


def test_lambda_summary_shape_and_range():
    p = ChannelParams(0.15, 0.1)
    mvf = solve_multichannel(2, p, PRESET, k_trunc=10, l_max=10, tol=1e-8)
    lam, violations = mvf.lambda_summary()
    assert lam.shape == (10,)
    assert np.all(lam >= 0) and np.all(lam <= 1)
    assert lam[-1] == 0.0  # cap row: fallback only
    assert isinstance(violations, list)


def test_action_lookup_by_codes():
    p = ChannelParams(0.85, 0.7)
    mvf = solve_multichannel(2, p, PRESET, k_trunc=6, l_max=6, tol=1e-8)
    act = mvf.action_for((STALE, STALE), 1)
    assert act in (Action.WAIT, Action.SENSE_WAIT, Action.SENSE_FALLBACK)
    # Order of codes must not matter.
    assert mvf.action_for((space_code := mvf.space.busy_fresh, STALE), 2) == mvf.action_for(
        (STALE, space_code), 2
    )


@pytest.mark.parametrize(
    "n,k_trunc,l_max,alpha,beta",
    [
        (1, 2, 4, 0.15, 0.1),
        (3, 3, 3, 0.15, 0.1),
        (2, 8, 8, 0.15, 0.1),
        (4, 5, 6, 0.15, 0.1),
        (3, 4, 4, 0.4, 0.4),  # every code has the same belief: ties everywhere
    ],
)
def test_reachable_states_match_tuple_closure(n, k_trunc, l_max, alpha, beta):
    from oracles import reachable_descriptor_states

    p = ChannelParams(alpha, beta)
    space, states, index = build_reachable_states(n, p, k_trunc=k_trunc, l_max=l_max)
    assert len(states) == len(set(states))
    oracle = reachable_descriptor_states(space, n, l_max)
    assert set(states) == oracle
    assert all(index[state] == i for i, state in enumerate(states))
    # Element types too: digests of action tables hash the repr of states.
    assert repr(sorted(states)) == repr(sorted(oracle))


def test_state_keys_past_int64_raise():
    start = time.perf_counter()
    with pytest.raises(StateSpaceTooLarge):
        build_reachable_states(60, ChannelParams(0.15, 0.1), k_trunc=20, l_max=15)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "n,alpha,beta,k_trunc,l_max",
    [(2, 0.85, 0.7, 8, 8), (2, 0.15, 0.1, 10, 10), (1, 0.95, 0.05, 20, 15)],
)
def test_descriptor_solver_returns_bellman_fixed_point(n, alpha, beta, k_trunc, l_max):
    from oracles import descriptor_backup

    mvf = solve_multichannel(n, ChannelParams(alpha, beta), PRESET, k_trunc=k_trunc, l_max=l_max)
    backup = np.array(descriptor_backup(mvf.space, mvf.state_index, mvf.values, PRESET, l_max))
    assert np.abs(backup - mvf.values - mvf.gain).max() <= 1e-9


def test_descriptor_solver_step_cap():
    with pytest.raises(NoConvergence) as err:
        solve_multichannel(2, ChannelParams(0.85, 0.7), PRESET, k_trunc=8, l_max=8, max_iter=1)
    assert err.value.iterations == 1
    assert err.value.span > err.value.tol


def test_descriptor_solver_tolerance_below_final_residual_stops():
    # The evaluation stops at the rounding floor and the table settles in a
    # few steps, so a tolerance below the final residual is reported then.
    start = time.perf_counter()
    with pytest.raises(NoConvergence) as err:
        solve_multichannel(2, ChannelParams(0.15, 0.1), PRESET, k_trunc=10, l_max=10, tol=1e-15)
    assert err.value.iterations < 50
    assert err.value.span > err.value.tol
    assert time.perf_counter() - start < 10.0
