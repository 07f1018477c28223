import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import osa.cli
import osa.sim
from oracles import (
    action_by_key,
    action_for,
    damped_evaluation,
    descriptor_successors,
    exact_evaluation,
    finite_horizon_actions,
    reachable_descriptor_states,
    renewal_gain,
    state_key,
    update_unsensed,
    wait_thresholds,
)
from osa import multichannel, solver
from osa.channel import ChannelParams, iterate_unsensed, stationary_idle
from osa.errors import NoConvergence, StateSpaceTooLarge
from osa.multichannel import (
    STALE,
    DescriptorSpace,
    build_reachable_states,
    solve_multichannel,
)
from osa.scenarios import SCENARIOS
from osa.sim import SlotEnv, _detour
from osa.solver import Action, RewardParams

PRESET = RewardParams(350.0, 50.0, 100.0, 800.0, 10.0)


def _positions(mvf) -> dict:
    """Position of each (codes tuple, delay) state in the solve's arrays."""
    return {state: i for i, state in enumerate(mvf.states)}


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
    states = build_reachable_states(1, p, k_trunc=2, l_max=4).states
    descs = {codes for codes, _l in states}
    assert descs == {(0,), (1,), (2,)}
    assert len(states) <= 3 * 4
    assert states[0] == ((STALE,), 1)


def test_reachable_states_merged_symmetric():
    p = ChannelParams(0.15, 0.1)
    for codes, _l in build_reachable_states(3, p, k_trunc=3, l_max=3).states:
        assert tuple(sorted(codes)) == codes


def test_state_cap_enforced(monkeypatch):
    monkeypatch.setattr(multichannel, "STATE_CAP", 100)
    p = ChannelParams(0.15, 0.1)
    with pytest.raises(StateSpaceTooLarge):
        build_reachable_states(4, p, k_trunc=20, l_max=15)


@pytest.mark.parametrize("state_cap", [20_000, 64_299])
def test_state_cap_counts_states_not_multisets(state_cap, monkeypatch):
    # Preset 1 at N=4 has 10,241 code multisets and 64,300 states: a cap
    # between the two still raises, and the state count itself does not.
    p = ChannelParams(0.15, 0.1)
    monkeypatch.setattr(multichannel, "STATE_CAP", state_cap)
    with pytest.raises(StateSpaceTooLarge):
        build_reachable_states(4, p, k_trunc=20, l_max=15)
    monkeypatch.setattr(multichannel, "STATE_CAP", 64_300)
    assert len(build_reachable_states(4, p, k_trunc=20, l_max=15).keys) == 64_300


def _table_policy(mvf):
    """The one-channel descriptor table as a renewal_gain policy."""
    space = mvf.space
    return lambda sensed_idle, age, delay: action_for(mvf, [space.codes_for(sensed_idle, age)], delay)


def test_single_channel_equivalence():
    # The descriptor solver with one channel against the finite-horizon
    # oracle's actions at the exactly reachable beliefs, and its gain against
    # the renewal oracle's for its own table.
    p = ChannelParams(0.85, 0.7)
    mvf = solve_multichannel(1, p, PRESET, k_trunc=20, l_max=15)
    assert mvf.gain == pytest.approx(renewal_gain(p, PRESET, _table_policy(mvf)), abs=1e-3)
    acts = finite_horizon_actions(p, PRESET, horizon=30, l_max=15)
    by_key = action_by_key(mvf)
    compared = agree = 0
    for start, sensed_idle in ((p.alpha, True), (p.beta, False)):
        b = start
        for age in range(1, 16):
            for l in range(age, 16):
                key = state_key(mvf.space, [mvf.space.codes_for(sensed_idle, age)], l)
                if key in by_key:
                    compared += 1
                    agree += by_key[key] == acts[(b, l)]
            b = update_unsensed(p, b)
    for l in range(1, 16):  # never sensed: the stationary belief
        compared += 1
        agree += int(action_for(mvf, [STALE], l)) == acts[(stationary_idle(p), l)]
    assert compared >= 100
    assert agree / compared >= 0.99


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
    # The gain that N=1 solve reports with its grid is the one-channel
    # descriptor gain; the renewal oracle counts the cycles of the same table
    # on exact beliefs, without the solver's evaluation.
    p = ChannelParams(alpha, beta)
    mvf = solve_multichannel(1, p, rewards, k_trunc=20, l_max=15)
    assert mvf.gain == pytest.approx(renewal_gain(p, rewards, _table_policy(mvf)), abs=2e-9)


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


@pytest.mark.parametrize("n", [2, 3])
def test_lambda_summary_matches_per_state_loop(n):
    # Solved tables with and without violations, random tables, and random
    # per-layer cuts with a few flipped states.  Many states share one max
    # belief, so waiting and non-waiting states tie at the top waiting belief.
    rng = np.random.default_rng(n)
    ties = 0
    for p, r in [
        (ChannelParams(0.6, 0.2), RewardParams(350.0, 150.0, 100.0, 800.0, 10.0)),
        (ChannelParams(0.95, 0.05), PRESET),
    ]:
        mvf = solve_multichannel(n, p, r, k_trunc=6, l_max=8)
        beliefs = [max(mvf.space.belief[c] for c in codes) for codes, _ in mvf.states]
        delays = [d for _, d in mvf.states]
        cut = np.array(beliefs) <= rng.choice(beliefs, mvf.l_max)[mvf.delays - 1]
        flipped = cut.copy()
        flipped[rng.integers(0, len(cut), 6)] ^= True
        tables = [mvf.actions, rng.integers(0, 3, len(beliefs))]
        tables += [np.where(wait, int(Action.WAIT), int(Action.SENSE_FALLBACK)) for wait in (cut, flipped)]
        for actions in tables:
            waits = [a == int(Action.WAIT) for a in actions.tolist()]
            lam, violations = replace(mvf, actions=actions).lambda_summary()
            want_lam, want_violations = wait_thresholds(list(zip(beliefs, delays, waits)), mvf.l_max)
            assert lam.tolist() == want_lam
            assert violations == want_violations
            for l in range(1, mvf.l_max + 1):
                layer = [(b, w) for b, d, w in zip(beliefs, delays, waits) if d == l]
                top = max((b for b, w in layer if w), default=None)
                ties += any(b == top and not w for b, w in layer)
    assert ties > 0


def test_action_lookup_by_codes():
    p = ChannelParams(0.85, 0.7)
    mvf = solve_multichannel(2, p, PRESET, k_trunc=6, l_max=6, tol=1e-8)
    act = action_for(mvf, (STALE, STALE), 1)
    assert act in (Action.WAIT, Action.SENSE_WAIT, Action.SENSE_FALLBACK)
    # Order of codes must not matter.
    assert action_for(mvf, (space_code := mvf.space.busy_fresh, STALE), 2) == action_for(
        mvf, (STALE, space_code), 2
    )


def _assert_matches_tuple_closure(reach, n, l_max):
    states = reach.states
    assert len(states) == len(set(states))
    oracle = reachable_descriptor_states(reach.space, n, l_max)
    assert set(states) == oracle
    assert reach.keys.tolist() == [state_key(reach.space, codes, l) for codes, l in states]
    # codes and delays are unpacked from the keys and layers they pack into.
    assert np.array_equal(reach.space.pack(reach.codes, reach.delays), reach.keys)
    # Element types too: digests of action tables hash the repr of states.
    assert repr(sorted(states)) == repr(sorted(oracle))


def _assert_table_matches_successors(reach):
    """Every successor table entry against the state-by-state oracle."""
    t, space, l_max = reach, reach.space, reach.l_max
    index = {state: i for i, state in enumerate(reach.states)}
    assert t.layers.tolist() == [
        next((i for i, (_, d) in enumerate(reach.states) if d >= l), len(index))
        for l in range(1, l_max + 2)
    ]
    for i, (codes, l) in enumerate(reach.states):
        succ = [index[state] for state in descriptor_successors(space, codes, l, l_max)]
        # moves senses the lowest index among the max-belief codes of the
        # sorted row.
        top = max(space.belief[c] for c in codes)
        assert (t.b[i], t.sensed_code[i]) == (top, next(c for c in codes if space.belief[c] == top))
        assert (t.up_wait[i], t.up_busy[i]) == ((succ[0], succ[2]) if l < l_max else (i, i))
        assert (t.idle1[i], t.busy1[i]) == (succ[-2], succ[-1])


CLOSURE_MODELS = [
    (1, 2, 4, 0.15, 0.1),
    (3, 3, 3, 0.15, 0.1),
    (2, 8, 8, 0.15, 0.1),
    (4, 5, 6, 0.15, 0.1),
    (3, 4, 4, 0.4, 0.4),  # every code has the same belief: ties everywhere
    (3, 5, 5, 0.1, 0.9),  # alpha < beta: aging reverses the belief order
]


@pytest.mark.parametrize("n,k_trunc,l_max,alpha,beta", CLOSURE_MODELS)
def test_reachable_states_match_tuple_closure(n, k_trunc, l_max, alpha, beta):
    reach = build_reachable_states(n, ChannelParams(alpha, beta), k_trunc=k_trunc, l_max=l_max)
    _assert_matches_tuple_closure(reach, n, l_max)


@pytest.mark.parametrize("n,k_trunc,l_max,alpha,beta", CLOSURE_MODELS)
def test_successor_table_matches_oracle(n, k_trunc, l_max, alpha, beta):
    reach = build_reachable_states(n, ChannelParams(alpha, beta), k_trunc=k_trunc, l_max=l_max)
    _assert_table_matches_successors(reach)


@st.composite
def _channels(draw):
    """alpha above, below or equal to beta."""
    alpha = draw(st.floats(0.05, 0.95))
    return ChannelParams(alpha, draw(st.one_of(st.just(alpha), st.floats(0.05, 0.95))))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), k_trunc=st.integers(1, 6), l_max=st.integers(2, 6), p=_channels())
def test_reachable_states_and_table_match_oracles(n, k_trunc, l_max, p):
    reach = build_reachable_states(n, p, k_trunc=k_trunc, l_max=l_max)
    _assert_matches_tuple_closure(reach, n, l_max)
    _assert_table_matches_successors(reach)


@pytest.mark.parametrize("n,k_trunc,l_max", [(2, 8, 8), (3, 4, 5)])
def test_state_tuples_are_built_on_first_read(n, k_trunc, l_max):
    from oracles import descriptor_backup

    p = ChannelParams(0.15, 0.1)
    mvf = solve_multichannel(n, p, PRESET, k_trunc=k_trunc, l_max=l_max)
    SlotEnv([p] * n, PRESET, seed=1, l_max=l_max).run(mvf, slots=200)
    assert "states" not in mvf.reach.__dict__
    states = mvf.states
    oracle = reachable_descriptor_states(mvf.space, n, l_max)
    assert set(states) == oracle
    assert repr(sorted(states)) == repr(sorted(oracle))
    assert all(
        action_for(mvf, codes[::-1], l) == Action(mvf.actions[i])
        for i, (codes, l) in enumerate(states)
    )
    backup = np.array(descriptor_backup(mvf.space, _positions(mvf), mvf.values, PRESET, l_max))
    assert np.abs(backup - mvf.values - mvf.gain).max() <= 1e-9


def test_cli_solve_summary_leaves_state_tuples_unbuilt(monkeypatch, tmp_path, capsys):
    solved = []

    def solve(*args, **kwargs):
        solved.append(solve_multichannel(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(osa.cli, "solve_multichannel", solve)
    argv = ["solve", "--scenario", "3", "--ktrunc", "6", "--lmax", "8", "--out", str(tmp_path)]
    assert osa.cli.main(argv) == 0
    (mvf,) = solved
    assert "states" not in mvf.reach.__dict__
    out = capsys.readouterr().out
    assert f"  states: {len(mvf.delays)}\n" in out
    assert "  k_trunc: 6\n" in out
    assert f"  truncation_bound: {mvf.space.truncation_bound}\n" in out


@pytest.mark.parametrize(
    "alpha,beta,k_trunc",
    [(0.15, 0.1, 20), (0.85, 0.7, 20), (0.95, 0.05, 20), (0.95, 0.05, 40), (0.3, 0.8, 5),
     (0.6, 0.2, 1)],
)
def test_truncation_bound_is_the_belief_error_at_collapse(alpha, beta, k_trunc):
    # A channel last sensed k_trunc slots ago is stale; its exact belief then
    # is the k_trunc - 1 fold unsensed update of alpha or beta.  Beliefs
    # resolve differences from pi0 only down to a few ulps of pi0.
    p = ChannelParams(alpha, beta)
    pi0 = stationary_idle(p)
    error = max(abs(iterate_unsensed(p, start, k_trunc - 1) - pi0) for start in (alpha, beta))
    bound = DescriptorSpace(p, k_trunc).truncation_bound
    assert bound == pytest.approx(error, rel=1e-9, abs=4 * np.spacing(pi0))


def test_reach_of_another_model_is_rejected():
    p = ChannelParams(0.85, 0.7)
    reach = solve_multichannel(2, p, PRESET, k_trunc=6, l_max=6).reach
    assert solve_multichannel(2, p, PRESET, k_trunc=6, l_max=6, reach=reach).reach is reach
    for n, q, k, l in [(3, p, 6, 6), (2, ChannelParams(0.85, 0.6), 6, 6), (2, p, 5, 6), (2, p, 6, 7)]:
        with pytest.raises(ValueError, match="another model"):
            solve_multichannel(n, q, PRESET, k_trunc=k, l_max=l, reach=reach)


def test_reach_holds_each_state_once():
    # Preset 1 at N=4, k_trunc 20 and l_max 15: each state is its packed key,
    # its sensed code and belief, and its four successors.  Holding the code
    # rows and delays as well took 76 B per state.
    reach = build_reachable_states(4, SCENARIOS[1].channel, k_trunc=20, l_max=15)
    n = len(reach.keys)
    arrays = [a for a in vars(reach).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays if len(a) == n) <= 52 * n


def test_solve_and_descriptor_walk_read_no_codes_or_delays(monkeypatch):
    # Preset 1 at N=4, k_trunc 20: the solve, its summary and an episode
    # whose float ties leave the successor table (_detour) read the keys,
    # layers and successors only, never the code rows and delays that are
    # unpacked on each read.
    def unpacked(self):
        raise AssertionError("read the unpacked codes or delays")

    monkeypatch.setattr(multichannel.ReachableStates, "codes", property(unpacked))
    monkeypatch.setattr(multichannel.ReachableStates, "delays", property(unpacked))
    detours = []

    def detour(*args):
        detours.append(args)
        return _detour(*args)

    monkeypatch.setattr(osa.sim, "_detour", detour)
    sc = SCENARIOS[1]
    mvf = solve_multichannel(4, sc.channel, sc.rewards, k_trunc=20, l_max=15)
    mvf.lambda_summary()
    assert mvf.dedicated_switch_delay() == 15
    SlotEnv(sc.channels(), sc.rewards, 0, 15).run(mvf, slots=10_000)
    assert len(detours) >= 10


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
    backup = np.array(descriptor_backup(mvf.space, _positions(mvf), mvf.values, PRESET, l_max))
    assert np.abs(backup - mvf.values - mvf.gain).max() <= 1e-9


# sha256 of actions.tobytes() and the gain of each preset's N=4, L=15,
# k_trunc=20 solve, recorded at commit 509a732.  Presets 2 and 3 reach the
# same states and solve to the same table.
PRESET_TABLES = {
    1: ("af038ba6cf6a4e1b653fe22e493da497c75cae803b16a92c1edaae6f4d869f3f", -40.50228407379247),
    2: ("219fdccd657784da2f2be171ddd2427afc456fc5876d47a4fe4766ff0f7f38eb", 161.26947560531852),
    3: ("219fdccd657784da2f2be171ddd2427afc456fc5876d47a4fe4766ff0f7f38eb", 166.42910723689317),
}


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_preset_action_tables_are_pinned(scenario, preset_solves):
    digest, gain = PRESET_TABLES[scenario]
    mvf = preset_solves(scenario)
    assert hashlib.sha256(mvf.actions.tobytes()).hexdigest() == digest
    assert abs(mvf.gain - gain) <= 1e-9


@pytest.mark.parametrize(
    "gamma", [39.95477403899639, 40.685968826071665, 41.203529296168675, 43.62290514443638]
)
def test_evaluation_stops_within_the_span_tol_asks_for(gamma, tmp_path):
    # Each gamma lies 1e-7 (relative) above one where the preset-1 table
    # changes.  Stopping GMRES on the 2-norm of its residual alone left a
    # residual span of 1.1e-9 to 3.3e-9 in the delay-1 states, above tol =
    # 1e-9, and `solve` exited 2.  The table solved there is the one a little
    # further above.  (At the second gamma the table changes twice more
    # between gamma (1 + 5e-7) and gamma (1 + 1e-6), so the comparison is
    # made at gamma (1 + 1e-7).)
    argv = ["solve", "--scenario", "1", "--lmax", "15", "--gamma", repr(gamma)]
    assert osa.cli.main([*argv, "--out", str(tmp_path)]) == 0
    sc = SCENARIOS[1]
    reach = build_reachable_states(sc.n_channels, sc.channel, k_trunc=20, l_max=15)
    at, above = (
        solve_multichannel(sc.n_channels, sc.channel, replace(sc.rewards, gamma=g),
                           k_trunc=20, l_max=15, reach=reach)
        for g in (gamma, gamma * (1 + 1e-7))
    )
    assert at.residual_span <= at.tol
    assert np.array_equal(at.actions, above.actions)


def test_descriptor_solver_step_cap(monkeypatch):
    # MAX_ITER also caps the matrix-vector products of each
    # evaluation, so at 1 the first evaluation raises, before the first
    # policy step ends.
    monkeypatch.setattr(multichannel, "MAX_ITER", 1)
    with pytest.raises(NoConvergence) as err:
        solve_multichannel(2, ChannelParams(0.85, 0.7), PRESET, k_trunc=8, l_max=8)
    assert err.value.iterations == 1
    assert err.value.span > err.value.tol


def test_descriptor_solver_tolerance_below_final_residual_stops():
    # The evaluation stops at a residual of 1e-13 and the table settles in a
    # few steps, so a tolerance below the final residual is reported then.
    start = time.perf_counter()
    with pytest.raises(NoConvergence) as err:
        solve_multichannel(2, ChannelParams(0.15, 0.1), PRESET, k_trunc=10, l_max=10, tol=1e-15)
    assert err.value.iterations < 50
    assert err.value.span > err.value.tol
    assert time.perf_counter() - start < 10.0


def _fixed_backup(t, rewards, actions, v):
    """One backup of the values v under a fixed action table."""
    q_idle = t.b * v[t.idle1]
    return np.choose(actions, (
        rewards[0] + v[t.up_wait],
        rewards[1] + q_idle + (1.0 - t.b) * v[t.up_busy],
        rewards[2] + q_idle + (1.0 - t.b) * v[t.busy1],
    ))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    k_trunc=st.integers(1, 6),
    l_max=st.integers(2, 6),
    beta=st.floats(0.02, 0.98),
    alpha=st.one_of(st.none(), st.floats(0.02, 0.98)),  # None: alpha = beta
    seed=st.integers(0, 2**16),
)
def test_gmres_evaluation_matches_exact_evaluation(n, k_trunc, l_max, beta, alpha, seed):
    # Random action tables, fallback at the delay cap, evaluated from random
    # delay-1 values.  GMRES returns values that satisfy the evaluation
    # equations up to rounding, or raises exactly where the dense solve of
    # the whole chain is singular (a table whose chain has two recurrent
    # classes has no single gain).  Otherwise both give one gain, and one set
    # of values to 1e-9 of their scale: values reach 1e6 on slowly mixing
    # chains, where rounding alone moves them by 1e-7.
    reach = build_reachable_states(n, ChannelParams(beta if alpha is None else alpha, beta),
                                   k_trunc=k_trunc, l_max=l_max)
    t = reach
    rewards = solver.immediate_rewards(PRESET, t.b, PRESET.penalty_table(l_max)[reach.delays - 1])
    rng = np.random.default_rng(seed)
    actions = rng.integers(0, 3, len(reach.delays)).astype(np.int8)
    actions[t.cap] = Action.SENSE_FALLBACK
    v1 = rng.normal(0.0, 100.0, t.layers[1])
    v1[0] = 0.0  # as every table's values are, at the reference state
    exact = exact_evaluation(t, rewards, actions)
    try:
        gmres = multichannel._evaluate(t, rewards, actions, v1.copy(), 1.0 - t.b, solver.DEFAULT_TOL)
    except NoConvergence:
        assert exact is None
        reject()
    assert exact is not None
    gain, values = exact
    step = _fixed_backup(t, rewards, actions, gmres) - gmres
    assert gmres[0] == 0.0
    assert np.ptp(step) <= 1e-12 * (1.0 + np.abs(gmres).max())
    assert abs(step[0] - gain) <= 1e-9
    assert np.abs(gmres - values).max() <= 1e-9 * (1.0 + np.abs(values).max())


def test_table_with_two_recurrent_classes_raises():
    # Under this table the delay-1 states {1, 2} and {3, 7, 14} are closed
    # classes of the embedded chain, so its evaluation equations have no
    # solution with one gain: GMRES stalls and raises rather than return one.
    reach = build_reachable_states(2, ChannelParams(0.0566896118459993, 0.5767224441192895),
                                   k_trunc=6, l_max=3)
    t = reach
    actions = np.array([int(a) for a in
                        "102122010012020011201001012021212122022222222222222222222"], dtype=np.int8)
    rewards = solver.immediate_rewards(PRESET, t.b, PRESET.penalty_table(3)[reach.delays - 1])
    with pytest.raises(NoConvergence) as err:
        multichannel._evaluate(t, rewards, actions, np.zeros(t.layers[1]), 1.0 - t.b, solver.DEFAULT_TOL)
    assert err.value.span > err.value.tol


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_gmres_and_damped_evaluations_solve_to_one_table(scenario, monkeypatch):
    sc = SCENARIOS[scenario]
    solved = []
    for evaluate in (multichannel._evaluate, damped_evaluation):
        monkeypatch.setattr(multichannel, "_evaluate", evaluate)
        solved.append(solve_multichannel(sc.n_channels, sc.channel, sc.rewards, k_trunc=20, l_max=15))
    assert np.array_equal(solved[0].actions, solved[1].actions)
    assert abs(solved[0].gain - solved[1].gain) <= 1e-9


def test_stalled_evaluation_raises_within_one_restart_cycle():
    # GMRES makes no progress on a cyclic shift longer than its Krylov basis
    # from the residual e_1: the first cycle leaves the residual where it
    # was, and the solve stops there rather than restarting up to the cap.
    products = []

    def shift(y):
        products.append(1)
        return np.roll(y, 1)

    b = np.zeros(2 * multichannel._RESTART)
    b[0] = 1.0
    with pytest.raises(NoConvergence) as err:
        multichannel._gmres(shift, b, np.zeros(len(b)), b.copy(), 1e-9)
    assert len(products) == err.value.iterations == multichannel._RESTART + 1
    assert err.value.span == 1.0
