import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import osa.multichannel
import osa.sim
import osa.solver
from oracles import ReferenceSlotEnv, update_counts, update_sensed, update_unsensed
from osa.channel import ChannelParams, stationary_idle
from osa.errors import DelayOverflow, TargetUnreachable
from osa.learn import (
    CountingStats,
    LearnerConfig,
    LearnTraceRow,
    constant_threshold_policy,
    run_learning,
)
from osa.multichannel import (
    STALE,
    MultichannelValueFunction,
    build_reachable_states,
    solve_multichannel,
)
from osa.policy import MemorylessPolicy, ThresholdPolicy, extract_thresholds
from osa.scenarios import SCENARIOS
from osa.sim import (
    ChannelStreams,
    CompareRow,
    SimConfig,
    SlotEnv,
    SweepRow,
    TraceRow,
    _Episodes,
    _match_gamma,
    _solve,
    _state,
    compare_with_memoryless,
    idle_flags,
    little_check,
    run_episode,
    sweep_gamma,
    write_rows,
)
from osa.solver import Action, RewardParams, solve_single_channel

PRESET = RewardParams(350.0, 50.0, 100.0, 800.0, 10.0)
SCEN1 = ChannelParams(0.15, 0.1)


def mp_cfg(k=1, **kw):
    base = dict(channels=[SCEN1], rewards=PRESET, policy=MemorylessPolicy(k), seed=5)
    base.update(kw)
    return SimConfig(**base)


def test_mp1_delivers_every_slot():
    m, _ = run_episode(mp_cfg())
    assert m.avg_delay == 1.0
    assert m.throughput == 1.0
    assert m.slots == m.packets == 3000
    assert m.waits == 0
    assert m.senses == 3000


def test_mp1_energy_matches_stationary_expectation():
    m, _ = run_episode(mp_cfg())
    pi0 = stationary_idle(SCEN1)
    expected = 50 + pi0 * 100 + (1 - pi0) * 800
    assert m.energy_per_packet == pytest.approx(expected, abs=10)


def test_determinism_bit_identical():
    a, _ = run_episode(mp_cfg(k=3, seed=42))
    b, _ = run_episode(mp_cfg(k=3, seed=42))
    assert a == b
    c, _ = run_episode(mp_cfg(k=3, seed=43))
    assert c != a


def test_accounting_conservation():
    m, _ = run_episode(mp_cfg(k=4, seed=9))
    assert m.slots == m.waits + m.senses
    assert m.primary_tx + m.dedicated_tx == m.packets
    energy = 50 * m.senses + 100 * m.primary_tx + 800 * m.dedicated_tx
    assert m.energy_per_packet == pytest.approx(energy / m.packets)
    assert m.energy_per_slot == pytest.approx(energy / m.slots)


def test_little_identity_exact():
    # avg_delay and 1/throughput agree by slot accounting; the MP-1 anchor
    # pins the offset at zero.
    for k in (1, 3, 6):
        m, _ = run_episode(mp_cfg(k=k, seed=8))
        assert little_check(m) <= 1e-9


def test_little_residual_does_not_grow_with_packets():
    m_small, _ = run_episode(mp_cfg(k=3, seed=2, num_packets=3000))
    m_large, _ = run_episode(mp_cfg(k=3, seed=2, num_packets=30000))
    assert little_check(m_large) <= little_check(m_small) + 1e-9


def test_optimal_policy_episode_and_little(scen1_policy):
    tp, vf = scen1_policy
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=tp, seed=11)
    m, _ = run_episode(cfg)
    assert little_check(m) <= 0.05
    # Simulated per-slot reward is consistent with the solved gain.
    assert m.avg_reward == pytest.approx(vf.gain, abs=3.0)


@pytest.fixture(scope="module")
def scen1_policy():
    vf = solve_single_channel(SCEN1, PRESET, tol=1e-8)
    return extract_thresholds(vf), vf


def test_optimal_beats_baselines(scen1_policy):
    # Average-reward dominance over the baselines at 3-standard-error slack,
    # with standard errors from per-batch means.
    tp, vf = scen1_policy

    def batch_rewards(policy, seed):
        rewards = []
        for i in range(10):
            m, _ = run_episode(
                SimConfig(channels=[SCEN1], rewards=PRESET, policy=policy,
                          num_packets=300, seed=seed + 1000 * i)
            )
            rewards.append(m.avg_reward)
        return np.array(rewards)

    opt = batch_rewards(tp, 1)
    for k in (1, 2, 5, 13, 30):
        base = batch_rewards(MemorylessPolicy(k), 1)
        se = math.sqrt(opt.var(ddof=1) / 10 + base.var(ddof=1) / 10)
        assert opt.mean() >= base.mean() - 3 * se
    rng = np.random.default_rng(0)
    for trial in range(3):
        lam = np.full(tp.l_max, float(rng.uniform(0, 0.3)))
        lam[-1] = 0.0
        rand_tp = ThresholdPolicy(lambda_star=lam, l_star=int(rng.integers(2, 30)), l_max=tp.l_max)
        base = batch_rewards(rand_tp, 1)
        se = math.sqrt(opt.var(ddof=1) / 10 + base.var(ddof=1) / 10)
        assert opt.mean() >= base.mean() - 3 * se


def test_belief_replay_matches_trace():
    # Replaying the logged actions/observations through the belief updates
    # reproduces the recorded belief of the sensed channel exactly.
    channels = [ChannelParams(0.85, 0.7), ChannelParams(0.85, 0.7)]
    cfg = SimConfig(channels=channels, rewards=PRESET, policy=MemorylessPolicy(4),
                    num_packets=500, seed=21, collect_trace=True)
    _, trace = run_episode(cfg)
    beliefs = np.array([stationary_idle(p) for p in channels])
    for row in trace:
        target = int(np.argmax(beliefs))
        assert beliefs[target] == row.belief_sensed_channel
        for i, p in enumerate(channels):
            if row.action != int(Action.WAIT) and i == target:
                beliefs[i] = update_sensed(p, row.observation)
            else:
                beliefs[i] = update_unsensed(p, beliefs[i])


def test_multichannel_descriptor_policy_runs():
    p = ChannelParams(0.85, 0.7)
    mvf = solve_multichannel(2, p, PRESET, k_trunc=8, l_max=8, tol=1e-8)
    cfg = SimConfig(channels=[p, p], rewards=PRESET, policy=mvf, seed=3,
                    num_packets=2000, l_max=8, k_trunc=8)
    m, _ = run_episode(cfg)
    assert m.avg_reward == pytest.approx(mvf.gain, abs=5.0)
    assert little_check(m) <= 1e-9


@pytest.mark.parametrize("n", [1, 3])
def test_descriptor_policy_on_another_channel_count_is_rejected(n):
    # Keys packed for two channels mean nothing at n channels: the run stops
    # before its first slot, naming both counts.
    p = ChannelParams(0.85, 0.7)
    mvf = solve_multichannel(2, p, PRESET, k_trunc=6, l_max=8, tol=1e-8)
    cfg = SimConfig(channels=[p] * n, rewards=PRESET, policy=mvf, seed=3,
                    num_packets=100, l_max=8, k_trunc=6)
    with pytest.raises(ValueError, match=f"solved for 2 channels run on {n}"):
        run_episode(cfg)


def test_delay_overflow_detected():
    always_wait = ThresholdPolicy(lambda_star=np.ones(5), l_star=5, l_max=5)
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=always_wait,
                    num_packets=10, seed=1, l_max=5)
    with pytest.raises(DelayOverflow, match="^wait at delay cap 5$"):
        run_episode(cfg)


def test_env_refuses_reuse_after_delay_overflow():
    # The overflow stops the tallies part way through a slot, so the env
    # must not run on or report metrics.
    env = SlotEnv([ChannelParams(0.05, 0.05)], PRESET, seed=0, l_max=6)
    with pytest.raises(DelayOverflow, match="busy sense-wait at delay cap 6"):
        env.run(MemorylessPolicy(7), packets=10)
    with pytest.raises(DelayOverflow, match="unusable"):
        env.run(MemorylessPolicy(1), slots=1)
    with pytest.raises(DelayOverflow, match="unusable"):
        env.metrics()


def test_sweep_trends_scenario1():
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=1000)
    rows = sweep_gamma(cfg, np.geomspace(4, 400, 5), solver_tol=1e-7)
    delays = [r.avg_delay for r in rows]
    energies = [r.energy_per_slot for r in rows]
    assert all(delays[i + 1] <= delays[i] + 1e-12 for i in range(len(rows) - 1))
    assert all(energies[i + 1] >= energies[i] - 1e-12 for i in range(len(rows) - 1))
    with pytest.raises(ValueError):
        sweep_gamma(cfg, [0.0, 1.0])
    # Checked before any solve: RewardParams's own message lacks "and positive".
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"gamma={bad} must be finite and positive"):
            sweep_gamma(cfg, [1.0, bad])


def test_sweep_csv(tmp_path):
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500)
    rows = sweep_gamma(cfg, [10.0, 100.0], solver_tol=1e-6)
    path = tmp_path / "sweep.csv"
    write_rows(path, SweepRow, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == (
        "gamma,avg_delay,energy_per_packet,energy_per_slot,"
        "throughput,avg_reward,senses,primary_tx,dedicated_tx"
    )
    assert len(lines) == 3


def test_gamma_bisection_hits_probe_targets():
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=1000)
    probe = sweep_gamma(cfg, [30.0], solver_tol=1e-7)[0]
    runs = _Episodes(cfg, 1e-7)
    gamma = _match_gamma(runs, probe.avg_delay, 0.25)
    assert abs(runs.episode(gamma).avg_delay - probe.avg_delay) <= 0.25


def test_gamma_bisection_unreachable():
    # A target below the delay at the bracket's top end, by more than tol:
    # the error carries the delays at both ends.
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500)
    runs = _Episodes(cfg, 1e-6)
    with pytest.raises(TargetUnreachable) as err:
        _match_gamma(runs, 0.5, 0.05)
    low, high = (runs.episode(g).avg_delay for g in reversed(osa.sim.GAMMA_BRACKET))
    assert (err.value.low, err.value.high) == (low, high)
    assert 0.5 + 0.05 < low < high


@pytest.mark.filterwarnings("ignore::osa.policy.DelayCapBound")
@pytest.mark.parametrize("l_max", [5, 15, 50])
@pytest.mark.parametrize("alpha,beta", [(0.15, 0.1), (0.85, 0.7), (0.95, 0.05), (0.3, 0.7)])
def test_one_channel_descriptor_table_runs_the_grid_thresholds_episode(alpha, beta, l_max):
    # Simulated N = 1 runs act on the exact descriptor table (k_trunc =
    # l_max + 1); the thresholds read off the belief grid, which solve writes
    # to policy.csv, run the same slots.  At k_trunc = l_max a packet
    # that waits l_max - 1 slots would see a stale belief at the cap: at
    # (0.95, 0.05) and l_max 5 that model's gain is 97.9 against the grid's
    # 41.5, and its table runs other episodes.
    p = ChannelParams(alpha, beta)
    for gamma in (1.0, 10.0, 100.0):
        r = replace(PRESET, gamma=gamma)
        cfg = SimConfig(channels=[p], rewards=r, policy=None, seed=3, num_packets=1000,
                        l_max=l_max, collect_trace=True)
        grid = extract_thresholds(solve_single_channel(p, r, l_max=l_max))
        table = solve_multichannel(1, p, r, k_trunc=l_max + 1, l_max=l_max)
        assert run_episode(replace(cfg, policy=grid)) == run_episode(replace(cfg, policy=table))


def test_episodes_are_shared_and_sweep_rows_run_at_their_own_gamma():
    # Nearby gammas solve to the same policy, whose episode is shared: it
    # ran at the first gamma, and only its avg_reward depends on gamma.  A
    # sweep row runs its table at its own gamma.
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500, l_max=15)
    runs = _Episodes(cfg, 1e-7)
    shared = runs.episode(10.0)
    assert runs.episode(10.001) is shared
    vf = _solve(cfg, 10.001, 1e-7)
    fresh, _ = run_episode(replace(cfg, policy=vf, rewards=vf.rewards))
    assert fresh.avg_reward != shared.avg_reward
    assert replace(fresh, avg_reward=shared.avg_reward) == shared
    assert sweep_gamma(cfg, [10.0, 10.001], solver_tol=1e-7) == [
        SweepRow.of(10.0, shared), SweepRow.of(10.001, fresh)
    ]


def test_compare_warm_starts_take_fewer_policy_iteration_steps(monkeypatch):
    # The same compare runs twice through a wrapped descriptor solver: once
    # as it is, once with every start table dropped.  Steps are counted, not
    # timed.
    real = osa.sim.solve_multichannel
    calls, steps = {}, {}

    def counted(cold):
        def wrapped(*args, start=None, **kwargs):
            out = real(*args, start=None if cold else start, **kwargs)
            calls[cold] = calls.get(cold, 0) + 1
            steps[cold] = steps.get(cold, 0) + out.iterations
            return out
        return wrapped

    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500, l_max=15)
    rows = {}
    for cold in (False, True):
        monkeypatch.setattr(osa.sim, "solve_multichannel", counted(cold))
        rows[cold] = compare_with_memoryless(cfg, [2, 3], solver_tol=1e-7)
    assert rows[False] == rows[True]
    assert calls[False] == calls[True]
    assert steps[False] < steps[True]


@pytest.mark.parametrize("call,per_gamma", [
    (lambda cfg: sweep_gamma(cfg, [1.0, 3.0, 10.0, 30.0, 100.0]), True),
    (lambda cfg: _match_gamma(_Episodes(cfg, osa.solver.DEFAULT_TOL), 2.0, 0.3), False),
    (lambda cfg: compare_with_memoryless(cfg, [2, 3]), False),
], ids=["sweep", "target", "compare"])
def test_episodes_keyed_by_behaviour_are_shared(monkeypatch, call, per_gamma):
    # Each call runs twice: as it is, and with every episode run fresh at its
    # own gamma.  The results agree.  As it is, the searches run one episode
    # per distinct action table, fewer than they solve; a sweep runs one per
    # gamma, at that gamma.
    real_run, real_solve = osa.sim.run_episode, osa.sim.solve_multichannel
    tables, episodes, out = {}, {}, {}

    def fresh(runs, gamma):
        mvf = runs.solve(gamma)
        return osa.sim.run_episode(replace(runs.cfg, policy=mvf, rewards=mvf.rewards))[0]

    def solve(*args, **kwargs):
        mvf = real_solve(*args, **kwargs)
        tables.setdefault(own, []).append(mvf.actions.tobytes())
        return mvf

    def run(cfg):
        if isinstance(cfg.policy, MultichannelValueFunction):
            episodes.setdefault(own, []).append(cfg.policy.actions.tobytes())
        return real_run(cfg)

    monkeypatch.setattr(osa.sim, "solve_multichannel", solve)
    monkeypatch.setattr(osa.sim, "run_episode", run)
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500, l_max=15)
    for own in (False, True):
        if own:
            monkeypatch.setattr(_Episodes, "episode", fresh)
        out[own] = call(cfg)
    assert out[False] == out[True]
    shared, solved = episodes[False], tables[False]
    if per_gamma:
        assert shared == solved == episodes[True] and len(shared) == 5
    else:
        assert sorted(shared) == sorted(set(solved))
        assert len(shared) < len(solved) <= len(episodes[True])


_DESCRIPTOR_CALLS = {
    "sweep": lambda cfg: sweep_gamma(cfg, [1.0, 3.0, 10.0, 30.0, 100.0]),
    "target": lambda cfg: _match_gamma(_Episodes(cfg, osa.solver.DEFAULT_TOL), 1.5, 0.3),
    "compare": lambda cfg: compare_with_memoryless(cfg, [2, 3]),
}


@pytest.mark.parametrize("call,n", [
    *[(call, 2) for call in _DESCRIPTOR_CALLS.values()],
    *[(call, 1) for call in _DESCRIPTOR_CALLS.values()],
], ids=[*_DESCRIPTOR_CALLS, *[f"{name}-n1" for name in _DESCRIPTOR_CALLS]])
def test_descriptor_calls_enumerate_once(monkeypatch, call, n):
    # Each call runs twice: as it is, and with every solve made from scratch
    # (no start table, no shared states).  The first enumerates the
    # descriptor states once, the second once per gamma; rows, action tables
    # and gains agree.
    real_enumerate, real_solve, real_sim_solve = (
        osa.multichannel.build_reachable_states, osa.sim.solve_multichannel, osa.sim._solve)
    enumerations, solved = {}, {}

    def counting(cold):
        def enumerate_states(*args, **kwargs):
            enumerations[cold] = enumerations.get(cold, 0) + 1
            return real_enumerate(*args, **kwargs)

        def solve(*args, **kwargs):
            mvf = real_solve(*args, **kwargs)
            solved.setdefault(cold, {})[mvf.rewards.gamma] = mvf
            return mvf
        return enumerate_states, solve

    cfg = SimConfig(channels=[ChannelParams(0.85, 0.7)] * n, rewards=PRESET, policy=None,
                    seed=2, num_packets=200, l_max=6, k_trunc=4)
    out = {}
    for cold in (False, True):
        enumerate_states, solve = counting(cold)
        monkeypatch.setattr(osa.multichannel, "build_reachable_states", enumerate_states)
        monkeypatch.setattr(osa.sim, "solve_multichannel", solve)
        if cold:
            monkeypatch.setattr(osa.sim, "_solve", lambda cfg, gamma, tol, *_: real_sim_solve(cfg, gamma, tol))
        out[cold] = call(cfg)
    assert out[False] == out[True]
    assert enumerations[False] == 1
    assert enumerations[True] == len(solved[True]) > 1
    assert solved[False].keys() == solved[True].keys()
    for gamma, mvf in solved[False].items():
        cold = solved[True][gamma]
        assert np.array_equal(mvf.actions, cold.actions)
        assert mvf.gain == pytest.approx(cold.gain, abs=1e-9)
        assert mvf.reach is solved[False][min(solved[False])].reach


def test_sweep_rejects_heterogeneous_channels():
    with pytest.raises(ValueError, match=r"2: ChannelParams\(alpha=0\.85, beta=0\.7\)"):
        cfg = SimConfig(channels=[SCEN1, SCEN1, ChannelParams(0.85, 0.7)], rewards=PRESET,
                        policy=None, num_packets=10)
        sweep_gamma(cfg, [10.0])


def test_negative_seed_and_match_tolerance_are_rejected():
    with pytest.raises(ValueError, match="seed=-1 must be an int >= 0"):
        SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=-1)
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, num_packets=10)
    for tol in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            compare_with_memoryless(cfg, [2], tol=tol)


@pytest.mark.parametrize("make", [
    lambda chans: SimConfig(channels=chans, rewards=PRESET, policy=MemorylessPolicy(1)),
    lambda chans: SlotEnv(chans, PRESET, seed=0, l_max=5),
    lambda chans: run_learning(LearnerConfig(), chans, PRESET, iterations=1),
], ids=["SimConfig", "SlotEnv", "run_learning"])
def test_channel_lists_other_than_copies_of_one_channel_are_rejected(make):
    differing = r"these differ from channel 0 \(ChannelParams\(alpha=0\.15, beta=0\.1\)\): "
    with pytest.raises(ValueError, match=differing + r"1: ChannelParams\(alpha=0\.85, beta=0\.7\)$"):
        make([SCEN1, ChannelParams(0.85, 0.7), SCEN1])
    with pytest.raises(ValueError, match="non-empty"):
        make([])


def test_trace_csv(tmp_path):
    cfg = mp_cfg(k=2, num_packets=50, collect_trace=True)
    _, trace = run_episode(cfg)
    path = tmp_path / "trace.csv"
    write_rows(path, TraceRow, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,belief_sensed_channel,delay,action,observation,reward"
    assert len(lines) == len(trace) + 1


def _sense_wait_policy(l_max=10):
    # Waits below belief 0.75 up to delay 3 and falls back from delay 4, so
    # on (0.85, 0.7) channels it mixes waits, busy senses and idle runs.
    lam = np.zeros(l_max)
    lam[:3] = 0.75
    return ThresholdPolicy(lambda_star=lam, l_star=4, l_max=l_max)


def test_sensing_counters_replay_update_counts():
    # N=1: replaying update_counts over the trace, with "the previous row
    # sensed idle" as prev_sensed_idle, gives the kernel's counters.
    env = SlotEnv([ChannelParams(0.85, 0.7)], PRESET, seed=4, l_max=10)
    trace = []
    env.run(_sense_wait_policy(), packets=2000, trace=trace)
    stats = CountingStats()
    prev_idle = False
    for row in trace:
        if row.observation != -1:
            update_counts(stats, prev_idle, row.observation)
        prev_idle = row.observation == 0
    assert [env.idle_pairs, env.sensed_idle, env.sensed] == [stats.k, stats.i, stats.m]
    assert 0 < stats.k < stats.i < stats.m < len(trace)


@pytest.mark.parametrize("kind", ["threshold", "descriptor"])
def test_window_rewards_match_episode_trace(kind):
    # k windows of S slots on one env reproduce, window by window and
    # exactly, the first k*S trace rewards of an episode at the same seed.
    # Every window of the descriptor policy starts from rebuilt codes.
    p = ChannelParams(0.85, 0.7)
    if kind == "threshold":
        channels, policy, l_max = [p], _sense_wait_policy(), 10
    else:
        channels, l_max = [p, p], 8
        policy = solve_multichannel(2, p, PRESET, k_trunc=8, l_max=l_max, tol=1e-8)
    k, S = 40, 37
    env = SlotEnv(channels, PRESET, seed=6, l_max=l_max)
    windows = [env.run(policy, slots=S) for _ in range(k)]
    _, trace = run_episode(SimConfig(channels=channels, rewards=PRESET, policy=policy,
                                     num_packets=k * S, seed=6, l_max=l_max, k_trunc=8,
                                     collect_trace=True))
    rewards = [row.reward for row in trace]
    assert windows == [sum(rewards[j * S:(j + 1) * S]) for j in range(k)]
    assert env.slots == k * S


@pytest.mark.parametrize("alpha,beta", [(0.7, 0.3), (0.3, 0.7), (0.5, 0.5)])
def test_idle_flags_match_the_slot_rule_at_the_boundaries(alpha, beta):
    # Uniforms exactly at alpha and at beta, and one ulp either side, pin the
    # strict u < p of the per-slot rule; middle values make long copy or
    # flip runs.
    values = [0.0, alpha, beta, 0.5 * (alpha + beta), 0.99]
    values += [np.nextafter(p, side) for p in (alpha, beta) for side in (0.0, 1.0)]
    u = np.random.default_rng(0).choice(values, 400)
    for prev in (False, True):
        expected, idle = [], prev
        for x in u:
            idle = bool(x < (alpha if idle else beta))
            expected.append(idle)
        assert idle_flags(u, alpha, beta, prev) == expected


_probs = st.one_of(st.sampled_from([0.05, 0.15, 0.5, 0.85, 0.95]), st.floats(0.01, 0.99))


@st.composite
def _kernel_cases(draw):
    alpha = draw(_probs)
    beta = draw(st.one_of(st.just(alpha), _probs))  # alpha = beta, above or below
    # Long waits (thresholds of 1 at l_max up to 20) and runs of up to 1,000
    # slots let beliefs converge in floats, so top beliefs tie.
    p, n, l_max = ChannelParams(alpha, beta), draw(st.integers(1, 4)), draw(st.integers(2, 20))
    kind = draw(st.sampled_from(["threshold", "memoryless", "descriptor"]))
    if kind == "threshold":
        lam = draw(st.lists(st.sampled_from([0.0, 0.2, alpha, beta, 0.6, 1.0]),
                            min_size=l_max, max_size=l_max))
        lam[-1] = 0.0  # never wait at the cap
        policy = ThresholdPolicy(np.array(lam), draw(st.integers(1, l_max)), l_max)
    elif kind == "memoryless":
        policy = MemorylessPolicy(draw(st.integers(1, l_max + 2)))
    else:
        # The policy's own cap may lie above or below the env's: past its cap
        # the policy falls back, and below the env's cap a wait overflows.
        policy = solve_multichannel(n, p, PRESET, k_trunc=draw(st.integers(1, 12)),
                                    l_max=draw(st.one_of(st.just(l_max), st.integers(2, 20))),
                                    tol=1e-6)
    runs = draw(st.lists(st.one_of(st.tuples(st.just("slots"), st.integers(0, 1000)),
                                   st.tuples(st.just("packets"), st.integers(0, 100))),
                         min_size=1, max_size=5))
    return [p] * n, policy, l_max, runs, draw(st.integers(0, 2**16)), draw(st.integers(1, 40))


def _kernel_outcome(env, policy, runs) -> dict:
    """Each part of a run's outcome as its repr, so equal means bit-identical.
    After a failure only the windows and the trace up to it count: the env is
    then unusable.  The reference keeps its counters per channel; their sums
    stand for SlotEnv's pooled counters."""
    trace, windows = [], []
    try:
        for how, count in runs:
            windows.append(env.run(policy, trace=trace, **{how: count}))
    except Exception as exc:  # compared: both kernels must fail alike
        return {"window rewards": repr(windows + [type(exc).__name__]), "trace rows": repr(trace)}
    if isinstance(env, ReferenceSlotEnv):
        env = copy.copy(env)
        env.sensed, env.sensed_idle, env.idle_pairs = map(
            sum, (env.sensed, env.sensed_idle, env.idle_pairs))
    return {
        "window rewards": repr(windows),
        "trace rows": repr(trace),
        "metrics": repr(SlotEnv.metrics(env) if env.packets else None),
        "counters": repr((env.slots, env.delay, env.sensed, env.sensed_idle, env.idle_pairs)),
    }


@settings(max_examples=60, deadline=None)
@given(_kernel_cases())
# A slots window that ends on a block's last slot, then packet runs from there.
@example(([SCEN1] * 2, MemorylessPolicy(3), 6, [("slots", 10), ("packets", 4), ("slots", 0),
                                                ("slots", 10), ("packets", 0), ("packets", 7)], 1, 5))
# Memoryless k=1 delivers a packet every slot: the last packet of each run
# goes on a block's last slot.
@example(([SCEN1], MemorylessPolicy(1), 4, [("packets", 7), ("packets", 14), ("slots", 3)], 2, 7))
def test_slot_kernel_matches_the_per_slot_reference(case):
    # Metrics, trace rows, window rewards and the M/I/K counters agree to the
    # bit with the per-slot loop, across blocks shorter than the runs.
    channels, policy, l_max, runs, seed, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ChannelStreams, "BLOCK", block)
        got = _kernel_outcome(SlotEnv(channels, PRESET, seed, l_max), policy, runs)
    want = _kernel_outcome(ReferenceSlotEnv(channels, PRESET, seed, l_max), policy, runs)
    differ = [part for part in want if got.get(part) != want[part]]
    assert not differ  # named parts only: a diff of long reprs is slow to shrink on


def test_slot_kernel_rejects_unknown_policy_types():
    env = SlotEnv([SCEN1], PRESET, seed=0, l_max=5)
    with pytest.raises(TypeError, match="str"):
        env.run("always sense", slots=1)


@pytest.mark.parametrize("count", [dict(slots=-1), dict(packets=-1), dict(slots=2.5),
                                   dict(packets=True)])
def test_run_rejects_a_count_that_is_not_an_int_of_at_least_zero(count):
    env = SlotEnv([SCEN1] * 3, PRESET, seed=0, l_max=5)
    with pytest.raises(ValueError, match="must be an int >= 0"):
        env.run(MemorylessPolicy(3), **count)
    assert env.run(MemorylessPolicy(3), slots=0) == 0.0
    assert env.run(MemorylessPolicy(3), packets=0) == 0.0
    assert env.slots == 0


@pytest.mark.parametrize("make", [
    lambda: SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, num_packets=2.5),
    lambda: SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, num_packets=3.0),
    lambda: SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, num_packets=True),
    lambda: LearnerConfig(l_max=15, nbslot=2.5),
    lambda: LearnerConfig(l_max=15, m=2.5),
    lambda: run_learning(LearnerConfig(l_max=15), [SCEN1], PRESET, iterations=0),
    lambda: run_learning(LearnerConfig(l_max=15), [SCEN1], PRESET, iterations=-3),
    lambda: run_learning(LearnerConfig(l_max=15), [SCEN1], PRESET, iterations=2.5),
    lambda: SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, l_max=20.0),
    lambda: SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, l_max=1),
    lambda: SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, k_trunc=4.0),
    lambda: SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, k_trunc=0),
    lambda: SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=2.5),
    lambda: SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=True),
    lambda: LearnerConfig(l_max=20.0),
    lambda: LearnerConfig(l_max=1),
], ids=["packets-2.5", "packets-3.0", "packets-True", "nbslot-2.5", "m-2.5",
        "iterations-0", "iterations-neg", "iterations-2.5", "l_max-20.0", "l_max-1",
        "k_trunc-4.0", "k_trunc-0", "seed-2.5", "seed-True", "learner-l_max-20.0",
        "learner-l_max-1"])
def test_counts_are_checked_where_they_enter(make):
    # A count that is not an int of at least its bound fails when the config
    # is built or the call made, not inside a later run.
    with pytest.raises(ValueError, match="must be an int >= "):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: solve_single_channel(SCEN1, PRESET, l_max=20.0), "l_max"),
    (lambda: solve_multichannel(2, SCEN1, PRESET, l_max=5.0), "l_max"),
    (lambda: solve_multichannel(2, SCEN1, PRESET, k_trunc=2.5, l_max=5), "k_trunc"),
    (lambda: solve_multichannel(2.0, SCEN1, PRESET, k_trunc=3, l_max=5), "n_channels"),
    (lambda: solve_multichannel(0, SCEN1, PRESET, k_trunc=3, l_max=5), "n_channels"),
    (lambda: build_reachable_states(0, SCEN1, k_trunc=3, l_max=5), "n_channels"),
    (lambda: build_reachable_states(2, SCEN1, k_trunc=3, l_max=5.0), "l_max"),
    (lambda: build_reachable_states(2, SCEN1, k_trunc=3, l_max=1), "l_max"),
    (lambda: run_learning(LearnerConfig(l_max=15), [SCEN1], PRESET, iterations=1, seed=2.5),
     "seed"),
    (lambda: SlotEnv([SCEN1], PRESET, seed=-1, l_max=5), "seed"),
    (lambda: MemorylessPolicy(2.5), "k"),
    (lambda: MemorylessPolicy(0), "k"),
], ids=["grid-l_max-20.0", "descriptor-l_max-5.0", "k_trunc-2.5", "n_channels-2.0",
        "n_channels-0", "reachable-n_channels-0", "reachable-l_max-5.0", "reachable-l_max-1",
        "learn-seed-2.5", "env-seed-neg",
        "memoryless-k-2.5", "memoryless-k-0"])
def test_library_settings_are_counts(make, name):
    # Every integer setting of the solvers, the slot kernel and the policies
    # fails as a ValueError that names it, not as a TypeError, a numpy error
    # or a silent rounding.
    with pytest.raises(ValueError, match=rf"^{name}=\S+ must be an int >= \d$"):
        make()


@pytest.mark.parametrize("row_type, row, header, line", [
    (SweepRow, SweepRow(200, 1.5, 0.1, 2.0, 0.25, -3.0, 7, 4, 3),
     "gamma,avg_delay,energy_per_packet,energy_per_slot,"
     "throughput,avg_reward,senses,primary_tx,dedicated_tx",
     "200,1.5,0.1,2.0,0.25,-3.0,7,4,3"),
    (CompareRow, CompareRow(3, 12.5, 2.0, 1.0 / 3.0, 300.0, 250.0, 100.0 / 6.0),
     "k,gamma,matched_delay_mp,matched_delay_opt,cost_mp,cost_opt,reduction_pct",
     "3,12.5,2.0,0.3333333333333333,300.0,250.0,16.666666666666668"),
    (TraceRow, TraceRow(0, 0.1 + 0.2, 2, int(Action.SENSE_WAIT), -1, -10.0),
     "t,belief_sensed_channel,delay,action,observation,reward",
     "0,0.30000000000000004,2,1,-1,-10.0"),
    (LearnTraceRow, LearnTraceRow(5, 0.15, 1.0, 254, 1e-20, 200),
     "iteration,alpha_hat,beta_hat,policy_id,window_reward,q_value",
     "5,0.15,1.0,254,1e-20,200"),
], ids=["SweepRow", "CompareRow", "TraceRow", "LearnTraceRow"])
def test_row_files_keep_their_bytes(tmp_path, row_type, row, header, line):
    # A row type's fields are its file's columns, so a field added later
    # fails here before it changes a CSV.  Floats are written by repr, every
    # other value by str, so an int in a float field is written as an int.
    path = tmp_path / "rows.csv"
    write_rows(path, row_type, [row, row])
    assert path.read_text() == f"{header}\n{line}\n{line}\n"


def _windows(env, windows) -> tuple:
    """Window rewards and the trace of consecutive run(slots=...) calls."""
    trace = []
    return [env.run(policy, slots=slots, trace=trace) for policy, slots in windows], trace


def _replayed(trace, p: ChannelParams, n: int):
    """Per trace row of n copies of channel p: every channel's belief before
    the slot, the slot of its last sensing (-1 before any) and whether that
    sensing saw idle, the row, and the channel sensed by the lowest-index
    rule, replayed from the actions and observations alone."""
    beliefs, last, saw_idle = [stationary_idle(p)] * n, [-1] * n, [False] * n
    for row in trace:
        target = max(range(n), key=beliefs.__getitem__)
        assert beliefs[target] == row.belief_sensed_channel
        yield beliefs, last, saw_idle, row, target
        beliefs = [p.beta + (p.alpha - p.beta) * b for b in beliefs]
        if row.observation >= 0:
            beliefs[target] = p.beta if row.observation else p.alpha
            last, saw_idle = last.copy(), saw_idle.copy()
            last[target], saw_idle[target] = row.t, row.observation == 0


def _codes(space, last, saw_idle, slot) -> list:
    return [STALE if s < 0 else space.codes_for(idle, slot - s) for s, idle in zip(last, saw_idle)]


@pytest.mark.parametrize("kind", ["threshold", "descriptor"])
def test_tied_top_beliefs_sense_the_lowest_index_channel(kind, preset_solves):
    # Preset 1 at N=4.  A learner candidate that waits 14 slots lets every
    # belief converge to pi0 in floats, so many of its sensings meet tied top
    # beliefs, where the lowest index need not be the order list's head;
    # memoryless windows in between reorder the channels.  The solved
    # descriptor policy meets ties too, between channels of different codes
    # (ages past about 12 share one float belief), so its walk must take the
    # code of the channel the tie rule sensed.
    sc = SCENARIOS[1]
    if kind == "threshold":
        waiting, memoryless = constant_threshold_policy(0.5, 15, 15), MemorylessPolicy(2)
        windows = [(waiting if j % 3 else memoryless, 100) for j in range(12)]
    else:
        windows = [(preset_solves(1), 150)] * 8
    env = SlotEnv(sc.channels(), sc.rewards, 3, 15)
    ref = ReferenceSlotEnv(sc.channels(), sc.rewards, 3, 15)
    got, want = _windows(env, windows), _windows(ref, windows)
    same = repr(got) == repr(want)  # bit for bit; a diff of the reprs is slow
    assert same
    assert [env.sensed, env.sensed_idle, env.idle_pairs] == [
        sum(ref.sensed), sum(ref.sensed_idle), sum(ref.idle_pairs)]
    space = preset_solves(1).space
    ties = distinct_codes = 0
    for beliefs, last, saw_idle, row, _ in _replayed(want[1], sc.channel, 4):
        tied = [c for c, b in zip(_codes(space, last, saw_idle, row.t), beliefs)
                if b == max(beliefs)]
        if row.observation >= 0 and len(tied) > 1:
            ties += 1
            distinct_codes += len(set(tied)) > 1
    assert ties >= 20 and distinct_codes >= 15


def test_descriptor_walk_keys_on_the_sensed_channels_code():
    # Preset 3 at N=4 and k_trunc 3.  With |alpha - beta| = 0.9 a channel
    # that collapses to stale keeps a float belief far from pi0, so the
    # channel the float beliefs sense is often not the one the code model
    # would sense (the argmax over code beliefs, lowest index among ties).
    # There the kernel leaves the solver's successor table for the state
    # that the sensed channel's code gives, and matches the reference, which
    # ages each channel's code per slot.
    sc = SCENARIOS[3]
    mvf = solve_multichannel(4, sc.channel, sc.rewards, k_trunc=3, l_max=15, tol=1e-6)
    windows = [(mvf, 250)] * 8
    env = SlotEnv(sc.channels(), sc.rewards, 1, 15)
    ref = ReferenceSlotEnv(sc.channels(), sc.rewards, 1, 15)
    got, want = _windows(env, windows), _windows(ref, windows)
    same = repr(got) == repr(want)  # bit for bit; a diff of the reprs is slow
    assert same
    assert env.sensed == sum(ref.sensed)
    differ = sum(
        row.observation >= 0
        and target != int(np.argmax(mvf.space.belief[_codes(mvf.space, last, saw_idle, row.t)]))
        for _, last, saw_idle, row, target in _replayed(want[1], sc.channel, 4)
    )
    assert differ >= 20


def test_slot_kernel_senses_by_float_belief_at_the_default_k_trunc(preset_solves):
    # Preset 1 at N=4, k_trunc 20 and l_max 15, the slots benchmark's own
    # setting.  Ages past about 12 hold pi0 in floats, so a stale channel and
    # an old busy one tie there, and the lowest-index rule often senses a
    # channel whose code is not the code model's argmax.  The kernel must
    # sense as the float beliefs do, as the reference does: it walks the
    # solver's successor table and leaves it only at those sensings.
    sc = SCENARIOS[1]
    mvf = preset_solves(1)
    env = SlotEnv(sc.channels(), sc.rewards, 0, 15)
    ref = ReferenceSlotEnv(sc.channels(), sc.rewards, 0, 15)
    got, want = _windows(env, [(mvf, 10_000)]), _windows(ref, [(mvf, 10_000)])
    same = repr(got) == repr(want)  # bit for bit; a diff of the reprs is slow
    assert same
    space = mvf.space
    differ = 0
    for _, last, saw_idle, row, target in _replayed(want[1], sc.channel, 4):
        if row.observation >= 0:
            codes = _codes(space, last, saw_idle, row.t)
            ranked = sorted(codes)
            differ += codes[target] != ranked[int(np.argmax(space.belief[ranked]))]
    assert differ >= 50


@pytest.mark.parametrize("p,policy", [
    # Preset 1: every sensing comes at delay 15, when all four beliefs are
    # pi0 in floats, so the lowest-index rule never senses channels 1-3.
    (SCEN1, constant_threshold_policy(0.9, 15, 50)),
    # alpha < beta: the pi0 row and the busy row end in a float 2-cycle.
    (ChannelParams(0.016527635528529094, 0.8132702392002724), constant_threshold_policy(1.0, 40, 50)),
])
def test_belief_rows_stop_growing_once_they_settle(p, policy):
    # The rows stop where they repeat; a channel that runs past one reads its
    # repeating tail.  Rows that grew to every channel's age held one entry
    # per slot of the oldest channel: 20,041 pi0 entries at preset 1, and
    # 1,281 busy entries at alpha < beta.
    env = SlotEnv([p] * 4, PRESET, 7, 50)
    ref = ReferenceSlotEnv([p] * 4, PRESET, 7, 50)
    windows = [(policy, 10_000)] * 2
    got, want = _windows(env, windows), _windows(ref, windows)
    same = repr(got) == repr(want)  # bit for bit; a diff of the reprs is slow
    assert same
    assert max(len(row) for row in (env.pi0_row, env.idle_row, env.busy_row)) < 300


def test_descriptor_walk_allocates_no_object_per_state():
    # A freshly solved preset-1 policy at N=4 and k_trunc 20 (64,300 states).
    # The walk reads the solver's arrays in place, sensed_code among them,
    # which the enumeration builds: a 100-packet episode peaks at 12-16 kB
    # of traced allocations, where a dict of every state's action peaked at
    # 7.0 MB.
    sc = SCENARIOS[1]
    mvf = solve_multichannel(4, sc.channel, sc.rewards, k_trunc=20, l_max=15)
    env = SlotEnv(sc.channels(), sc.rewards, 0, 15)
    tracemalloc.start()
    try:
        env.run(mvf, packets=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert env.packets == 100
    assert peak < 2_000_000


def test_descriptor_state_outside_the_reach_raises_key_error():
    # Only one channel is sensed per slot, so two channels never both hold
    # the fresh busy code; and no state lies past the policy's cap.  The
    # lookup raises there rather than return the state whose key sorts next.
    mvf = solve_multichannel(2, SCEN1, PRESET, k_trunc=4, l_max=5)
    space = mvf.space
    assert _state(mvf.reach, [STALE, STALE], 1) == 0
    assert _state(mvf.reach, [space.busy_fresh, STALE], 1) > 0
    with pytest.raises(KeyError):
        _state(mvf.reach, [space.busy_fresh, space.busy_fresh], 1)
    with pytest.raises(KeyError):
        _state(mvf.reach, [STALE, STALE], 6)
