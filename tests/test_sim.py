import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osa.multichannel
import osa.sim
import osa.solver
from oracles import ReferenceSlotEnv
from osa.channel import ChannelParams, stationary_idle, update_sensed, update_unsensed
from osa.errors import DelayOverflow, TargetUnreachable
from osa.learn import CountingStats, LearnerConfig, run_learning, update_counts
from osa.multichannel import solve_multichannel
from osa.policy import MemorylessPolicy, ThresholdPolicy, extract_thresholds
from osa.sim import (
    ChannelStreams,
    SimConfig,
    SlotEnv,
    _Episodes,
    _policy_of,
    _solve,
    compare_with_memoryless,
    gamma_for_target_delay,
    idle_flags,
    little_check,
    run_episode,
    sweep_gamma,
    sweep_rows_to_csv,
    write_trace_csv,
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
    with pytest.raises(DelayOverflow):
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


def test_sweep_csv(tmp_path):
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500)
    rows = sweep_gamma(cfg, [10.0, 100.0], solver_tol=1e-6)
    path = tmp_path / "sweep.csv"
    sweep_rows_to_csv(rows, path)
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
    gamma, metrics = gamma_for_target_delay(
        cfg, probe.avg_delay, tol=0.25, solver_tol=1e-7
    )
    assert abs(metrics.avg_delay - probe.avg_delay) <= 0.25


def test_gamma_bisection_unreachable():
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500)
    with pytest.raises(TargetUnreachable):
        gamma_for_target_delay(cfg, 0.5, tol=0.05, solver_tol=1e-6)


def test_gamma_bisection_between_delay_steps_reports_real_range():
    # 500 packets make every average delay a multiple of 1/500, so a target
    # 1/1000 past an achieved delay is never met within a tiny tol even
    # though it lies inside the bracket's range.
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500)
    target = sweep_gamma(cfg, [30.0], solver_tol=1e-7)[0].avg_delay + 1e-3
    with pytest.raises(TargetUnreachable) as err:
        gamma_for_target_delay(cfg, target, tol=1e-4, solver_tol=1e-7)
    assert err.value.low < target < err.value.high


def test_episode_memo_reruns_at_the_gamma_asked_for():
    # Nearby gammas solve to the same policy, whose episode is shared; only
    # avg_reward depends on gamma, so metrics() reruns it at its own gamma.
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500, l_max=15)
    runs = _Episodes(cfg, 1e-7)
    shared = runs.probe(10.0)
    assert runs.probe(10.001) is shared
    vf = _solve(cfg, 10.001, 1e-7)
    fresh, _ = run_episode(replace(cfg, policy=_policy_of(vf), rewards=vf.rewards))
    assert runs.metrics(10.001) == fresh
    assert fresh.avg_reward != shared.avg_reward
    assert replace(fresh, avg_reward=shared.avg_reward) == shared


def test_compare_warm_starts_take_fewer_policy_iteration_steps(monkeypatch):
    # The same compare runs twice through a wrapped Howard loop: once as it
    # is, once with every start table dropped.  Steps are counted, not timed.
    real = osa.solver.policy_iteration
    calls, steps = {}, {}

    def counted(cold):
        def wrapped(*args, start=None, **kwargs):
            out = real(*args, start=None if cold else start, **kwargs)
            calls[cold] = calls.get(cold, 0) + 1
            steps[cold] = steps.get(cold, 0) + out[3]
            return out
        return wrapped

    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=11,
                    num_packets=500, l_max=15)
    rows = {}
    for cold in (False, True):
        monkeypatch.setattr(osa.solver, "policy_iteration", counted(cold))
        rows[cold] = compare_with_memoryless(cfg, [2, 3], solver_tol=1e-7)
    assert rows[False] == rows[True]
    assert calls[False] == calls[True]
    assert steps[False] < steps[True]


@pytest.mark.parametrize("call", [
    lambda cfg: sweep_gamma(cfg, [1.0, 3.0, 10.0, 30.0, 100.0]),
    lambda cfg: gamma_for_target_delay(cfg, 1.5, tol=0.3),
    lambda cfg: compare_with_memoryless(cfg, [2, 3]),
], ids=["sweep", "target", "compare"])
def test_descriptor_calls_enumerate_once(monkeypatch, call):
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

    cfg = SimConfig(channels=[ChannelParams(0.85, 0.7)] * 2, rewards=PRESET, policy=None,
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
    with pytest.raises(ValueError, match="seed=-1 must be >= 0"):
        SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, seed=-1)
    cfg = SimConfig(channels=[SCEN1], rewards=PRESET, policy=None, num_packets=10)
    for tol in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            compare_with_memoryless(cfg, [2], tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            gamma_for_target_delay(cfg, 2.0, tol=tol)


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
    write_trace_csv(trace, path)
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
    p, n, l_max = ChannelParams(alpha, beta), draw(st.integers(1, 4)), 6
    kind = draw(st.sampled_from(["threshold", "memoryless", "descriptor"]))
    if kind == "threshold":
        lam = draw(st.lists(st.sampled_from([0.0, 0.2, alpha, beta, 0.6, 1.0]),
                            min_size=l_max, max_size=l_max))
        lam[-1] = 0.0  # never wait at the cap
        policy = ThresholdPolicy(np.array(lam), draw(st.integers(1, l_max)), l_max)
    elif kind == "memoryless":
        policy = MemorylessPolicy(draw(st.integers(1, l_max + 2)))
    else:
        policy = solve_multichannel(n, p, PRESET, k_trunc=draw(st.integers(1, 12)),
                                    l_max=l_max, tol=1e-6)
    runs = draw(st.lists(st.tuples(st.sampled_from(["slots", "packets"]),
                                   st.integers(1, 300)), min_size=1, max_size=5))
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
