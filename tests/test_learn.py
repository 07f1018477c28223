import numpy as np
import pytest

from oracles import ChannelState, act, step_true_state, update_counts
from osa.channel import ChannelParams, stationary_idle
from osa.errors import InsufficientData
from osa.learn import (
    INITIAL_ESTIMATE,
    CountingStats,
    LearnerConfig,
    constant_threshold_policy,
    discretize,
    estimate,
    run_learning,
    wait_depth_policy,
)
from osa.solver import Action, RewardParams

PRESET = RewardParams(350.0, 50.0, 100.0, 800.0, 10.0)
SCEN1 = ChannelParams(0.15, 0.1)


def test_update_counts_first_observation():
    stats = update_counts(CountingStats(), False, 0)
    assert (stats.k, stats.i, stats.m) == (0, 1, 1)


def test_update_counts_consecutive_idle():
    stats = CountingStats()
    update_counts(stats, False, 0)
    update_counts(stats, True, 0)
    assert (stats.k, stats.i, stats.m) == (1, 2, 2)


def test_update_counts_busy_only_m():
    stats = update_counts(CountingStats(), False, 1)
    assert (stats.k, stats.i, stats.m) == (0, 0, 1)


def test_update_counts_gap_breaks_pair():
    stats = CountingStats()
    update_counts(stats, False, 0)
    # The channel was not sensed in between, so the pair is broken.
    update_counts(stats, False, 0)
    assert stats.k == 0


def test_estimate_hand_values():
    est = estimate(CountingStats(k=8, i=10, m=20))
    assert est.alpha_hat == pytest.approx(0.8)
    assert est.pi0_hat == pytest.approx(0.5)
    assert est.beta_hat == pytest.approx(0.2)
    assert not est.degenerate


def test_estimate_degenerate_always_idle():
    est = estimate(CountingStats(k=9, i=10, m=10))
    assert est.pi0_hat == 1.0
    assert est.degenerate
    assert est.beta_hat == 1.0  # clamped


def test_estimate_insufficient_data():
    with pytest.raises(InsufficientData):
        estimate(CountingStats())
    with pytest.raises(InsufficientData):
        estimate(CountingStats(k=0, i=0, m=5))


def test_estimate_identity_with_stationary():
    # Plugging the recovered pair into the stationary formula returns the
    # estimated idle fraction (up to float rounding).
    est = estimate(CountingStats(k=700, i=1000, m=1900))
    p = ChannelParams(est.alpha_hat, est.beta_hat)
    assert abs(stationary_idle(p) - est.pi0_hat) <= 1e-12


def test_estimator_consistency_long_run():
    rng = np.random.default_rng(42)
    stats = CountingStats()
    s = ChannelState.IDLE if rng.random() < stationary_idle(SCEN1) else ChannelState.BUSY
    prev_idle = False
    for _ in range(100_000):
        obs = int(s)
        update_counts(stats, prev_idle, obs)
        prev_idle = obs == 0
        s = step_true_state(SCEN1, s, rng)
    est = estimate(stats)
    assert abs(est.alpha_hat - 0.15) <= 0.01
    assert abs(est.beta_hat - 0.10) <= 0.02


def test_discretize():
    assert discretize(0.15, 10) == 1
    assert discretize(1.0, 10) == 9
    assert discretize(0.42, 1) == 0
    assert discretize(0.0, 10) == 0
    with pytest.raises(ValueError):
        discretize(0.5, 0)


def test_candidate_policies():
    c = constant_threshold_policy(0.3, 4, 10)
    assert act(c, 0.2, 1) == Action.WAIT
    assert act(c, 0.4, 1) == Action.SENSE_WAIT
    assert act(c, 0.2, 4) == Action.SENSE_FALLBACK
    w = wait_depth_policy(2, 5, 10)
    assert act(w, 0.99, 1) == Action.WAIT
    assert act(w, 0.99, 2) == Action.WAIT
    assert act(w, 0.01, 3) == Action.SENSE_WAIT
    assert act(w, 0.99, 5) == Action.SENSE_FALLBACK
    with pytest.raises(ValueError):
        wait_depth_policy(5, 5, 10)


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(m=0)
    with pytest.raises(ValueError):
        LearnerConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        LearnerConfig(eta=1.0)
    with pytest.raises(ValueError, match="outside 1..l_max=10"):
        LearnerConfig(l_max=10)  # the candidates' switch delays run to 15
    assert len(LearnerConfig(l_max=15).candidates()) == 255


def test_learning_deterministic():
    cfg = LearnerConfig(l_max=15, nbslot=50)
    a = run_learning(cfg, [SCEN1] * 2, PRESET, iterations=40, seed=5)
    b = run_learning(cfg, [SCEN1] * 2, PRESET, iterations=40, seed=5)
    assert np.array_equal(a.q_table, b.q_table)
    assert a.learned_policy_id == b.learned_policy_id
    assert [(r.policy_id, r.window_reward) for r in a.trace] == [
        (r.policy_id, r.window_reward) for r in b.trace
    ]


def test_learning_trace_rows():
    cfg = LearnerConfig(l_max=15, nbslot=20)
    res = run_learning(cfg, [SCEN1] * 4, PRESET, iterations=25, seed=3)
    assert len(res.trace) == 25
    assert [r.iteration for r in res.trace] == list(range(1, 26))
    for row in res.trace:
        assert 0 <= row.policy_id < len(res.candidates)


def test_pure_exploration_uniform_over_candidates():
    # epsilon = 1 turns selection into uniform sampling over all 255
    # candidates; chi-squared test on the visit counts over 100 draws per
    # candidate at the 0.1% level.
    cfg = LearnerConfig(l_max=15, nbslot=1, epsilon=1.0)
    res = run_learning(cfg, [SCEN1], PRESET, iterations=25_500, seed=17)
    counts = np.bincount([r.policy_id for r in res.trace], minlength=255)
    assert len(counts) == 255
    chi2 = float(((counts - 100.0) ** 2 / 100.0).sum())
    # 99.9% quantile of chi-squared with 254 degrees of freedom.
    assert chi2 <= 329.38


def test_q_update_matches_scalar_recurrence_oracle():
    # Replay the whole Q table from the trace: each row's logged estimates
    # give its bins, and the cell of the previous row's bins and policy takes
    #   rho_k old + (1 - rho_k) (window reward + eta Q[bins, policy])
    # with rho_k = 1/k.  At k = 1 rho is 1 and the cell keeps its 0, so the
    # first pick, which the trace does not log, cannot matter.
    cfg = LearnerConfig(m=4, l_max=15, nbslot=10, epsilon=0.3, eta=0.5)
    res = run_learning(cfg, [SCEN1] * 2, PRESET, iterations=400, seed=9)
    q = np.zeros((cfg.m, cfg.m, len(res.candidates)))
    prev = (discretize(INITIAL_ESTIMATE[0], cfg.m), discretize(INITIAL_ESTIMATE[1], cfg.m), 0)
    for k, row in enumerate(res.trace, start=1):
        bins = discretize(row.alpha_hat, cfg.m), discretize(row.beta_hat, cfg.m)
        rho = 1.0 / k
        target = row.window_reward + cfg.eta * q[bins][row.policy_id]
        q[prev] = rho * q[prev] + (1.0 - rho) * target
        assert row.q_value == q[prev]
        prev = (*bins, row.policy_id)
    assert np.array_equal(res.q_table, q)
    assert res.learned_policy_id == int(np.argmax(q[prev[:2]]))
    # The replay covers several cells, bins and greedy picks.
    assert np.count_nonzero(q) >= 50
    assert len({(discretize(r.alpha_hat, 4), discretize(r.beta_hat, 4)) for r in res.trace}) >= 2
