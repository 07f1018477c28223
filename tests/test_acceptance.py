"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria that measurement shows to be unattainable under the
specified model are asserted as stated anyway and fail honestly; the
blocking analysis lives in the project notes, summarized in README.md.
"""

from dataclasses import replace

import numpy as np

from osa.channel import ChannelParams, stationary_idle
from osa.learn import (
    CountingStats,
    LearnerConfig,
    estimate,
    run_learning,
)
from osa.policy import (
    MemorylessPolicy,
    check_structure,
    dedicated_switch_delay,
    extract_thresholds,
)
from osa.scenarios import SCENARIOS
from osa.sim import (
    SimConfig,
    compare_with_memoryless,
    little_check,
    run_episode,
    sweep_gamma,
)
from osa.solver import RewardParams, solve_single_channel
from oracles import (
    ChannelState,
    finite_horizon_actions,
    nearest_action,
    step_true_state,
    threshold_fixed_point,
    update_counts,
)

SEED = 11


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_preset_switch_delays(preset_solves):
    """Dedicated-switch delay on the three multichannel presets."""
    targets = {1: 9, 2: 5, 3: 5}
    measured = {}
    for num, target in targets.items():
        mvf = preset_solves(num)
        measured[num] = mvf.dedicated_switch_delay()
    ok = all(abs(measured[n] - t) <= 1 for n, t in targets.items())
    detail = f"measured l*={measured} vs targets {targets} (+-1)"
    assert report(1, "preset switch delays", ok, detail), (
        f"{detail}; unattainable under the specified average-reward model, "
        "see decisions ledger"
    )


def test_criterion_2_sensing_cost_switch_delays():
    """Single channel, alpha=0.15, beta=0.1, gamma=10: switch at 13 / 3."""
    p = ChannelParams(0.15, 0.1)
    measured = {}
    for c_s, target in ((50.0, 13), (200.0, 3)):
        vf = solve_single_channel(p, RewardParams(350.0, c_s, 100.0, 800.0, 10.0))
        measured[c_s] = dedicated_switch_delay(vf)
    ok = abs(measured[50.0] - 13) <= 1 and abs(measured[200.0] - 3) <= 1
    detail = f"measured l*={measured} vs 13+-1 and 3+-1"
    assert report(2, "sensing-cost switch delays", ok, detail), (
        f"{detail}; unattainable under the specified average-reward model, "
        "see decisions ledger"
    )


def _battery(seed=20260808, count=50):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        hi, lo = sorted(rng.uniform(0.0, 1.0, 2))[::-1]
        p = ChannelParams(hi, lo)
        if not 0.02 < stationary_idle(p) < 0.98:
            continue
        phi = rng.uniform(100.0, 1000.0)
        p_p = rng.uniform(10.0, 0.6 * phi)
        c_s = rng.uniform(0.0, phi - p_p)
        p_3g = rng.uniform(1.1 * p_p, p_p + 2.0 * phi)
        gamma = rng.uniform(0.0, 100.0)
        out.append((p, RewardParams(phi, c_s, p_p, p_3g, gamma)))
    return out


def test_criterion_3_structural_battery():
    """All structural predicates over 50 random admissible parameter sets."""
    tallies = {}
    failures = []
    positive_gain_failures = []
    for p, r in _battery():
        vf = solve_single_channel(p, r, tol=1e-8)
        rep = check_structure(vf)
        for res in rep.results:
            tallies.setdefault(res.name, []).append(res.status)
            if res.status == "fail":
                failures.append((res.name, vf.gain))
                if vf.gain > 0:
                    positive_gain_failures.append((res.name, p, r))
    counts = {k: f"{v.count('pass')}p/{v.count('fail')}f/{v.count('skip')}s"
              for k, v in tallies.items()}
    ok = not failures
    neg = sum(g <= 0 for _n, g in failures)
    detail = (
        f"{counts}; failures={len(failures)} (all on non-positive gain: {neg == len(failures)}); "
        f"positive-gain failures={len(positive_gain_failures)}"
    )
    assert report(3, "structural battery", ok, detail), (
        f"{detail}; the no-wait-above-stationary and gain-exceeds-penalty "
        "predicates fail exactly where the average reward is negative, where "
        "the underlying premise g_u > -f(l) does not hold; see decisions ledger"
    )


def test_criterion_4_threshold_fixed_point():
    """Extracted thresholds satisfy the closed-form fixed point to one cell."""
    worst = 0.0
    for num in (1, 2, 3):
        sc = SCENARIOS[num]
        vf = solve_single_channel(sc.channel, sc.rewards)
        tp = extract_thresholds(vf)
        for l in range(1, vf.l_max):  # the cap row is forced, not a decision
            lam = tp.lambda_star[l - 1]
            if 0.0 < lam < 1.0:
                worst = max(worst, abs(lam - threshold_fixed_point(vf, lam, l)))
    ok = worst <= 1e-3
    assert report(4, "threshold fixed point", ok, f"worst residual {worst:.2e} <= 1e-3")


def test_criterion_5_little_identity(preset_solves):
    """Delay/throughput identity for the optimal policy on each preset."""
    residuals = {}
    for num in (1, 2, 3):
        sc = SCENARIOS[num]
        mvf = preset_solves(num)
        cfg = SimConfig(
            channels=sc.channels(), rewards=sc.rewards, policy=mvf,
            num_packets=3000, seed=SEED, l_max=15, k_trunc=20,
        )
        m, _ = run_episode(cfg)
        residuals[num] = little_check(m)
    ok = all(r <= 0.05 for r in residuals.values())
    detail = "residuals " + ", ".join(f"s{n}={r:.2e}" for n, r in residuals.items())
    assert report(5, "little identity", ok, detail)


def test_criterion_6_gamma_sweep_trends():
    """Average delay falls and energy per slot rises along the gamma grid."""
    sc = SCENARIOS[1]
    cfg = SimConfig(channels=[sc.channel], rewards=sc.rewards, policy=None,
                    num_packets=3000, seed=SEED)
    rows = sweep_gamma(cfg, np.geomspace(2.0, 500.0, 10))
    delays = [r.avg_delay for r in rows]
    energies = [r.energy_per_slot for r in rows]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(delays, delays[1:]))
    ties = sum(b == a for a, b in zip(delays, delays[1:]))
    non_decreasing = all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))
    ok = non_increasing and ties <= 1 and non_decreasing
    detail = (
        f"delay {delays[0]:.2f}->{delays[-1]:.2f} non-increasing={non_increasing} "
        f"ties={ties}; energy/slot {energies[0]:.1f}->{energies[-1]:.1f} "
        f"non-decreasing={non_decreasing}"
    )
    assert report(6, "gamma sweep trends", ok, detail)


def test_criterion_7_memoryless_comparison():
    """Energy reduction against matched-delay baselines, k in 2,3,5,8."""
    sc = SCENARIOS[1]
    cfg = SimConfig(channels=[sc.channel], rewards=sc.rewards, policy=None,
                    num_packets=3000, seed=SEED)
    rows = compare_with_memoryless(cfg, (2, 3, 5, 8), tol=0.25, solver_tol=1e-8)
    reductions = {r.k: r.reduction_pct for r in rows}
    peak = max(reductions.values())
    ok = all(v > 0 for v in reductions.values()) and 30.0 <= peak <= 65.0

    # A compare row holds only its file's columns, so the sensing counts come
    # from rerunning both matched episodes (same seed, same policies).
    senses_opt = {
        row.gamma: row.senses for row in sweep_gamma(cfg, [r.gamma for r in rows], 1e-8)
    }
    sensing_reductions = {}
    for r in rows:
        senses_mp = run_episode(replace(cfg, policy=MemorylessPolicy(r.k)))[0].senses
        sensing_reductions[r.k] = round(100.0 * (senses_mp - senses_opt[r.gamma]) / senses_mp, 1)
    detail = (
        f"full-metric reductions {{k: %}} = "
        f"{ {k: round(v, 2) for k, v in reductions.items()} }, peak={peak:.1f}%; "
        f"sensing-energy-only diagnostic = {sensing_reductions}"
    )
    assert report(7, "memoryless comparison", ok, detail), (
        f"{detail}; at matched mean delay the reward-optimal policy buys a "
        "shorter delay tail with extra transmissions, so the full-price metric "
        "does not reproduce the reported band (the sensing-energy metric does); "
        "see decisions ledger"
    )


def test_criterion_8_estimator_consistency():
    """Counting estimators on 1e5 continuously sensed slots."""
    p = ChannelParams(0.15, 0.1)
    rng = np.random.default_rng(42)
    stats = CountingStats()
    s = ChannelState.IDLE if rng.random() < stationary_idle(p) else ChannelState.BUSY
    prev_idle = False
    for _ in range(100_000):
        obs = int(s)
        update_counts(stats, prev_idle, obs)
        prev_idle = obs == 0
        s = step_true_state(p, s, rng)
    est = estimate(stats)
    a_err = abs(est.alpha_hat - 0.15)
    b_err = abs(est.beta_hat - 0.10)
    ident = abs(stationary_idle(ChannelParams(est.alpha_hat, est.beta_hat)) - est.pi0_hat)
    ok = a_err <= 0.01 and b_err <= 0.02 and ident <= 1e-12
    detail = f"|a_err|={a_err:.4f}<=0.01, |b_err|={b_err:.4f}<=0.02, identity={ident:.1e}"
    assert report(8, "estimator consistency", ok, detail)


def test_criterion_9_learning(preset_solves):
    """Windowed policy learning on scenario 1 versus the solved optimum."""
    sc = SCENARIOS[1]
    mvf = preset_solves(1)
    cfg = SimConfig(channels=sc.channels(), rewards=sc.rewards, policy=mvf,
                    num_packets=3000, seed=SEED, l_max=15, k_trunc=20)
    m_opt, _ = run_episode(cfg)

    learner = LearnerConfig(m=5, nbslot=5000, eta=0.5, l_max=15)
    short = run_learning(learner, sc.channels(), sc.rewards, iterations=200, seed=0)
    lam_opt, _ = mvf.lambda_summary()
    print("\n  200-iteration learned thresholds:",
          np.round(short.learned_policy.lambda_star, 3).tolist())
    print("  solved optimal threshold summary:", np.round(lam_opt, 3).tolist())
    above = int((short.learned_policy.lambda_star >= lam_opt - 1e-9).sum())
    print(f"  learned >= optimal at {above}/{len(lam_opt)} delays (reported, not asserted)")

    extended = run_learning(learner, sc.channels(), sc.rewards, iterations=2000, seed=0)
    m_learn, _ = run_episode(replace(cfg, policy=extended.learned_policy))
    gap = abs(m_learn.avg_reward - m_opt.avg_reward) / abs(m_opt.avg_reward)

    # Diagnostic: the window data identifies the best candidate even when the
    # update rule cannot; rank arms by their sample-mean rewards.
    sums, counts = {}, {}
    for row in extended.trace:
        sums[row.policy_id] = sums.get(row.policy_id, 0.0) + row.window_reward
        counts[row.policy_id] = counts.get(row.policy_id, 0) + 1
    best_by_mean = max(sums, key=lambda a: sums[a] / counts[a])
    m_mean, _ = run_episode(replace(cfg, policy=extended.candidates[best_by_mean]))
    mean_gap = abs(m_mean.avg_reward - m_opt.avg_reward) / abs(m_opt.avg_reward)
    print(f"  diagnostic: best-sample-mean candidate gap {mean_gap:.3f} "
          f"(data sufficient; update rule is the bottleneck)")

    ok = gap <= 0.10
    detail = (
        f"optimal reward/slot {m_opt.avg_reward:.2f}, learned {m_learn.avg_reward:.2f}, "
        f"relative gap {gap:.3f} <= 0.10"
    )
    assert report(9, "learning vs optimum", ok, detail), (
        f"{detail}; the rho-on-old update weighting cannot aggregate window rewards "
        "(see decisions ledger)"
    )


def test_criterion_10_finite_horizon_oracle():
    """Backward-induction oracle agreement on 10 random parameter sets."""
    rng = np.random.default_rng(7)
    agreements = []
    done = 0
    while done < 10:
        hi, lo = sorted(rng.uniform(0.0, 1.0, 2))[::-1]
        p = ChannelParams(hi, lo)
        if not 0.02 < stationary_idle(p) < 0.98:
            continue
        phi = rng.uniform(100.0, 1000.0)
        p_p = rng.uniform(10.0, 0.6 * phi)
        c_s = rng.uniform(0.0, phi - p_p)
        p_3g = rng.uniform(1.1 * p_p, p_p + 2.0 * phi)
        r = RewardParams(phi, c_s, p_p, p_3g, rng.uniform(0.0, 100.0))
        vf = solve_single_channel(p, r, tol=1e-8)
        acts = finite_horizon_actions(p, r, horizon=30, l_max=50)
        agree = sum(int(nearest_action(vf, b, l)) == a for (b, l), a in acts.items())
        agreements.append(agree / len(acts))
        done += 1
    ok = min(agreements) >= 0.99
    detail = f"min agreement {min(agreements):.4f} >= 0.99 over 10 parameter sets"
    assert report(10, "finite-horizon oracle", ok, detail)
