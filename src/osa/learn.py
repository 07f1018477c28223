"""Online estimation of primary-user activity and the windowed Q-learning of
threshold policies.

The channels are N copies of one channel, so one pooled counting estimator
gives the one (alpha, beta) pair the learner needs.  Its three counters are
plain ints summed over the channels: slots a channel was sensed, slots it was
sensed idle, and slots it was sensed idle immediately after being sensed idle
(consecutive slots only; a sensing gap breaks the pair).  The policy learner
keeps a Q-value per (alpha bin, beta bin, candidate policy), picks candidates
epsilon-greedily, runs each for a fixed window of slots, and folds the
accumulated window reward back into the table.  The windows are consecutive
runs of the simulator's slot kernel (`sim.SlotEnv`), which also keeps the
sensing counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData
from .policy import ThresholdPolicy
from .sim import SlotEnv, write_rows
from .solver import DEFAULT_L_MAX, RewardParams, check_count

# Transition-rate estimate used until the counters support one.
INITIAL_ESTIMATE = (0.5, 0.5)
# The candidate policies: each constant wait level with each switch delay,
# then the wait-depth curves of each switch delay (255 in all).
CANDIDATE_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
CANDIDATE_SWITCH_DELAYS = tuple(range(1, 16))


@dataclass
class CountingStats:
    """Sensing counters summed over the channels: idle-after-idle pairs (K),
    sensed-idle slots (I) and sensed slots (M)."""

    k: int = 0
    i: int = 0
    m: int = 0


@dataclass
class Estimates:
    """Estimated transition pair and stationary idle probability.

    beta_hat is recovered from alpha_hat and pi0_hat; when the channels have
    only ever been seen idle (pi0_hat = 1) the recovery is undefined and
    beta_hat is clamped to 1 with the degenerate flag set.
    """

    alpha_hat: float
    beta_hat: float
    pi0_hat: float
    degenerate: bool


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def estimate(stats: CountingStats) -> Estimates:
    """Point estimates from the counters: alpha = K/I, pi0 = I/M and
    beta = (1 - alpha) pi0 / (1 - pi0), clamped to [0, 1].

    Raises InsufficientData before the first idle observation (alpha
    undefined) or the first sensing.
    """
    if stats.m < 1 or stats.i < 1:
        raise InsufficientData(f"need at least one sensed-idle slot: i={stats.i}, m={stats.m}")
    alpha = stats.k / stats.i
    pi0 = stats.i / stats.m
    degenerate = pi0 >= 1.0
    beta = 1.0 if degenerate else (1.0 - alpha) * pi0 / (1.0 - pi0)
    return Estimates(
        alpha_hat=_clamp01(alpha),
        beta_hat=_clamp01(beta),
        pi0_hat=_clamp01(pi0),
        degenerate=degenerate,
    )


def discretize(value: float, m: int) -> int:
    """Aggregation bin floor(value * m), clamped to m-1 at value = 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return min(int(math.floor(value * m)), m - 1)


def constant_threshold_policy(level: float, switch_delay: int, l_max: int) -> ThresholdPolicy:
    """Candidate policy: wait below a constant belief level while the delay is
    under the switch, then sense with dedicated fallback from the switch on."""
    lam = np.zeros(l_max)
    lam[: switch_delay - 1] = level
    return ThresholdPolicy(lambda_star=lam, l_star=switch_delay, l_max=l_max)


def wait_depth_policy(wait_depth: int, switch_delay: int, l_max: int) -> ThresholdPolicy:
    """Candidate policy: wait unconditionally through the first wait_depth
    delays, then sense every slot, with dedicated fallback from the switch on.

    A delay-indexed threshold curve (1 below the wait depth, 0 after); the
    constant-level family cannot express wait-early/sense-late behavior, which
    is how the solved policies look when waiting is cheap relative to sensing.
    """
    if not 0 <= wait_depth < switch_delay:
        raise ValueError(f"need 0 <= wait_depth < switch_delay, got ({wait_depth}, {switch_delay})")
    lam = np.zeros(l_max)
    lam[:wait_depth] = 1.0
    return ThresholdPolicy(lambda_star=lam, l_star=switch_delay, l_max=l_max)


@dataclass
class LearnerConfig:
    m: int = 10
    nbslot: int = 100
    epsilon: float = 0.1
    eta: float = 0.5
    l_max: int = DEFAULT_L_MAX

    def __post_init__(self):
        check_count("m", self.m, 1)
        check_count("nbslot", self.nbslot, 1)
        check_count("l_max", self.l_max, 2)
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        # Every candidate transmits by its switch delay, so none can keep a
        # packet past l_max.
        outside = [sd for sd in CANDIDATE_SWITCH_DELAYS if not 1 <= sd <= self.l_max]
        if outside:
            raise ValueError(f"candidate switch delays {outside} lie outside 1..l_max={self.l_max}")

    def candidates(self):
        return [
            constant_threshold_policy(level, sd, self.l_max)
            for level in CANDIDATE_LEVELS
            for sd in CANDIDATE_SWITCH_DELAYS
        ] + [
            wait_depth_policy(w, sd, self.l_max)
            for sd in CANDIDATE_SWITCH_DELAYS
            for w in range(1, sd)
        ]


@dataclass
class LearnTraceRow:
    iteration: int
    alpha_hat: float
    beta_hat: float
    policy_id: int
    window_reward: float
    q_value: float


def write_learn_trace_csv(trace, path) -> None:
    write_rows(path, LearnTraceRow, trace)


@dataclass
class LearningResult:
    q_table: np.ndarray
    trace: list
    learned_policy: ThresholdPolicy
    learned_policy_id: int
    candidates: list


def run_learning(
    cfg: LearnerConfig,
    channels,
    rewards: RewardParams,
    iterations: int,
    seed: int = 0,
) -> LearningResult:
    """Windowed on-policy learning of a threshold policy.

    Per iteration: re-estimate the (pooled) transition rates, pick a candidate
    policy epsilon-greedily for the estimate's bins, transmit for nbslot slots
    accumulating the window reward R, then update
        Q[prev bins, prev candidate] <-
            rho_k Q[prev] + (1 - rho_k) (R + eta Q[new bins, new candidate])
    with rho_k = 1/k.  Deterministic for a fixed seed.  The channels must be
    identical, and iterations an int >= 1 (ValueError otherwise); the env's
    counters, summed over the channels, give the one (alpha, beta) estimate
    that indexes the table.
    """
    check_count("iterations", iterations, 1)
    candidates = cfg.candidates()
    n_cand = len(candidates)
    q = np.zeros((cfg.m, cfg.m, n_cand))
    env = SlotEnv(channels, rewards, seed, cfg.l_max)
    pick_rng = np.random.default_rng([seed, 999_983])

    cur_idx = int(pick_rng.integers(n_cand))
    est_a, est_b = INITIAL_ESTIMATE
    bins = (discretize(est_a, cfg.m), discretize(est_b, cfg.m))
    trace = []

    for k in range(1, iterations + 1):
        prev_idx = cur_idx
        prev_bins = bins
        try:
            est = estimate(CountingStats(env.idle_pairs, env.sensed_idle, env.sensed))
            est_a, est_b = est.alpha_hat, est.beta_hat
        except InsufficientData:
            est_a, est_b = INITIAL_ESTIMATE
        bins = (discretize(est_a, cfg.m), discretize(est_b, cfg.m))

        if pick_rng.random() < cfg.epsilon:
            cur_idx = int(pick_rng.integers(n_cand))
        else:
            cur_idx = int(np.argmax(q[bins[0], bins[1]]))

        window_reward = env.run(candidates[cur_idx], slots=cfg.nbslot)

        rho = 1.0 / k
        target = window_reward + cfg.eta * q[bins[0], bins[1], cur_idx]
        new = rho * q[prev_bins[0], prev_bins[1], prev_idx] + (1.0 - rho) * target
        q[prev_bins[0], prev_bins[1], prev_idx] = new
        trace.append(
            LearnTraceRow(k, est_a, est_b, cur_idx, window_reward, float(new))
        )

    greedy = int(np.argmax(q[bins[0], bins[1]]))
    return LearningResult(
        q_table=q,
        trace=trace,
        learned_policy=candidates[greedy],
        learned_policy_id=greedy,
        candidates=candidates,
    )
