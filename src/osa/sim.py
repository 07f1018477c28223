"""Slot-level Monte Carlo simulation of a secondary user over N licensed
channels, plus the experiment sweeps built on it.

`SlotEnv` is the one slot kernel: episodes run it until a packet count is
delivered, and the online learner (`learn.run_learning`) runs it window by
window, so both score policies under the same dynamics.

Each channel owns an independent random stream derived from the top-level
seed, and its true state advances once per slot regardless of the policy, so
runs with the same seed share channel realizations across policies (common
random numbers).  A packet transmitted on its d-th slot has delay d; since
every slot belongs to exactly one packet, average delay and 1/throughput
agree by accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import stationary_idle
from .errors import DelayOverflow, TargetUnreachable
from .multichannel import (
    DEFAULT_K_TRUNC,
    STALE,
    MultichannelValueFunction,
    solve_multichannel,
)
from .policy import MemorylessPolicy, extract_thresholds
from .solver import Action, RewardParams, solve_single_channel

DEFAULT_PACKETS = 3000


@dataclass
class SimConfig:
    channels: list
    rewards: RewardParams
    policy: object
    num_packets: int = DEFAULT_PACKETS
    seed: int = 0
    l_max: int = 50
    k_trunc: int = DEFAULT_K_TRUNC
    energy_metric: str = "full"  # "full" counts prices, "sensing" only c_s
    collect_trace: bool = False

    def __post_init__(self):
        if self.num_packets < 1:
            raise ValueError("num_packets must be >= 1")
        if not self.channels:
            raise ValueError("channel list must be non-empty")
        if self.energy_metric not in ("full", "sensing"):
            raise ValueError(f"unknown energy metric {self.energy_metric!r}")


@dataclass
class SimMetrics:
    avg_delay: float
    energy_per_packet: float
    energy_per_slot: float
    throughput: float
    avg_reward: float
    senses: int
    primary_tx: int
    dedicated_tx: int
    waits: int
    slots: int
    packets: int


@dataclass
class TraceRow:
    t: int
    belief_sensed_channel: float
    delay: int
    action: int
    observation: int  # -1 on wait slots
    reward: float


class ChannelStreams:
    """Per-channel uniform streams drawn in blocks.

    Each channel consumes exactly one uniform per slot whatever the policy
    does, so channel realizations are shared across policies run with the
    same seed (common random numbers).  Block drawing only batches the calls;
    the draw order per channel is still one-per-slot.
    """

    BLOCK = 8192

    def __init__(self, seed: int, n_channels: int):
        self._rngs = [np.random.default_rng([seed, i]) for i in range(n_channels)]
        self._blocks = [rng.random(self.BLOCK) for rng in self._rngs]
        self._pos = [0] * n_channels

    def next_uniform(self, i: int) -> float:
        pos = self._pos[i]
        if pos == self.BLOCK:
            self._blocks[i] = self._rngs[i].random(self.BLOCK)
            pos = 0
        self._pos[i] = pos + 1
        return self._blocks[i][pos]


_NEVER = -2  # last-sensed slot of an unsensed channel; never "the previous slot"


class SlotEnv:
    """The slot dynamics of one saturated secondary user over N channels.

    Channel truth, beliefs, delay, the tallies and the per-channel sensing
    counters (slots sensed, sensed idle, and sensed idle right after an idle
    sensing: the estimator's M, I and K) persist across run() calls, so an
    episode is one call and the learner's windows are consecutive calls.
    """

    def __init__(self, channels, rewards: RewardParams, seed: int, l_max: int):
        n = len(channels)
        self.rewards = rewards
        self.l_max = l_max
        self.streams = ChannelStreams(seed, n)
        self.idle = [self.streams.next_uniform(i) < stationary_idle(channels[i]) for i in range(n)]
        self.beliefs = [stationary_idle(p) for p in channels]
        self.alphas = [p.alpha for p in channels]
        self.betas = [p.beta for p in channels]
        self.delay = 1
        self.slots = self.packets = self.delay_total = 0
        self.reward_total = 0.0
        self.sensed = [0] * n
        self.sensed_idle = [0] * n
        self.idle_pairs = [0] * n
        self.last_idle = [_NEVER] * n
        self.last_busy = [_NEVER] * n

    def _codes(self, space) -> list:
        """Descriptor codes rebuilt from each channel's last sensing."""
        return [
            STALE if max(li, lb) < 0 else space.codes_for(li > lb, self.slots - max(li, lb))
            for li, lb in zip(self.last_idle, self.last_busy)
        ]

    def run(self, policy, slots: int | None = None, packets: int | None = None, trace=None) -> float:
        """Run the policy for `slots` more slots or until `packets` more
        packets are delivered; returns the reward summed over those slots and
        appends a TraceRow per slot to a `trace` list.  Raises DelayOverflow
        if the policy keeps a packet past l_max (the env is then unusable).
        """
        if (slots is None) == (packets is None):
            raise ValueError("give exactly one of slots and packets")
        r = self.rewards
        penalty = r.penalty
        l_max = self.l_max
        n = len(self.beliefs)
        rng_order = range(n)
        next_uniform = self.streams.next_uniform
        idle, beliefs = self.idle, self.beliefs
        alphas, betas = self.alphas, self.betas
        sensed, sensed_idle, idle_pairs = self.sensed, self.sensed_idle, self.idle_pairs
        last_idle, last_busy = self.last_idle, self.last_busy
        delay, slot, done, delay_total = self.delay, self.slots, self.packets, self.delay_total
        slot_end = None if slots is None else slot + slots
        packet_end = None if packets is None else done + packets

        use_codes = isinstance(policy, MultichannelValueFunction)
        if use_codes:
            space = policy.space
            codes = self._codes(space)

        total = 0.0
        while slot != slot_end and done != packet_end:
            target = max(rng_order, key=beliefs.__getitem__) if n > 1 else 0
            if use_codes:
                action = policy.action_for(codes, delay)
            else:
                action = policy.act(beliefs[target], delay)
            transmitted = False
            obs = -1

            if action == Action.WAIT:
                if delay >= l_max:
                    raise DelayOverflow(f"wait at delay cap {l_max}")
                reward = -penalty(delay)
            else:
                sensed[target] += 1
                if idle[target]:
                    obs = 0
                    sensed_idle[target] += 1
                    if last_idle[target] == slot - 1:
                        idle_pairs[target] += 1
                    last_idle[target] = slot
                    reward = r.phi - r.c_s - r.p_p
                    transmitted = True
                else:
                    obs = 1
                    last_busy[target] = slot
                    if action == Action.SENSE_FALLBACK:
                        reward = r.phi - r.c_s - r.p_3g
                        transmitted = True
                    else:
                        if delay >= l_max:
                            raise DelayOverflow(f"busy sense-wait at delay cap {l_max}")
                        reward = -r.c_s - penalty(delay)

            total += reward
            if trace is not None:
                trace.append(TraceRow(slot, beliefs[target], delay, int(action), obs, reward))
            slot += 1

            # Belief propagation, descriptor aging, and channel truth for the
            # next slot; each channel consumes one uniform per slot.
            for i in rng_order:
                if action != Action.WAIT and i == target:
                    beliefs[i] = alphas[i] if obs == 0 else betas[i]
                else:
                    beliefs[i] = betas[i] + (alphas[i] - betas[i]) * beliefs[i]
                stay_idle = alphas[i] if idle[i] else betas[i]
                idle[i] = next_uniform(i) < stay_idle
            if use_codes:
                codes = [space.aged[c] for c in codes]
                if action != Action.WAIT:
                    codes[target] = space.idle_fresh if obs == 0 else space.busy_fresh

            if transmitted:
                delay_total += delay
                done += 1
                delay = 1
            else:
                delay += 1

        self.delay, self.slots, self.packets, self.delay_total = delay, slot, done, delay_total
        self.reward_total += total
        return total

    def metrics(self, energy_metric: str = "full") -> SimMetrics:
        """Episode metrics over every slot run so far."""
        r = self.rewards
        slots, packets = self.slots, self.packets
        senses = sum(self.sensed)
        primary_tx = sum(self.sensed_idle)
        dedicated_tx = packets - primary_tx
        if energy_metric == "sensing":
            energy = r.c_s * senses
        else:
            energy = r.c_s * senses + r.p_p * primary_tx + r.p_3g * dedicated_tx
        return SimMetrics(
            avg_delay=self.delay_total / packets,
            energy_per_packet=energy / packets,
            energy_per_slot=energy / slots,
            throughput=packets / slots,
            avg_reward=self.reward_total / slots,
            senses=senses,
            primary_tx=primary_tx,
            dedicated_tx=dedicated_tx,
            waits=slots - senses,
            slots=slots,
            packets=packets,
        )


def run_episode(cfg: SimConfig):
    """Simulate until num_packets packets are delivered.

    Returns (SimMetrics, trace) where trace is a list of TraceRow when
    cfg.collect_trace is set, else None.  Deterministic for a fixed seed.
    Raises DelayOverflow if the policy keeps a packet past l_max.
    """
    env = SlotEnv(cfg.channels, cfg.rewards, cfg.seed, cfg.l_max)
    trace = [] if cfg.collect_trace else None
    env.run(cfg.policy, packets=cfg.num_packets, trace=trace)
    return env.metrics(cfg.energy_metric), trace


def little_check(m: SimMetrics) -> float:
    """Residual of the delay/throughput identity.

    Under the delay convention used here (a packet transmitted on its first
    slot has delay 1), the identity is avg_delay = 1/throughput with zero
    offset; the offset is pinned by the always-transmit baseline, for which
    both sides are exactly 1.
    """
    return abs(m.avg_delay - 1.0 / m.throughput)


@dataclass
class SweepRow:
    gamma: float
    avg_delay: float
    energy_per_packet: float
    energy_per_slot: float
    throughput: float
    avg_reward: float
    senses: int
    primary_tx: int
    dedicated_tx: int

    @classmethod
    def of(cls, gamma: float, m: SimMetrics) -> "SweepRow":
        return cls(gamma, m.avg_delay, m.energy_per_packet, m.energy_per_slot, m.throughput,
                   m.avg_reward, m.senses, m.primary_tx, m.dedicated_tx)


SWEEP_HEADER = (
    "gamma,avg_delay,energy_per_packet,energy_per_slot,"
    "throughput,avg_reward,senses,primary_tx,dedicated_tx"
)


def sweep_rows_to_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in rows:
            fh.write(
                f"{row.gamma!r},{row.avg_delay!r},{row.energy_per_packet!r},"
                f"{row.energy_per_slot!r},{row.throughput!r},{row.avg_reward!r},"
                f"{row.senses},{row.primary_tx},{row.dedicated_tx}\n"
            )


def _solve_policy(cfg: SimConfig, gamma: float, tol: float):
    """Solve the configured instance at a given delay penalty and return the
    policy object the simulator should run."""
    differing = [f"{i}: {p}" for i, p in enumerate(cfg.channels) if p != cfg.channels[0]]
    if differing:
        raise ValueError(
            f"solvers need identical channels; these differ from channel 0 "
            f"({cfg.channels[0]}): " + ", ".join(differing)
        )
    r = replace(cfg.rewards, gamma=gamma)
    if len(cfg.channels) == 1:
        vf = solve_single_channel(cfg.channels[0], r, l_max=cfg.l_max, tol=tol)
        return extract_thresholds(vf), r
    mvf = solve_multichannel(
        len(cfg.channels), cfg.channels[0], r, k_trunc=cfg.k_trunc, l_max=cfg.l_max, tol=tol
    )
    return mvf, r


def sweep_gamma(cfg: SimConfig, gammas, solver_tol: float = 1e-9):
    """One solve plus one episode per delay-penalty value, with the same seed
    across points for variance reduction.  Returns SweepRow per gamma."""
    gammas = sorted(float(g) for g in gammas)
    if any(g <= 0 for g in gammas):
        raise ValueError("gamma values must be positive")
    return [SweepRow.of(g, _delay_at_gamma(cfg, g, solver_tol)) for g in gammas]


def _delay_at_gamma(cfg: SimConfig, gamma: float, solver_tol: float):
    pol, r = _solve_policy(cfg, gamma, solver_tol)
    m, _ = run_episode(replace(cfg, policy=pol, rewards=r))
    return m


def _match_gamma(cfg, target_delay, tol, bracket, solver_tol, iters=26):
    """Log-space bisection on gamma for a target average delay.  Returns
    (gamma, metrics, within_tol, achieved) where achieved is the (low, high)
    average delay at the bracket's ends."""
    g_lo, g_hi = bracket
    m_lo = _delay_at_gamma(cfg, g_lo, solver_tol)
    m_hi = _delay_at_gamma(cfg, g_hi, solver_tol)
    achieved = (m_hi.avg_delay, m_lo.avg_delay)
    if not (m_lo.avg_delay + tol >= target_delay >= m_hi.avg_delay - tol):
        raise TargetUnreachable(target_delay, *achieved)
    best = min(
        [(abs(m_lo.avg_delay - target_delay), g_lo, m_lo),
         (abs(m_hi.avg_delay - target_delay), g_hi, m_hi)],
        key=lambda t: t[0],
    )
    lo, hi = np.log(g_lo), np.log(g_hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        g = float(np.exp(mid))
        m = _delay_at_gamma(cfg, g, solver_tol)
        err = abs(m.avg_delay - target_delay)
        if err < best[0]:
            best = (err, g, m)
        if m.avg_delay > target_delay:
            lo = mid
        else:
            hi = mid
    return best[1], best[2], best[0] <= tol, achieved


def gamma_for_target_delay(
    cfg: SimConfig,
    target_delay: float,
    tol: float = 0.1,
    bracket=(0.5, 2000.0),
    solver_tol: float = 1e-9,
):
    """Find the delay-penalty coefficient whose optimal policy attains the
    target average delay.

    Average delay is non-increasing in gamma, which the bracket probe
    validates before bisecting.  Raises TargetUnreachable, carrying the
    delays achieved at the bracket's ends, when the target lies outside that
    range or no gamma lands within tol (the policy family changes
    discretely, so delay is a step function).
    """
    g, m, ok, achieved = _match_gamma(cfg, target_delay, tol, bracket, solver_tol)
    if not ok:
        raise TargetUnreachable(target_delay, *achieved)
    return g, m


@dataclass
class CompareRow:
    k: int
    gamma: float
    matched_delay_mp: float
    matched_delay_opt: float
    cost_mp: float
    cost_opt: float
    reduction_pct: float
    # Full episode metrics of both sides, for derived diagnostics; not
    # exported to CSV.
    metrics_mp: SimMetrics | None = None
    metrics_opt: SimMetrics | None = None


COMPARE_HEADER = (
    "k,gamma,matched_delay_mp,matched_delay_opt,cost_mp,cost_opt,reduction_pct"
)


def compare_rows_to_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(COMPARE_HEADER + "\n")
        for row in rows:
            fh.write(
                f"{row.k},{row.gamma!r},{row.matched_delay_mp!r},{row.matched_delay_opt!r},"
                f"{row.cost_mp!r},{row.cost_opt!r},{row.reduction_pct!r}\n"
            )


def compare_with_memoryless(
    cfg: SimConfig,
    k_values,
    tol: float = 0.25,
    bracket=(0.5, 2000.0),
    solver_tol: float = 1e-9,
):
    """Energy comparison against the always-sense baselines at matched delay.

    For each attempt limit k: simulate the baseline, tune gamma until the
    optimal policy reaches the same average delay (best effort within the
    step structure), and report the per-packet energy reduction.
    """
    rows = []
    for k in sorted(int(k) for k in k_values):
        m_mp, _ = run_episode(replace(cfg, policy=MemorylessPolicy(k)))
        g, m_opt = _match_gamma(cfg, m_mp.avg_delay, tol, bracket, solver_tol)[:2]
        rows.append(
            CompareRow(
                k=k,
                gamma=g,
                matched_delay_mp=m_mp.avg_delay,
                matched_delay_opt=m_opt.avg_delay,
                cost_mp=m_mp.energy_per_packet,
                cost_opt=m_opt.energy_per_packet,
                reduction_pct=100.0 * (m_mp.energy_per_packet - m_opt.energy_per_packet)
                / m_mp.energy_per_packet,
                metrics_mp=m_mp,
                metrics_opt=m_opt,
            )
        )
    return rows


def write_trace_csv(trace, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,belief_sensed_channel,delay,action,observation,reward\n")
        for row in trace:
            fh.write(
                f"{row.t},{row.belief_sensed_channel!r},{row.delay},"
                f"{row.action},{row.observation},{row.reward!r}\n"
            )
