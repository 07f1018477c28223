"""Slot-level Monte Carlo simulation of a secondary user over N licensed
channels, plus the experiment sweeps built on it.

The N channels are N copies of one channel: the same (alpha, beta), hence
the same stationary idle probability and belief update.  SimConfig and
SlotEnv reject a channel list whose entries differ with ValueError.

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

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, stationary_idle
from .errors import DelayOverflow, TargetUnreachable
from .multichannel import (
    DEFAULT_K_TRUNC,
    STALE,
    MultichannelValueFunction,
    solve_multichannel,
)
from .policy import MemorylessPolicy, ThresholdPolicy, extract_thresholds
from .solver import (
    DEFAULT_L_MAX,
    DEFAULT_TOL,
    Action,
    RewardParams,
    ValueFunction,
    solve_single_channel,
)

DEFAULT_PACKETS = 3000
# Average-delay tolerance of compare's delay matching.
DEFAULT_MATCH_TOL = 0.25
# The delay penalties between which gamma bisection searches, and its steps.
GAMMA_BRACKET = (0.5, 2000.0)
GAMMA_STEPS = 26


@dataclass
class SimConfig:
    channels: list
    rewards: RewardParams
    policy: object
    num_packets: int = DEFAULT_PACKETS
    seed: int = 0
    l_max: int = DEFAULT_L_MAX
    k_trunc: int = DEFAULT_K_TRUNC
    collect_trace: bool = False

    def __post_init__(self):
        if self.num_packets < 1:
            raise ValueError("num_packets must be >= 1")
        check_seed(self.seed)
        _identical_channel(self.channels)


def check_seed(seed: int) -> None:
    """Raise ValueError for a negative seed, which numpy cannot seed from."""
    if seed < 0:
        raise ValueError(f"seed={seed} must be >= 0")


def check_match_tol(tol: float) -> None:
    """Raise ValueError for a delay-matching tolerance below 0 or not finite."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"delay-matching tolerance {tol} must be finite and >= 0")


def _identical_channel(channels) -> ChannelParams:
    """The one channel that a non-empty list of identical channels copies;
    raises ValueError for any other list."""
    if not channels:
        raise ValueError("channel list must be non-empty")
    differing = [f"{i}: {p}" for i, p in enumerate(channels) if p != channels[0]]
    if differing:
        raise ValueError(
            f"channels must be identical; these differ from channel 0 "
            f"({channels[0]}): " + ", ".join(differing)
        )
    return channels[0]


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


_WAIT, _SENSE_WAIT, _FALLBACK = (int(a) for a in Action)
_GROW = 64  # belief-row entries added past an age that runs off its row


def idle_flags(u: np.ndarray, alpha: float, beta: float, prev: bool) -> list:
    """Idle flags of one channel over consecutive slots whose uniforms are u,
    given the flag of the slot before: slot by slot, idle = u < alpha after
    an idle slot and u < beta after a busy one.

    Below min(alpha, beta) both comparisons say idle and at or above
    max(alpha, beta) both say busy.  In between, the slot repeats the
    previous state when alpha > beta and flips it when alpha < beta, so a
    slot takes the state of the last forced slot before it (or prev), flipped
    once per slot since then when alpha < beta.
    """
    lo, hi = min(alpha, beta), max(alpha, beta)
    pos = np.arange(len(u))
    forced = np.maximum.accumulate(np.where((u < lo) | (u >= hi), pos, -1))
    flags = np.where(forced >= 0, u[forced] < lo, prev)
    if alpha < beta:
        flags ^= (pos - forced) % 2 == 1
    return flags.tolist()


class ChannelStreams:
    """The true idle/busy state of n copies of channel p, one block of slots
    at a time.

    Each channel owns a uniform stream and consumes exactly one uniform per
    slot whatever the policy does, so channel realizations are shared across
    policies run with the same seed (common random numbers).  The first
    uniform draws the initial state from the stationary distribution; slot t
    is idle when its uniform lies below alpha (previous slot idle) or beta
    (previous slot busy).  Only the current block is kept.
    """

    BLOCK = 8192

    def __init__(self, seed: int, n: int, p: ChannelParams):
        self._rngs = [np.random.default_rng([seed, i]) for i in range(n)]
        self._alpha, self._beta = p.alpha, p.beta
        pi0 = stationary_idle(p)
        self.start = 0  # the first slot of the current block
        self.idle = []  # per channel, the idle flags of the block's slots
        for rng in self._rngs:
            u = rng.random(self.BLOCK)
            first = bool(u[0] < pi0)
            self.idle.append([first] + idle_flags(u[1:], p.alpha, p.beta, first))

    def advance(self) -> None:
        """Move to the next block."""
        self.start += self.BLOCK
        self.idle = [
            idle_flags(rng.random(self.BLOCK), self._alpha, self._beta, flags[-1])
            for rng, flags in zip(self._rngs, self.idle)
        ]


def _compile(policy, l_max: int):
    """A threshold or memoryless policy as two lists indexed by delay
    1..l_max: wait while the target's belief is at most wait_below[delay],
    else take the sensing action sense[delay] (ThresholdPolicy.act and
    MemorylessPolicy.act)."""
    delays = range(1, l_max + 1)
    if isinstance(policy, ThresholdPolicy):
        lam = policy.lambda_star.tolist()
        th = [lam[min(d, policy.l_max) - 1] for d in delays]
        wait_below = [t if t > 0.0 else -math.inf for t in th]
        switch = policy.l_star
    elif isinstance(policy, MemorylessPolicy):
        wait_below = [-math.inf] * l_max
        switch = policy.k
    else:
        raise TypeError(f"no slot rule for policy type {type(policy).__name__}")
    sense = [_SENSE_WAIT if d < switch else _FALLBACK for d in delays]
    return [None] + wait_below, [None] + sense


class SlotEnv:
    """The slot dynamics of one saturated secondary user over N copies of one
    channel.

    Channel truth, beliefs, delay, the tallies and the sensing counters,
    summed over the channels (slots sensed, sensed idle, and sensed idle
    right after an idle sensing of the same channel: the estimator's M, I
    and K), persist across run() calls, so an episode is one call and the
    learner's windows are consecutive calls.

    A channel's belief depends only on where it last started from (pi0 before
    any sensing, alpha after an idle sensing, beta after a busy one) and the
    slots since.  The channels share one row of beliefs per start, grown on
    demand by the unsensed update beta + (alpha - beta) b; each channel keeps
    its current row and the slot of its last sensing.
    """

    def __init__(self, channels, rewards: RewardParams, seed: int, l_max: int):
        p = _identical_channel(channels)
        n = len(channels)
        self.rewards = rewards
        self.l_max = l_max
        self.streams = ChannelStreams(seed, n, p)
        self.pi0_row, self.idle_row, self.busy_row = [stationary_idle(p)], [p.alpha], [p.beta]
        self.update = p.beta, p.alpha - p.beta
        self.tables = [self.pi0_row] * n  # each channel's current row
        self.last = [-1] * n  # slot of each channel's last sensing
        # Rewards by delay (index 0 unused): wait, and busy sensing that waits.
        delays = range(1, l_max + 1)
        self.wait_reward = [None] + [-rewards.penalty(d) for d in delays]
        self.busy_wait_reward = [None] + [-rewards.c_s - rewards.penalty(d) for d in delays]
        self.delay = 1
        self.slots = self.packets = self.delay_total = 0
        self.reward_total = 0.0
        self.sensed = self.sensed_idle = self.idle_pairs = 0
        self.overflow = None  # the DelayOverflow a run() raised, if any

    def _beliefs(self, slot: int) -> list:
        """Every channel's belief at the slot, growing the rows that need it."""
        beta, slope = self.update
        out = []
        for table, last in zip(self.tables, self.last):
            age = slot - last - 1
            while len(table) < age + _GROW:
                table.append(beta + slope * table[-1])
            out.append(table[age])
        return out

    def run(self, policy, slots: int | None = None, packets: int | None = None, trace=None) -> float:
        """Run the policy for `slots` more slots or until `packets` more
        packets are delivered; returns the reward summed over those slots and
        appends a TraceRow per slot to a `trace` list.  Raises DelayOverflow
        if the policy keeps a packet past l_max, and on every later run() or
        metrics() call, since the tallies then stop part way through a slot;
        TypeError for a policy that is not a ThresholdPolicy,
        MemorylessPolicy or MultichannelValueFunction; ValueError for a
        MultichannelValueFunction solved for another number of channels.
        """
        self._check_usable()
        if (slots is None) == (packets is None):
            raise ValueError("give exactly one of slots and packets")
        r = self.rewards
        idle_reward = r.phi - r.c_s - r.p_p
        fallback_reward = r.phi - r.c_s - r.p_3g
        wait_reward, busy_wait_reward = self.wait_reward, self.busy_wait_reward
        l_max = self.l_max
        streams = self.streams
        idle, start = streams.idle, streams.start
        end = start + streams.BLOCK
        tables, last = self.tables, self.last
        pi0_row, idle_row, busy_row = self.pi0_row, self.idle_row, self.busy_row
        chans = range(len(tables))
        single, target = len(tables) == 1, 0
        sensed, sensed_idle, idle_pairs = self.sensed, self.sensed_idle, self.idle_pairs
        delay, slot, done, delay_total = self.delay, self.slots, self.packets, self.delay_total
        slot_end = None if slots is None else slot + slots
        packet_end = None if packets is None else done + packets

        codes = None
        if isinstance(policy, MultichannelValueFunction):
            # Descriptor codes rebuilt from each channel's last sensing, then
            # aged slot by slot as the model ages them.
            if policy.n_channels != len(tables):
                raise ValueError(
                    f"descriptor policy solved for {policy.n_channels} channels "
                    f"run on {len(tables)}"
                )
            space = policy.space
            codes = [
                STALE if t is pi0_row else space.codes_for(t is idle_row, slot - s)
                for t, s in zip(tables, last)
            ]
            aged, key, by_key = space.aged.tolist(), space.key, policy.action_by_key
            fresh = (space.idle_fresh, space.busy_fresh)
            cap = policy.l_max
        else:
            wait_below, sense = _compile(policy, l_max)

        total = 0.0
        while slot != slot_end and done != packet_end:
            if slot == end:
                streams.advance()
                idle, start = streams.idle, end
                end += streams.BLOCK
            if single:
                try:
                    b = tables[0][slot - last[0] - 1]
                except IndexError:
                    b = self._beliefs(slot)[0]
            else:
                try:
                    beliefs = [tables[i][slot - last[i] - 1] for i in chans]
                except IndexError:
                    beliefs = self._beliefs(slot)
                # The max-belief channel, lowest index among ties.
                b = max(beliefs)
                target = beliefs.index(b)
            if codes is not None:
                action = by_key[key(codes, min(delay, cap))]
            elif b <= wait_below[delay]:
                action = _WAIT
            else:
                action = sense[delay]
            transmitted = False

            if action == _WAIT:
                if delay >= l_max:
                    raise self._overflowed("wait")
                obs = -1
                reward = wait_reward[delay]
            else:
                sensed += 1
                if idle[target][slot - start]:
                    obs = 0
                    sensed_idle += 1
                    if last[target] == slot - 1 and tables[target] is idle_row:
                        idle_pairs += 1
                    tables[target] = idle_row
                    reward = idle_reward
                    transmitted = True
                else:
                    obs = 1
                    tables[target] = busy_row
                    if action == _FALLBACK:
                        reward = fallback_reward
                        transmitted = True
                    else:
                        if delay >= l_max:
                            raise self._overflowed("busy sense-wait")
                        reward = busy_wait_reward[delay]
                last[target] = slot

            total += reward
            if trace is not None:
                trace.append(TraceRow(slot, b, delay, action, obs, reward))
            slot += 1
            if codes is not None:
                codes = [aged[c] for c in codes]
                if obs >= 0:
                    codes[target] = fresh[obs]

            if transmitted:
                delay_total += delay
                done += 1
                delay = 1
            else:
                delay += 1

        self.delay, self.slots, self.packets, self.delay_total = delay, slot, done, delay_total
        self.sensed, self.sensed_idle, self.idle_pairs = sensed, sensed_idle, idle_pairs
        self.reward_total += total
        return total

    def _overflowed(self, action: str) -> DelayOverflow:
        """Record that a run() stopped at the delay cap; returns the error."""
        self.overflow = DelayOverflow(f"{action} at delay cap {self.l_max}")
        return self.overflow

    def _check_usable(self) -> None:
        if self.overflow is not None:
            raise DelayOverflow(f"env unusable after an earlier run raised: {self.overflow}")

    def metrics(self) -> SimMetrics:
        """Episode metrics over every slot run so far.  Raises DelayOverflow
        after a run() that raised it."""
        self._check_usable()
        r = self.rewards
        slots, packets = self.slots, self.packets
        senses, primary_tx = self.sensed, self.sensed_idle
        dedicated_tx = packets - primary_tx
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
    return env.metrics(), trace


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


def _solve(cfg: SimConfig, gamma: float, tol: float, start=None, reach=None):
    """Solve the configured instance at a given delay penalty, policy
    iteration starting from the action table start and, at N > 1, on the
    descriptor states reach of an earlier solve of the same instance when
    given.  The value function's rewards are the ones it was solved with."""
    r = replace(cfg.rewards, gamma=gamma)
    if len(cfg.channels) == 1:
        return solve_single_channel(cfg.channels[0], r, l_max=cfg.l_max, tol=tol, start=start)
    return solve_multichannel(
        len(cfg.channels), cfg.channels[0], r, k_trunc=cfg.k_trunc, l_max=cfg.l_max, tol=tol,
        start=start, reach=reach,
    )


def _policy_of(vf):
    """The policy object the simulator runs for a solved value function."""
    return extract_thresholds(vf) if isinstance(vf, ValueFunction) else vf


def _policy_key(policy):
    """What an episode of a solved policy depends on besides the configuration."""
    if isinstance(policy, ThresholdPolicy):
        return tuple(policy.lambda_star.tolist()), policy.l_star
    return policy.actions.tobytes()


class _Episodes:
    """Episodes of the policies solved for one configuration, by delay
    penalty, with solves cached by gamma and episodes by policy.

    Each new gamma's solve starts from the action table of the nearest gamma
    (in log gamma) solved so far.  The start changes only the number of
    policy-iteration steps: the tables, and so the policies and episodes,
    are the ones a solve from scratch gives.  With several channels every
    solve runs on the descriptor states, and their successor table, that the
    first one enumerated; they live as long as this object.

    An episode's metrics depend on gamma only through avg_reward, and nearby
    gammas often solve to the same policy.  probe() may therefore return an
    episode run at another gamma; metrics() returns one run at the gamma
    asked for.
    """

    def __init__(self, cfg: SimConfig, solver_tol: float):
        self.cfg, self.solver_tol = cfg, solver_tol
        self.solves = {}
        self.tables = {}  # gamma -> solved action table
        self.runs = {}  # policy key -> (gamma it ran at, metrics)
        self.reach = None  # descriptor states of the first solve, at N > 1

    def _run(self, gamma: float):
        if gamma not in self.solves:
            near = min(self.tables, key=lambda g: abs(math.log(g / gamma)), default=None)
            vf = _solve(self.cfg, gamma, self.solver_tol, self.tables.get(near), self.reach)
            if isinstance(vf, MultichannelValueFunction):
                self.reach = vf.reach
            self.tables[gamma] = vf.actions
            self.solves[gamma] = _policy_of(vf), vf.rewards
        pol, r = self.solves[gamma]
        key = _policy_key(pol)
        if key not in self.runs:
            self.runs[key] = gamma, run_episode(replace(self.cfg, policy=pol, rewards=r))[0]
        return self.runs[key]

    def probe(self, gamma: float) -> SimMetrics:
        return self._run(gamma)[1]

    def metrics(self, gamma: float) -> SimMetrics:
        ran_at, m = self._run(gamma)
        if ran_at != gamma:
            pol, r = self.solves[gamma]
            m, _ = run_episode(replace(self.cfg, policy=pol, rewards=r))
        return m


def sweep_gamma(cfg: SimConfig, gammas, solver_tol: float = DEFAULT_TOL):
    """One solve plus one episode per delay-penalty value, with the same seed
    across points for variance reduction.  Returns SweepRow per gamma."""
    gammas = sorted(float(g) for g in gammas)
    if any(g <= 0 for g in gammas):
        raise ValueError("gamma values must be positive")
    runs = _Episodes(cfg, solver_tol)
    return [SweepRow.of(g, runs.metrics(g)) for g in gammas]


def _match_gamma(runs: _Episodes, target_delay, tol):
    """Log-space bisection on gamma over GAMMA_BRACKET for a target average
    delay.  Returns (gamma, within_tol, achieved) where achieved is the (low,
    high) average delay at the bracket's ends."""
    check_match_tol(tol)
    g_lo, g_hi = GAMMA_BRACKET
    m_lo = runs.probe(g_lo)
    m_hi = runs.probe(g_hi)
    achieved = (m_hi.avg_delay, m_lo.avg_delay)
    if not (m_lo.avg_delay + tol >= target_delay >= m_hi.avg_delay - tol):
        raise TargetUnreachable(target_delay, *achieved)
    best = min(
        [(abs(m_lo.avg_delay - target_delay), g_lo),
         (abs(m_hi.avg_delay - target_delay), g_hi)],
        key=lambda t: t[0],
    )
    lo, hi = np.log(g_lo), np.log(g_hi)
    for _ in range(GAMMA_STEPS):
        mid = 0.5 * (lo + hi)
        g = float(np.exp(mid))
        m = runs.probe(g)
        err = abs(m.avg_delay - target_delay)
        if err < best[0]:
            best = (err, g)
        if m.avg_delay > target_delay:
            lo = mid
        else:
            hi = mid
    return best[1], best[0] <= tol, achieved


def gamma_for_target_delay(
    cfg: SimConfig,
    target_delay: float,
    tol: float = 0.1,
    solver_tol: float = DEFAULT_TOL,
):
    """Find the delay-penalty coefficient whose optimal policy attains the
    target average delay.

    Average delay is non-increasing in gamma, which probing GAMMA_BRACKET's
    ends validates before bisecting.  Raises TargetUnreachable, carrying the
    delays achieved there, when the target lies outside that range or no
    gamma lands within tol (the policy family changes discretely, so delay is
    a step function), and ValueError as check_match_tol does.
    """
    runs = _Episodes(cfg, solver_tol)
    g, ok, achieved = _match_gamma(runs, target_delay, tol)
    if not ok:
        raise TargetUnreachable(target_delay, *achieved)
    return g, runs.metrics(g)


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
    tol: float = DEFAULT_MATCH_TOL,
    solver_tol: float = DEFAULT_TOL,
):
    """Energy comparison against the always-sense baselines at matched delay.

    For each attempt limit k: simulate the baseline, tune gamma until the
    optimal policy reaches the same average delay (best effort within the
    step structure), and report the per-packet energy reduction, sharing
    solves and episodes across k.  Raises ValueError as check_match_tol does.
    """
    runs = _Episodes(cfg, solver_tol)
    rows = []
    for k in sorted(int(k) for k in k_values):
        m_mp, _ = run_episode(replace(cfg, policy=MemorylessPolicy(k)))
        g = _match_gamma(runs, m_mp.avg_delay, tol)[0]
        m_opt = runs.metrics(g)
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
