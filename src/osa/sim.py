"""Slot-level Monte Carlo simulation of a secondary user over N licensed
channels, plus the experiment sweeps built on it.

The N channels are N copies of one channel: the same (alpha, beta), hence
the same stationary idle probability and belief update.  SimConfig and
SlotEnv reject a channel list whose entries differ with ValueError.

`SlotEnv` is the one slot kernel: episodes run it until a packet count is
delivered, and the online learner (`learn.run_learning`) runs it window by
window, so both score policies under the same dynamics.  Its cost per slot
barely grows with N: when alpha > beta aging never reorders the channels, so
it keeps them in belief order (idle sensing to the head, busy to the tail)
and reads only the top one or two beliefs, scanning every channel only for
a float tie at the top (lowest index wins) and, when alpha <= beta, in every
slot.  A descriptor policy's state is its index in the solver's reachable
states, walked on the solver's own successor table.  The kernel makes one
pass per block of channel truth, a plain `for` over the block's slots: a
wait slot takes a short path, and the packet count is tested only on slots
that transmit.

Each channel owns an independent random stream derived from the top-level
seed, and its true state advances once per slot regardless of the policy, so
runs with the same seed share channel realizations across policies (common
random numbers).  A packet transmitted on its d-th slot has delay d; since
every slot belongs to exactly one packet, average delay and 1/throughput
agree by accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import ChannelParams, stationary_idle
from .errors import DelayOverflow, TargetUnreachable
from .multichannel import (
    DEFAULT_K_TRUNC,
    STALE,
    MultichannelValueFunction,
    solve_multichannel,
)
from .policy import MemorylessPolicy, ThresholdPolicy
from .solver import (
    DEFAULT_L_MAX,
    DEFAULT_TOL,
    Action,
    RewardParams,
    check_count,
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
        check_count("num_packets", self.num_packets, 1)
        check_count("seed", self.seed, 0)
        check_count("l_max", self.l_max, 2)
        check_count("k_trunc", self.k_trunc, 1)
        _identical_channel(self.channels)


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
# Belief-row entries added past an age that runs off a row, or past the entry
# where a row settles.
_GROW = 64


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


def _belief_rows(p: ChannelParams) -> tuple:
    """The one-entry belief rows after no sensing (pi0), an idle sensing
    (alpha) and a busy one (beta), and the unsensed update (beta, slope)
    that _grow extends them by."""
    return ([stationary_idle(p)], [p.alpha], [p.beta]), (p.beta, p.alpha - p.beta)


def _period(row: list) -> int:
    """1 or 2 when a belief row's last entry equals the entry that many
    before it, else 0.  The update is a function of the belief alone, so
    from there on the row repeats with that period: a float fixed point, or
    a 2-cycle that a decreasing update (alpha < beta) can end in."""
    if len(row) > 1 and row[-1] == row[-2]:
        return 1
    return 2 if len(row) > 2 and row[-1] == row[-3] else 0


def _grow(row: list, update: tuple, length: int) -> int:
    """Extend a belief row to at least `length` entries, entry by entry by
    the unsensed update beta + slope * b, unless it settles first: a row
    stops _GROW entries after the entry that first repeats one of the one or
    two before it, the last _GROW entries repeating with that period.
    Returns the period of a settled row, 0 for one still growing."""
    beta, slope = update
    period = _period(row)
    while not period and len(row) < length:
        row.append(beta + slope * row[-1])
        period = _period(row)
        if period:
            row.extend(row[-period:] * (_GROW // period))
    return period


def _compile(policy, l_max: int):
    """A threshold policy (the memoryless baseline among them) as two lists
    indexed by delay 1..l_max: wait while the target's belief is at most
    wait_below[delay], else take the sensing action sense[delay].  This is
    the one implementation of the rule ThresholdPolicy states; the CLI's
    delay-cap check reads these lists too."""
    if not isinstance(policy, ThresholdPolicy):
        raise TypeError(f"no slot rule for policy type {type(policy).__name__}")
    delays = range(1, l_max + 1)
    lam = policy.lambda_star.tolist()
    th = [lam[min(d, policy.l_max) - 1] for d in delays]
    wait_below = [t if t > 0.0 else -math.inf for t in th]
    sense = [_SENSE_WAIT if d < policy.l_star else _FALLBACK for d in delays]
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
    its current row and the slot of its last sensing.  A row stops growing
    once it settles into a float fixed point or 2-cycle (_grow), and a
    channel whose age runs past a settled row reads it from `since`, the
    slot of its last sensing moved on by whole periods, so its beliefs read
    what the update would give without the row growing with every slot.

    Sensing targets the max-belief channel, the lowest index among ties.
    When alpha > beta the update is increasing, and in floats it is monotone
    (a rounded multiply and add), so aging never reorders the channels: it
    can merge beliefs into ties but never reverse two.  Only the sensed
    channel moves, to the head after an idle sensing (belief alpha, which
    nothing else exceeds) and to the tail after a busy one (beta, which
    nothing else undercuts).  run() therefore keeps the channels in an order
    list, sorted once per call.  A wait slot reads only the head's belief,
    the max that the threshold test and the trace need; a sensing slot also
    reads the second belief and, only when the two are float-equal, scans
    every channel for the lowest index among the ties.  With alpha <= beta
    (or rows that could leave [beta, alpha] in floats) every slot of N > 1
    channels takes that scan.

    A descriptor policy's state is its index in policy.reach, at its delay
    capped at the policy's l_max, walked on the successor arrays the solver
    uses (up_wait, idle1, up_busy, busy1), read through memoryviews.  Each
    channel's code comes from its row and last sensing
    (DescriptorSpace.codes_for, read by _codes), so the sensed code is the
    code of the channel the float beliefs chose.  The table's successor
    holds when that is the code the solver senses (reach.sensed_code, which
    DescriptorSpace.moves chose), as it always is for one channel; where a
    float tie or a collapsed age makes it another, the successor is the
    state of the codes the channels hold after the slot, at the delay the
    packet moves to, found by reach.find as the start state is, and memoized
    per call by (state, code, observation).  Threshold policies, the
    memoryless baseline among them, are compiled by _compile on their first
    run() on an env; a policy changed in place after that runs as it was
    compiled.

    run() is one loop body for every policy type and N.  It makes one pass
    per block of channel truth (ChannelStreams.BLOCK slots), advancing the
    streams at the block's start and running a `for` over the block's slots
    up to the block's end or the end of a `slots` window.  A wait slot takes
    a short path: the delay-cap check, the reward, the trace row, the
    up_wait step and delay + 1.  A sensing slot reads the truth bit once and
    moves the channel in the order list inside the idle or busy branch.  The
    packet count of a `packets` run is tested only on slots that transmit,
    and the pass ends on the slot that meets it.
    """

    def __init__(self, channels, rewards: RewardParams, seed: int, l_max: int):
        check_count("seed", seed, 0)
        check_count("l_max", l_max, 2)
        p = _identical_channel(channels)
        n = len(channels)
        self.rewards = rewards
        self.l_max = l_max
        self.streams = ChannelStreams(seed, n, p)
        (self.pi0_row, self.idle_row, self.busy_row), self.update = _belief_rows(p)
        pi0, (beta, slope) = self.pi0_row[0], self.update
        # run()'s order list needs every belief in [beta, alpha] in floats:
        # pi0 and the update of alpha must not exceed alpha (the update is
        # monotone, and beta + slope * b >= beta for b >= 0).
        self.ordered = n > 1 and slope > 0 and max(pi0, beta + slope * p.alpha) <= p.alpha
        self.tables = [self.pi0_row] * n  # each channel's current row
        self.last = [-1] * n  # slot of each channel's last sensing
        self.since = [-1] * n  # the slot each channel's row is read from
        # Rewards by delay (index 0 unused): wait, and busy sensing that waits.
        delays = range(1, l_max + 1)
        self.wait_reward = [None] + [-rewards.penalty(d) for d in delays]
        self.busy_wait_reward = [None] + [-rewards.c_s - rewards.penalty(d) for d in delays]
        self._rules = {}  # id(policy) -> (policy, wait_below, sense)
        self.delay = 1
        self.slots = self.packets = self.delay_total = 0
        self.reward_total = 0.0
        self.sensed = self.sensed_idle = self.idle_pairs = 0
        self.overflow = None  # the DelayOverflow a run() raised, if any

    def _beliefs(self, slot: int) -> list:
        """Every channel's belief at the slot, growing the rows that need it.
        A channel that runs past a settled row moves its `since` on by whole
        periods, to read the row's repeating tail from its start."""
        out = []
        for i, row in enumerate(self.tables):
            age = slot - self.since[i] - 1
            period = _grow(row, self.update, age + _GROW)
            if age >= len(row):
                back = (age - len(row) + _GROW) // period * period
                self.since[i] += back
                age -= back
            out.append(row[age])
        return out

    def _codes(self, space, slot: int) -> list:
        """Every channel's descriptor code in space at the slot."""
        return [STALE if t is self.pi0_row else space.codes_for(t is self.idle_row, slot - s)
                for t, s in zip(self.tables, self.last)]

    def _top(self, slot: int) -> tuple:
        """The max belief at the slot and the lowest-index channel holding it."""
        try:
            beliefs = [t[slot - s - 1] for t, s in zip(self.tables, self.since)]
        except IndexError:
            beliefs = self._beliefs(slot)
        b = max(beliefs)
        return b, beliefs.index(b)

    def _rule(self, policy) -> tuple:
        """_compile(policy), once per policy object on this env.  The entry
        holds the policy, so its id cannot pass to another object."""
        entry = self._rules.get(id(policy))
        if entry is None:
            entry = self._rules[id(policy)] = (policy, *_compile(policy, self.l_max))
        return entry[1:]

    def run(self, policy, slots: int | None = None, packets: int | None = None, trace=None) -> float:
        """Run the policy for `slots` more slots or until `packets` more
        packets are delivered; returns the reward summed over those slots and
        appends a TraceRow per slot to a `trace` list.  Raises DelayOverflow
        if the policy keeps a packet past l_max, and on every later run() or
        metrics() call, since the tallies then stop part way through a slot;
        TypeError for a policy that is not a ThresholdPolicy (the memoryless
        baseline is one) or MultichannelValueFunction; ValueError unless
        exactly one count is given and it is an int >= 0, and for a
        MultichannelValueFunction solved for another number of channels;
        KeyError when the channels reach a state that such a policy's reach
        does not hold.
        """
        self._check_usable()
        if (slots is None) == (packets is None):
            raise ValueError("give exactly one of slots and packets")
        name, count = ("packets", packets) if slots is None else ("slots", slots)
        check_count(name, count, 0)
        r = self.rewards
        idle_reward = r.phi - r.c_s - r.p_p
        fallback_reward = r.phi - r.c_s - r.p_3g
        wait_reward, busy_wait_reward = self.wait_reward, self.busy_wait_reward
        l_max = self.l_max
        streams = self.streams
        idle, start = streams.idle, streams.start
        end = start + streams.BLOCK
        tables, last, since = self.tables, self.last, self.since
        pi0_row, idle_row, busy_row = self.pi0_row, self.idle_row, self.busy_row
        sensed, sensed_idle, idle_pairs = self.sensed, self.sensed_idle, self.idle_pairs
        delay, slot, done, delay_total = self.delay, self.slots, self.packets, self.delay_total
        slot_end = None if slots is None else slot + int(slots)
        packet_end = None if packets is None else done + int(packets)
        n = len(tables)
        ordered, scan = self.ordered, n > 1 and not self.ordered
        order = [0]
        if ordered:
            beliefs = self._beliefs(slot)
            order = sorted(range(n), key=lambda i: -beliefs[i])

        acts = sensed_code = None
        if isinstance(policy, MultichannelValueFunction):
            if policy.n_channels != n:
                raise ValueError(
                    f"descriptor policy solved for {policy.n_channels} channels run on {n}"
                )
            reach, space = policy.reach, policy.space
            codes_for = space.codes_for
            # Read through memoryviews, which make no Python object per state.
            acts, up_wait, up_busy, idle1, busy1 = map(memoryview, (
                policy.actions, reach.up_wait, reach.up_busy, reach.idle1, reach.busy1,
            ))
            # One channel is always the channel the solver senses.
            sensed_code = memoryview(reach.sensed_code) if n > 1 else None
            state = reach.find([self._codes(space, slot)], [min(delay, policy.l_max)]).item()
            detours = {}  # (state, sensed code, obs) -> the successor reach.find gave
        else:
            wait_below, sense = self._rule(policy)

        total = 0.0
        while slot != slot_end and done != packet_end:  # one pass per block
            if slot == end:
                streams.advance()
                idle, start = streams.idle, end
                end += streams.BLOCK
            stop = end if slot_end is None else min(end, slot_end)
            for slot in range(slot, stop):
                if scan:
                    b, target = self._top(slot)
                else:
                    target = order[0]
                    try:
                        b = tables[target][slot - since[target] - 1]
                    except IndexError:
                        b = self._beliefs(slot)[target]
                if acts is not None:
                    action = acts[state]
                elif b <= wait_below[delay]:
                    action = _WAIT
                else:
                    action = sense[delay]

                if action == _WAIT:
                    if delay >= l_max:
                        raise self._overflowed("wait")
                    reward = wait_reward[delay]
                    total += reward
                    if trace is not None:
                        trace.append(TraceRow(slot, b, delay, action, -1, reward))
                    if acts is not None:
                        state = up_wait[state]
                    delay += 1
                    continue

                if ordered:
                    second = order[1]
                    try:
                        tied = tables[second][slot - since[second] - 1] == b
                    except IndexError:
                        tied = self._beliefs(slot)[second] == b
                    if tied:
                        b, target = self._top(slot)
                    order.remove(target)
                if sensed_code is not None:
                    row = tables[target]
                    code = STALE if row is pi0_row else codes_for(row is idle_row, slot - last[target])
                sensed += 1
                # Idle sensing sends the channel to the head, busy to the tail.
                if idle[target][slot - start]:
                    if ordered:
                        order.insert(0, target)
                    obs = 0
                    sensed_idle += 1
                    if last[target] == slot - 1 and tables[target] is idle_row:
                        idle_pairs += 1
                    tables[target] = idle_row
                    reward = idle_reward
                else:
                    if ordered:
                        order.append(target)
                    obs = 1
                    tables[target] = busy_row
                    if action == _FALLBACK:
                        reward = fallback_reward
                    else:
                        if delay >= l_max:
                            raise self._overflowed("busy sense-wait")
                        reward = busy_wait_reward[delay]
                last[target] = since[target] = slot

                total += reward
                if trace is not None:
                    trace.append(TraceRow(slot, b, delay, action, obs, reward))
                if acts is not None:
                    via = (idle1 if obs == 0 else busy1 if action == _FALLBACK else up_busy)[state]
                    if sensed_code is None or code == sensed_code[state]:
                        state = via
                    else:
                        move = state, code, obs
                        state = detours.get(move)
                        if state is None:
                            # A busy sensing that waits moves the packet up a
                            # delay, which a solved table never does at its cap.
                            to = [delay + 1 if obs and action != _FALLBACK else 1]
                            codes = [self._codes(space, slot + 1)]
                            state = detours[move] = reach.find(codes, to).item()
                if obs and action != _FALLBACK:  # a busy sensing that waits
                    delay += 1
                    continue
                delay_total += delay
                done += 1
                delay = 1
                if done == packet_end:
                    stop = slot + 1
                    break
            slot = stop

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


def write_rows(path, row_type, rows) -> None:
    """Write rows of a dataclass as CSV: its field names as the header, then
    one line per row with each float by repr and every other value by str."""
    names = [f.name for f in fields(row_type)]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            values = (getattr(row, name) for name in names)
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in values) + "\n")


def _solve(cfg: SimConfig, gamma: float, tol: float, start=None, reach=None):
    """Solve the configured instance at a given delay penalty on the
    descriptor states, policy iteration starting from the action table start
    and on the states reach of an earlier solve when given.  One channel is
    solved exactly, with k_trunc = l_max + 1: its age never exceeds the
    packet's delay, so no descriptor goes stale.  The value function's
    rewards are the ones it was solved with."""
    return solve_multichannel(
        len(cfg.channels), cfg.channels[0], replace(cfg.rewards, gamma=gamma),
        k_trunc=cfg.l_max + 1 if len(cfg.channels) == 1 else cfg.k_trunc,
        l_max=cfg.l_max, tol=tol, start=start, reach=reach,
    )


class _Episodes:
    """Solves and episodes of one configuration's policies, by delay penalty.

    solve() caches solves by gamma.  Each new gamma's solve starts from the
    action table of the nearest gamma (in log gamma) solved so far, and runs
    on the descriptor states, and their successor table, that the first solve
    built; they live as long as this object.  None of this changes the
    tables, which are the ones a solve from scratch gives; it changes only
    the work.

    episode() runs one episode per distinct action table, at the first gamma
    that solved to it.  Nearby gammas often solve to the same table, and an
    episode's metrics depend on gamma only through avg_reward, so every
    other metric is the one an episode at the gamma asked for gives.
    """

    def __init__(self, cfg: SimConfig, solver_tol: float):
        self.cfg, self.solver_tol = cfg, solver_tol
        self.solves = {}  # gamma -> solved value function
        self.runs = {}  # action table bytes -> metrics of its episode

    def solve(self, gamma: float) -> MultichannelValueFunction:
        if gamma not in self.solves:
            near = min(self.solves, key=lambda g: abs(math.log(g / gamma)), default=None)
            start = () if near is None else (self.solves[near].actions, self.solves[near].reach)
            self.solves[gamma] = _solve(self.cfg, gamma, self.solver_tol, *start)
        return self.solves[gamma]

    def episode(self, gamma: float) -> SimMetrics:
        mvf = self.solve(gamma)
        key = mvf.actions.tobytes()
        if key not in self.runs:
            self.runs[key] = run_episode(replace(self.cfg, policy=mvf, rewards=mvf.rewards))[0]
        return self.runs[key]


def sweep_gamma(cfg: SimConfig, gammas, solver_tol: float = DEFAULT_TOL):
    """One solve plus one episode per delay-penalty value, run at that value
    with the same seed across points for variance reduction.  Returns
    SweepRow per gamma, in ascending gamma; a repeated gamma repeats its
    row."""
    gammas = sorted(float(g) for g in gammas)
    for g in gammas:
        if not 0 < g < math.inf:
            raise ValueError(f"gamma={g} must be finite and positive")
    runs = _Episodes(cfg, solver_tol)
    rows = {}
    for g in gammas:
        if g not in rows:
            mvf = runs.solve(g)
            rows[g] = SweepRow.of(g, run_episode(replace(cfg, policy=mvf, rewards=mvf.rewards))[0])
    return [rows[g] for g in gammas]


def _match_gamma(runs: _Episodes, target_delay, tol) -> float:
    """The delay penalty whose episode comes closest to a target average
    delay, found by log-space bisection on gamma over GAMMA_BRACKET.

    Average delay is non-increasing in gamma, which the episodes at the
    bracket's ends check: TargetUnreachable, carrying the delays there, when
    the target lies more than tol outside them.  Inside, the policy family
    changes discretely, so delay is a step function and the closest gamma
    may still miss the target by more than tol.  Raises ValueError as
    check_match_tol does.
    """
    check_match_tol(tol)
    g_lo, g_hi = GAMMA_BRACKET
    d_lo, d_hi = runs.episode(g_lo).avg_delay, runs.episode(g_hi).avg_delay
    if not (d_lo + tol >= target_delay >= d_hi - tol):
        raise TargetUnreachable(target_delay, d_hi, d_lo)
    best = min((abs(d_lo - target_delay), g_lo), (abs(d_hi - target_delay), g_hi))
    lo, hi = np.log(g_lo), np.log(g_hi)
    for _ in range(GAMMA_STEPS):
        mid = 0.5 * (lo + hi)
        g = float(np.exp(mid))
        delay = runs.episode(g).avg_delay
        err = abs(delay - target_delay)
        if err < best[0]:
            best = (err, g)
        if delay > target_delay:
            lo = mid
        else:
            hi = mid
    return best[1]


@dataclass
class CompareRow:
    k: int
    gamma: float
    matched_delay_mp: float
    matched_delay_opt: float
    cost_mp: float
    cost_opt: float
    reduction_pct: float


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
    solves and episodes across k.  Raises ValueError as check_match_tol does,
    and naming k for a baseline that spends no energy, against which no
    reduction is defined.
    """
    runs = _Episodes(cfg, solver_tol)
    rows = []
    for k in sorted(int(k) for k in k_values):
        m_mp, _ = run_episode(replace(cfg, policy=MemorylessPolicy(k)))
        if m_mp.energy_per_packet == 0:
            raise ValueError(
                f"memoryless k={k} spends no energy per packet, so the energy "
                "reduction against it is undefined"
            )
        g = _match_gamma(runs, m_mp.avg_delay, tol)
        m_opt = runs.episode(g)
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
            )
        )
    return rows
