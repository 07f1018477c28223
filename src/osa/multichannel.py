"""Finite-state reduction and solver for several i.i.d. licensed channels.

With symmetric channels the belief vector is fully determined by each
channel's last observation and its age, so the reachable belief set is finite
once ages are truncated: after k_trunc unsensed slots a channel's belief is
within |alpha-beta|^k_trunc of the stationary probability and is collapsed to
it.  Channel identity is irrelevant, so descriptor multisets are merged.

Sensing always targets the channel with the highest belief, the channel-choice
rule used throughout; within a merged state equal-belief channels are
interchangeable, so any deterministic pick is equivalent to the lowest-index
rule on the unmerged system.

States are enumerated breadth-first, one frontier at a time, over arrays: each
(sorted code multiset, delay) packs into one int64 key, delay first, so the
sorted states run layer by layer in delay and the delay-1 states come first.
The solver works on these arrays alone, and the packed key is the only state
lookup; the (codes tuple, delay) view of the states is built only when
something reads it.  The successor tables do not depend on the rewards, so
solves of one model at several delay penalties can share one enumeration.

The Howard policy-iteration core of solver.py solves the MDP; this module
supplies the packed-key successor tables and the evaluation step.  Under a
fixed action table every state has at most one successor at delay l+1 and all
its other exits land at delay 1, so the path from each delay-1 state unrolls
in l_max steps into an expected reward, an expected sojourn and at most
2 l_max delay-1 landings.  A policy is evaluated on that embedded semi-Markov
chain over the delay-1 states by damped relative value iteration, and the
other layers are then filled backward in delay (Puterman 1994, Markov
Decision Processes, sections 8.6, 9.2 and 11.4).  A solved table's wait
thresholds are read with policy.wait_threshold, as the belief grid's are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelParams, iterate_unsensed, stationary_idle
from .errors import NoConvergence, StateSpaceTooLarge
from .policy import wait_threshold
from .solver import (
    Action,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RewardParams,
    check_model,
    greedy,
    immediate_rewards,
    policy_iteration,
)

DEFAULT_K_TRUNC = 20
DEFAULT_STATE_CAP = 5_000_000
# Time step of the data-transformed embedded chain, as a fraction of the
# shortest expected sojourn: every transformed state keeps a self-loop of at
# least 1 - _STEP, so the iteration cannot cycle.
_STEP = 0.5

STALE = 0  # age >= k_trunc or never observed: belief is the stationary pi0


def check_k_trunc(k_trunc: int) -> None:
    """Raise ValueError for a truncation age below 1."""
    if k_trunc < 1:
        raise ValueError("k_trunc must be >= 1")


class DescriptorSpace:
    """Per-channel descriptor codes and their dynamics.

    Code 0 is the stale descriptor; codes 1..k-1 mean "observed idle, age =
    code"; codes k..2k-2 mean "observed busy, age = code-k+1".  Ages advance
    every unsensed slot and collapse to stale at k_trunc.
    """

    def __init__(self, p: ChannelParams, k_trunc: int):
        check_k_trunc(k_trunc)
        self.channel = p
        self.k_trunc = k_trunc
        k = k_trunc
        n_codes = 2 * k - 1
        self.belief = np.empty(n_codes)
        self.aged = np.empty(n_codes, dtype=np.int32)
        self.belief[STALE] = stationary_idle(p)
        self.aged[STALE] = STALE
        for age in range(1, k):
            ci = age
            cb = k - 1 + age
            self.belief[ci] = iterate_unsensed(p, p.alpha, age - 1)
            self.belief[cb] = iterate_unsensed(p, p.beta, age - 1)
            self.aged[ci] = ci + 1 if age + 1 < k else STALE
            self.aged[cb] = cb + 1 if age + 1 < k else STALE
        self.idle_fresh = 1 if k > 1 else STALE
        self.busy_fresh = k if k > 1 else STALE

    def codes_for(self, obs_idle: bool, age: int) -> int:
        """Descriptor code for an observation made `age` slots ago (age >= 1)."""
        if age >= self.k_trunc:
            return STALE
        return age if obs_idle else self.k_trunc - 1 + age

    def pack(self, codes: np.ndarray, delays) -> np.ndarray:
        """One int64 key per row of sorted codes and its delay, ordered by
        delay and then by the code tuple."""
        keys = np.asarray(delays, dtype=np.int64) - 1
        for j in range(codes.shape[1]):
            keys = keys * len(self.belief) + codes[:, j]
        return keys

    def key(self, codes, delay: int) -> int:
        """pack() of one state: Python-int codes in any order and a delay."""
        n_codes = len(self.belief)
        key = delay - 1
        for c in sorted(codes):
            key = key * n_codes + c
        return key

    @property
    def truncation_bound(self) -> float:
        """Largest belief error a descriptor takes on when it collapses to
        stale: max(|alpha - pi0|, |beta - pi0|) |alpha - beta|^(k_trunc - 1)."""
        p = self.channel
        pi0 = stationary_idle(p)
        return max(abs(p.alpha - pi0), abs(p.beta - pi0)) * abs(p.alpha - p.beta) ** (self.k_trunc - 1)

    def moves(self, codes: np.ndarray):
        """Descriptors after one slot, per row of sorted codes.

        Returns the rows after a wait, after the max-belief channel (lowest
        index among ties) is sensed idle and sensed busy, and that channel's
        belief; every returned row is sorted.
        """
        rows = np.arange(len(codes))
        target = np.argmax(self.belief[codes], axis=1)
        keep = np.ones(codes.shape, dtype=bool)
        keep[rows, target] = False
        rest = self.aged[codes[keep].reshape(len(codes), -1)]
        fresh = np.empty((len(codes), 1), dtype=rest.dtype)
        fresh[:] = self.idle_fresh
        after_idle = np.sort(np.hstack([rest, fresh]), axis=1)
        fresh[:] = self.busy_fresh
        after_busy = np.sort(np.hstack([rest, fresh]), axis=1)
        waited = np.sort(self.aged[codes], axis=1)
        return waited, after_idle, after_busy, self.belief[codes[rows, target]]


@dataclass
class ReachableStates:
    """Reachable descriptor states up to delay l_max, sorted by (delay, codes).

    codes holds one sorted code row per state and delays its delay; keys are
    their packed int64 keys, ascending.  states lists the (codes tuple, delay)
    pairs; it and the successor table are built the first time they are read.
    """

    space: DescriptorSpace
    l_max: int
    codes: np.ndarray
    delays: np.ndarray
    keys: np.ndarray

    @cached_property
    def states(self) -> list:
        # Tuple elements keep the types the tuple-by-tuple closure gave them:
        # aged codes are numpy int32 scalars, while the freshly sensed code
        # and the start state's codes are Python ints.  Recorded digests of
        # action tables hash the repr of these tuples.
        space = self.space
        n_codes = len(space.belief)
        kinds = np.empty((2, n_codes), dtype=object)
        kinds[0] = list(np.arange(n_codes, dtype=np.int32))
        kinds[1] = list(range(n_codes))
        fresh = np.isin(self.codes, [c for c in (space.idle_fresh, space.busy_fresh) if c != STALE])
        fresh[0] = True  # the start state, key 0
        elements = kinds[fresh.astype(np.intp), self.codes]
        return list(zip(zip(*elements.T.tolist()), self.delays.tolist()))

    @cached_property
    def table(self) -> _Table:
        """Successors of every state: the part of the MDP that does not
        depend on the rewards."""
        return _table(self)

    def lookup(self, codes: np.ndarray, delays) -> np.ndarray:
        return np.searchsorted(self.keys, self.space.pack(codes, delays))


@dataclass
class MultichannelValueFunction:
    """Relative values and optimal actions over reachable descriptor states,
    in the order of reach."""

    reach: ReachableStates
    n_channels: int
    l_max: int
    values: np.ndarray
    actions: np.ndarray
    gain: float
    rewards: RewardParams
    iterations: int = 0
    residual_span: float = float("nan")
    tol: float = DEFAULT_TOL

    @property
    def space(self) -> DescriptorSpace:
        return self.reach.space

    @property
    def delays(self) -> np.ndarray:
        return self.reach.delays

    @property
    def states(self) -> list:
        """(codes tuple, delay) per state, built on first read."""
        return self.reach.states

    def action_for(self, codes, delay: int) -> Action:
        """The action at the state of these codes, in any order, and this
        delay (capped at l_max)."""
        # Aged codes are numpy int32 scalars; int() keeps key()'s arithmetic
        # in Python ints, which cannot overflow.
        key = self.space.key([int(c) for c in codes], min(delay, self.l_max))
        return Action(self.action_by_key[key])

    @cached_property
    def action_by_key(self) -> dict:
        """Action index by packed state key (DescriptorSpace.key), as ints."""
        return dict(zip(self.reach.keys.tolist(), self.actions.tolist()))

    def lambda_summary(self) -> tuple[np.ndarray, list]:
        """Per-delay wait threshold in the belief of the would-be sensed
        channel, plus the delays whose threshold is violated.

        Each delay layer is read with policy.wait_threshold on the max belief
        of its states.  Violations are reported rather than raised since the
        max belief is not a sufficient statistic of the multichannel state.
        """
        belief = self.space.belief[self.reach.codes].max(axis=1)
        wait = self.actions == int(Action.WAIT)
        layers = np.searchsorted(self.delays, np.arange(1, self.l_max + 2))
        read = [wait_threshold(belief[a:b], wait[a:b]) for a, b in zip(layers[:-1], layers[1:])]
        return np.array([th for th, _ in read]), [l for l, (_, bad) in enumerate(read, 1) if bad]

    def dedicated_switch_delay(self) -> int:
        """Smallest delay from which busy sensing never waits: no state with
        this delay or larger has sense-wait as its optimal action."""
        sense_wait = self.delays[self.actions == int(Action.SENSE_WAIT)]
        last_sw = int(sense_wait.max()) if len(sense_wait) else 0
        return min(last_sw + 1, self.l_max)


def build_reachable_states(
    n_channels: int,
    p: ChannelParams,
    k_trunc: int = DEFAULT_K_TRUNC,
    l_max: int = 15,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ReachableStates:
    """Breadth-first closure of the descriptor-state space under all actions.

    States are (sorted descriptor tuple, delay); the start state has every
    channel stale at delay 1.  Each frontier's successors are found at once
    and deduplicated by packed key.  Raises StateSpaceTooLarge past state_cap,
    or when a packed key would not fit in an int64.
    """
    space = DescriptorSpace(p, k_trunc)
    if l_max * len(space.belief) ** n_channels > 2**63:
        raise StateSpaceTooLarge(
            f"state keys overflow int64 (n={n_channels}, k_trunc={k_trunc}, l_max={l_max})"
        )
    codes = np.zeros((1, n_channels), dtype=space.aged.dtype)
    delays = np.ones(1, dtype=np.int64)
    seen = space.pack(codes, delays)
    found = [(codes, delays, seen)]
    while len(codes):
        waited, after_idle, after_busy, _ = space.moves(codes)
        up = delays < l_max
        ones = np.ones(len(delays), np.int64)
        codes = np.concatenate([waited[up], after_idle, after_busy[up], after_busy])
        delays = np.concatenate([delays[up] + 1, ones, delays[up] + 1, ones])
        keys, first = np.unique(space.pack(codes, delays), return_index=True)
        pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
        new = seen[pos] != keys
        if len(seen) + np.count_nonzero(new) > state_cap:
            raise StateSpaceTooLarge(
                f"more than {state_cap} reachable states (n={n_channels}, "
                f"k_trunc={k_trunc}, l_max={l_max})"
            )
        codes, delays, keys = codes[first[new]], delays[first[new]], keys[new]
        # Both parts are sorted, so the stable sort is a merge.
        seen = np.sort(np.concatenate([seen, keys]), kind="stable")
        found.append((codes, delays, keys))
    codes, delays, keys = (np.concatenate(part) for part in zip(*found))
    order = np.argsort(keys)
    return ReachableStates(space, l_max, codes[order], delays[order], keys[order])


@dataclass
class _Table:
    """Successors of every descriptor state, sorted by delay.

    layers[l] is the first state at delay l + 1; b is the belief of the
    channel sensing would target.  up_wait and up_busy are the successors at
    delay l + 1 after a wait and after a busy sensing that waits (the state
    itself at the cap); idle1 and busy1 are the delay-1 successors after an
    idle sensing and after a busy sensing that falls back.
    """

    layers: np.ndarray
    b: np.ndarray
    up_wait: np.ndarray
    up_busy: np.ndarray
    idle1: np.ndarray
    busy1: np.ndarray

    @property
    def cap(self):
        """The delay-cap states, the last layer."""
        return np.s_[self.layers[-2]:]


def _table(reach: ReachableStates) -> _Table:
    delays, l_max = reach.delays, reach.l_max
    waited, after_idle, after_busy, b = reach.space.moves(reach.codes)
    cap = delays == l_max
    up = np.minimum(delays + 1, l_max)
    own = np.arange(len(delays))
    return _Table(
        layers=np.searchsorted(delays, np.arange(1, l_max + 2)),
        b=b,
        up_wait=np.where(cap, own, reach.lookup(waited, up)),
        up_busy=np.where(cap, own, reach.lookup(after_busy, up)),
        idle1=reach.lookup(after_idle, 1),
        busy1=reach.lookup(after_busy, 1),
    )


def _backup(t: _Table, rewards: tuple, v: np.ndarray):
    """One Bellman backup: the backup values and the greedy action table."""
    q_idle = t.b * v[t.idle1]
    q0 = rewards[0] + v[t.up_wait]
    q1 = rewards[1] + (q_idle + (1.0 - t.b) * v[t.up_busy])
    q2 = rewards[2] + (q_idle + (1.0 - t.b) * v[t.busy1])
    return greedy(q0, q1, q2, t.cap)


def _evaluate(t: _Table, rewards: tuple, actions: np.ndarray, v1: np.ndarray, tol: float,
              max_iter: int):
    """Relative values of a fixed action table, zero at the reference state 0.

    The delay-1 values v1 warm-start damped relative value iteration on the
    embedded chain, which stops at a residual span of tol / 100 or where
    rounding stops it shrinking; the other layers then follow backward in
    delay.
    """
    wait = actions == Action.WAIT
    sense_wait = actions == Action.SENSE_WAIT
    reward = np.choose(actions, rewards)
    # The one successor at delay l + 1 and the chance of moving there; every
    # other exit lands at delay 1.
    up = np.where(sense_wait, t.up_busy, t.up_wait)
    p_up = np.where(wait, 1.0, np.where(sense_wait, 1.0 - t.b, 0.0))
    p_idle1 = np.where(wait, 0.0, t.b)
    p_busy1 = np.where(wait | sense_wait, 0.0, 1.0 - t.b)

    n1 = t.layers[1]
    cur = np.arange(n1)
    mass = np.ones(n1)
    total = np.zeros(n1)
    sojourn = np.zeros(n1)
    lands, probs = [], []
    for _ in range(len(t.layers) - 1):
        total += mass * reward[cur]
        sojourn += mass
        lands += [t.idle1[cur], t.busy1[cur]]
        probs += [mass * p_idle1[cur], mass * p_busy1[cur]]
        mass = mass * p_up[cur]
        cur = up[cur]
        if not mass.any():
            break
    lands, probs = np.stack(lands, axis=1), np.stack(probs, axis=1)

    tau = _STEP * sojourn.min()
    prev = np.inf
    for _ in range(max_iter):
        # Reward per slot of one more visit on the current values.
        d = (total + (probs * v1[lands]).sum(axis=1) - v1) / sojourn
        span = float(np.ptp(d))
        if span <= tol / 100 or span >= prev:
            break
        prev = span
        v1 = v1 + tau * (d - d[0])
    else:
        raise NoConvergence(max_iter, span, tol)
    gain = float(d[0])

    v = np.zeros(len(actions))
    v[:n1] = v1
    for l in range(len(t.layers) - 1, 1, -1):
        s = slice(t.layers[l - 1], t.layers[l])
        v[s] = (
            reward[s] - gain + p_up[s] * v[up[s]]
            + p_idle1[s] * v1[t.idle1[s]] + p_busy1[s] * v1[t.busy1[s]]
        )
    return v


def solve_multichannel(
    n_channels: int,
    p: ChannelParams,
    r: RewardParams,
    k_trunc: int = DEFAULT_K_TRUNC,
    l_max: int = 15,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: np.ndarray | None = None,
    reach: ReachableStates | None = None,
) -> MultichannelValueFunction:
    """Howard policy iteration over the reachable descriptor MDP.

    Sensing targets the max-belief channel; the wait and sense-wait actions
    are unavailable at the delay cap.  Each action table is evaluated on the
    embedded delay-1 chain, warm-started from the previous table's delay-1
    values; the returned values are the final backup renormalized at the
    reference state (all channels stale, delay 1).  start, an action table
    over the same reachable states such as the one solved at a nearby gamma,
    is where the iteration begins; it changes only the step count, not the
    actions returned, and the gain and values only in their last digits.
    reach, the states of an earlier solve of the same n_channels, p, k_trunc
    and l_max (its `reach`), spares enumerating them and building their
    successor table again: only the rewards depend on r.

    max_iter caps both the policy-iteration steps and the evaluation sweeps
    of each step.  Raises as check_model and policy_iteration do,
    NoConvergence when an evaluation hits max_iter, and ValueError when reach
    belongs to another model.
    """
    check_model(p, tol, l_max)
    if reach is None:
        reach = build_reachable_states(n_channels, p, k_trunc, l_max)
    elif (reach.codes.shape[1], reach.space.channel, reach.space.k_trunc, reach.l_max) != (
        n_channels, p, k_trunc, l_max
    ):
        raise ValueError("reach holds the states of another model")
    t = reach.table
    rewards = immediate_rewards(r, t.b, r.penalty.table(l_max)[reach.delays - 1])
    actions, values, gain, steps, span = policy_iteration(
        len(reach.delays),
        0,
        t.cap,
        lambda actions, v: _evaluate(t, rewards, actions, v[: t.layers[1]], tol, max_iter),
        lambda v: _backup(t, rewards, v),
        tol,
        max_iter,
        start=start,
    )
    return MultichannelValueFunction(
        reach=reach,
        n_channels=n_channels,
        l_max=l_max,
        values=values,
        actions=actions,
        gain=gain,
        rewards=r,
        iterations=steps,
        residual_span=span,
        tol=tol,
    )
