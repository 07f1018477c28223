"""Finite-state reduction and solver for several i.i.d. licensed channels.

With symmetric channels the belief vector is fully determined by each
channel's last observation and its age, so the reachable belief set is finite
once ages are truncated: after k_trunc unsensed slots a channel's belief is
within |alpha-beta|^k_trunc of the stationary probability and is collapsed to
it.  Channel identity is irrelevant, so descriptor multisets are merged.
With one channel and k_trunc = l_max + 1 nothing is collapsed, since a
channel's age never exceeds the packet's delay, and the solve is exact: N=1
simulate, sweep and compare run on it, and solver.solve_single_channel reads
its belief grid off it.

Sensing always targets the channel with the highest belief, the channel-choice
rule used throughout; within a merged state equal-belief channels are
interchangeable, so any deterministic pick is equivalent to the lowest-index
rule on the unmerged system.  DescriptorSpace.moves alone makes that pick:
the enumeration keeps the code it senses for each state, and the solver and
the slot kernel read that code and its belief.

States are enumerated per code multiset, over arrays.  A state's successors
depend on its code multiset alone, not on its delay, so DescriptorSpace.moves
runs once per reachable multiset, and the delay layers and the successor
table follow from the multisets' successor ids by index arithmetic.  Each
(sorted code multiset, delay) packs into one int64 key, delay first
(DescriptorSpace.pack), so the sorted states run layer by layer in delay and
the delay-1 states come first.
A state is held once, as its packed key: the solver works on the keys, the
delay layers and the successor arrays alone, and the key is the only state
lookup.  Code rows and delays are unpacked from the keys and layers only
when something outside the solve reads them, and the (codes tuple, delay)
view of the states is built only then too.  The successors do not depend on
the rewards, so solves of one model at several delay penalties can share one
enumeration.

solve_multichannel runs Howard policy iteration on the MDP: it evaluates an
action table, improves it by one greedy backup (solver.greedy) and stops
when the table repeats.  Under a fixed action table every state has at most
one successor at delay l+1 and all its other exits land at delay 1, so the
path from each delay-1 state unrolls in l_max steps into an expected reward,
an expected sojourn and at most 2 l_max delay-1 landings.  A policy is
evaluated on that embedded semi-Markov chain over the delay-1 states by
restarted GMRES on its evaluation equations, and the other layers are then
filled backward in delay (Puterman 1994, Markov Decision Processes, sections
8.6, 9.2 and 11.4).  The other layers solve
their equations exactly, so the span of the final Bellman residual, which the
solver checks against tol, is that of the GMRES residual with zero adjoined;
GMRES stops only once that span is within a quarter of tol.  A solved table's
wait thresholds are read with policy.wait_threshold, as the belief grid's
are, on the belief b that ReachableStates holds.

A solve makes each pass over the full state set once: the enumeration
keeps the sensed code per multiset and spreads it to the states, b is read
off it in one gather, a solve computes 1 - b
once for all its backups and evaluations, a backup sums each action's value
in place, an evaluation builds each per-state array of its action table in
one pass, and the summary reads b rather than recompute it.
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
    DEFAULT_L_MAX,
    DEFAULT_TOL,
    RewardParams,
    check_count,
    check_model,
    greedy,
    immediate_rewards,
)

DEFAULT_K_TRUNC = 20
# Read at call time, so a test can patch them: the most reachable states (or
# code multisets) an enumeration may hold, and the cap on policy-iteration
# steps and on the matrix-vector products of each evaluation.
STATE_CAP = 5_000_000
MAX_ITER = 100_000
# The restart length of the evaluation's GMRES, the residual, relative to the
# rewards per delay-1 visit, at which it stops, and how far above that a
# residual that stops falling is still accepted.  _SPAN is the share of the
# solver tolerance that the span of its residual may take: the span of the
# final Bellman residual, which the solver checks against tol, is that span.
_RESTART = 40
_RTOL = 1e-13
_FLOOR = 100
_SPAN = 0.25

STALE = 0  # age >= k_trunc or never observed: belief is the stationary pi0


class DescriptorSpace:
    """Per-channel descriptor codes and their dynamics.

    Code 0 is the stale descriptor; codes 1..k-1 mean "observed idle, age =
    code"; codes k..2k-2 mean "observed busy, age = code-k+1".  Ages advance
    every unsensed slot and collapse to stale at k_trunc.
    """

    def __init__(self, p: ChannelParams, k_trunc: int):
        check_count("k_trunc", k_trunc, 1)
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

    @property
    def truncation_bound(self) -> float:
        """Largest belief error a descriptor takes on when it collapses to
        stale: max(|alpha - pi0|, |beta - pi0|) |alpha - beta|^(k_trunc - 1)."""
        p = self.channel
        pi0 = stationary_idle(p)
        return max(abs(p.alpha - pi0), abs(p.beta - pi0)) * abs(p.alpha - p.beta) ** (self.k_trunc - 1)

    def moves(self, codes: np.ndarray):
        """Descriptors after one slot, per row of sorted codes.

        Sensing targets the max-belief channel, the lowest index among ties:
        the first code of the row whose belief is the row's max.  Returns the
        rows after a wait and after that channel is sensed idle and sensed
        busy, every one sorted, and the code sensed in each row.  This is the
        one place the sensed channel is chosen.
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
        return waited, after_idle, after_busy, codes[rows, target]


@dataclass
class ReachableStates:
    """Reachable descriptor states of n_channels channels up to delay l_max,
    sorted by (delay, codes), with their successors: the part of the MDP
    that does not depend on the rewards.

    Each state is held once, as its packed int64 key (DescriptorSpace.pack);
    keys ascend.  layers[l] is the first state at delay l + 1.
    sensed_code is the code that DescriptorSpace.moves senses in each state,
    and b its belief, which is the state's max belief and which
    MultichannelValueFunction.lambda_summary reads.  up_wait and up_busy are
    the successors at delay l + 1 after a wait and after a busy sensing that
    waits (the state itself at the cap); idle1 and busy1 are the delay-1
    successors after an idle sensing and after a busy sensing that falls
    back; every sensing successor senses sensed_code.  A solve computes 1 - b
    itself.  codes and delays unpack the keys and layers anew on each read;
    states lists the (codes tuple, delay) pairs and is built the first time
    it is read.
    """

    space: DescriptorSpace
    l_max: int
    n_channels: int
    keys: np.ndarray
    layers: np.ndarray
    sensed_code: np.ndarray
    b: np.ndarray
    up_wait: np.ndarray
    up_busy: np.ndarray
    idle1: np.ndarray
    busy1: np.ndarray

    @property
    def cap(self):
        """The delay-cap states, the last layer."""
        return np.s_[self.layers[-2]:]

    @property
    def codes(self) -> np.ndarray:
        """One sorted code row per state, unpacked from keys on each read."""
        n_codes = len(self.space.belief)
        codes = np.empty((len(self.keys), self.n_channels), dtype=self.space.aged.dtype)
        rest = self.keys
        for j in range(self.n_channels - 1, -1, -1):
            rest, codes[:, j] = np.divmod(rest, n_codes)
        return codes

    @property
    def delays(self) -> np.ndarray:
        """Each state's delay, repeated from layers on each read."""
        return np.repeat(np.arange(1, self.l_max + 1, dtype=np.int64), np.diff(self.layers))

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
        codes = self.codes
        fresh = np.isin(codes, [c for c in (space.idle_fresh, space.busy_fresh) if c != STALE])
        fresh[0] = True  # the start state, key 0
        elements = kinds[fresh.astype(np.intp), codes]
        return list(zip(zip(*elements.T.tolist()), self.delays.tolist()))


@dataclass
class MultichannelValueFunction:
    """Relative values and optimal actions over reachable descriptor states,
    in the order of reach."""

    reach: ReachableStates
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
    def n_channels(self) -> int:
        return self.reach.n_channels

    @property
    def l_max(self) -> int:
        return self.reach.l_max

    @property
    def delays(self) -> np.ndarray:
        """Each state's delay, built on each read."""
        return self.reach.delays

    @property
    def states(self) -> list:
        """(codes tuple, delay) per state, built on first read."""
        return self.reach.states

    def lambda_summary(self) -> tuple[np.ndarray, list]:
        """Per-delay wait threshold in the belief of the would-be sensed
        channel, plus the delays whose threshold is violated.

        Each delay layer is read with policy.wait_threshold on the max belief
        of its states, the belief of the channel sensing would target, which
        reach holds as b.  Violations are reported rather than raised since
        the max belief is not a sufficient statistic of the multichannel
        state.
        """
        belief = self.reach.b
        wait = self.actions == int(Action.WAIT)
        layers = self.reach.layers
        read = [wait_threshold(belief[a:b], wait[a:b]) for a, b in zip(layers[:-1], layers[1:])]
        return np.array([th for th, _ in read]), [l for l, (_, bad) in enumerate(read, 1) if bad]

    def dedicated_switch_delay(self) -> int:
        """Smallest delay from which busy sensing never waits: no state with
        this delay or larger has sense-wait as its optimal action."""
        sense_wait = np.flatnonzero(self.actions == int(Action.SENSE_WAIT))
        # States run in delay order: the last sense-wait state has the largest
        # delay, the count of layers that start at or before it.
        last_sw = 0
        if len(sense_wait):
            last_sw = int(np.searchsorted(self.reach.layers, sense_wait[-1], "right"))
        return min(last_sw + 1, self.l_max)


def build_reachable_states(
    n_channels: int,
    p: ChannelParams,
    k_trunc: int = DEFAULT_K_TRUNC,
    l_max: int = DEFAULT_L_MAX,
) -> ReachableStates:
    """Closure of the descriptor-state space under all actions, with the
    successors of its states.

    States are (sorted descriptor tuple, delay); the start state has every
    channel stale at delay 1.  A state's successors depend on its code
    multiset alone, so the closure runs over multisets (_multisets) and the
    delay layers follow by index arithmetic: layer 1 holds the multisets
    reached at delay 1, and layer l + 1 the wait and busy successors of
    layer l.  Each layer is sorted by codes, and the successors are read off
    the multiset ranks in the same pass.  Raises StateSpaceTooLarge past
    STATE_CAP multisets or states, counted before each batch of moves and
    after each layer, or when a packed key would not fit in an int64;
    ValueError as check_count does for n_channels below 1 or l_max below 2.
    """
    check_count("n_channels", n_channels, 1)
    check_count("l_max", l_max, 2)
    space = DescriptorSpace(p, k_trunc)
    n_codes = len(space.belief)
    if l_max * n_codes**n_channels > 2**63:
        raise StateSpaceTooLarge(
            f"state keys overflow int64 (n={n_channels}, k_trunc={k_trunc}, l_max={l_max})"
        )

    def check_cap(count: int) -> None:
        if count > STATE_CAP:
            raise StateSpaceTooLarge(
                f"more than {STATE_CAP} reachable states (n={n_channels}, "
                f"k_trunc={k_trunc}, l_max={l_max})"
            )

    row_keys, sensed, (wait, idle, busy), first = _multisets(space, n_channels, l_max, check_cap)
    layers = [np.flatnonzero(first)]
    count = len(layers[0])
    for _ in range(l_max - 1):
        up = np.zeros(len(row_keys), dtype=bool)
        up[wait[layers[-1]]] = True
        up[busy[layers[-1]]] = True
        layers.append(np.flatnonzero(up))
        count += len(layers[-1])
        check_cap(count)
    sizes = [len(layer) for layer in layers]
    starts = np.zeros(l_max + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    multiset = np.concatenate(layers)
    # pos maps a multiset rank to its state's index in one layer at a time.
    pos = np.empty(len(row_keys), dtype=np.int64)
    pos[layers[0]] = np.arange(sizes[0])
    idle1, busy1 = pos[idle[multiset]], pos[busy[multiset]]
    up_wait = np.arange(count)  # the state itself at the cap
    up_busy = up_wait.copy()
    keys = row_keys[multiset]
    for l in range(l_max - 1):
        pos[layers[l + 1]] = np.arange(starts[l + 1], starts[l + 2])
        up_wait[starts[l]:starts[l + 1]] = pos[wait[layers[l]]]
        up_busy[starts[l]:starts[l + 1]] = pos[busy[layers[l]]]
        keys[starts[l + 1]:starts[l + 2]] += (l + 1) * n_codes**n_channels
    sensed_code = sensed[multiset]
    return ReachableStates(space, l_max, n_channels, keys, starts, sensed_code,
                           space.belief[sensed_code], up_wait, up_busy, idle1, busy1)


def _multisets(space: DescriptorSpace, n_channels: int, l_max: int, check_cap):
    """Closure over the code multisets of the states reachable up to delay
    l_max, running space.moves once per multiset.

    Multisets are numbered as they are found and keyed by their codes-only
    packed key, space.pack(codes, 1).  The least delay each one is reached at
    is relaxed until no value falls: idle and busy successors land at delay
    1, and wait successors one delay up, below the cap.  (A busy sensing
    that waits also lands one delay up, but on a multiset that a busy
    sensing that falls back lands at delay 1.)  check_cap sees the count of
    multisets expanded, each the multiset of at least one reachable state.
    The arrays by id double their room when a round outgrows it, so each
    round writes only its new multisets; the codes-only keys are merged in
    sorted order each round.  Rows are gathered with np.take, which copies
    whole rows several times faster than fancy indexing does.

    Returns, for the reached multisets in codes-key order: their codes-only
    keys; the code that moves senses in each; the ranks of
    their wait, idle and busy successors, -1 for a wait successor that no
    state reaches; and whether each is reached at delay 1.
    """
    size = 1  # multisets found; the arrays by id below have room for more
    rows = np.zeros((size, n_channels), dtype=space.aged.dtype)  # by id
    sensed = np.zeros(size, dtype=space.aged.dtype)  # the code moves senses, once expanded
    succ = np.full((size, 3), -1, dtype=np.intp)  # wait, idle, busy ids, once expanded
    least = np.ones(size, dtype=np.int64)  # l_max + 1 until reached
    keys, order = np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.intp)  # in key order
    expanded = 0
    frontier = np.zeros(1, dtype=np.intp)  # the multisets whose least delay fell
    while len(frontier):
        new = frontier[succ[frontier, 0] < 0]
        if len(new):
            expanded += len(new)
            check_cap(expanded)
            *moved, sensed[new] = space.moves(np.take(rows, new, axis=0))
            moved = np.concatenate(moved)
            found, first, inverse = np.unique(
                space.pack(moved, 1), return_index=True, return_inverse=True
            )
            at = np.minimum(np.searchsorted(keys, found), len(keys) - 1)
            ids = order[at]
            fresh = np.flatnonzero(keys[at] != found)
            end = size + len(fresh)
            if end > len(least):
                rows, sensed, succ, least = (_grown(a, 2 * end) for a in (rows, sensed, succ, least))
            ids[fresh] = np.arange(size, end)
            rows[size:end] = np.take(moved, first[fresh], axis=0)
            succ[size:end] = -1
            least[size:end] = l_max + 1
            size = end
            succ[new] = ids[inverse].reshape(3, -1).T
            # Both parts are sorted, so the stable sort is a merge.
            keys = np.concatenate([keys, found[fresh]])
            merge = np.argsort(keys, kind="stable")
            keys, order = keys[merge], np.concatenate([order, ids[fresh]])[merge]
        delay = least[frontier]
        wait, idle, busy = np.take(succ, frontier, axis=0).T
        up = delay < l_max
        to = np.concatenate([idle, busy, wait[up]])
        via = np.concatenate([np.ones(2 * len(frontier), dtype=np.int64), delay[up] + 1])
        lower = via < least[to]
        to, via = to[lower], via[lower]
        np.minimum.at(least, to, via)
        fell = np.zeros(size, dtype=bool)
        fell[to] = True
        frontier = np.flatnonzero(fell)
    in_reach = least[order] <= l_max
    reached = order[in_reach]
    rank = np.full(size, -1, dtype=np.intp)
    rank[reached] = np.arange(len(reached))
    return (
        keys[in_reach],
        sensed[reached],
        rank[np.take(succ, reached, axis=0).T],
        least[reached] == 1,
    )


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """A copy of a with its first axis extended to size, the new entries
    unset."""
    out = np.empty((size, *a.shape[1:]), dtype=a.dtype)
    out[: len(a)] = a
    return out


def _backup(t: ReachableStates, rewards: tuple, v: np.ndarray, busy: np.ndarray):
    """One Bellman backup: the backup values and the greedy action table.
    busy is 1 - t.b.  Each action's value is summed in place on the values
    it gathers, so a backup allocates one array per gather."""
    q_idle = v[t.idle1]
    q_idle *= t.b
    q0 = v[t.up_wait]
    q0 += rewards[0]
    q1 = v[t.up_busy]
    q1 *= busy
    q1 += q_idle
    q1 += rewards[1]
    q2 = v[t.busy1]
    q2 *= busy
    q2 += q_idle
    q2 += rewards[2]
    return greedy(q0, q1, q2, t.cap)


def _evaluate(t: ReachableStates, rewards: tuple, actions: np.ndarray, v1: np.ndarray,
              busy: np.ndarray, tol: float):
    """Relative values of a fixed action table, zero at the reference state 0.

    The delay-1 values h and the gain g solve (I - P) h + g tau = r, h[0] =
    0, on the embedded chain (landings P, sojourns tau, rewards per visit r).
    _gmres finds (g, h[1:]) from the previous table's delay-1 values v1 and
    the g that fits them best, to a residual whose span is within a quarter
    of the solver tolerance tol; the other layers then follow backward in
    delay.  busy is 1 - t.b.  Each per-state array is built in one pass
    over the states, by np.where and np.copyto, into one new array.  Raises
    NoConvergence as _gmres does.
    """
    wait = actions == int(Action.WAIT)
    sense_wait = actions == int(Action.SENSE_WAIT)
    reward = np.where(sense_wait, rewards[1], rewards[2])
    np.copyto(reward, rewards[0], where=wait)
    # The one successor at delay l + 1 and the chance of moving there; every
    # other exit lands at delay 1.
    up = np.where(sense_wait, t.up_busy, t.up_wait)
    p_up = np.where(sense_wait, busy, 0.0)
    np.copyto(p_up, 1.0, where=wait)
    p_idle1 = np.where(wait, 0.0, t.b)
    p_busy1 = np.where(actions == int(Action.SENSE_FALLBACK), busy, 0.0)

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

    def apply(x):
        # x holds g in place of h[0], which is zero.  The landings' values
        # are weighted in place: the product holds one array of their size.
        h = x.copy()
        h[0] = 0.0
        landed = h[lands]
        landed *= probs
        return h - landed.sum(axis=1) + x[0] * sojourn

    x = v1.copy()  # x[0] = v1[0] = 0: the reference state's value, not g
    r = total - apply(x)
    x[0] = (r @ sojourn) / (sojourn @ sojourn)
    v1 = _gmres(apply, total, x, r - x[0] * sojourn, _SPAN * tol)
    gain = float(v1[0])
    v1[0] = 0.0

    v = np.zeros(len(actions))
    v[:n1] = v1
    for l in range(len(t.layers) - 1, 1, -1):
        s = slice(t.layers[l - 1], t.layers[l])
        v[s] = (
            reward[s] - gain + p_up[s] * v[up[s]]
            + p_idle1[s] * v1[t.idle1[s]] + p_busy1[s] * v1[t.busy1[s]]
        )
    return v


def _span(r: np.ndarray) -> float:
    """Span of an evaluation residual r over the delay-1 states together with
    the zero residual of every other state, which the backward fill solves
    exactly."""
    return max(float(r.max()), 0.0) - min(float(r.min()), 0.0)


def _gmres(apply, b: np.ndarray, x: np.ndarray, r: np.ndarray, span: float) -> np.ndarray:
    """Solve apply(y) = b by GMRES restarted every _RESTART products (Saad &
    Schultz 1986, SIAM J. Sci. Stat. Comput. 7), from x with residual r:
    classical Gram-Schmidt done twice, Givens rotations, the residual
    recomputed after each cycle.

    It stops at a residual of _RTOL |b| whose _span is at most span.  A
    residual below _RTOL |b| whose span is larger goes on to a 2-norm of
    span / 2, which bounds its span by span; the span is checked after every
    cycle.  A cycle that does not lower the residual ends the solve, at up
    to _FLOOR times _RTOL |b| (rounding in the products of a y large against
    b can leave that much); above that it raises NoConvergence, as a
    product past MAX_ITER would."""
    target = _RTOL * np.sqrt(b @ b)
    goal = target  # where a cycle may stop
    norm, products = np.sqrt(r @ r), 0
    while norm > target or _span(r) > span:
        if norm <= goal:
            goal = span / 2
        basis = np.empty((_RESTART + 1, len(x)))
        basis[0] = r / norm
        hess = np.zeros((_RESTART + 1, _RESTART))
        rot = np.zeros((_RESTART, 2))  # cosine and sine of each rotation
        e = np.zeros(_RESTART + 1)
        e[0] = norm
        for j in range(_RESTART):
            if products == MAX_ITER:
                raise NoConvergence(products, norm, target)
            products += 1
            w = apply(basis[j])
            for _ in range(2):
                c = basis[: j + 1] @ w
                w -= c @ basis[: j + 1]
                hess[: j + 1, j] += c
            col = hess[:, j]
            col[j + 1] = w_norm = np.sqrt(w @ w)
            for i, (cs, sn) in enumerate(rot[:j]):
                col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
            rot[j] = col[j : j + 2] / np.hypot(col[j], col[j + 1])
            col[j], col[j + 1] = rot[j] @ col[j : j + 2], 0.0
            e[j], e[j + 1] = rot[j] * e[j] * (1.0, -1.0)
            if abs(e[j + 1]) <= goal or w_norm == 0.0:
                break
            basis[j + 1] = w / w_norm
        y = np.zeros(j + 1)
        for i in range(j, -1, -1):
            y[i] = (e[i] - hess[i, i + 1 : j + 1] @ y[i + 1 :]) / hess[i, i]
        x = x + y @ basis[: j + 1]
        products += 1
        r = b - apply(x)
        last, norm = norm, np.sqrt(r @ r)
        if not norm < last:
            if norm > _FLOOR * target:
                raise NoConvergence(products, norm, target)
            break
    return x


def solve_multichannel(
    n_channels: int,
    p: ChannelParams,
    r: RewardParams,
    k_trunc: int = DEFAULT_K_TRUNC,
    l_max: int = DEFAULT_L_MAX,
    tol: float = DEFAULT_TOL,
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
    is where the iteration begins (fallback everywhere when None); it
    changes only the step count, not the actions returned, and the gain and
    values only in their last digits.  reach, the states of an earlier solve
    of the same n_channels, p, k_trunc and l_max (its `reach`), spares
    enumerating them again: only the rewards depend on r.  The steps compare
    tables only; the span of the final Bellman residual is taken once.

    MAX_ITER caps both the policy-iteration steps and the matrix-vector
    products of each evaluation.  Raises as check_model does; NoConvergence
    when the table still changes after MAX_ITER steps, when the residual
    span of the stable table exceeds tol, or when an evaluation hits that
    cap or stalls; ValueError when reach belongs to another model, or when
    start has another shape, an entry that is not an integer action 0, 1
    or 2, or another action than fallback at the delay cap.
    """
    check_model(p, tol, l_max)
    if reach is None:
        reach = build_reachable_states(n_channels, p, k_trunc, l_max)
    elif (reach.n_channels, reach.space.channel, reach.space.k_trunc, reach.l_max) != (
        n_channels, p, k_trunc, l_max
    ):
        raise ValueError("reach holds the states of another model")
    rewards = immediate_rewards(
        r, reach.b, np.repeat(r.penalty_table(l_max), np.diff(reach.layers))
    )
    busy = 1.0 - reach.b
    actions = np.full(len(reach.keys), int(Action.SENSE_FALLBACK), dtype=np.int8)
    if start is not None:
        start = np.asarray(start)
        if start.shape != actions.shape:
            raise ValueError(f"start table has shape {start.shape}, not {actions.shape}")
        if start.dtype.kind not in "iu" or start.min() < 0 or start.max() > 2:
            raise ValueError("start table must hold integer actions 0, 1 or 2")
        actions[...] = start
        if np.any(actions[reach.cap] != Action.SENSE_FALLBACK):
            raise ValueError("start table must hold the fallback action at the delay cap")
    v = np.zeros(len(actions))
    for steps in range(1, MAX_ITER + 1):
        v = _evaluate(reach, rewards, actions, v[: reach.layers[1]], busy, tol)
        w, improved = _backup(reach, rewards, v, busy)
        stable = np.array_equal(improved, actions)
        if stable or steps == MAX_ITER:
            break
        actions = improved
        del w  # not held while the next table is evaluated
    span = float(np.ptp(w - v))
    if not stable:
        raise NoConvergence(MAX_ITER, span, tol)
    if span > tol:
        raise NoConvergence(steps, span, tol)
    gain = float(w[0])
    return MultichannelValueFunction(
        reach=reach,
        values=w - gain,
        actions=actions,
        gain=gain,
        rewards=r,
        iterations=steps,
        residual_span=span,
        tol=tol,
    )
