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
rule on the unmerged system.

States are enumerated per code multiset, over arrays.  A state's successors
depend on its code multiset alone, not on its delay, so DescriptorSpace.moves
runs once per reachable multiset, and the delay layers and the successor
table follow from the multisets' successor ids by index arithmetic.  Each
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
chain over the delay-1 states by restarted GMRES on its evaluation equations,
and the other layers are then filled backward in delay (Puterman 1994, Markov
Decision Processes, sections 8.6, 9.2 and 11.4).  A solved table's wait
thresholds are read with policy.wait_threshold, as the belief grid's are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import solver
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
    policy_iteration,
)

DEFAULT_K_TRUNC = 20
# Read at call time, so a test can patch it: the most reachable states (or
# code multisets) an enumeration may hold.
STATE_CAP = 5_000_000
# The restart length of the evaluation's GMRES, the residual, relative to the
# rewards per delay-1 visit, at which it stops, and how far above that a
# residual that stops falling is still accepted.
_RESTART = 40
_RTOL = 1e-13
_FLOOR = 100

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

        Returns the rows after a wait and after the max-belief channel (lowest
        index among ties) is sensed idle and sensed busy; every returned row is
        sorted.
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
        return waited, after_idle, after_busy


@dataclass
class ReachableStates:
    """Reachable descriptor states up to delay l_max, sorted by (delay, codes).

    codes holds one sorted code row per state and delays its delay; keys are
    their packed int64 keys, ascending.  table holds the successors of every
    state: the part of the MDP that does not depend on the rewards.  states
    lists the (codes tuple, delay) pairs; it is built the first time it is
    read.
    """

    space: DescriptorSpace
    l_max: int
    codes: np.ndarray
    delays: np.ndarray
    keys: np.ndarray
    table: _Table

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
        return self.reach.codes.shape[1]

    @property
    def l_max(self) -> int:
        return self.reach.l_max

    @property
    def delays(self) -> np.ndarray:
        return self.reach.delays

    @property
    def states(self) -> list:
        """(codes tuple, delay) per state, built on first read."""
        return self.reach.states

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
        layers = self.reach.table.layers
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
    l_max: int = DEFAULT_L_MAX,
) -> ReachableStates:
    """Closure of the descriptor-state space under all actions, with the
    successor table of its states.

    States are (sorted descriptor tuple, delay); the start state has every
    channel stale at delay 1.  A state's successors depend on its code
    multiset alone, so the closure runs over multisets (_multisets) and the
    delay layers follow by index arithmetic: layer 1 holds the multisets
    reached at delay 1, and layer l + 1 the wait and busy successors of
    layer l.  Each layer is sorted by codes, and the table is read off the
    multiset ranks in the same pass.  Raises StateSpaceTooLarge past
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

    rows, row_keys, (wait, idle, busy), first = _multisets(space, n_channels, l_max, check_cap)
    layers = [np.flatnonzero(first)]
    count = len(layers[0])
    for _ in range(l_max - 1):
        up = np.zeros(len(rows), dtype=bool)
        up[wait[layers[-1]]] = True
        up[busy[layers[-1]]] = True
        layers.append(np.flatnonzero(up))
        count += len(layers[-1])
        check_cap(count)
    sizes = [len(layer) for layer in layers]
    starts = np.zeros(l_max + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    multiset = np.concatenate(layers)
    delays = np.repeat(np.arange(1, l_max + 1, dtype=np.int64), sizes)
    # pos maps a multiset rank to its state's index in one layer at a time.
    pos = np.empty(len(rows), dtype=np.int64)
    pos[layers[0]] = np.arange(sizes[0])
    idle1, busy1 = pos[idle[multiset]], pos[busy[multiset]]
    up_wait = np.arange(count)  # the state itself at the cap
    up_busy = up_wait.copy()
    for l in range(l_max - 1):
        pos[layers[l + 1]] = np.arange(starts[l + 1], starts[l + 2])
        up_wait[starts[l]:starts[l + 1]] = pos[wait[layers[l]]]
        up_busy[starts[l]:starts[l + 1]] = pos[busy[layers[l]]]
    b = space.belief[rows].max(axis=1)  # the belief of the channel sensing targets
    table = _Table(starts, b[multiset], up_wait, up_busy, idle1, busy1)
    keys = row_keys[multiset] + (delays - 1) * n_codes**n_channels
    return ReachableStates(space, l_max, rows[multiset], delays, keys, table)


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

    Returns, for the reached multisets in codes-key order: their code rows
    and codes-only keys; the ranks of their wait, idle and busy successors,
    -1 for a wait successor that no state reaches; and whether each is
    reached at delay 1.
    """
    rows = np.zeros((1, n_channels), dtype=space.aged.dtype)  # by id
    keys, order = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp)  # in key order
    succ = np.full((3, 1), -1, dtype=np.intp)  # wait, idle, busy ids, once expanded
    least = np.ones(1, dtype=np.int64)  # l_max + 1 until reached
    expanded = 0
    frontier = np.zeros(1, dtype=np.intp)  # the multisets whose least delay fell
    while len(frontier):
        new = frontier[succ[0, frontier] < 0]
        if len(new):
            expanded += len(new)
            check_cap(expanded)
            moved = np.concatenate(space.moves(rows[new]))
            found, first, inverse = np.unique(
                space.pack(moved, 1), return_index=True, return_inverse=True
            )
            at = np.minimum(np.searchsorted(keys, found), len(keys) - 1)
            ids = order[at]
            fresh = np.flatnonzero(keys[at] != found)
            ids[fresh] = np.arange(len(keys), len(keys) + len(fresh))
            rows = np.concatenate([rows, moved[first[fresh]]])
            # Both parts are sorted, so the stable sort is a merge.
            keys = np.concatenate([keys, found[fresh]])
            merge = np.argsort(keys, kind="stable")
            keys, order = keys[merge], np.concatenate([order, ids[fresh]])[merge]
            succ = np.hstack([succ, np.full((3, len(fresh)), -1, dtype=np.intp)])
            succ[:, new] = ids[inverse].reshape(3, -1)
            least = np.concatenate([least, np.full(len(fresh), l_max + 1)])
        delay = least[frontier]
        wait, idle, busy = succ[:, frontier]
        up = delay < l_max
        to = np.concatenate([idle, busy, wait[up]])
        via = np.concatenate([np.ones(2 * len(frontier), dtype=np.int64), delay[up] + 1])
        lower = via < least[to]
        to, via = to[lower], via[lower]
        np.minimum.at(least, to, via)
        fell = np.zeros(len(least), dtype=bool)
        fell[to] = True
        frontier = np.flatnonzero(fell)
    in_reach = least[order] <= l_max
    reached = order[in_reach]
    rank = np.full(len(keys), -1, dtype=np.intp)
    rank[reached] = np.arange(len(reached))
    return rows[reached], keys[in_reach], rank[succ[:, reached]], least[reached] == 1


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


def _backup(t: _Table, rewards: tuple, v: np.ndarray):
    """One Bellman backup: the backup values and the greedy action table."""
    q_idle = t.b * v[t.idle1]
    q0 = rewards[0] + v[t.up_wait]
    q1 = rewards[1] + (q_idle + (1.0 - t.b) * v[t.up_busy])
    q2 = rewards[2] + (q_idle + (1.0 - t.b) * v[t.busy1])
    return greedy(q0, q1, q2, t.cap)


def _evaluate(t: _Table, rewards: tuple, actions: np.ndarray, v1: np.ndarray):
    """Relative values of a fixed action table, zero at the reference state 0.

    The delay-1 values h and the gain g solve (I - P) h + g tau = r, h[0] =
    0, on the embedded chain (landings P, sojourns tau, rewards per visit r).
    _gmres finds (g, h[1:]) from the previous table's delay-1 values v1 and
    the g that fits them best; the other layers then follow backward in
    delay.  Raises NoConvergence as _gmres does.
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

    def apply(x):
        # x holds g in place of h[0], which is zero.
        h = x.copy()
        h[0] = 0.0
        return h - (probs * h[lands]).sum(axis=1) + x[0] * sojourn

    x = v1.copy()  # x[0] = v1[0] = 0: the reference state's value, not g
    r = total - apply(x)
    x[0] = (r @ sojourn) / (sojourn @ sojourn)
    v1 = _gmres(apply, total, x, r - x[0] * sojourn)
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


def _gmres(apply, b: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve apply(y) = b by GMRES restarted every _RESTART products (Saad &
    Schultz 1986, SIAM J. Sci. Stat. Comput. 7), from x with residual r, to
    a residual of _RTOL |b|: classical Gram-Schmidt done twice, Givens
    rotations, the residual recomputed after each cycle.  A cycle that does
    not lower it ends the solve, at up to _FLOOR times the target (rounding
    in the products of a y large against b can leave that much); above that
    it raises NoConvergence, as a product past solver.MAX_ITER would."""
    target = _RTOL * np.sqrt(b @ b)
    norm, products = np.sqrt(r @ r), 0
    while norm > target:
        basis = np.empty((_RESTART + 1, len(x)))
        basis[0] = r / norm
        hess = np.zeros((_RESTART + 1, _RESTART))
        rot = np.zeros((_RESTART, 2))  # cosine and sine of each rotation
        e = np.zeros(_RESTART + 1)
        e[0] = norm
        for j in range(_RESTART):
            if products == solver.MAX_ITER:
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
            if abs(e[j + 1]) <= target or w_norm == 0.0:
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
    is where the iteration begins; it changes only the step count, not the
    actions returned, and the gain and values only in their last digits.
    reach, the states of an earlier solve of the same n_channels, p, k_trunc
    and l_max (its `reach`), spares enumerating them and building their
    successor table again: only the rewards depend on r.

    solver.MAX_ITER caps both the policy-iteration steps and the
    matrix-vector products of each evaluation.  Raises as check_model and
    policy_iteration do, NoConvergence when an evaluation hits that cap or
    stalls, and ValueError when reach belongs to another model.
    """
    check_model(p, tol, l_max)
    if reach is None:
        reach = build_reachable_states(n_channels, p, k_trunc, l_max)
    elif (reach.codes.shape[1], reach.space.channel, reach.space.k_trunc, reach.l_max) != (
        n_channels, p, k_trunc, l_max
    ):
        raise ValueError("reach holds the states of another model")
    t = reach.table
    rewards = immediate_rewards(r, t.b, r.penalty_table(l_max)[reach.delays - 1])
    actions, values, gain, steps, span = policy_iteration(
        len(reach.delays),
        t.cap,
        lambda actions, v: _evaluate(t, rewards, actions, v[: t.layers[1]]),
        lambda v: _backup(t, rewards, v),
        tol,
        start=start,
    )
    return MultichannelValueFunction(
        reach=reach,
        values=values,
        actions=actions,
        gain=gain,
        rewards=r,
        iterations=steps,
        residual_span=span,
        tol=tol,
    )
