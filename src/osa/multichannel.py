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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, iterate_unsensed, stationary_idle
from .errors import DegenerateChain, NoConvergence, StateSpaceTooLarge
from .solver import (
    Action,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RewardParams,
    TIE_TOL,
)

DEFAULT_K_TRUNC = 20
DEFAULT_STATE_CAP = 5_000_000
# Weight on the fresh backup in the damped iteration.  Damping keeps the
# iteration convergent when the induced chain has periodic structure.
DEFAULT_DAMPING = 0.5

STALE = 0  # age >= k_trunc or never observed: belief is the stationary pi0


class DescriptorSpace:
    """Per-channel descriptor codes and their dynamics.

    Code 0 is the stale descriptor; codes 1..k-1 mean "observed idle, age =
    code"; codes k..2k-2 mean "observed busy, age = code-k+1".  Ages advance
    every unsensed slot and collapse to stale at k_trunc.
    """

    def __init__(self, p: ChannelParams, k_trunc: int):
        if k_trunc < 1:
            raise ValueError("k_trunc must be >= 1")
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


@dataclass
class MultichannelValueFunction:
    """Relative values and optimal actions over reachable descriptor states."""

    space: DescriptorSpace
    n_channels: int
    l_max: int
    states: list
    state_index: dict
    values: np.ndarray
    actions: np.ndarray
    gain: float
    rewards: RewardParams
    iterations: int = 0
    residual_span: float = float("nan")
    tol: float = DEFAULT_TOL

    @property
    def channel(self) -> ChannelParams:
        return self.space.channel

    def state_id(self, codes, delay: int) -> int:
        key = (tuple(sorted(codes)), min(delay, self.l_max))
        return self.state_index[key]

    def action_for(self, codes, delay: int) -> Action:
        return Action(int(self.actions[self.state_id(codes, delay)]))

    def max_belief(self, codes) -> float:
        return float(max(self.space.belief[c] for c in codes))

    def lambda_summary(self) -> tuple[np.ndarray, list]:
        """Per-delay wait threshold in the belief of the would-be sensed
        channel, plus any single-crossing violations.

        For each delay: the midpoint between the largest max-belief among
        waiting states and the smallest max-belief among non-waiting states
        above it (0 when no state waits, 1 when all do).  A violation is a
        non-waiting state sitting below a waiting one; those delays are
        reported rather than raised since the max-belief is not a sufficient
        statistic of the multichannel state.
        """
        lam = np.zeros(self.l_max)
        violations = []
        by_delay = {}
        for sid, (codes, l) in enumerate(self.states):
            by_delay.setdefault(l, []).append(sid)
        for l in range(1, self.l_max + 1):
            sids = by_delay.get(l, [])
            if not sids:
                continue
            waits = [self.max_belief(self.states[s][0]) for s in sids
                     if self.actions[s] == int(Action.WAIT)]
            others = [self.max_belief(self.states[s][0]) for s in sids
                      if self.actions[s] != int(Action.WAIT)]
            if not waits:
                lam[l - 1] = 0.0
                continue
            if not others:
                lam[l - 1] = 1.0
                continue
            top_wait = max(waits)
            above = [b for b in others if b > top_wait]
            lam[l - 1] = 0.5 * (top_wait + min(above)) if above else 1.0
            if any(b < top_wait for b in others):
                violations.append(l)
        return lam, violations

    def dedicated_switch_delay(self) -> int:
        """Smallest delay from which busy sensing never waits: no state with
        this delay or larger has sense-wait as its optimal action."""
        last_sw = 0
        for sid, (codes, l) in enumerate(self.states):
            if self.actions[sid] == int(Action.SENSE_WAIT):
                last_sw = max(last_sw, l)
        return min(last_sw + 1, self.l_max)


def build_reachable_states(
    n_channels: int,
    p: ChannelParams,
    k_trunc: int = DEFAULT_K_TRUNC,
    l_max: int = 15,
    state_cap: int = DEFAULT_STATE_CAP,
):
    """Breadth-first closure of the descriptor-state space under all actions.

    States are (sorted descriptor tuple, delay); the start state has every
    channel stale at delay 1.  Raises StateSpaceTooLarge past state_cap.
    """
    space = DescriptorSpace(p, k_trunc)
    start = (tuple([STALE] * n_channels), 1)
    index = {start: 0}
    states = [start]
    queue = [start]
    while queue:
        codes, l = queue.pop()
        nexts = _successors(space, codes, l, l_max)
        for key in nexts:
            if key not in index:
                if len(states) >= state_cap:
                    raise StateSpaceTooLarge(
                        f"more than {state_cap} reachable states (n={n_channels}, "
                        f"k_trunc={k_trunc}, l_max={l_max})"
                    )
                index[key] = len(states)
                states.append(key)
                queue.append(key)
    return space, states, index


def _successors(space: DescriptorSpace, codes, l, l_max):
    aged = tuple(sorted(space.aged[c] for c in codes))
    target = max(range(len(codes)), key=lambda i: space.belief[codes[i]])
    rest = list(codes[:target]) + list(codes[target + 1 :])
    rest_aged = [space.aged[c] for c in rest]
    after_idle = tuple(sorted(rest_aged + [space.idle_fresh]))
    after_busy = tuple(sorted(rest_aged + [space.busy_fresh]))
    l_up = min(l + 1, l_max)
    out = []
    if l < l_max:
        out.append((aged, l_up))          # wait
        out.append((after_idle, 1))       # sense outcomes (shared by 1 and 2)
        out.append((after_busy, l_up))    # sense-wait, busy
    out.append((after_idle, 1))           # fallback, idle
    out.append((after_busy, 1))           # fallback, busy
    return out


def solve_multichannel(
    n_channels: int,
    p: ChannelParams,
    r: RewardParams,
    k_trunc: int = DEFAULT_K_TRUNC,
    l_max: int = 15,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = DEFAULT_DAMPING,
    state_cap: int = DEFAULT_STATE_CAP,
) -> MultichannelValueFunction:
    """Relative value iteration over the reachable descriptor MDP.

    Sensing targets the max-belief channel; the wait and sense-wait actions
    are unavailable at the delay cap.  The reference state for normalization
    is the all-stale state at delay 1.
    """
    pi0 = stationary_idle(p)
    if pi0 == 0.0 or pi0 == 1.0:
        raise DegenerateChain(f"pi0={pi0}: solver requires 0 < pi0 < 1")
    if l_max < 2:
        raise ValueError("l_max must be at least 2")
    space, states, index = build_reachable_states(
        n_channels, p, k_trunc, l_max, state_cap
    )
    n = len(states)
    f = r.penalty.table(l_max)

    # Per state and action: expected reward, two successor ids, two weights.
    rew = np.full((n, 3), -np.inf)
    nxt = np.zeros((n, 3, 2), dtype=np.int64)
    prb = np.zeros((n, 3, 2))
    for sid, (codes, l) in enumerate(states):
        aged = tuple(sorted(space.aged[c] for c in codes))
        target = max(range(len(codes)), key=lambda i: space.belief[codes[i]])
        b = float(space.belief[codes[target]])
        rest_aged = [space.aged[c] for i, c in enumerate(codes) if i != target]
        after_idle = index[(tuple(sorted(rest_aged + [space.idle_fresh])), 1)]
        l_up = min(l + 1, l_max)
        fl = f[l - 1]
        extra = fl if r.penalty_on_transmit else 0.0
        if l < l_max:
            busy_key = (tuple(sorted(rest_aged + [space.busy_fresh])), l_up)
            rew[sid, 0] = -fl
            nxt[sid, 0] = (index[(aged, l_up)], 0)
            prb[sid, 0] = (1.0, 0.0)
            rew[sid, 1] = -r.c_s + b * (r.phi - r.p_p - extra) + (1.0 - b) * (-fl)
            nxt[sid, 1] = (after_idle, index[busy_key])
            prb[sid, 1] = (b, 1.0 - b)
        else:
            nxt[sid, 0] = (sid, sid)
            nxt[sid, 1] = (sid, sid)
        busy1 = index[(tuple(sorted(rest_aged + [space.busy_fresh])), 1)]
        rew[sid, 2] = r.phi - r.c_s - extra - b * r.p_p - (1.0 - b) * r.p_3g
        nxt[sid, 2] = (after_idle, busy1)
        prb[sid, 2] = (b, 1.0 - b)

    ref = index[(tuple([STALE] * n_channels), 1)]
    v = np.zeros(n)
    span = float("inf")
    gain = 0.0
    for it in range(1, max_iter + 1):
        cont = (prb * v[nxt]).sum(axis=2)
        q = rew + cont
        w = q.max(axis=1)
        resid = w - v
        span = float(resid.max() - resid.min())
        gain = float(w[ref])
        if span <= tol:
            v = w - gain
            break
        v_new = damping * w + (1.0 - damping) * v
        v = v_new - v_new[ref]
    else:
        raise NoConvergence(max_iter, span, tol)

    actions = np.full(n, int(Action.SENSE_FALLBACK), dtype=np.int8)
    actions[q[:, 1] >= w - TIE_TOL] = int(Action.SENSE_WAIT)
    actions[q[:, 0] >= w - TIE_TOL] = int(Action.WAIT)

    return MultichannelValueFunction(
        space=space,
        n_channels=n_channels,
        l_max=l_max,
        states=states,
        state_index=index,
        values=v,
        actions=actions,
        gain=gain,
        rewards=r,
        iterations=it,
        residual_span=span,
        tol=tol,
    )
