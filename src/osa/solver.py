"""Average-reward solver for the secondary user's (belief, packet-delay) MDP.

The state is (lambda, l): the belief that the licensed channel is idle and the
delay of the packet in hand.  Three actions are available each slot:

    0  wait            pay the delay penalty, keep the packet
    1  sense, wait     sense; transmit on idle, otherwise wait
    2  sense, fallback  sense; transmit on idle, otherwise use the dedicated channel

Howard policy iteration over a belief grid produces the relative value table
V and the average gain per slot.  States at the delay cap are restricted to
the fallback action so every packet leaves the system in bounded time.

Every transition out of delay l lands at delay l+1 or at one of the two
delay-1 states (alpha, 1) and (beta, 1).  Under a fixed action table one
backward sweep in delay therefore writes every value as an affine function of
the gain and those two values, and evaluating the policy is a 3x3 linear
solve (Puterman 1994, Markov Decision Processes, sections 8.6 and 9.2).

The descriptor solver in multichannel.py shares the Howard core defined here:
check_model, immediate_rewards, greedy and policy_iteration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .channel import ChannelParams, stationary_idle
from .errors import DegenerateChain, NoConvergence

DEFAULT_L_MAX = 50
DEFAULT_TOL = 1e-9
TIE_TOL = 1e-12
# Read at call time, so a test can patch them: the uniform points of every
# belief grid, and the cap on policy-iteration steps (and on the descriptor
# solver's evaluation sweeps of each step).
GRID_POINTS = 1001
MAX_ITER = 100_000


class Action(IntEnum):
    WAIT = 0
    SENSE_WAIT = 1
    SENSE_FALLBACK = 2


@dataclass(frozen=True)
class RewardParams:
    """Per-slot rewards and costs, all in one tradeoff unit.

    phi: bits delivered per transmitted packet
    c_s: energy cost of sensing once
    p_p: price of one transmission over the licensed channel
    p_3g: price of one transmission over the dedicated channel
    gamma: delay-penalty coefficient; the penalty for holding a packet of
        delay l is gamma * log(l) (natural log), zero at l = 1, charged only
        on slots where the packet is kept
    """

    phi: float
    c_s: float
    p_p: float
    p_3g: float
    gamma: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name}={value} must be finite")
        if self.c_s < 0:
            raise ValueError(f"c_s={self.c_s} must be >= 0")
        if self.gamma < 0:
            raise ValueError(f"gamma={self.gamma} must be >= 0")
        if self.phi - self.c_s - self.p_p < 0:
            raise ValueError(
                f"phi - c_s - p_p = {self.phi - self.c_s - self.p_p} must be >= 0 "
                "(idle transmission must pay for itself)"
            )
        if not self.p_3g > self.p_p:
            raise ValueError(f"p_3g={self.p_3g} must exceed p_p={self.p_p}")

    def penalty(self, delay) -> float:
        """The delay penalty gamma * log(delay) for a packet of delay >= 1."""
        if delay < 1:
            raise ValueError(f"delay={delay} must be >= 1")
        return self.gamma * math.log(delay)

    def penalty_table(self, l_max: int) -> np.ndarray:
        """The delay penalties of delays 1..l_max as an array."""
        return self.gamma * np.log(np.arange(1, l_max + 1, dtype=float))


class BeliefGrid:
    """Sorted belief grid: uniform points with the channel's special beliefs
    (alpha, beta, pi0) present exactly.

    Special values close to a uniform point replace it (keeping spacing nearly
    uniform); otherwise they are inserted.  0 and 1 are always members.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 1 or len(points) < 2:
            raise ValueError("grid needs at least two points")
        if not (np.all(np.diff(points) > 0) and points[0] == 0.0 and points[-1] == 1.0):
            raise ValueError("grid must be strictly increasing from 0 to 1")
        self.points = points

    @classmethod
    def for_channel(cls, p: ChannelParams) -> "BeliefGrid":
        n_points = GRID_POINTS
        spacing = 1.0 / (n_points - 1)
        pts = np.linspace(0.0, 1.0, n_points).tolist()
        moved = set()
        for x in (p.alpha, p.beta, stationary_idle(p)):
            j = int(round(x / spacing))
            j = min(max(j, 0), n_points - 1)
            if pts[j] == x:
                continue
            # Replace the nearest interior uniform point so cells stay near
            # uniform width; fall back to insertion when that point already
            # holds another special value or x abuts an endpoint.
            if 0 < j < n_points - 1 and j not in moved:
                pts[j] = x
                moved.add(j)
            else:
                pts.append(x)
        # A set drops the repeats without np.unique, whose first call in a
        # process imports numpy.ma.
        return cls(np.asarray(sorted(set(pts)), dtype=float))

    def __len__(self):
        return len(self.points)

    def index_of(self, x: float) -> int:
        """Index of an exact grid member."""
        i = int(np.searchsorted(self.points, x))
        if i >= len(self.points) or self.points[i] != x:
            raise ValueError(f"{x} is not a grid point")
        return i

    def interp_weights(self, x: np.ndarray):
        """Bracketing indices and left-point weights for linear interpolation."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        hi = np.clip(np.searchsorted(self.points, x, side="left"), 1, len(self.points) - 1)
        lo = hi - 1
        width = self.points[hi] - self.points[lo]
        w_lo = (self.points[hi] - x) / width
        return lo, hi, w_lo


@dataclass
class ValueFunction:
    """Converged relative value table over (belief grid x delay) plus the gain.

    values[i, l-1] is the relative value at grid point i and delay l; the value
    at the reference state (grid point nearest pi0, delay 1) is zero.  actions
    holds the optimal action index per state.  reach is the GridStates a
    solve ran on, for a later solve of the same channel and l_max.
    """

    grid: BeliefGrid
    values: np.ndarray
    actions: np.ndarray
    gain: float
    l_max: int
    channel: ChannelParams
    rewards: RewardParams
    iterations: int = 0
    residual_span: float = float("nan")
    tol: float = DEFAULT_TOL
    reference_index: int = 0
    reach: GridStates | None = None

    def to_csv(self, path) -> None:
        beliefs = [repr(b) for b in self.grid.points.tolist()]
        with open(path, "w") as fh:
            fh.write("belief,delay,value,action\n")
            for l in range(1, self.l_max + 1):
                values = self.values[:, l - 1].tolist()
                actions = self.actions[:, l - 1].tolist()
                fh.writelines(f"{b},{l},{v!r},{a}\n" for b, v, a in zip(beliefs, values, actions))

    def metadata(self) -> dict:
        return {
            "gain": self.gain,
            "l_max": self.l_max,
            "grid_points": len(self.grid),
            "alpha": self.channel.alpha,
            "beta": self.channel.beta,
            "phi": self.rewards.phi,
            "c_s": self.rewards.c_s,
            "p_p": self.rewards.p_p,
            "p_3g": self.rewards.p_3g,
            "gamma": self.rewards.gamma,
            "iterations": self.iterations,
            "residual_span": self.residual_span,
            "tol": self.tol,
            "reference_belief": float(self.grid.points[self.reference_index]),
        }


def immediate_rewards(r: RewardParams, b, f):
    """Expected immediate rewards of wait, sense-wait and sense-fallback.

    b is the idle probability of the channel sensing would target and f the
    delay penalty of the packet in hand; both broadcast as arrays.
    """
    return (
        -f,
        -r.c_s + b * (r.phi - r.p_p) + (1.0 - b) * (-f),
        r.phi - r.c_s - b * r.p_p - (1.0 - b) * r.p_3g,
    )


def check_count(name: str, value, low: int) -> None:
    """Raise ValueError unless value is an int (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name}={value!r} must be an int >= {low}")


def check_tol(tol: float) -> None:
    """Raise ValueError for a solver tolerance not finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol={tol} must be finite and positive")


def check_model(p: ChannelParams, tol: float, l_max: int) -> None:
    """Raise as check_tol does for tol, as check_count does for l_max below
    2, and DegenerateChain when pi0 is 0 or 1 (thresholds are meaningless
    when the channel is never or always idle)."""
    check_tol(tol)
    check_count("l_max", l_max, 2)
    pi0 = stationary_idle(p)
    if pi0 == 0.0 or pi0 == 1.0:
        raise DegenerateChain(f"pi0={pi0}: solver requires 0 < pi0 < 1")


def greedy(q0, q1, q2, cap):
    """Greedy backup values and actions, ties broken toward the lower action
    index.  Only the fallback action is admissible at the delay-cap states,
    which cap indexes; q0 and q1 are overwritten there."""
    q0[cap] = -np.inf
    q1[cap] = -np.inf
    w = np.maximum(np.maximum(q0, q1), q2)
    actions = np.full(w.shape, int(Action.SENSE_FALLBACK), dtype=np.int8)
    actions[q1 >= w - TIE_TOL] = int(Action.SENSE_WAIT)
    actions[q0 >= w - TIE_TOL] = int(Action.WAIT)
    return w, actions


def policy_iteration(shape, ref, cap, evaluate, backup, tol: float, start=None):
    """Howard policy iteration from the start table (fallback everywhere when
    None) until the action table repeats.  evaluate(actions, v) gives a
    table's relative values, warm-started from the previous ones (zeros at
    first); backup(v) gives the greedy backup values and table, fallback at
    the delay-cap states that cap indexes.  Returns (actions, final backup
    minus its value at ref, that value as the gain, steps, span of the final
    Bellman residual).

    The start table changes only the step count: the loop stops at the
    table that is greedy on its own values whatever it starts from.  An
    exact evaluation then returns the same values and gain bit for bit; an
    iterative one (the descriptor solver's) agrees to its rounding.

    Raises NoConvergence when the table still changes after MAX_ITER steps or
    the residual span of the stable table exceeds tol, ValueError when start
    has another shape or another action than fallback at cap.
    """
    actions = np.full(shape, int(Action.SENSE_FALLBACK), dtype=np.int8)
    if start is not None:
        if np.shape(start) != actions.shape:
            raise ValueError(f"start table has shape {np.shape(start)}, not {actions.shape}")
        actions[...] = start
        if np.any(actions[cap] != Action.SENSE_FALLBACK):
            raise ValueError("start table must hold the fallback action at the delay cap")
    v = np.zeros(shape)
    for it in range(1, MAX_ITER + 1):
        v = evaluate(actions, v)
        w, improved = backup(v)
        span = float(np.ptp(w - v))
        if np.array_equal(improved, actions):
            break
        actions = improved
    else:
        raise NoConvergence(MAX_ITER, span, tol)
    if span > tol:
        raise NoConvergence(it, span, tol)
    gain = float(w[ref])
    return actions, w - gain, gain, it, span


_CAP = np.s_[:, -1]  # the delay-cap states of a (belief, delay) table


class GridStates:
    """The states of one channel's belief grid up to delay l_max and their
    successor structure: the interpolation of the unsensed belief update and
    the grid points of alpha, beta and the reference pi0.  None of it depends
    on the rewards, so every solve of one channel and l_max can share it
    (solve_single_channel's reach).
    """

    def __init__(self, p: ChannelParams, grid: BeliefGrid, l_max: int):
        pts = grid.points
        self.channel, self.grid, self.l_max = p, grid, l_max
        self.lo, self.hi, self.w = grid.interp_weights(p.beta + (p.alpha - p.beta) * pts)
        self.i_alpha = grid.index_of(p.alpha)
        self.i_beta = grid.index_of(p.beta)
        self.ref = grid.index_of(stationary_idle(p))
        self.lam = pts[:, None]  # grid beliefs as a column

    def rewards(self, r: RewardParams) -> tuple:
        """The immediate reward of each action in each state under r."""
        return immediate_rewards(r, self.lam, r.penalty_table(self.l_max)[None, :])


def _backup(reach: GridStates, rewards: tuple, v: np.ndarray):
    """One full Bellman backup: the backup values and the greedy action table."""
    # Continuation table for delay l+1, capped at l_max.
    v_next = np.concatenate([v[:, 1:], v[:, -1:]], axis=1)
    q_idle = reach.lam * v[reach.i_alpha, 0]
    q0 = rewards[0] + (
        reach.w[:, None] * v_next[reach.lo] + (1.0 - reach.w)[:, None] * v_next[reach.hi]
    )
    q1 = rewards[1] + (q_idle + (1.0 - reach.lam) * v_next[reach.i_beta][None, :])
    q2 = rewards[2] + (q_idle + (1.0 - reach.lam) * v[reach.i_beta, 0])
    return greedy(q0, q1, q2, _CAP)


def bellman_backup(vf: ValueFunction):
    """One exact backup of a value table.

    Returns (normalized table, gain estimate): the backup values minus the
    backup value at the reference state, and that reference value itself.
    """
    reach = GridStates(vf.channel, vf.grid, vf.l_max)
    w, _ = _backup(reach, reach.rewards(vf.rewards), vf.values)
    g = w[reach.ref, 0]
    return w - g, float(g)


def _evaluate(reach: GridStates, rewards: tuple, actions: np.ndarray) -> np.ndarray:
    """Exact relative values of a fixed action table, zero at the reference.

    Sweeps backward from the delay cap, writing each column as coefficients
    on (1, g, V(alpha, 1), V(beta, 1)), then solves for the three unknowns
    with V(alpha, 1) and V(beta, 1) consistent and V(pi0, 1) = 0.  The cap
    column must hold the fallback action, as every table from greedy does.
    """
    l_max = actions.shape[1]
    lam = reach.lam[:, 0]
    wait = (actions == Action.WAIT).T
    sense_wait = (actions == Action.SENSE_WAIT).T
    # Terms that do not reach delay l+1: reward, -g and the delay-1 landings.
    coef = np.empty((l_max, 4, len(lam)))
    coef[:, 0] = np.where(wait, rewards[0].T, rewards[1].T)
    np.copyto(coef[:, 0], rewards[2].T, where=~(wait | sense_wait))
    coef[:, 1] = -1.0
    coef[:, 2] = np.where(wait, 0.0, lam)
    coef[:, 3] = np.where(wait | sense_wait, 0.0, 1.0 - lam)
    for l in range(l_max - 2, -1, -1):
        nxt = coef[l + 1]
        cont = np.where(wait[l], reach.w, 0.0) * np.take(nxt, reach.lo, axis=1)
        cont += np.where(wait[l], 1.0 - reach.w, 0.0) * np.take(nxt, reach.hi, axis=1)
        cont += np.where(sense_wait[l], 1.0 - lam, 0.0) * nxt[:, reach.i_beta, None]
        coef[l] += cont
    at = [reach.i_alpha, reach.i_beta, reach.ref]
    delay1 = coef[0][:, at].T
    lhs = delay1[:, 1:] - np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    # Cramer's rule through cross products.  A 3x3 system needs no LAPACK,
    # whose first call in a process costs about half a megabyte resident.
    adj = np.cross(lhs[[1, 2, 0]], lhs[[2, 0, 1]])
    g, v_alpha1, v_beta1 = (-delay1[:, :1] * adj).sum(axis=0) / (lhs[0] * adj[0]).sum()
    return (coef[:, 0] + g * coef[:, 1] + v_alpha1 * coef[:, 2] + v_beta1 * coef[:, 3]).T


def solve_single_channel(
    p: ChannelParams,
    r: RewardParams,
    l_max: int = DEFAULT_L_MAX,
    tol: float = DEFAULT_TOL,
    start: np.ndarray | None = None,
    reach: GridStates | None = None,
) -> ValueFunction:
    """Howard policy iteration for the single-channel problem.

    Each action table over BeliefGrid.for_channel(p) is evaluated exactly;
    the returned values are the final backup renormalized at the reference
    state (the grid point holding pi0, delay 1).  Deterministic given
    identical inputs.  start, an action table over the same grid and l_max
    such as the one solved at a nearby gamma, is where the iteration begins;
    it changes only the step count, not the actions, values or gain
    returned.  reach, the states of an earlier solve of the same p and l_max
    (its `reach`), spares building the grid and its successor structure
    again; it does not change what is returned either.  Raises as
    check_model and policy_iteration do, and ValueError when reach belongs
    to another model.
    """
    check_model(p, tol, l_max)
    if reach is None:
        reach = GridStates(p, BeliefGrid.for_channel(p), l_max)
    elif (reach.channel, reach.l_max) != (p, l_max):
        raise ValueError("reach holds the states of another model")
    rewards = reach.rewards(r)
    actions, values, gain, steps, span = policy_iteration(
        (len(reach.grid), l_max),
        (reach.ref, 0),
        _CAP,
        lambda actions, _v: _evaluate(reach, rewards, actions),
        lambda v: _backup(reach, rewards, v),
        tol,
        start=start,
    )
    return ValueFunction(
        grid=reach.grid,
        values=values,
        actions=actions,
        gain=gain,
        l_max=l_max,
        channel=p,
        rewards=r,
        iterations=steps,
        residual_span=span,
        tol=tol,
        reference_index=reach.ref,
        reach=reach,
    )
