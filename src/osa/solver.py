"""Average-reward solver for the secondary user's (belief, packet-delay) MDP.

The state is (lambda, l): the belief that the licensed channel is idle and the
delay of the packet in hand.  Three actions are available each slot:

    0  wait            pay the delay penalty, keep the packet
    1  sense, wait     sense; transmit on idle, otherwise wait
    2  sense, fallback  sense; transmit on idle, otherwise use the dedicated channel

The single-channel problem is solved exactly on descriptor states, by
multichannel.solve_multichannel with one channel and k_trunc = l_max + 1, so
no belief goes stale; that solve gives the average gain per slot and the
relative values.  States at the delay cap are restricted to the fallback
action so every packet leaves the system in bounded time.

solve_single_channel reads the value table over a belief grid off that
solve.  A sensing lands at (alpha, 1), (beta, 1) or (beta, l+1), whose exact
values the solve gives, and a wait moves the belief by the affine one-slot
update.  So each V(., l) is convex and piecewise linear in the belief
(Smallwood & Sondik 1973, Oper. Res. 21): the upper envelope of the two
sense actions' lines and of V(., l+1) seen through the update.  One backward
sweep in delay fills the grid without interpolating.

This module also holds the model checks, immediate rewards and capped
greedy step that the descriptor solver's Howard policy iteration uses
(check_model, immediate_rewards, greedy; Puterman 1994, Markov Decision
Processes, sections 8.6 and 9.2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .channel import ChannelParams, stationary_idle
from .errors import DegenerateChain

DEFAULT_L_MAX = 50
DEFAULT_TOL = 1e-9
TIE_TOL = 1e-12
# Read at call time, so a test can patch it: the uniform points of every
# belief grid.
GRID_POINTS = 1001


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
                moved.add(j)  # a later special value must not replace x
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


@dataclass
class ValueFunction:
    """Relative value table over (belief grid x delay) plus the gain.

    values[i, l-1] is the relative value at grid point i and delay l; the value
    at the reference state (the grid point holding pi0, delay 1) is zero.
    actions holds the optimal action index per state.
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

    def to_csv(self, path) -> None:
        # One string per delay, joined from a flat list of each row's belief
        # prefix, value repr and action suffix: about 2/3 of the time of one
        # f-string per row, most of it the reprs of the values.
        beliefs = [f"{b!r}," for b in self.grid.points.tolist()]
        suffixes = [f",{a}\n" for a in range(len(Action))]
        parts = [""] * (3 * len(beliefs))  # per row: prefix, value, suffix
        with open(path, "w") as fh:
            fh.write("belief,delay,value,action\n")
            for l in range(1, self.l_max + 1):
                delay = f"{l},"
                parts[0::3] = [b + delay for b in beliefs]
                parts[1::3] = map(repr, self.values[:, l - 1].tolist())
                parts[2::3] = map(suffixes.__getitem__, self.actions[:, l - 1].tolist())
                fh.write("".join(parts))

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
    wait, busy = -f, 1.0 - b
    return (
        wait,
        -r.c_s + b * (r.phi - r.p_p) + busy * wait,
        r.phi - r.c_s - b * r.p_p - busy * r.p_3g,
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
    """Greedy backup values and int8 actions: the lowest action index whose
    value is within TIE_TOL of the best.  Only the fallback action is
    admissible at the delay-cap states, which cap indexes; q0 and q1 are
    overwritten there.

    The actions come from two comparisons by arithmetic, 2 - [q1 ties]
    zeroed where q0 ties, with no masked store; a NaN ties nothing, so a
    state whose best value is NaN falls back."""
    q0[cap] = -np.inf
    q1[cap] = -np.inf
    w = np.maximum(q0, q1)
    np.maximum(w, q2, out=w)
    near = w - TIE_TOL
    actions = int(Action.SENSE_FALLBACK) - (q1 >= near).view(np.int8)
    actions *= ~(q0 >= near)
    return w, actions


def bellman_backup(vf: ValueFunction):
    """One backup of a value table on its belief grid, the value after a
    wait interpolated linearly between grid points.

    Returns (normalized table, gain estimate): the backup values minus the
    backup value at the reference state (pi0, delay 1), and that reference
    value itself.
    """
    p, pts, v = vf.channel, vf.grid.points, vf.values
    lam = pts[:, None]
    i_alpha, i_beta = vf.grid.index_of(p.alpha), vf.grid.index_of(p.beta)
    v_next = np.concatenate([v[:, 1:], v[:, -1:]], axis=1)  # delay l+1, capped at l_max
    x = p.beta + (p.alpha - p.beta) * pts
    hi = np.clip(np.searchsorted(pts, x), 1, len(pts) - 1)
    w_lo = ((pts[hi] - x) / (pts[hi] - pts[hi - 1]))[:, None]
    q0, q1, q2 = immediate_rewards(vf.rewards, lam, vf.rewards.penalty_table(vf.l_max))
    q_idle = lam * v[i_alpha, 0]
    w, _ = greedy(
        q0 + w_lo * v_next[hi - 1] + (1.0 - w_lo) * v_next[hi],
        q1 + q_idle + (1.0 - lam) * v_next[i_beta],
        q2 + q_idle + (1.0 - lam) * v[i_beta, 0],
        np.s_[:, -1],
    )
    g = w[vf.grid.index_of(stationary_idle(p)), 0]
    return w - g, float(g)


def _upper_envelope(lines: list, lo: float, hi: float) -> list:
    """The lines, each (value at belief 0, value at belief 1), that are the
    maximum somewhere on [lo, hi], from left to right: the highest at lo
    (the steepest of equals), then each time the steeper line that overtakes
    the last one first, until none does before hi."""

    def slope(line):
        return line[1] - line[0]

    kept = [max(lines, key=lambda m: (m[0] + slope(m) * lo, slope(m)))]
    while True:
        last = kept[-1]
        ahead = [((last[0] - m[0]) / (slope(m) - slope(last)), -slope(m), m)
                 for m in lines if slope(m) > slope(last)]
        if not ahead or min(ahead)[0] >= hi:
            return kept
        kept.append(min(ahead)[2])


def solve_single_channel(
    p: ChannelParams,
    r: RewardParams,
    l_max: int = DEFAULT_L_MAX,
    tol: float = DEFAULT_TOL,
) -> ValueFunction:
    """The single-channel problem solved exactly on descriptor states, its
    values and actions read onto BeliefGrid.for_channel(p) as the module
    docstring says.

    The sweep holds every line by its values at beliefs 0 and 1, and carries
    to delay l - 1 only the pieces of V(., l) that are the maximum somewhere
    on the wait's image [min(alpha, beta), max(alpha, beta)].  The greedy
    step picks the actions; the values are the backup renormalized at the
    reference state (the grid point holding pi0, delay 1).  The gain,
    iterations and residual_span are the descriptor solve's.  Raises as
    multichannel.solve_multichannel does.
    """
    from .multichannel import solve_multichannel  # which imports this module

    mvf = solve_multichannel(1, p, r, k_trunc=l_max + 1, l_max=l_max, tol=tol)
    space, g = mvf.space, mvf.gain
    codes = [[space.busy_fresh]] * l_max + [[space.idle_fresh]]
    *v_beta, v_alpha1 = mvf.values[mvf.reach.find(codes, [*range(1, l_max + 1), 1])].tolist()
    # Each action's line, by its values at beliefs 0 and 1: the reward plus
    # the exact values it lands on.  Sense-wait's last column, at the cap, is
    # never read.
    wait, sense_wait, fallback = immediate_rewards(
        r, np.array([[0.0], [1.0]]), r.penalty_table(l_max)
    )
    sense_wait = sense_wait + [v_beta[1:] + [0.0], [v_alpha1] * l_max]
    fallback = (fallback[0, 0] + v_beta[0], fallback[1, 0] + v_alpha1)

    grid = BeliefGrid.for_channel(p)
    b = grid.points
    lo, hi = sorted((p.alpha, p.beta))
    q0 = np.empty((len(b), l_max))
    pieces = []  # of V(., l + 1), each (value at 0, value at 1)
    for l in range(l_max, 0, -1):
        lines = [fallback]
        if l < l_max:
            # A wait moves belief 0 to beta and belief 1 to alpha.
            waits = [(wait[l - 1] + u0 + (u1 - u0) * p.beta,
                      wait[l - 1] + u0 + (u1 - u0) * p.alpha) for u0, u1 in pieces]
            q0[:, l - 1] = np.max([(1.0 - b) * y0 + b * y1 for y0, y1 in waits], axis=0)
            lines += waits + [tuple(sense_wait[:, l - 1].tolist())]
        pieces = [(y0 - g, y1 - g) for y0, y1 in _upper_envelope(lines, lo, hi)]
    lam = b[:, None]
    w, actions = greedy(
        q0,
        (1.0 - lam) * sense_wait[0] + lam * sense_wait[1],
        (1.0 - lam) * fallback[0] + lam * fallback[1],
        np.s_[:, -1],
    )
    ref = grid.index_of(stationary_idle(p))
    return ValueFunction(
        grid=grid,
        values=w - w[ref, 0],
        actions=actions,
        gain=g,
        l_max=l_max,
        channel=p,
        rewards=r,
        iterations=mvf.iterations,
        residual_span=mvf.residual_span,
        tol=tol,
        reference_index=ref,
    )
