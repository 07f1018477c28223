"""Two-state Markov model of a licensed channel and the belief calculus of the
secondary user.

State 0 is idle (free for secondary access), state 1 is busy.  The transition
matrix is parameterized by alpha = P(idle -> idle) and beta = P(busy -> idle).
The belief is the conditional probability that the channel is idle in the
current slot given the observation/action history; it is the sufficient
statistic of the partially observed problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import DegenerateChain


class ChannelState(IntEnum):
    IDLE = 0
    BUSY = 1


class Observation(IntEnum):
    IDLE = 0
    BUSY = 1


@dataclass(frozen=True)
class ChannelParams:
    """Transition pair (alpha, beta) of one licensed channel.

    alpha: P(idle at t+1 | idle at t)
    beta:  P(idle at t+1 | busy at t)
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha={self.alpha} not a probability")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta={self.beta} not a probability")


def stationary_idle(p: ChannelParams) -> float:
    """Stationary probability that the channel is idle: beta / (1 - alpha + beta).

    Raises DegenerateChain when the denominator vanishes (alpha=1, beta=0: both
    states are absorbing and no unique stationary distribution exists).
    """
    denom = 1.0 - p.alpha + p.beta
    if denom == 0.0:
        raise DegenerateChain(f"alpha={p.alpha}, beta={p.beta}: 1 - alpha + beta = 0")
    return p.beta / denom


def update_unsensed(p: ChannelParams, belief: float) -> float:
    """One-slot belief propagation when the channel is not sensed.

    Returns beta + (alpha - beta) * belief, the probability the channel is idle
    next slot.  The result always lies between min(alpha, beta) and
    max(alpha, beta); the stationary probability is the fixed point.
    """
    return p.beta + (p.alpha - p.beta) * belief


def update_sensed(p: ChannelParams, obs: Observation) -> float:
    """Next-slot belief after sensing this channel: alpha on idle, beta on busy."""
    return p.alpha if obs == Observation.IDLE else p.beta


def iterate_unsensed(p: ChannelParams, belief: float, k: int) -> float:
    """k-fold unsensed update in closed form: pi0 + (alpha - beta)^k (belief - pi0).

    k=0 returns belief unchanged.  Matches k successive update_unsensed calls
    to within accumulated rounding (1e-12 for k <= 100).
    """
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if k == 0:
        return belief
    denom = 1.0 - p.alpha + p.beta
    if denom == 0.0:
        # alpha=1, beta=0: the update map is the identity.
        return belief
    pi0 = p.beta / denom
    return pi0 + (p.alpha - p.beta) ** k * (belief - pi0)


def step_true_state(p: ChannelParams, state: ChannelState, rng) -> ChannelState:
    """Sample the next true channel state from the transition matrix row."""
    stay_idle = p.alpha if state == ChannelState.IDLE else p.beta
    return ChannelState.IDLE if rng.random() < stay_idle else ChannelState.BUSY
