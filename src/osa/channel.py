"""Two-state Markov model of a licensed channel and the belief calculus of the
secondary user.

State 0 is idle (free for secondary access), state 1 is busy.  The transition
matrix is parameterized by alpha = P(idle -> idle) and beta = P(busy -> idle).
The belief is the conditional probability that the channel is idle in the
current slot given the observation/action history; it is the sufficient
statistic of the partially observed problem.  A sense resets it to alpha
(idle) or beta (busy); each unsensed slot maps b to beta + (alpha - beta) b,
and iterate_unsensed applies k such slots at once.  The solvers and the slot
kernel apply the one-slot map to whole arrays and belief rows; its scalar
form, the sensed update and a sampler of the true state are reference code in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateChain


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


def iterate_unsensed(p: ChannelParams, belief: float, k: int) -> float:
    """k-fold unsensed update in closed form: pi0 + (alpha - beta)^k (belief - pi0).

    k=0 returns belief unchanged.  Matches k successive one-slot updates
    beta + (alpha - beta) * belief to within accumulated rounding (1e-12 for
    k <= 100).
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
