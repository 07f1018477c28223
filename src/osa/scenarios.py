"""Experiment presets: the three symmetric-channel settings studied in the
numerical experiments, all with four channels and the same price set."""

from __future__ import annotations

from dataclasses import dataclass

from .channel import ChannelParams
from .solver import RewardParams


@dataclass(frozen=True)
class Scenario:
    """One model: N i.i.d. channels with transition probabilities (alpha,
    beta) and the price set; the field defaults are the studied prices."""

    name: str
    n_channels: int
    alpha: float
    beta: float
    phi: float = 350.0
    c_s: float = 50.0
    p_p: float = 100.0
    p_3g: float = 800.0
    gamma: float = 10.0

    @property
    def channel(self) -> ChannelParams:
        return ChannelParams(self.alpha, self.beta)

    def channels(self) -> list:
        return [self.channel] * self.n_channels

    @property
    def rewards(self) -> RewardParams:
        return RewardParams(
            phi=self.phi, c_s=self.c_s, p_p=self.p_p, p_3g=self.p_3g, gamma=self.gamma
        )


SCENARIOS = {
    1: Scenario("scenario-1-often-occupied", 4, 0.15, 0.10),
    2: Scenario("scenario-2-often-idle", 4, 0.85, 0.70),
    3: Scenario("scenario-3-low-transition", 4, 0.95, 0.05),
}
