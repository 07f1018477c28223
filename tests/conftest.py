import pytest

from osa.multichannel import solve_multichannel
from osa.scenarios import SCENARIOS


@pytest.fixture(scope="session")
def preset_solves():
    """Lazily solved multichannel presets shared across acceptance criteria."""
    cache = {}

    def get(num):
        if num not in cache:
            sc = SCENARIOS[num]
            cache[num] = solve_multichannel(
                sc.n_channels, sc.channel, sc.rewards, k_trunc=20, l_max=15
            )
        return cache[num]

    return get
