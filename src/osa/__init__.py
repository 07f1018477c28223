"""Energy-delay tradeoff policies for opportunistic spectrum access.

Solves the secondary user's average-reward decision problem over Markov
licensed channels, extracts and verifies the threshold structure of the
optimal policy, simulates transmission at slot level, and runs the online
estimation/learning algorithms.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    iterate_unsensed,
    stationary_idle,
)
from .solver import (
    Action,
    BeliefGrid,
    RewardParams,
    ValueFunction,
    bellman_backup,
    solve_single_channel,
)
from .policy import (
    MemorylessPolicy,
    StructureReport,
    ThresholdPolicy,
    check_structure,
    dedicated_switch_delay,
    extract_thresholds,
)
from .multichannel import (
    MultichannelValueFunction,
    build_reachable_states,
    solve_multichannel,
)
from .sim import (
    SimConfig,
    SimMetrics,
    compare_with_memoryless,
    little_check,
    run_episode,
    sweep_gamma,
)
from .learn import (
    CountingStats,
    Estimates,
    LearnerConfig,
    discretize,
    estimate,
    run_learning,
)
from .scenarios import SCENARIOS, Scenario
