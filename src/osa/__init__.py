"""Energy-delay tradeoff policies for opportunistic spectrum access.

Solves the secondary user's average-reward decision problem over Markov
licensed channels, extracts and verifies the threshold structure of the
optimal policy, simulates transmission at slot level, and runs the online
estimation/learning algorithms.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    ChannelState,
    Observation,
    iterate_unsensed,
    stationary_idle,
    step_true_state,
    update_sensed,
    update_unsensed,
)
from .solver import (
    Action,
    BeliefGrid,
    RewardParams,
    ValueFunction,
    bellman_backup,
    interpolate,
    q_sense_fallback,
    q_sense_wait,
    q_wait,
    solve_single_channel,
)
from .policy import (
    MemorylessPolicy,
    StructureReport,
    ThresholdPolicy,
    check_structure,
    dedicated_switch_delay,
    extract_thresholds,
    never_wait_after_sensing,
    th1,
    th2,
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
    gamma_for_target_delay,
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
    update_counts,
)
from .scenarios import SCENARIOS, Scenario
