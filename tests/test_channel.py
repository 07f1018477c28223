import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ChannelState, Observation, step_true_state, update_sensed, update_unsensed
from osa.channel import ChannelParams, iterate_unsensed, stationary_idle
from osa.errors import DegenerateChain
from osa.solver import check_model

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_params_validate_probabilities():
    with pytest.raises(ValueError):
        ChannelParams(1.2, 0.1)
    with pytest.raises(ValueError):
        ChannelParams(0.5, -0.01)


def test_stationary_idle_values():
    assert stationary_idle(ChannelParams(0.15, 0.1)) == pytest.approx(0.1 / 0.95)
    assert stationary_idle(ChannelParams(0.95, 0.05)) == pytest.approx(0.5)
    assert stationary_idle(ChannelParams(0.5, 0.5)) == 0.5


def test_stationary_idle_degenerate():
    # A chain is degenerate when pi0 is 0 or 1, or undefined (alpha=1 with
    # beta=0); check_model rejects exactly these.
    with pytest.raises(DegenerateChain):
        stationary_idle(ChannelParams(1.0, 0.0))
    for alpha, beta in [(1.0, 0.0), (0.0, 0.0), (0.7, 0.0), (1.0, 1.0), (1.0, 0.3)]:
        with pytest.raises(DegenerateChain):
            check_model(ChannelParams(alpha, beta), 1e-9, 10)
    for alpha, beta in [(0.15, 0.1), (0.0, 1.0), (0.5, 0.5), (0.999, 0.001)]:
        check_model(ChannelParams(alpha, beta), 1e-9, 10)


def test_update_unsensed_fixed_point_and_edges():
    p = ChannelParams(0.15, 0.1)
    pi0 = stationary_idle(p)
    assert update_unsensed(p, pi0) == pytest.approx(pi0)
    assert update_unsensed(p, 1.0) == pytest.approx(0.15)
    assert update_unsensed(p, 0.0) == pytest.approx(0.1)


def test_update_sensed():
    p = ChannelParams(0.85, 0.7)
    assert update_sensed(p, Observation.IDLE) == 0.85
    assert update_sensed(p, Observation.BUSY) == 0.7
    iid = ChannelParams(0.3, 0.3)
    assert update_sensed(iid, Observation.IDLE) == update_sensed(iid, Observation.BUSY) == 0.3


def test_iterate_unsensed_examples():
    p = ChannelParams(0.15, 0.1)
    assert iterate_unsensed(p, 0.42, 0) == 0.42
    assert iterate_unsensed(p, 0.15, 1) == pytest.approx(0.1 + 0.05 * 0.15)
    # Geometric convergence to the fixed point.
    assert iterate_unsensed(p, p.alpha, 500) == pytest.approx(0.1 / 0.95, abs=1e-9)
    with pytest.raises(ValueError):
        iterate_unsensed(p, 0.5, -1)


def test_iterate_unsensed_identity_chain():
    # alpha=1, beta=0: the update map is the identity, any belief is a fixed point.
    p = ChannelParams(1.0, 0.0)
    assert iterate_unsensed(p, 0.3, 7) == 0.3


@given(probs, probs, probs, probs)
def test_update_monotone_in_belief(alpha, beta, b1, b2):
    # Increasing update map when alpha >= beta.
    a, b = max(alpha, beta), min(alpha, beta)
    p = ChannelParams(a, b)
    lo, hi = min(b1, b2), max(b1, b2)
    assert update_unsensed(p, lo) <= update_unsensed(p, hi) + 1e-12


@given(probs, probs)
def test_update_range(alpha, beta):
    p = ChannelParams(alpha, beta)
    for b in (0.0, 0.25, 0.5, 0.75, 1.0):
        out = update_unsensed(p, b)
        assert min(alpha, beta) - 1e-12 <= out <= max(alpha, beta) + 1e-12


def test_fixed_point_ordering():
    # Ordered channels: the update moves the belief toward the stationary
    # probability from either side.
    p = ChannelParams(0.8, 0.2)
    pi0 = stationary_idle(p)
    for b in np.linspace(0, 1, 21):
        if b <= pi0:
            assert update_unsensed(p, b) >= b - 1e-12
        if b >= pi0:
            assert update_unsensed(p, b) <= b + 1e-12


@given(probs, probs, st.floats(0, 1), st.integers(0, 100))
@settings(max_examples=60)
def test_iterate_matches_fold(alpha, beta, b0, k):
    p = ChannelParams(alpha, beta)
    b = b0
    for _ in range(k):
        b = update_unsensed(p, b)
    assert iterate_unsensed(p, b0, k) == pytest.approx(b, abs=1e-12)


def test_step_true_state_absorbing_rows():
    rng = np.random.default_rng(0)
    always_idle = ChannelParams(1.0, 0.5)
    assert all(
        step_true_state(always_idle, ChannelState.IDLE, rng) == ChannelState.IDLE
        for _ in range(50)
    )
    alternating = ChannelParams(0.0, 1.0)
    assert step_true_state(alternating, ChannelState.IDLE, rng) == ChannelState.BUSY
    assert step_true_state(alternating, ChannelState.BUSY, rng) == ChannelState.IDLE


def test_step_true_state_long_run_frequency():
    p = ChannelParams(0.15, 0.1)
    rng = np.random.default_rng(123)
    s = ChannelState.IDLE
    idle = 0
    n = 1_000_000
    for _ in range(n):
        s = step_true_state(p, s, rng)
        idle += s == ChannelState.IDLE
    assert idle / n == pytest.approx(stationary_idle(p), abs=2e-3)


def test_step_true_state_transition_frequencies():
    # Empirical rows of the transition matrix within 3 standard errors.
    p = ChannelParams(0.6, 0.25)
    rng = np.random.default_rng(7)
    s = ChannelState.IDLE
    counts = {ChannelState.IDLE: [0, 0], ChannelState.BUSY: [0, 0]}
    for _ in range(100_000):
        nxt = step_true_state(p, s, rng)
        counts[s][0] += nxt == ChannelState.IDLE
        counts[s][1] += 1
        s = nxt
    for state, expected in ((ChannelState.IDLE, 0.6), (ChannelState.BUSY, 0.25)):
        hits, n = counts[state]
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(hits / n - expected) <= 3 * se
