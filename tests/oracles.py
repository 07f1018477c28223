"""Independent reference computations used to validate the package.

Everything here is deliberately written without reusing the package's backup
machinery: the scalar belief updates, a sampler of the true channel state and
the one-observation sensing counter; value-table interpolation, the
nearest-grid-point action, the three action values and the paper's
closed-form thresholds Th1 and Th2; plain dict/float finite-horizon dynamic
programming over exactly reachable beliefs,
a renewal-cycle average-reward calculator for single-channel policies, the
single-channel value as the best wait-then-sense plan, a
tuple-by-tuple closure and Bellman backup of the descriptor MDP, the packed
state key in Python ints, policy evaluation on the descriptor table by
damped relative value iteration and by one dense solve over every state, the
wait-threshold rule state by state, a threshold policy's action rule, and
the slot kernel as a per-slot loop.
Slow and simple on purpose.  The package itself runs none of this.
"""

import math
from enum import IntEnum

import numpy as np

from osa.channel import stationary_idle
from osa.errors import DelayOverflow, NoConvergence
from osa.multichannel import STALE, MultichannelValueFunction
from osa.sim import TraceRow
from osa.solver import Action

DENOM_TOL = 1e-12


class ChannelState(IntEnum):
    IDLE = 0
    BUSY = 1


class Observation(IntEnum):
    IDLE = 0
    BUSY = 1


class DegenerateDenominator(ArithmeticError):
    """Closed-form threshold denominator is numerically zero."""


def update_unsensed(p, belief):
    """One-slot belief propagation when the channel is not sensed:
    beta + (alpha - beta) * belief, the probability it is idle next slot."""
    return p.beta + (p.alpha - p.beta) * belief


def update_sensed(p, obs):
    """Next-slot belief after sensing the channel: alpha on idle, beta on busy."""
    return p.alpha if obs == Observation.IDLE else p.beta


def step_true_state(p, state, rng):
    """Sample the next true channel state from the transition matrix row."""
    stay_idle = p.alpha if state == ChannelState.IDLE else p.beta
    return ChannelState.IDLE if rng.random() < stay_idle else ChannelState.BUSY


def update_counts(stats, prev_sensed_idle, obs):
    """Record one sensing outcome in a learn.CountingStats.

    obs is truthy for busy (the Observation numbering); prev_sensed_idle must
    be True only when the same channel was sensed idle in the immediately
    preceding slot.
    """
    stats.m += 1
    if int(obs) == 0:
        stats.i += 1
        if prev_sensed_idle:
            stats.k += 1
    return stats


def interpolate(vf, belief, delay):
    """Piecewise-linear value V(belief, delay) of a solved table, exact at grid
    points; delays above the cap evaluate at the cap."""
    return float(np.interp(belief, vf.grid.points, vf.values[:, min(delay, vf.l_max) - 1]))


def q_wait(vf, belief, delay):
    """Action value of waiting: -f(l) + V(unsensed update, l+1)."""
    r, p = vf.rewards, vf.channel
    return -r.gamma * math.log(delay) + interpolate(vf, update_unsensed(p, belief), delay + 1)


def q_sense_wait(vf, belief, delay):
    """Action value of sensing with wait on busy:
    -c_s + lambda (phi - p_p + V(alpha, 1)) + (1-lambda)(-f(l) + V(beta, l+1))."""
    r, p = vf.rewards, vf.channel
    return (
        -r.c_s
        + belief * (r.phi - r.p_p + interpolate(vf, p.alpha, 1))
        + (1.0 - belief) * (-r.gamma * math.log(delay) + interpolate(vf, p.beta, delay + 1))
    )


def q_sense_fallback(vf, belief, delay):
    """Action value of sensing with dedicated fallback on busy, independent
    of the delay:
    phi - c_s + lambda (-p_p + V(alpha, 1)) + (1-lambda)(-p_3g + V(beta, 1))."""
    r, p = vf.rewards, vf.channel
    return (
        r.phi
        - r.c_s
        + belief * (-r.p_p + interpolate(vf, p.alpha, 1))
        + (1.0 - belief) * (-r.p_3g + interpolate(vf, p.beta, 1))
    )


def th1(vf, belief, delay):
    """Closed-form wait/sense-wait boundary.

    [V(omega(lambda), l+1) - V(beta, l+1) + c_s] /
    [f(l) + phi - p_p + V(alpha, 1) - V(beta, l+1)]
    """
    r, p = vf.rewards, vf.channel
    v_omega = interpolate(vf, update_unsensed(p, belief), delay + 1)
    v_beta_next = interpolate(vf, p.beta, delay + 1)
    num = v_omega - v_beta_next + r.c_s
    den = r.gamma * math.log(delay) + r.phi - r.p_p + interpolate(vf, p.alpha, 1) - v_beta_next
    if abs(den) < DENOM_TOL:
        raise DegenerateDenominator(f"th1 denominator {den!r} at delay {delay}")
    return num / den


def th2(vf, belief, delay):
    """Closed-form wait/sense-fallback boundary.

    [V(omega(lambda), l+1) - V(beta, 1) + c_s - f(l) - phi + p_3g] /
    [-p_p + V(alpha, 1) + p_3g - V(beta, 1)]
    """
    r, p = vf.rewards, vf.channel
    v_omega = interpolate(vf, update_unsensed(p, belief), delay + 1)
    v_beta1 = interpolate(vf, p.beta, 1)
    num = v_omega - v_beta1 + r.c_s - r.gamma * math.log(delay) - r.phi + r.p_3g
    den = -r.p_p + interpolate(vf, p.alpha, 1) + r.p_3g - v_beta1
    if abs(den) < DENOM_TOL:
        raise DegenerateDenominator(f"th2 denominator {den!r} at delay {delay}")
    return num / den


def threshold_fixed_point(vf, belief, delay):
    """max(0, min(Th1, Th2)) evaluated at a candidate threshold belief."""
    return max(0.0, min(th1(vf, belief, delay), th2(vf, belief, delay)))


def nearest_action(vf, belief, delay):
    """The action of a grid solve at an arbitrary belief and delay (capped at
    l_max): the action recorded at the nearest grid point."""
    delay = min(delay, vf.l_max)
    i = int(np.argmin(np.abs(vf.grid.points - belief)))
    return Action(int(vf.actions[i, delay - 1]))


def state_key(space, codes, delay):
    """DescriptorSpace.pack of one state, in Python ints: the delay less 1,
    then each code of the sorted codes as one more digit in base
    len(space.belief).  int() takes aged codes, numpy int32 scalars, into
    Python ints, which cannot overflow."""
    key = delay - 1
    for c in sorted(int(c) for c in codes):
        key = key * len(space.belief) + c
    return key


def action_by_key(mvf) -> dict:
    """A descriptor solve's action index by packed state key (state_key), as
    ints."""
    return dict(zip(mvf.reach.keys.tolist(), mvf.actions.tolist()))


def action_for(mvf, codes, delay):
    """The action of a descriptor solve at the state of these codes, in any
    order, and this delay (capped at l_max), read through the packed key."""
    key = state_key(mvf.space, codes, min(delay, mvf.l_max))
    i = int(np.searchsorted(mvf.reach.keys, key))
    if i == len(mvf.reach.keys) or mvf.reach.keys[i] != key:
        raise KeyError(key)
    return Action(int(mvf.actions[i]))


def reachable_beliefs(p, depth):
    """Exact belief orbit: alpha, beta and pi0 pushed through the unsensed
    update up to the given depth."""
    pi0 = stationary_idle(p)
    seen = []
    for start in (p.alpha, p.beta, pi0):
        b = start
        for _ in range(depth + 1):
            if b not in seen:
                seen.append(b)
            b = update_unsensed(p, b)
    return sorted(set(seen))


def finite_horizon_actions(p, r, horizon, l_max):
    """Backward induction on total reward over exactly reachable beliefs.

    Memoized recursion over (remaining horizon, belief, delay); beliefs stay
    exact floats produced by the unsensed update.  The terminal value is zero;
    at the delay cap only the fallback action is admissible, matching the
    solver's model.  Returns {(belief, delay): action} at full lookahead.
    """
    memo = {}

    def f(l):
        return r.gamma * math.log(l)

    def value(h, b, l):
        if h == 0:
            return 0.0
        key = (h, b, l)
        if key in memo:
            return memo[key]
        memo[key] = max(q for q, _ in q_values(h, b, l))
        return memo[key]

    def q_values(h, b, l):
        ln = min(l + 1, l_max)
        q2 = (
            r.phi
            - r.c_s
            + b * (-r.p_p + value(h - 1, p.alpha, 1))
            + (1.0 - b) * (-r.p_3g + value(h - 1, p.beta, 1))
        )
        if l == l_max:
            return [(q2, 2)]
        q0 = -f(l) + value(h - 1, update_unsensed(p, b), ln)
        q1 = (
            -r.c_s
            + b * (r.phi - r.p_p + value(h - 1, p.alpha, 1))
            + (1.0 - b) * (-f(l) + value(h - 1, p.beta, ln))
        )
        return [(q0, 0), (q1, 1), (q2, 2)]

    actions = {}
    for b in reachable_beliefs(p, horizon):
        for l in range(1, l_max + 1):
            qs = q_values(horizon, b, l)
            best = max(q for q, _ in qs)
            actions[(b, l)] = min(a for q, a in qs if q >= best - 1e-12)
    return actions


def fixed_shape(l_star, wait_until=0):
    """A fixed-shape single-channel policy for renewal_gain: wait while the
    delay is at most wait_until, then sense every slot (waiting on busy),
    and use the dedicated fallback once the delay reaches l_star."""

    def act(sensed_idle, age, delay):
        if delay <= wait_until:
            return Action.WAIT
        return Action.SENSE_FALLBACK if delay >= l_star else Action.SENSE_WAIT

    return act


def renewal_gain(p, r, act):
    """Average reward of a single-channel policy, computed by cycle counting
    on the exact belief orbit.

    act(sensed_idle, age, delay) gives the action when the last sensing saw
    the channel idle (or busy) age slots ago and the packet has this delay.
    A cycle is one packet: it starts at delay 1 just after a sensing and ends
    with a transmission; its one continuing path waits, or senses busy and
    waits, until the policy falls back.  Returns reward per slot.
    """
    # Cycle starts at delay 1 with the post-transmission belief mix; solve for
    # the stationary split between the post-idle and post-busy entry points.
    def cycle(sensed_idle):
        """Expected (reward, length, prob entering next cycle at alpha) after
        a sensing that saw the channel idle or busy."""
        reward = 0.0
        length = 0.0
        p_alpha_entry = 0.0
        reach = 1.0
        b = p.alpha if sensed_idle else p.beta
        age = l = 1
        while True:
            length += reach
            a = act(sensed_idle, age, l)
            if a == Action.WAIT:
                reward += reach * -r.gamma * math.log(l)
                b = update_unsensed(p, b)
                age += 1
            elif a == Action.SENSE_WAIT:
                reward += reach * (
                    b * (r.phi - r.c_s - r.p_p) + (1 - b) * (-r.c_s - r.gamma * math.log(l))
                )
                p_alpha_entry += reach * b
                reach *= 1 - b
                b, sensed_idle, age = p.beta, False, 1
            else:
                reward += reach * (
                    b * (r.phi - r.c_s - r.p_p) + (1 - b) * (r.phi - r.c_s - r.p_3g)
                )
                p_alpha_entry += reach * b
                return reward, length, p_alpha_entry
            l += 1

    r_a, t_a, pa_a = cycle(True)
    r_b, t_b, pa_b = cycle(False)
    # Stationary probability that a cycle starts at belief alpha.
    # q = pa_a q + pa_b (1 - q)
    q = pa_b / (1 - pa_a + pa_b)
    return (q * r_a + (1 - q) * r_b) / (q * t_a + (1 - q) * t_b)


def wait_then_sense_value(p, r, gain, v_alpha1, v_beta, belief, delay):
    """Relative value V(belief, delay) of the single channel as the best of
    "wait j slots, then sense" over j >= 0, given the gain g, the value at
    (alpha, 1) and the values at (beta, l) for l = 1..len(v_beta), the delay
    cap.  A sensing lands at one of those states, and a wait only moves the
    belief by the unsensed update; at the cap only the fallback is allowed.
    Every slot is charged g."""
    l_max = len(v_beta)
    best = -math.inf
    waited = 0.0  # rewards of the waits so far, less g per slot
    b, l = belief, delay
    while True:
        sense = r.phi - r.c_s + b * (-r.p_p + v_alpha1) + (1.0 - b) * (-r.p_3g + v_beta[0])
        if l < l_max:
            sense = max(sense, -r.c_s + b * (r.phi - r.p_p + v_alpha1)
                        + (1.0 - b) * (-r.gamma * math.log(l) + v_beta[l]))
        best = max(best, waited + sense - gain)
        if l == l_max:
            return best
        waited -= r.gamma * math.log(l) + gain
        b = update_unsensed(p, b)
        l += 1


def descriptor_successors(space, codes, l, l_max):
    """Successor keys of one descriptor state, in action order: wait, sense
    with wait (idle, busy), sense with fallback (idle, busy).  At the delay
    cap only the two fallback successors remain.  The sensed channel is the
    first one of highest belief."""
    aged = tuple(sorted(space.aged[c] for c in codes))
    target = max(range(len(codes)), key=lambda i: space.belief[codes[i]])
    rest = list(codes[:target]) + list(codes[target + 1 :])
    rest_aged = [space.aged[c] for c in rest]
    after_idle = tuple(sorted(rest_aged + [space.idle_fresh]))
    after_busy = tuple(sorted(rest_aged + [space.busy_fresh]))
    l_up = min(l + 1, l_max)
    out = []
    if l < l_max:
        out.append((aged, l_up))
        out.append((after_idle, 1))
        out.append((after_busy, l_up))
    out.append((after_idle, 1))
    out.append((after_busy, 1))
    return out


def reachable_descriptor_states(space, n_channels, l_max):
    """Depth-first closure over tuples from the all-stale state at delay 1.
    Returns the set of reachable (sorted code tuple, delay) pairs."""
    start = (tuple([0] * n_channels), 1)
    seen = {start}
    stack = [start]
    while stack:
        codes, l = stack.pop()
        for key in descriptor_successors(space, codes, l, l_max):
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return seen


def descriptor_backup(space, index, values, r, l_max):
    """One Bellman backup of descriptor values, state by state in plain
    Python.  index maps each (codes, delay) key to its position in values."""
    out = [0.0] * len(index)
    for (codes, l), sid in index.items():
        b = float(max(space.belief[c] for c in codes))
        v = [float(values[index[key]]) for key in descriptor_successors(space, codes, l, l_max)]
        f = r.gamma * math.log(l)
        q = [
            r.phi - r.c_s + b * (-r.p_p + v[-2]) + (1.0 - b) * (-r.p_3g + v[-1])
        ]
        if l < l_max:
            q.append(-f + v[0])
            q.append(-r.c_s + b * (r.phi - r.p_p + v[1]) + (1.0 - b) * (-f + v[2]))
        out[sid] = max(q)
    return out


def damped_chain_solve(landings, v1, tol, span_tol=1e-11, max_sweeps=10**6):
    """Gain and delay-1 values, zero at the reference state 0, of the chain
    multichannel._chain compiles: the solve multichannel._solve_chain makes
    by GMRES, made instead by damped relative value iteration.  It takes
    _solve_chain's arguments; the solver tolerance tol is not read.

    landings gives each delay-1 state's delay-1 landings P, expected sojourn
    tau and expected reward per visit r.  The delay-1 values v1 warm-start
    the iteration h <- h + step (d - d[0]) on the reward per slot of one
    more visit, d = (r + P h - h) / tau, with step half the shortest
    sojourn, so that every state of the data-transformed chain keeps a
    self-loop and the iteration cannot cycle.  It stops at a span of d of
    span_tol or where rounding stops the span shrinking.  Raises
    NoConvergence after max_sweeps.
    """
    lands, probs, sojourn, total = landings
    step = 0.5 * sojourn.min()
    prev = np.inf
    for _ in range(max_sweeps):
        d = (total + (probs * v1[lands]).sum(axis=1) - v1) / sojourn
        span = float(np.ptp(d))
        if span <= span_tol or span >= prev:
            break
        prev = span
        v1 = v1 + step * (d - d[0])
    else:
        raise NoConvergence(max_sweeps, span, span_tol)
    return float(d[0]), v1


def exact_evaluation(t, rewards, actions):
    """Gain and relative values of a fixed action table on the reachable
    descriptor states t (multichannel.ReachableStates), zero at the
    reference state 0, by one dense solve over every state.

    The table's one-slot chain P, built state by state from the successors
    of t, and its rewards per slot r give (I - P) h + g 1 = r with h[0] =
    0: a square system in g (in h[0]'s column) and h[1:].  It is singular,
    and the result None, when the chain has more than one recurrent class.
    """
    n = len(actions)
    system = np.eye(n)
    reward = np.empty(n)
    for s, a in enumerate(actions):
        b = float(t.b[s])
        reward[s] = rewards[a][s]
        if a == Action.WAIT:
            system[s, t.up_wait[s]] -= 1.0
        else:
            system[s, t.idle1[s]] -= b
            system[s, t.up_busy[s] if a == Action.SENSE_WAIT else t.busy1[s]] -= 1.0 - b
    system[:, 0] = 1.0
    if np.linalg.matrix_rank(system) < n:
        return None
    x = np.linalg.solve(system, reward)
    return float(x[0]), np.concatenate([[0.0], x[1:]])


def wait_thresholds(states, l_max):
    """Per-delay wait thresholds and the violating delays of (belief, delay,
    waits) states, state by state.

    At each delay the threshold is the midpoint between the largest waiting
    belief and the smallest non-waiting belief above it, 0 when no state
    waits and 1 when no non-waiting state lies above; the delay violates the
    threshold rule when some non-waiting belief lies strictly below a
    waiting one.  Returns (thresholds, violating delays).
    """
    layers = {l: [] for l in range(1, l_max + 1)}
    for b, d, waits in states:
        layers[d].append((b, waits))
    thresholds, violations = [], []
    for l, layer in layers.items():
        top = None
        for b, waits in layer:
            if waits and (top is None or b > top):
                top = b
        if top is None:
            thresholds.append(0.0)
            continue
        above, violated = None, False
        for b, waits in layer:
            if not waits:
                if b > top and (above is None or b < above):
                    above = b
                violated = violated or b < top
        thresholds.append(1.0 if above is None else 0.5 * (top + above))
        if violated:
            violations.append(l)
    return thresholds, violations


def act(policy, belief, delay):
    """A ThresholdPolicy's action (the memoryless baseline is one) at a belief
    and delay, by the rule its docstring states, for one state at a time: a
    delay past l_max reads l_max's threshold.  Raises ValueError for a delay
    below 1, which would index lambda_star from its end."""
    if delay < 1:
        raise ValueError(f"delay={delay} must be >= 1")
    th = float(policy.lambda_star[min(delay, policy.l_max) - 1])
    if th > 0.0 and belief <= th:
        return Action.WAIT
    return Action.SENSE_WAIT if delay < policy.l_star else Action.SENSE_FALLBACK


class ReferenceSlotEnv:
    """The slot kernel as a plain per-slot loop, for checking sim.SlotEnv.

    Every slot draws one uniform per channel to advance its true state,
    updates every belief, ages the descriptor codes, and asks a threshold
    policy through act() or, for a descriptor policy, reads the action
    at the position of the (sorted codes, delay) tuple in policy.states, not
    through the successor table the kernel walks.  Keeps the same counters and
    persists across run() calls as SlotEnv does.
    """

    BLOCK = 1000  # any block size draws the same uniforms

    def __init__(self, channels, rewards, seed, l_max):
        n = len(channels)
        self.rewards = rewards
        self.l_max = l_max
        self._rngs = [np.random.default_rng([seed, i]) for i in range(n)]
        self._blocks = [rng.random(self.BLOCK) for rng in self._rngs]
        self._pos = [0] * n
        self.idle = [self._uniform(i) < stationary_idle(channels[i]) for i in range(n)]
        self.beliefs = [stationary_idle(p) for p in channels]
        self.alphas = [p.alpha for p in channels]
        self.betas = [p.beta for p in channels]
        self.delay = 1
        self.slots = self.packets = self.delay_total = 0
        self.reward_total = 0.0
        self.sensed = [0] * n
        self.sensed_idle = [0] * n
        self.idle_pairs = [0] * n
        self.last_idle = [-2] * n
        self.last_busy = [-2] * n
        self.overflowed = False

    def _uniform(self, i):
        if self._pos[i] == self.BLOCK:
            self._blocks[i] = self._rngs[i].random(self.BLOCK)
            self._pos[i] = 0
        self._pos[i] += 1
        return self._blocks[i][self._pos[i] - 1]

    def _check_usable(self):
        """Refuse reuse after a DelayOverflow, as SlotEnv does; SlotEnv.metrics
        calls it too."""
        if self.overflowed:
            raise DelayOverflow("env unusable after an overflow")

    def run(self, policy, slots=None, packets=None, trace=None):
        self._check_usable()
        r = self.rewards
        n = len(self.beliefs)
        use_codes = isinstance(policy, MultichannelValueFunction)
        if use_codes:
            space = policy.space
            position = {state: i for i, state in enumerate(policy.states)}
            codes = [
                STALE if max(li, lb) < 0 else space.codes_for(li > lb, self.slots - max(li, lb))
                for li, lb in zip(self.last_idle, self.last_busy)
            ]
        slot_end = None if slots is None else self.slots + slots
        packet_end = None if packets is None else self.packets + packets
        total = 0.0
        while self.slots != slot_end and self.packets != packet_end:
            slot, delay = self.slots, self.delay
            target = max(range(n), key=self.beliefs.__getitem__)
            if use_codes:
                state = (tuple(sorted(codes)), min(delay, policy.l_max))
                action = Action(int(policy.actions[position[state]]))
            else:
                action = act(policy, self.beliefs[target], delay)
            transmitted = False
            obs = -1
            if action == Action.WAIT:
                if delay >= self.l_max:
                    self.overflowed = True
                    raise DelayOverflow("wait at the cap")
                reward = -r.penalty(delay)
            else:
                self.sensed[target] += 1
                if self.idle[target]:
                    obs = 0
                    self.sensed_idle[target] += 1
                    if self.last_idle[target] == slot - 1:
                        self.idle_pairs[target] += 1
                    self.last_idle[target] = slot
                    reward = r.phi - r.c_s - r.p_p
                    transmitted = True
                else:
                    obs = 1
                    self.last_busy[target] = slot
                    if action == Action.SENSE_FALLBACK:
                        reward = r.phi - r.c_s - r.p_3g
                        transmitted = True
                    else:
                        if delay >= self.l_max:
                            self.overflowed = True
                            raise DelayOverflow("busy sense-wait at the cap")
                        reward = -r.c_s - r.penalty(delay)
            total += reward
            if trace is not None:
                trace.append(TraceRow(slot, self.beliefs[target], delay, int(action), obs, reward))
            for i in range(n):
                a, b = self.alphas[i], self.betas[i]
                if action != Action.WAIT and i == target:
                    self.beliefs[i] = a if obs == 0 else b
                else:
                    self.beliefs[i] = b + (a - b) * self.beliefs[i]
                self.idle[i] = self._uniform(i) < (a if self.idle[i] else b)
            if use_codes:
                codes = [space.aged[c] for c in codes]
                if action != Action.WAIT:
                    codes[target] = space.idle_fresh if obs == 0 else space.busy_fresh
            self.slots += 1
            if transmitted:
                self.delay_total += delay
                self.packets += 1
                self.delay = 1
            else:
                self.delay += 1
        self.reward_total += total
        return total
