"""Independent reference computations used to validate the solver.

Everything here is deliberately written without reusing the package's backup
machinery: plain dict/float finite-horizon dynamic programming over exactly
reachable beliefs, a renewal-cycle average-reward calculator for
fixed-shape policies, and a tuple-by-tuple closure and Bellman backup of the
descriptor MDP.  Slow and simple on purpose.
"""

import math

from osa.channel import stationary_idle, update_unsensed


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


def renewal_gain(p, r, l_star, wait_until=0):
    """Average reward of a fixed-shape policy on the single channel, computed
    by cycle counting on the exact belief orbit.

    The policy waits while the delay is at most wait_until, then senses every
    slot (waiting on busy) and uses the dedicated fallback once the delay
    reaches l_star.  Returns reward per slot.
    """
    # Cycle starts at delay 1 with the post-transmission belief mix; solve for
    # the stationary split between the post-idle and post-busy entry points.
    def cycle(b0):
        """Expected (reward, length, prob idle transmit, prob entering next
        cycle at alpha) from entry belief b0."""
        reward = 0.0
        length = 0.0
        p_alpha_entry = 0.0
        reach = 1.0
        b = b0
        l = 1
        while l <= wait_until:
            reward += reach * -r.gamma * math.log(l)
            length += reach
            b = update_unsensed(p, b)
            l += 1
        while l < l_star:
            length += reach
            reward += reach * (
                b * (r.phi - r.c_s - r.p_p) + (1 - b) * (-r.c_s - r.gamma * math.log(l))
            )
            p_alpha_entry += reach * b
            reach *= 1 - b
            b = p.beta
            l += 1
        length += reach
        reward += reach * (
            b * (r.phi - r.c_s - r.p_p) + (1 - b) * (r.phi - r.c_s - r.p_3g)
        )
        p_alpha_entry += reach * b
        return reward, length, p_alpha_entry

    r_a, t_a, pa_a = cycle(p.alpha)
    r_b, t_b, pa_b = cycle(p.beta)
    # Stationary probability that a cycle starts at belief alpha.
    # q = pa_a q + pa_b (1 - q)
    q = pa_b / (1 - pa_a + pa_b)
    return (q * r_a + (1 - q) * r_b) / (q * t_a + (1 - q) * t_b)


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
