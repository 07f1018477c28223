"""Threshold-policy extraction and structural verification of solved value
functions.

The optimal policy has a two-part description: a per-delay belief threshold
below which waiting is optimal, and a switch delay at/after which the
dedicated channel replaces waiting when the sensed channel is busy.  The
ground truth here is always the argmax over action values; the closed-form
threshold expressions are used as cross-checks, never for extraction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import stationary_idle, update_unsensed
from .errors import DegenerateDenominator, NotThreshold
from .solver import Action, RewardParams, ValueFunction, interpolate

DENOM_TOL = 1e-12
CSV_HEADER = "delay,lambda_star,action_above_threshold"


class DelayCapBound(UserWarning):
    """The dedicated-channel switch never triggered below the delay cap."""


@dataclass
class ThresholdPolicy:
    """Per-delay wait thresholds plus the dedicated-channel switch delay.

    Action rule at (belief, l): wait when belief <= lambda_star[l] (an empty
    wait region is encoded as 0, in which case no belief waits); otherwise
    sense, waiting on busy while l < l_star and falling back to the dedicated
    channel once l >= l_star.
    """

    lambda_star: np.ndarray
    l_star: int
    l_max: int
    cap_bound: bool = False

    def threshold(self, delay: int) -> float:
        return float(self.lambda_star[min(delay, self.l_max) - 1])

    def act(self, belief: float, delay: int) -> Action:
        th = self.threshold(delay)
        if th > 0.0 and belief <= th:
            return Action.WAIT
        return Action.SENSE_WAIT if delay < self.l_star else Action.SENSE_FALLBACK

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for l in range(1, self.l_max + 1):
                name = "sense_wait" if l < self.l_star else "sense_fallback"
                fh.write(f"{l},{float(self.lambda_star[l - 1])!r},{name}\n")

    @classmethod
    def from_csv(cls, path) -> "ThresholdPolicy":
        """Read a policy that to_csv wrote.  Raises ValueError unless the
        delays run 1..l_max in order, every threshold lies in [0, 1], and the
        actions read sense_wait up to the switch delay and sense_fallback from
        it through l_max."""
        thresholds, names = [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"unexpected policy header: {header}")
            for delay, line in enumerate(fh, start=1):
                d, th, name = line.strip().split(",")
                if int(d) != delay:
                    raise ValueError("policy delays must run 1, 2, ..., l_max in order")
                thresholds.append(float(th))
                if not 0.0 <= thresholds[-1] <= 1.0:
                    raise ValueError(f"delay {d}: threshold {th} lies outside [0, 1]")
                if name not in ("sense_wait", "sense_fallback"):
                    raise ValueError(f"delay {d}: unknown action {name!r}")
                names.append(name)
        if not names or names[-1] != "sense_fallback":
            raise ValueError("the last policy row must be sense_fallback")
        l_star = names.index("sense_fallback") + 1
        if "sense_wait" in names[l_star:]:
            raise ValueError(
                f"sense_wait at delay {names.index('sense_wait', l_star) + 1} "
                f"after sense_fallback at delay {l_star}"
            )
        return cls(lambda_star=np.asarray(thresholds), l_star=l_star, l_max=len(names))


@dataclass(frozen=True)
class MemorylessPolicy:
    """Baseline that always senses and uses the dedicated channel once the
    packet delay reaches the attempt limit k."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k={self.k} must be >= 1")

    def act(self, belief: float, delay: int) -> Action:
        return memoryless_act(self, delay)


def memoryless_act(mp: MemorylessPolicy, delay: int) -> Action:
    if delay < 1:
        raise ValueError(f"delay={delay} must be >= 1")
    return Action.SENSE_WAIT if delay < mp.k else Action.SENSE_FALLBACK


def switch_margin(vf: ValueFunction, delay: int) -> float:
    """Advantage of the dedicated fallback over waiting after a busy sense.

    Equals (Q2 - Q1) / (1 - lambda), which is independent of the belief:
    f(l) + phi - p_3g + V(beta, 1) - V(beta, l+1).  Positive means the
    dedicated channel is preferred at delay l.
    """
    r = vf.rewards
    beta = vf.channel.beta
    return (
        r.penalty(delay)
        + r.phi
        - r.p_3g
        + interpolate(vf, beta, 1)
        - interpolate(vf, beta, min(delay + 1, vf.l_max))
    )


def dedicated_switch_delay(vf: ValueFunction) -> int:
    """Smallest delay at which the dedicated fallback beats waiting on busy.

    The condition does not involve the belief.  Returns l_max when the switch
    never triggers below the cap (the cap then forces the fallback; callers
    can detect the bound via ThresholdPolicy.cap_bound).
    """
    for l in range(1, vf.l_max):
        if switch_margin(vf, l) > 0.0:
            return l
    return vf.l_max


def wait_threshold(belief: np.ndarray, wait: np.ndarray) -> tuple[float, bool]:
    """The wait threshold of one delay's states, given each one's belief (in
    any order) and whether it waits: the midpoint between the largest waiting
    belief and the smallest non-waiting belief above it, 0 when no state
    waits and 1 when no non-waiting state lies above.  It is violated when a
    non-waiting state sits strictly below a waiting one."""
    if not wait.any():
        return 0.0, False
    top = belief[wait].max()
    other = belief[~wait]
    above = other[other > top]
    threshold = 0.5 * (top + above.min()) if above.size else 1.0
    return float(threshold), bool((other < top).any())


def extract_thresholds(vf: ValueFunction) -> ThresholdPolicy:
    """Read the per-delay wait thresholds off the argmax action table, one
    grid column at a time with wait_threshold.  Raises NotThreshold at the
    first delay whose wait region is not a prefix of the belief grid, naming
    the waiting grid points above its first non-waiting one."""
    pts = vf.grid.points
    lam = np.zeros(vf.l_max)
    for l in range(1, vf.l_max + 1):
        wait = vf.actions[:, l - 1] == int(Action.WAIT)
        lam[l - 1], violated = wait_threshold(pts, wait)
        if violated:
            bad = pts[wait & (pts > pts[~wait].min())]
            raise NotThreshold(l, [float(b) for b in bad[:5]])
    l_star = dedicated_switch_delay(vf)
    cap_bound = l_star == vf.l_max
    if cap_bound:
        warnings.warn(
            f"dedicated-channel switch is forced by the delay cap l_max={vf.l_max}; "
            "the unconstrained switch delay lies beyond it",
            DelayCapBound,
            stacklevel=2,
        )
    return ThresholdPolicy(
        lambda_star=lam,
        l_star=l_star,
        l_max=vf.l_max,
        cap_bound=cap_bound,
    )


def th1(vf: ValueFunction, belief: float, delay: int) -> float:
    """Closed-form wait/sense-wait boundary.

    [V(omega(lambda), l+1) - V(beta, l+1) + c_s] /
    [f(l) + phi - p_p + V(alpha, 1) - V(beta, l+1)]
    """
    r = vf.rewards
    p = vf.channel
    nxt = min(delay + 1, vf.l_max)
    v_omega = interpolate(vf, update_unsensed(p, belief), nxt)
    v_beta_next = interpolate(vf, p.beta, nxt)
    num = v_omega - v_beta_next + r.c_s
    den = r.penalty(delay) + r.phi - r.p_p + interpolate(vf, p.alpha, 1) - v_beta_next
    if abs(den) < DENOM_TOL:
        raise DegenerateDenominator(f"th1 denominator {den!r} at delay {delay}")
    return num / den


def th2(vf: ValueFunction, belief: float, delay: int) -> float:
    """Closed-form wait/sense-fallback boundary.

    [V(omega(lambda), l+1) - V(beta, 1) + c_s - f(l) - phi + p_3g] /
    [-p_p + V(alpha, 1) + p_3g - V(beta, 1)]
    """
    r = vf.rewards
    p = vf.channel
    nxt = min(delay + 1, vf.l_max)
    v_omega = interpolate(vf, update_unsensed(p, belief), nxt)
    v_beta1 = interpolate(vf, p.beta, 1)
    num = v_omega - v_beta1 + r.c_s - r.penalty(delay) - r.phi + r.p_3g
    den = -r.p_p + interpolate(vf, p.alpha, 1) + r.p_3g - v_beta1
    if abs(den) < DENOM_TOL:
        raise DegenerateDenominator(f"th2 denominator {den!r} at delay {delay}")
    return num / den


def threshold_fixed_point(vf: ValueFunction, belief: float, delay: int) -> float:
    """max(0, min(Th1, Th2)) evaluated at a candidate threshold belief."""
    return max(0.0, min(th1(vf, belief, delay), th2(vf, belief, delay)))


def never_wait_after_sensing(r: RewardParams) -> bool:
    """True when a busy sense always leads to the dedicated channel.

    The wait branch is dominated for every delay exactly when -f(l) never
    exceeds phi - p_3g; since f(1) = 0 and f is non-decreasing this reduces
    to phi >= p_3g.
    """
    return r.phi >= r.p_3g


@dataclass
class PredicateResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    margin: float
    detail: str = ""

    def line(self) -> str:
        m = "" if np.isnan(self.margin) else f" margin={self.margin:.6g}"
        d = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {self.status.upper()}{m}{d}"


@dataclass
class StructureReport:
    results: list = field(default_factory=list)

    def add(self, name, status, margin=float("nan"), detail=""):
        self.results.append(PredicateResult(name, status, margin, detail))

    def __getitem__(self, name) -> PredicateResult:
        for res in self.results:
            if res.name == name:
                return res
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(res.status != "fail" for res in self.results)

    def to_text(self) -> str:
        return "\n".join(res.line() for res in self.results) + "\n"


def check_structure(vf: ValueFunction) -> StructureReport:
    """Run every structural predicate against a converged solve.

    Belief-monotonicity and convexity hold by theory only when alpha >= beta;
    on the other ordering those predicates are skipped with the reason
    recorded.  Failures never raise: they are report entries with margins.
    """
    rep = StructureReport()
    v = vf.values
    pts = vf.grid.points
    p = vf.channel
    ordered = p.alpha >= p.beta

    # Non-increasing in delay at every grid point.
    diffs = v[:, :-1] - v[:, 1:]
    m = float(diffs.min())
    rep.add("monotone_delay", "pass" if m >= -1e-8 else "fail", m)

    # Non-decreasing in belief at every delay (needs alpha >= beta).
    if ordered:
        diffs = v[1:, :] - v[:-1, :]
        m = float(diffs.min())
        rep.add("monotone_belief", "pass" if m >= -1e-8 else "fail", m)
    else:
        rep.add("monotone_belief", "skip", detail="alpha < beta")

    # Discrete convexity in belief: slope differences scaled to the mean
    # spacing, i.e. the uniform-grid second difference (needs alpha >= beta).
    if ordered:
        dx = np.diff(pts)[:, None]
        slopes = np.diff(v, axis=0) / dx
        h = float(np.mean(np.diff(pts)))
        d2 = (slopes[1:, :] - slopes[:-1, :]) * h
        m = float(d2.min())
        rep.add("convex_belief", "pass" if m >= -1e-6 else "fail", m)
    else:
        rep.add("convex_belief", "skip", detail="alpha < beta")

    # No waiting strictly above the stationary belief.
    pi0 = stationary_idle(p)
    wait_any = (vf.actions == int(Action.WAIT)).any(axis=1)
    waited = pts[wait_any]
    worst = float(waited.max()) if waited.size else 0.0
    m = pi0 - worst
    rep.add("no_wait_above_stationary", "pass" if m >= -1e-12 else "fail", m)

    # Sensing success must be worth at least the dedicated fallback.
    m = (-vf.rewards.p_p + interpolate(vf, p.alpha, 1)) - (
        -vf.rewards.p_3g + interpolate(vf, p.beta, 1)
    )
    rep.add("idle_beats_fallback", "pass" if m >= -1e-8 else "fail", float(m))

    # Gain above the negated delay penalty for every delay up to the switch.
    l_star = dedicated_switch_delay(vf)
    margins = [vf.gain + vf.rewards.penalty(l) for l in range(1, l_star + 1)]
    m = float(min(margins))
    rep.add("gain_exceeds_penalty", "pass" if m > 0.0 else "fail", m,
            detail=f"l_star={l_star}")

    # Wait region forms a belief prefix at every delay.
    bad_delays = [
        l for l in range(1, vf.l_max + 1)
        if wait_threshold(pts, vf.actions[:, l - 1] == int(Action.WAIT))[1]
    ]
    rep.add(
        "threshold_prefix",
        "pass" if not bad_delays else "fail",
        float("nan"),
        detail=f"violating delays {bad_delays}" if bad_delays else "",
    )
    return rep
