"""Exception types shared across the package."""


class OsaError(Exception):
    """Base class for all package-specific errors."""


class DegenerateChain(OsaError):
    """Channel chain has no usable stationary distribution (or pi(0) in {0,1})."""


class NoConvergence(OsaError):
    """A solver did not reach the target residual span: policy iteration hit
    its step cap, a descriptor evaluation hit its product cap or stalled, or
    the settled policy's residual span is above tol."""

    def __init__(self, iterations, span, tol):
        self.iterations = iterations
        self.span = span
        self.tol = tol
        super().__init__(
            f"no convergence after {iterations} iterations: span={span:.3e} > tol={tol:.3e}"
        )


class StateSpaceTooLarge(OsaError):
    """Reachable descriptor enumeration exceeded the configured cap."""


class NotThreshold(OsaError):
    """Wait region is not a prefix of the belief grid at some delay."""

    def __init__(self, delay, beliefs):
        self.delay = delay
        self.beliefs = beliefs
        super().__init__(
            f"wait region is not a belief prefix at delay {delay}; "
            f"violations at beliefs {beliefs}"
        )


class InsufficientData(OsaError):
    """Counting statistics do not yet support an estimate."""


class DelayOverflow(OsaError):
    """Packet delay would exceed the configured cap; policy is misconfigured."""


class TargetUnreachable(OsaError):
    """Requested average delay is not attained within tolerance: it lies
    outside the achievable range [low, high], or between two delay steps."""

    def __init__(self, target, low, high):
        self.target = target
        self.low = low
        self.high = high
        super().__init__(
            f"target delay {target:.3f} not attained within tolerance; "
            f"achievable range [{low:.3f}, {high:.3f}]"
        )
