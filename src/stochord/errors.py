"""Exception hierarchy for stochord."""


class StochordError(Exception):
    """Base class for all stochord errors."""


class InvalidSpec(StochordError, ValueError):
    """A distribution specification violates its parameter constraints."""


class UnsupportedPair(StochordError):
    """The requested operation has no closed form for this family pair."""


class UnsupportedFamily(StochordError):
    """The requested operation is not defined for this family."""


class UnboundedProfile(StochordError):
    """Likelihood profile over an infinite joint support needs a cap."""


class InfiniteSupport(StochordError):
    """An exact finite-support operation was asked about an infinite support."""


class InconsistentStages(StochordError):
    """Two decision stages that must agree did not (a defect in stochord).

    Raised where an invariant is checked, so that it still holds under
    ``python -O``.
    """


class InvalidOccupancy(StochordError, ValueError):
    """Occupied-set sizes are incompatible with the box-pair joint table."""


class ConditionsViolated(StochordError):
    """Sampler preconditions (domination guarantees) do not hold.

    The message names the failed condition.
    """


class LengthMismatch(StochordError, ValueError):
    """Vector lengths are incompatible."""


class ParameterOrder(StochordError, ValueError):
    """Parameters were supplied in an order the operation rejects."""


class DominationError(StochordError):
    """A sample violated the pathwise guarantee x1 <= x2.

    Carries the offending sample and its construction trace; raised rather
    than reported because domination is deterministic, not statistical.
    """

    def __init__(self, message, x1=None, x2=None, trace=None):
        super().__init__(message)
        self.x1 = x1
        self.x2 = x2
        self.trace = trace
