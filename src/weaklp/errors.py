"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter is outside the range an operation accepts."""


class PreconditionError(ValueError):
    """Inputs are individually valid but violate an operation's precondition."""


class ConsistencyError(RuntimeError):
    """Two supposedly equivalent computations disagree beyond tolerance."""

