"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter is outside the range an operation accepts."""


class PreconditionError(ValueError):
    """Inputs are individually valid but violate an operation's precondition."""


class ConsistencyError(RuntimeError):
    """Two supposedly equivalent computations disagree beyond tolerance."""


def check_budget_keys(estimator, budgets, keys):
    """Raise InvalidParameterError naming every budget key `estimator` does not take."""
    unknown = ", ".join(repr(k) for k in budgets if k not in keys)
    if unknown:
        raise InvalidParameterError(
            f"{estimator} takes no budget {unknown}; its budgets are {', '.join(keys)}"
        )
