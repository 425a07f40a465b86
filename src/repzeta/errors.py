"""Shared exception types, and `integer`, the check of every scalar integer
parameter: a numpy integer comes back as a Python int, and a float or a
numeric string is a ValueError naming the parameter, never truncated or parsed.
`integers` is the same check over a sequence, in one pass.
"""

import operator


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured work budget.

    Carries a message naming the budget and the predicted size, so callers
    can distinguish "too big to enumerate" from a genuine bug.  Nothing is
    ever silently truncated.
    """


def integer(value, name: str, minimum: int | None = None) -> int:
    """value as a Python int, or ValueError naming it unless it is an integer >= minimum."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def integers(values, name: str) -> list[int]:
    """Each of a collection's values as a Python int, or the ValueError of
    `integer` for the first that is not."""
    try:
        return list(map(operator.index, values))
    except TypeError:
        return [integer(value, name) for value in values]
