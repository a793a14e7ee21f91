"""Exception hierarchy shared across the package, and the readers of
numeric input that raise it.

Split by how the CLI maps failures to exit codes: bad inputs exit 2,
violated contracts (a witness or certificate that does not hold) exit 1.
"""

import numbers


class FairnoiseError(Exception):
    """Base class for all package errors."""


class InputError(FairnoiseError):
    """Invalid argument, config, or precondition violation."""


class ContractError(FairnoiseError):
    """A guarantee that should hold by construction failed to hold."""


class InfeasibleError(FairnoiseError):
    """No classifier meets the fairness notion: the groups' predictive-parity
    precision ranges never meet."""


def integer(value: object, what: str) -> int:
    """``value`` as an int. An integral float such as 41.0 reads as 41;
    bools, fractions and non-numbers are rejected rather than truncated."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def label(value: object, what: str) -> int:
    """``value`` as a 0/1 label; bools, fractions and every other value are
    rejected rather than truncated."""
    if isinstance(value, bool) or value not in (0, 1):
        raise InputError(f"{what} must be 0 or 1, got {value!r}")
    return int(value)


def number(value: object, what: str) -> float:
    """``value`` as a float; bools, strings and other non-numbers are
    rejected rather than converted."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise InputError(f"{what} must be a number, got {value!r}")


def text(value: object, what: str) -> str:
    """``value`` as a string; numbers, null and other values are rejected
    rather than converted."""
    if isinstance(value, str):
        return value
    raise InputError(f"{what} must be a string, got {value!r}")
