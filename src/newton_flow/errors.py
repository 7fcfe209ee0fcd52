"""Exception types, and the checks that raise them, shared across the package."""

import math
import numbers
import reprlib

import numpy as np


class NewtonFlowError(Exception):
    """Base class for all package-specific failures."""


class DomainError(NewtonFlowError, ValueError):
    """Input outside an operation's documented domain."""


class NotPSDError(DomainError):
    """A matrix required to be positive semidefinite is not."""


class NotSelfShrinkerError(DomainError):
    """Model does not satisfy the self-shrinker equation."""


class NumericalError(NewtonFlowError):
    """An internal cross-check failed beyond its tolerance."""


class ExtinctionError(NewtonFlowError):
    """Flow reached extinction (or pinched) at the recorded time."""

    def __init__(self, time: float, reason: str = "extinct"):
        super().__init__(f"flow {reason} at t={time:.6g}")
        self.time = time
        self.reason = reason


class ConfigError(NewtonFlowError, ValueError):
    """Malformed scene configuration."""


def brief(value) -> str:
    """A refused value as an error message shows it: an integer of more than
    12 digits by its first six digits, cut, not rounded, and its digit count
    (10^4000 - 1 reads 999999... (4000 digits), 10^4000 100000... (4001
    digits)), anything else through reprlib.repr, which cuts long strings and
    lists short.  The digits are counted with no decimal string, which Python
    refuses past 4300 digits."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        size = abs(value)
        if size < 10 ** 12:
            return str(value)
        digits = int(size.bit_length() * math.log10(2))   # within one of the count
        digits += size >= 10 ** digits
        digits -= size < 10 ** (digits - 1)
        return f"{'-' * (value < 0)}{size // 10 ** (digits - 6)}... ({digits} digits)"
    return reprlib.repr(value)


def check_integer(value, name: str) -> int:
    """value as a Python int; DomainError unless it is a Python or numpy
    integer (a bool is not)."""
    if type(value) is not int and (     # a plain int skips the slow ABC check
            isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise DomainError(f"{name} must be an integer, got {brief(value)}")
    return int(value)


def check_real(value, name: str):
    """value unchanged; DomainError unless it is a Python or numpy real
    number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {brief(value)}")
    return value


def as_floats(x, what: str) -> np.ndarray:
    """x as float64, the bytes of np.asarray(x, dtype=float) for bool, integer or
    float input; ragged, string, complex or object input raises DomainError."""
    try:
        X = np.asarray(x)
    except (TypeError, ValueError) as exc:      # ragged
        raise DomainError(f"{what} must be a numeric array") from exc
    if X.dtype.kind not in "biuf":
        raise DomainError(f"{what} must be a numeric array")
    return X.astype(float, copy=False)


def check_order(r: int, n: int):
    """Raise DomainError unless r is an integer with 1 <= r <= n, the orders of
    sigma_r on n curvatures."""
    check_integer(r, "order r")
    if not 1 <= r <= n:
        raise DomainError(f"r={brief(r)} out of range 1..{brief(n)}")


def float_range_error(name: str, value: float, p: int) -> NumericalError:
    """The NumericalError for a value whose power value^p leaves the float range."""
    return NumericalError(f"{name}^{p} of {name}={value:.6g} leaves the float range")
