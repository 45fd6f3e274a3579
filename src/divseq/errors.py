"""Exception types and the argument checks shared across the package.

Every public entry point checks its arguments here, once. Each check
returns its argument in the form the callers compute with or raises
DomainError (SpecError for a functional's specification) naming the
argument. A range is written once, where it is checked: lo, hi and its
ends, "[]", "()", "[)" or "(]".
"""

import dataclasses
import numbers
import operator

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SpecError(ValueError):
    """A user-supplied functional specification failed its validation checks."""


class ToleranceError(ArithmeticError):
    """A numerical scheme could not reach the requested tolerance."""


class NonFiniteError(DomainError):
    """A function handed to a numerical scheme returned NaN or infinity."""


def _within(low, high, lo, hi, ends: str) -> bool:
    """lo <= low and high <= hi, strictly at an open end; NaN fails."""
    above = lo <= low if ends[0] == "[" else lo < low
    return above and (high <= hi if ends[1] == "]" else high < hi)


def require_floats(x, name: str, lo=None, hi=None, ends: str = "[]") -> np.ndarray:
    """x as a float64 array; DomainError where numpy cannot convert it or,
    given bounds, where an entry is NaN or out of range, by x's minimum and maximum."""
    try:
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be an array of numbers: {exc}") from None
    if lo is not None and x.size and not _within(x.min(), x.max(), lo, hi, ends):
        bad = next(float(v) for v in x.flat if not _within(v, v, lo, hi, ends))
        span = "finite" if -lo == hi == np.inf else f"in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
        raise DomainError(f"{name} must be {span}, got {bad!r}")
    return x


def require_scalar(x, name: str, lo: float, hi: float, ends: str = "[]") -> float:
    """x as a float in range: a Python or numpy real number or a 0-d array,
    not None, a string, a list or a one-element array; NaN fails."""
    if not isinstance(x, (numbers.Real, np.ndarray)) or np.ndim(x):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    return float(require_floats(x, name, lo, hi, ends))


def require_index(k, name: str = "order", minimum: int = 0) -> int:
    """k as a Python int no smaller than minimum: an order, depth or count."""
    try:
        k = operator.index(k)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {k!r}") from None
    if k < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise DomainError(f"{name} must be {bound}, got {k}")
    return k


def require_orders(k) -> tuple[int, ...]:
    """One order as (k,), or a tuple of orders, each checked as an index."""
    return tuple(map(require_index, k)) if isinstance(k, tuple) else (require_index(k),)


def require_type(x, kind: type, name: str, error: type = DomainError):
    """x itself if it is a kind (a functional, a path, a distribution)."""
    if not isinstance(x, kind):
        raise error(f"{name} must be a {kind.__name__}, got {type(x).__name__}")
    return x


def require_spec(spec, kind: type):
    """spec itself if it is a kind with callable fields; SpecError otherwise."""
    for field in dataclasses.fields(require_type(spec, kind, "spec", SpecError)):
        if not callable(value := getattr(spec, field.name)):
            raise SpecError(f"{field.name} must be callable, got {value!r}")
    return spec
