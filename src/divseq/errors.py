"""Exception types and the argument checks shared across the package.

Each check either returns its argument in the normalized form the callers
compute with or raises DomainError, so every entry point words a bad
argument the same way.
"""

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


def require_floats(x, name: str) -> np.ndarray:
    """x as a float64 array; DomainError where numpy cannot convert it."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be an array of numbers: {exc}") from None


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


def require_position(t) -> float:
    """A path position as a float in [0, 1]; NaN is rejected."""
    t = float(require_floats(t, "path position"))
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"path position must lie in [0, 1], got {t!r}")
    return t


def require_positive(x, name: str) -> float:
    """x as a positive finite float: a tolerance or residual target."""
    x = float(require_floats(x, name))
    if not 0.0 < x < np.inf:
        raise DomainError(f"{name} must be positive and finite, got {x!r}")
    return x
