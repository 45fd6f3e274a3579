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


def require_position(t) -> float:
    """A path position as a float in [0, 1]; NaN is rejected."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"path position must lie in [0, 1], got {t!r}")
    return t


def require_positive(x, name: str) -> float:
    """x as a positive finite float: a tolerance or residual target."""
    x = float(x)
    if not 0.0 < x < np.inf:
        raise DomainError(f"{name} must be positive and finite, got {x!r}")
    return x


def require_grid(t_grid) -> np.ndarray:
    """A nonempty 1-d float array of path positions, all in [0, 1]."""
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("t_grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0.0) or np.any(grid > 1.0):
        raise DomainError("t_grid values must lie in [0, 1]")
    return grid


def require_positions(t, stack: int | None = None):
    """Path positions for one path or for a stack of paths.

    For one path (stack None): require_position for a scalar t,
    require_grid for anything else. For a stack of that many paths: a float
    array of shape (stack,), one position per path, or (stack, k), one
    grid per path, with k >= 1 and every value in [0, 1].
    """
    if stack is None:
        return require_position(t) if np.ndim(t) == 0 else require_grid(t)
    t = np.asarray(t, dtype=float)
    if t.ndim not in (1, 2) or t.shape[0] != stack or t.size == 0:
        raise DomainError(
            f"positions on a stack of {stack} paths need shape ({stack},) or "
            f"({stack}, k), got {t.shape}"
        )
    if not np.all(np.isfinite(t)) or np.any(t < 0.0) or np.any(t > 1.0):
        raise DomainError("path positions must lie in [0, 1]")
    return t


def require_pair(P, Q) -> tuple[np.ndarray, np.ndarray]:
    """Mass arrays of two distributions (or raw arrays) on the same support,
    or of two stacks of equal shape."""
    p = np.asarray(getattr(P, "masses", P), dtype=np.float64)
    q = np.asarray(getattr(Q, "masses", Q), dtype=np.float64)
    if p.shape != q.shape:
        raise DomainError(f"support sizes or stack shapes differ: {p.shape} vs {q.shape}")
    return p, q
