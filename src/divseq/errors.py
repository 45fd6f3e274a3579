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


def require_positions(t):
    """require_position for a scalar t, require_grid for anything else."""
    return require_position(t) if np.ndim(t) == 0 else require_grid(t)


def require_pair(P, Q) -> tuple[np.ndarray, np.ndarray]:
    """Mass arrays of two distributions (or raw arrays) on the same support."""
    p = np.asarray(getattr(P, "masses", P), dtype=np.float64)
    q = np.asarray(getattr(Q, "masses", Q), dtype=np.float64)
    if p.shape != q.shape:
        raise DomainError(f"support sizes differ: {p.size} vs {q.size}")
    return p, q
