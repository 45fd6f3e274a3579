"""Finite discrete probability distributions and mixture paths.

Everything downstream works with full-support distributions over a finite
set of outcomes, so all masses are strictly positive and every divergence
formula is singularity free. The mixture path R(t) = (1-t) P + t Q is the
central object: operators integrate and differentiate along it.

Masses of shape (m, n) are a stack of m distributions on one support of
size n, each row validated on its own, and two stacks of equal shape make
a stack of m paths. Row i of a stack is then handled exactly as the
single distribution or path it holds would be; stacking is an input
shape, not a separate API.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, require_position, require_positions

# Inputs whose mass sum drifts from 1 by less than this are renormalized;
# anything further off is rejected as a bad input rather than silently fixed.
RENORMALIZATION_WINDOW = 1e-9

# Post-construction guarantee on the mass sum.
SUM_TOLERANCE = 1e-12


def _require_shape(arr: np.ndarray) -> None:
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2 or arr.shape[0] == 0:
        raise DomainError(
            "need a 1-d mass vector, or an (m, n) stack of them, with at least "
            f"2 entries each, got shape {arr.shape}"
        )


@dataclass(frozen=True, eq=False)
class Distribution:
    """Immutable probability vector with strictly positive masses, or a
    stack of them: (m, n) masses are m distributions on n outcomes.

    Construct through :func:`new_distribution`, which applies the
    renormalization window. Direct construction demands already
    normalized rows.
    """

    masses: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.masses, dtype=np.float64)
        _require_shape(arr)
        if not (np.isfinite(arr).all() and (arr > 0.0).all()):
            raise DomainError("masses must be finite and strictly positive")
        totals = arr.sum(axis=-1, keepdims=True)
        off = np.abs(totals - 1.0) > SUM_TOLERANCE
        if off.any():
            raise DomainError(
                f"masses sum to {float(totals[off][0])!r}, outside the "
                f"{SUM_TOLERANCE} tolerance"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "masses", arr)

    @property
    def support_size(self) -> int:
        return int(self.masses.shape[-1])

    @property
    def stack_size(self) -> int | None:
        """The number of stacked distributions, None for a single one."""
        return int(self.masses.shape[0]) if self.masses.ndim == 2 else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return np.array_equal(self.masses, other.masses)

    def __repr__(self) -> str:
        return f"Distribution({np.array2string(self.masses, separator=', ')})"


def new_distribution(masses: Sequence[float] | np.ndarray) -> Distribution:
    """Validate a mass vector, or an (m, n) stack, and return a Distribution.

    Sums within ``RENORMALIZATION_WINDOW`` of 1 are renormalized (benign
    floating point drift), row by row for a stack; larger deviations raise
    DomainError, and the Distribution constructor rejects any other
    malformed input.
    """
    arr = np.asarray(masses, dtype=np.float64)
    _require_shape(arr)
    totals = arr.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0) >= RENORMALIZATION_WINDOW
    if off.any():
        raise DomainError(
            f"masses sum to {float(totals[off][0])!r}; deviations of "
            f"{RENORMALIZATION_WINDOW} or more are rejected"
        )
    return Distribution(arr / totals)


def _random_masses(rng: np.random.Generator, n: int, min_mass: float) -> np.ndarray:
    """Draw a mass vector with every component at least min_mass.

    Normalized exponential draws are shifted into the floored simplex:
    min_mass + (1 - n*min_mass) * weights. This keeps the floor and the
    unit sum exact in one step.
    """
    draws = rng.exponential(size=n)
    weights = draws / draws.sum()
    return min_mass + (1.0 - n * min_mass) * weights


def random_distribution(n: int, seed: int, min_mass: float = 0.01) -> Distribution:
    """Seeded random full-support distribution with a mass floor."""
    if n < 2:
        raise DomainError(f"support size must be at least 2, got {n}")
    if not 0.0 < min_mass < 1.0 / n:
        raise DomainError(
            f"min_mass must lie in (0, 1/{n}) for support size {n}, got {min_mass}"
        )
    rng = np.random.default_rng(seed)
    return Distribution(_random_masses(rng, n, min_mass))


def _mix(p: np.ndarray, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1-t) p + t q for masses p, q and positions t, of shape t.shape + (n,).

    p and q are one distribution's masses (n,), for any shape of t, or
    stacks (m, n), for t of shape (m, ...) whose row i moves along row i.
    The convex form recovers the endpoints bitwise at t = 0 and t = 1 and
    stays strictly positive in between.
    """
    if p.ndim == 2:
        if t.ndim == 0 or t.shape[0] != p.shape[0]:
            raise DomainError(
                f"positions on a stack of {p.shape[0]} paths need a leading "
                f"axis of {p.shape[0]}, got shape {t.shape}"
            )
        shape = p.shape[:1] + (1,) * (t.ndim - 1) + p.shape[1:]
        p, q = p.reshape(shape), q.reshape(shape)
    return (1.0 - t)[..., None] * p + t[..., None] * q


@dataclass(frozen=True, eq=False)
class MixturePath:
    """The segment R(t) = (1-t) start + t end inside the simplex, or a
    stack of such segments between two stacks of equal shape."""

    start: Distribution
    end: Distribution

    def __post_init__(self) -> None:
        if self.start.masses.shape != self.end.masses.shape:
            raise DomainError(
                "path endpoints need equal support sizes and stack shapes, got "
                f"{self.start.masses.shape} and {self.end.masses.shape}"
            )

    @property
    def stack_size(self) -> int | None:
        """The number of stacked paths, None for a single one."""
        return self.start.stack_size

    @property
    def is_constant(self) -> bool | np.ndarray:
        """Whether start and end coincide: a bool, or one per stacked path."""
        same = np.all(self.start.masses == self.end.masses, axis=-1)
        return bool(same) if same.ndim == 0 else same

    def masses_at(self, t: np.ndarray) -> np.ndarray:
        """Mixture mass rows at path positions t, of shape t.shape + (n,).

        On a stack of m paths t has shape (m, ...), and row i of t moves
        along path i: t of shape (m, k) gives (m, k, n).
        """
        return _mix(self.start.masses, self.end.masses, np.asarray(t, dtype=np.float64))


def mixture(path: MixturePath, t) -> Distribution:
    """The distribution at position t along the path, t in [0, 1].

    On a stack of m paths t has shape (m,), and the result is the stack of
    the mixtures of path i at t[i].
    """
    if path.stack_size is None:
        row = path.masses_at(np.array([require_position(t)]))[0]
        return Distribution(row)
    t = require_positions(t, path.stack_size)
    if t.ndim != 1:
        raise DomainError(f"mixture takes one position per path, got shape {t.shape}")
    return Distribution(path.masses_at(t))
