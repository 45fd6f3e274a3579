"""Finite discrete probability distributions and mixture paths.

Everything downstream works with full-support distributions over a finite
set of outcomes, so all masses are strictly positive and every divergence
formula is singularity free. The mixture path R(t) = (1-t) P + t Q is the
central object: operators integrate and differentiate along it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, require_position

# Inputs whose mass sum drifts from 1 by less than this are renormalized;
# anything further off is rejected as a bad input rather than silently fixed.
RENORMALIZATION_WINDOW = 1e-9

# Post-construction guarantee on the mass sum.
SUM_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class Distribution:
    """Immutable probability vector with strictly positive masses.

    Construct through :func:`new_distribution`, which applies the
    renormalization window. Direct construction demands an already
    normalized vector.
    """

    masses: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.masses, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError(
                f"need a 1-d mass vector with at least 2 entries, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError("masses must be finite and strictly positive")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise DomainError(
                f"masses sum to {total!r}, outside the {SUM_TOLERANCE} tolerance"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "masses", arr)

    @property
    def support_size(self) -> int:
        return int(self.masses.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return np.array_equal(self.masses, other.masses)

    def __repr__(self) -> str:
        return f"Distribution({np.array2string(self.masses, separator=', ')})"


def new_distribution(masses: Sequence[float] | np.ndarray) -> Distribution:
    """Validate a mass vector and return a Distribution.

    Sums within ``RENORMALIZATION_WINDOW`` of 1 are renormalized (benign
    floating point drift); larger deviations raise DomainError, and the
    Distribution constructor rejects any other malformed vector.
    """
    arr = np.asarray(masses, dtype=np.float64)
    total = float(arr.sum())
    if abs(total - 1.0) >= RENORMALIZATION_WINDOW:
        raise DomainError(
            f"masses sum to {total!r}; deviations of {RENORMALIZATION_WINDOW} or more "
            "are rejected"
        )
    return Distribution(arr / total)


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


@dataclass(frozen=True, eq=False)
class MixturePath:
    """The segment R(t) = (1-t) start + t end inside the simplex."""

    start: Distribution
    end: Distribution

    def __post_init__(self) -> None:
        if self.start.support_size != self.end.support_size:
            raise DomainError(
                "path endpoints need equal support sizes, got "
                f"{self.start.support_size} and {self.end.support_size}"
            )

    @property
    def is_constant(self) -> bool:
        return np.array_equal(self.start.masses, self.end.masses)

    def masses_at(self, t: np.ndarray) -> np.ndarray:
        """Mixture mass rows for a vector of path positions.

        Returns an array of shape (len(t), support_size). The convex form
        (1-t) p + t q recovers the endpoints bitwise at t = 0 and t = 1
        and stays strictly positive in between.
        """
        t = np.asarray(t, dtype=np.float64)
        p = self.start.masses
        q = self.end.masses
        return (1.0 - t)[:, None] * p + t[:, None] * q


def mixture(path: MixturePath, t: float) -> Distribution:
    """The distribution at position t along the path, t in [0, 1]."""
    row = path.masses_at(np.array([require_position(t)]))[0]
    return Distribution(row)
