"""Finite discrete probability distributions and mixture paths.

Everything downstream works with full-support distributions over a finite
set of outcomes, so all masses are strictly positive and every divergence
formula is singularity free. A mass is at least the smallest normal float,
so every ratio of two masses is finite. The mixture path
R(t) = (1-t) P + t Q is the central object: operators integrate and
differentiate along it.

Masses of shape (m, n) are a stack of m distributions on one support of
size n, each row validated on its own, and two stacks of equal shape make
a stack of m paths. A single distribution, pair or path is a stack of one:
_lift_pair and _lift_path turn every input into endpoint rows (m, n) and
positions (m, L) when it enters a public function, and the caller's shape
they record turns the result back into the caller's form on return. They
are the only places that tell a single input from a stack. Every block of
positions comes from _blocks, and _along, the one runner along paths,
forms each block's mixture rows; each position reduces alone, so
blocking changes no value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, require_floats, require_index, require_scalar, require_type

# Inputs whose mass sum drifts from 1 by less than this are renormalized;
# anything further off is rejected as a bad input rather than silently fixed.
RENORMALIZATION_WINDOW = 1e-9

# Post-construction guarantee on the mass sum.
SUM_TOLERANCE = 1e-12

# Cells per block of a pass over many positions (n, 2n or k n a position
# along paths, interpolants x nodes a barycentric point). At 2^14 cells the
# blocks stay in cache: barycentric evaluation of 8192 points against 8193
# nodes took half the time it took at 2^20 cells.
_BLOCK_CELLS = 1 << 14

# The smallest mass, the smallest normal float: a mass of at most 1 over it
# is at most 4.5e307, so every ratio q/p is finite. Below it q/p overflows.
_MIN_MASS = float(np.finfo(float).tiny)


def _require_shape(arr: np.ndarray) -> None:
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2 or arr.shape[0] == 0:
        raise DomainError(
            "need a 1-d mass vector, or an (m, n) stack of them, with at least "
            f"2 entries each, got shape {arr.shape}"
        )


def _require_masses(arr: np.ndarray) -> None:
    # One minimum and one sum a row carry every check: a NaN or -inf mass
    # fails the minimum, and a +inf one puts its row's sum off 1, where a
    # finiteness check tells it from a sum that drifts.
    if arr.min() >= _MIN_MASS:
        totals = arr.sum(axis=-1, keepdims=True)
        drift = np.abs(totals - 1.0)
        if drift.max() <= SUM_TOLERANCE:
            return
        if np.isfinite(arr).all():
            raise DomainError(
                f"masses sum to {float(totals[drift > SUM_TOLERANCE][0])!r}, outside the "
                f"{SUM_TOLERANCE} tolerance"
            )
    raise DomainError(
        f"masses must be finite and at least {_MIN_MASS!r}, the smallest normal float"
    )


@dataclass(frozen=True, eq=False)
class Distribution:
    """Immutable probability vector with masses of at least the smallest
    normal float, or a stack of them: (m, n) masses are m distributions on
    n outcomes.

    Construct through :func:`new_distribution`, which applies the
    renormalization window. Direct construction demands already
    normalized rows.
    """

    masses: np.ndarray

    def __post_init__(self) -> None:
        arr = require_floats(self.masses, "masses").copy()
        _require_shape(arr)
        _require_masses(arr)
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
    DomainError, and so does any input the Distribution constructor rejects
    (masses that are not numbers, ragged arrays, a bad shape).
    """
    arr = require_floats(masses, "masses")
    _require_shape(arr)
    totals = arr.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0) >= RENORMALIZATION_WINDOW
    if off.any():
        raise DomainError(
            f"masses sum to {float(totals[off][0])!r}; deviations of "
            f"{RENORMALIZATION_WINDOW} or more are rejected"
        )
    return Distribution(arr / totals)


def _random_masses(rng: np.random.Generator, shape: tuple, min_mass: float) -> np.ndarray:
    """Draw masses of shape (n,), or (m, n) rows, each at least min_mass.

    Normalized exponential draws are shifted into the floored simplex,
    row by row: min_mass + (1 - n*min_mass) * weights. This keeps the
    floor and the unit sum exact in one step.
    """
    draws = rng.exponential(size=shape)
    weights = draws / draws.sum(axis=-1, keepdims=True)
    return min_mass + (1.0 - shape[-1] * min_mass) * weights


def random_distribution(n: int, seed: int, min_mass: float = 0.01) -> Distribution:
    """Seeded random full-support distribution with a mass floor."""
    n, seed = require_index(n, "support size", minimum=2), require_index(seed, "seed")
    min_mass = require_scalar(min_mass, "min_mass", 0.0, 1.0 / n, "()")
    rng = np.random.default_rng(seed)
    return Distribution(_random_masses(rng, (n,), min_mass))


def _mix(p: np.ndarray, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1-t) p + t q for masses p, q and positions t, of shape t.shape + (n,).

    p and q are masses (..., n) whose leading axes lead t's: row i of a
    stack (m, n) moves along t[i], and one distribution (n,) along all of
    t. The convex form recovers the endpoints bitwise at t = 0 and t = 1
    and stays strictly positive in between.
    """
    lead = p.shape[:-1]
    if t.shape[: len(lead)] != lead:
        raise DomainError(
            f"positions on a stack of {lead[0]} paths need a leading axis of "
            f"{lead[0]}, got shape {t.shape}"
        )
    shape = lead + (1,) * (t.ndim - len(lead)) + p.shape[-1:]
    p, q = p.reshape(shape), q.reshape(shape)
    return (1.0 - t)[..., None] * p + t[..., None] * q


def _blocks(shape: tuple, width: int):
    """Row slices of positions (m, L) of width cells each, each with its
    column slices, into blocks of at most _BLOCK_CELLS cells (whole rows
    where one fits, one position where not even that does)."""
    cells = max(1, _BLOCK_CELLS // width)
    rows, step = max(1, cells // shape[1]), min(shape[1], cells)
    for i in range(0, shape[0], rows):
        yield slice(i, i + rows), [slice(j, j + step) for j in range(0, shape[1], step)]


def _along(f, p: np.ndarray, q: np.ndarray, s: np.ndarray, paths: np.ndarray, width: int):
    """f at nonempty positions s (m, L), real or complex, row i along the
    path with endpoint rows p[paths[i]] and q[paths[i]], in _blocks of width
    cells a position, each row block gathered once: f(p, q, r) maps a
    block's endpoint rows (b, 1, n) and mixture rows r (b, c, n) to values
    (..., b, c), and the result is (...) + s.shape, of f's dtype."""
    out = None
    for i, cols in _blocks(s.shape, width):
        pb, qb = p[paths[i]], q[paths[i]]
        for j in cols:
            values = f(pb[:, None], qb[:, None], _mix(pb, qb, s[i, j]))
            if out is None:
                out = np.empty(values.shape[:-2] + s.shape, values.dtype)
            out[..., i, j] = values
    return out


@dataclass(frozen=True, eq=False)
class MixturePath:
    """The segment R(t) = (1-t) start + t end inside the simplex, or a
    stack of such segments between two stacks of equal shape."""

    start: Distribution
    end: Distribution

    def __post_init__(self) -> None:
        for X in (self.start, self.end):
            require_type(X, Distribution, "path endpoint")
        if self.start.masses.shape != self.end.masses.shape:
            raise DomainError(
                "path endpoints need equal support sizes and stack shapes, got "
                f"{self.start.masses.shape} and {self.end.masses.shape}"
            )

    @property
    def stack_size(self) -> int | None:
        """The number of stacked paths, None for a single one."""
        return self.start.stack_size

    def masses_at(self, t: np.ndarray) -> np.ndarray:
        """Mixture mass rows at path positions t in [0, 1], of shape t.shape + (n,).

        On a stack of m paths t has shape (m, ...), and row i of t moves
        along path i: t of shape (m, k) gives (m, k, n).
        """
        return _mix(self.start.masses, self.end.masses, require_floats(t, "path positions", 0, 1))


def _lift_pair(P, Q) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Mass rows p, q (m, n) of two distributions (or raw mass arrays, each
    checked as a Distribution) on the same support, or of two stacks of m,
    and the caller's shape: () for a single pair, a stack of one, and (m,)
    for two stacks.
    """
    p, q = (X.masses if isinstance(X, Distribution) else Distribution(X).masses for X in (P, Q))
    if p.shape != q.shape:
        raise DomainError(f"need mass arrays of one shape, got {p.shape} and {q.shape}")
    return p.reshape(-1, p.shape[-1]), q.reshape(-1, q.shape[-1]), p.shape[:-1]


def _lift_path(path: MixturePath, t) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Endpoint rows p, q (m, n) of a path or stack of m paths, positions
    (m, L) on them and the caller's shape of t.

    A single path is a stack of one, and t a row of positions on it: a
    scalar or a nonempty 1-d grid. On a stack of m paths t has shape (m,),
    one position per path, or (m, k), one grid per path. A result
    (..., m, L) computed on the rows is reshaped to (...) + shape on
    return. Every position must lie in [0, 1].
    """
    p, q = require_type(path, MixturePath, "path").start.masses, path.end.masses
    t = require_floats(t, "path positions", 0, 1)
    shape = t.shape
    if path.stack_size is None:
        p, q, t = p[None], q[None], t[None]
    m = len(p)
    if t.ndim not in (1, 2) or t.shape[0] != m or t.size == 0:
        raise DomainError(
            f"positions take a scalar or a nonempty 1-d grid on a single path, and "
            f"shape ({m},) or ({m}, k) on a stack of {m} paths, got shape {shape}"
        )
    return p, q, t.reshape(m, -1), shape


def _caller_form(values: np.ndarray, shape: tuple):
    """values reshaped to the caller's shape: a float where that is ()."""
    values = np.asarray(values).reshape(shape)
    return float(values) if values.ndim == 0 else values


def mixture(path: MixturePath, t) -> Distribution:
    """The distribution at position t along the path, t in [0, 1].

    On a stack of m paths t has shape (m,), and the result is the stack of
    the mixtures of path i at t[i].
    """
    p, q, s, shape = _lift_path(path, t)
    if shape != path.start.masses.shape[:-1]:
        raise DomainError(f"mixture takes one position per path, got shape {shape}")
    return Distribution(_mix(p, q, s).reshape(shape + p.shape[-1:]))
