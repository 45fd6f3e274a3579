"""Integral and differential operators on divergences along mixture paths.

The integral operator maps D to t -> Integral_0^t D(P | R(s)) / s ds and
contracts any right-convex divergence toward zero; the differential
operator t -> t * d/dt D(P | R(t)) expands it. Both take a position t or
a 1-d grid of positions. Iterated application of the integral operator
fits D(P | R(s)) once by a Chebyshev polynomial, to a residual target
tol, and integrates that polynomial exactly, level after level, in its
Chebyshev coefficients, so each level above the fit costs two FFTs on the
fit's nodes and one evaluation on the grid. Every operator requires a
right-convex D and rejects any other before it checks anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import ChebyshevInterpolant
from .distributions import MixturePath
from .divergences import DivergenceFunctional, Orientation, path_derivative
from .errors import (
    DomainError,
    require_grid,
    require_index,
    require_position,
    require_positions,
    require_positive,
)
from .quadrature import QuadratureConfig, cumulative_integral, integrate

__all__ = [
    "OperatorResult",
    "QuadratureConfig",
    "psi",
    "psi_inverse",
    "psi_iter",
    "psi_roundtrip",
]


@dataclass(frozen=True)
class OperatorResult:
    value: float
    estimated_error: float
    evaluations: int


def _require_right_convex(D: DivergenceFunctional) -> None:
    if D.orientation is not Orientation.RIGHT_CONVEX:
        raise DomainError(
            f"divergence {D.identifier!r} is not right-convex; wrap it with "
            "swap_orientation first"
        )


def psi(
    D: DivergenceFunctional,
    path: MixturePath,
    t,
    cfg: QuadratureConfig | None = None,
) -> OperatorResult | np.ndarray:
    """Integral operator: Integral_0^t D(start | R(s)) / s ds at a position
    t (an OperatorResult) or along a 1-d grid (an array, in grid order).

    The integrand extends continuously by 0 at s = 0, where the quadrature
    rule never samples; t = 0 and a constant path give exact zeros. The
    distinct positions of a grid share one cumulative quadrature, so each
    value agrees with the scalar call to within the quadrature tolerance.
    """
    _require_right_convex(D)
    cfg = QuadratureConfig() if cfg is None else cfg
    t = require_positions(t)
    p = path.start.masses

    def f(s: np.ndarray) -> np.ndarray:
        return D.evaluator(p, path.masses_at(s)) / s

    if np.ndim(t) == 0:
        if t == 0.0 or path.is_constant:
            return OperatorResult(0.0, 0.0, 0)
        value, err, evals = integrate(f, 0.0, t, cfg)
        return OperatorResult(float(value), float(err), evals)
    edges = np.union1d(0.0, t)
    if edges.size == 1 or path.is_constant:
        return np.zeros_like(t)
    values, _, _ = cumulative_integral(f, edges, cfg)
    return values[np.searchsorted(edges, t)]


def psi_inverse(D: DivergenceFunctional, path: MixturePath, t):
    """Differential operator: t * d/dt D(start | R(t)) at a position t or
    along a 1-d grid (a float or an array of the grid's length).

    Exactly 0.0 at t = 0 and on a constant path, never -0.0: there t or the
    path direction is 0, and adding +0.0 turns a signed zero into 0.0
    without changing any other value.
    """
    _require_right_convex(D)
    t = require_positions(t)
    return t * path_derivative(D, path, t) + 0.0


def psi_iter(
    D: DivergenceFunctional,
    k,
    path: MixturePath,
    t_grid,
    tol: float = 1e-12,
) -> np.ndarray:
    """Iterated integral operator: rows are levels 0..k over the grid.

    Level 0 is D itself evaluated along the path. Above it, one Chebyshev
    interpolant is fitted to level 0 (node count doubling until the
    residual at fresh nodes drops below tol), and each further
    level integrates the previous level's polynomial over s exactly, in
    its Chebyshev coefficients, on the same nodes. Rows are nonincreasing
    in the level at every grid point.

    No level is refitted or integrated numerically, so every level's error
    is the level-0 residual r carried through psi: at most about
    |r| log(1/s_1) at level 1, where s_1 ~ (pi / 2n)^2 is the first node
    above 0 for n intervals, that is, about log(n) times the residual, and
    about that factor again at each further level.
    """
    _require_right_convex(D)
    tol = require_positive(tol, "tol")
    k = require_index(k, "iteration depth")
    grid = require_grid(t_grid)

    rows = np.zeros((k + 1, grid.size))
    if path.is_constant:
        return rows

    def level_zero(s: np.ndarray) -> np.ndarray:
        return D.evaluator(path.start.masses, path.masses_at(s))

    rows[0] = level_zero(grid)
    if k == 0:
        return rows
    interp, _, _ = ChebyshevInterpolant.fit_adaptive(level_zero, tol)
    for level in range(1, k + 1):
        interp = interp.lifted()
        rows[level] = interp(grid)
    return rows


# Fourth-order first-derivative stencils, rows (steps, weights): the
# derivative is Sum weights * f(t + h * steps) / (12 h). The one-sided
# stencil serves near t = 0, and negated (mirrored) near t = 1.
_CENTRAL_STENCIL = np.array([[-2.0, -1.0, 1.0, 2.0], [1.0, -8.0, 8.0, -1.0]])
_ONE_SIDED_STENCIL = np.array(
    [[0.0, 1.0, 2.0, 3.0, 4.0], [-25.0, 48.0, -36.0, 16.0, -3.0]]
)


# Internally tightened quadrature, so that the stencil division does not
# amplify integration noise past the 1e-6 scale.
_ROUNDTRIP_CFG = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-14)


def psi_roundtrip(
    D: DivergenceFunctional, path: MixturePath, t: float
) -> tuple[float, float]:
    """Apply the two operators in both orders at t; each should give back
    D(start | R(t)).

    The first component differentiates the numerically integrated operator
    with a fourth-order stencil; the second integrates the differential
    operator. Both use the tightened _ROUNDTRIP_CFG. t must lie in (0, 1].
    """
    _require_right_convex(D)
    t = require_position(t)
    if t == 0.0:
        raise DomainError("roundtrip position must be positive, got 0.0")
    if path.is_constant:
        return (0.0, 0.0)

    h = 4e-6 * max(t, 0.1)
    stencil = _CENTRAL_STENCIL
    if t - 2.0 * h < 0.0:
        stencil = _ONE_SIDED_STENCIL
    elif t + 2.0 * h > 1.0:
        stencil = -_ONE_SIDED_STENCIL
    steps, weights = stencil
    values = psi(D, path, t + h * steps, _ROUNDTRIP_CFG)
    differentiated_integral = t * np.dot(weights, values) / (12.0 * h)

    integrated_derivative, _, _ = integrate(
        lambda s: psi_inverse(D, path, s) / s, 0.0, t, _ROUNDTRIP_CFG
    )
    return (float(differentiated_integral), float(integrated_derivative))
