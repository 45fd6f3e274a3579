"""Integral and differential operators on divergences along mixture paths.

The integral operator maps D to t -> Integral_0^t D(P | R(s)) / s ds and
contracts any right-convex divergence toward zero; the differential
operator t -> t * d/dt D(P | R(t)) expands it. Iterated application of the
integral operator fits D(P | R(s)) once by a Chebyshev polynomial and
integrates that polynomial exactly, level after level, in its Chebyshev
coefficients, so each level above the fit costs two FFTs on the fit's
nodes and one evaluation on the grid.
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
)
from .quadrature import QuadratureConfig, cumulative_integral, integrate

__all__ = [
    "OperatorResult",
    "QuadratureConfig",
    "psi",
    "psi_inverse",
    "psi_iter",
    "psi_profile",
    "psi_roundtrip",
]


@dataclass(frozen=True)
class OperatorResult:
    value: float
    estimated_error: float
    evaluations: int


def _default(cfg: QuadratureConfig | None) -> QuadratureConfig:
    return QuadratureConfig() if cfg is None else cfg


def _require_right_convex(D: DivergenceFunctional) -> None:
    if D.orientation is not Orientation.RIGHT_CONVEX:
        raise DomainError(
            f"divergence {D.identifier!r} is not right-convex; wrap it with "
            "swap_orientation first"
        )


def _path_integrand(D: DivergenceFunctional, path: MixturePath):
    p = path.start.masses

    def f(s: np.ndarray) -> np.ndarray:
        return D.evaluator(p, path.masses_at(s)) / s

    return f


def psi(
    D: DivergenceFunctional,
    path: MixturePath,
    t: float,
    cfg: QuadratureConfig | None = None,
) -> OperatorResult:
    """Integral operator: Integral_0^t D(start | R(s)) / s ds.

    The integrand extends continuously by 0 at s = 0 because both D and
    its path derivative vanish there; the quadrature rule only samples
    interior points, so no special casing is needed beyond the exact
    short-circuits for t = 0 and a constant path.
    """
    _require_right_convex(D)
    cfg = _default(cfg)
    t = require_position(t)
    if t == 0.0 or path.is_constant:
        return OperatorResult(0.0, 0.0, 0)
    value, err, evals = integrate(_path_integrand(D, path), 0.0, t, cfg)
    return OperatorResult(float(value), float(err), evals)


def psi_profile(
    D: DivergenceFunctional,
    path: MixturePath,
    t_grid,
    cfg: QuadratureConfig | None = None,
) -> np.ndarray:
    """Integral-operator values on a whole grid, sharing the quadrature work.

    The grid may be unsorted and contain duplicates; values come back in
    the given order.
    """
    _require_right_convex(D)
    cfg = _default(cfg)
    grid = require_grid(t_grid)
    if path.is_constant:
        return np.zeros_like(grid)
    distinct, inverse = np.unique(grid, return_inverse=True)
    at_distinct = _integrate_from_zero(_path_integrand(D, path), distinct, cfg)
    return at_distinct[inverse]


def _integrate_from_zero(f, points: np.ndarray, cfg: QuadratureConfig) -> np.ndarray:
    """Cumulative integrals of f from 0 to each of the sorted points."""
    if points[0] == 0.0:
        if points.size == 1:
            return np.zeros(1)
        values, _, _ = cumulative_integral(f, points, cfg)
        return values
    edges = np.concatenate([[0.0], points])
    values, _, _ = cumulative_integral(f, edges, cfg)
    return values[1:]


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
    cfg: QuadratureConfig | None = None,
) -> np.ndarray:
    """Iterated integral operator: rows are levels 0..k over the grid.

    Level 0 is D itself evaluated along the path. Above it, one Chebyshev
    interpolant is fitted to level 0 (node count doubling until the
    residual at fresh nodes drops below cfg.abs_tol), and each further
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
    cfg = _default(cfg)
    k = require_index(k, "iteration depth")
    grid = require_grid(t_grid)

    rows = np.zeros((k + 1, grid.size))
    if path.is_constant:
        return rows
    p = path.start.masses
    rows[0] = D.evaluator(p, path.masses_at(grid))
    if k == 0:
        return rows

    def level_zero(s: np.ndarray) -> np.ndarray:
        return D.evaluator(p, path.masses_at(s))

    interp, _, _ = ChebyshevInterpolant.fit_adaptive(level_zero, cfg.abs_tol)
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


def psi_roundtrip(
    D: DivergenceFunctional,
    path: MixturePath,
    t: float,
    cfg: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Apply the two operators in both orders at t; each should give back
    D(start | R(t)).

    The first component differentiates the numerically integrated operator
    with a fourth-order stencil; the second integrates the differential
    operator. Both are computed with internally tightened quadrature so the
    stencil division does not amplify integration noise past the 1e-6
    scale.
    """
    _require_right_convex(D)
    cfg = _default(cfg)
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise DomainError(f"roundtrip position must lie in (0, 1], got {t!r}")
    if path.is_constant:
        return (0.0, 0.0)

    tight = QuadratureConfig(
        rel_tol=1e-13, abs_tol=1e-14, max_subdivisions=max(cfg.max_subdivisions, 2000)
    )
    h = 4e-6 * max(t, 0.1)
    stencil = _CENTRAL_STENCIL
    if t - 2.0 * h < 0.0:
        stencil = _ONE_SIDED_STENCIL
    elif t + 2.0 * h > 1.0:
        stencil = -_ONE_SIDED_STENCIL
    steps, weights = stencil
    values = psi_profile(D, path, t + h * steps, tight)
    differentiated_integral = t * np.dot(weights, values) / (12.0 * h)

    integrated_derivative, _, _ = integrate(
        lambda s: psi_inverse(D, path, s) / s, 0.0, t, tight
    )
    return (float(differentiated_integral), float(integrated_derivative))
