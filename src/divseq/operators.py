"""Integral and differential operators on divergences along mixture paths.

The integral operator maps D to t -> Integral_0^t D(P | R(s)) / s ds and
contracts any right-convex divergence toward zero; the differential
operator t -> t * d/dt D(P | R(t)) expands it. Both take a position t or
a 1-d grid of positions, and on a stack of m paths t of shape (m,), one
position per path, or (m, k), one grid per path; each result has t's
shape. Every operator lifts its path to a stack (a single path is a stack
of one, see distributions._lift_path), computes on endpoint rows (m, n)
and positions (m, L) only, and reshapes the result to the caller's form.
Since ds/s is scale-free, psi at t is Integral_0^1 D(P | R(t u)) / u du,
so every (path, position) pair is one component of a single integral
over [0, 1] on shared Gauss-Kronrod panels. Iterated application
of the integral operator fits D(P | R(s)) once by a Chebyshev polynomial,
over the whole stack, to a residual target tol, and integrates that
polynomial exactly, level after level, in its Chebyshev coefficients, so
each level above the fit costs two FFTs on the fit's nodes and one
evaluation on the grid. Every operator requires a right-convex D and
rejects any other before it checks anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import _BLOCK_CELLS, ChebyshevInterpolant
from .distributions import MixturePath, _caller_form, _lift_path, _mix
from .divergences import DivergenceFunctional, Orientation, path_derivative
from .errors import DomainError, require_index, require_position, require_positive
from .quadrature import QuadratureConfig, integrate

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


def _along(
    D: DivergenceFunctional, p: np.ndarray, q: np.ndarray, s: np.ndarray, paths: np.ndarray
) -> np.ndarray:
    """D(p | (1-s) p + s q) at positions s (m, L), row i along the path
    with endpoint rows p[paths[i]] and q[paths[i]]: an (m, L) array.

    The mixtures are formed and reduced in blocks of at most _BLOCK_CELLS
    mass cells: whole rows of s where one fits, else pieces of a row. Each
    position reduces on its own, so blocking changes no value.
    """
    out = np.empty(s.shape)
    cells = max(1, _BLOCK_CELLS // p.shape[-1])
    rows, step = max(1, cells // s.shape[1]), min(s.shape[1], cells)
    for i in range(0, len(s), rows):
        pb, qb = p[paths[i : i + rows]], q[paths[i : i + rows]]
        for j in range(0, s.shape[1], step):
            block = s[i : i + rows, j : j + step]
            out[i : i + rows, j : j + step] = D.evaluator(pb[:, None], _mix(pb, qb, block))
    return out


def psi(
    D: DivergenceFunctional,
    path: MixturePath,
    t,
    cfg: QuadratureConfig | None = None,
) -> OperatorResult | np.ndarray:
    """Integral operator: Integral_0^t D(start | R(s)) / s ds.

    A position t on a single path gives an OperatorResult; a 1-d grid, or
    t of shape (m,) or (m, k) on a stack of m paths, gives an array of t's
    shape. Each value is Integral_0^1 D(start | R(t u)) / u du, and all
    (path, position) pairs are components of one quadrature on shared
    panels, each held to its own tolerance, so a value agrees with the
    call at its position alone to within that tolerance, and a call at
    one position on one path is that single component. t = 0 and a
    constant path give exact zeros and take no evaluations.
    """
    _require_right_convex(D)
    cfg = QuadratureConfig() if cfg is None else cfg
    p, q, t, shape = _lift_path(path, t)
    rows = np.broadcast_to(np.arange(len(t))[:, None], t.shape)
    live = (t > 0.0) & ~np.all(p == q, axis=-1)[:, None]
    # One component per distinct (path, position) pair, in sorted order, so
    # that neither the order of t nor its duplicates change a value.
    pairs, which = np.unique(
        np.stack([rows[live], t[live]], axis=-1), axis=0, return_inverse=True
    )
    index, positions = pairs[:, 0].astype(int), pairs[:, 1]

    def f(u: np.ndarray) -> np.ndarray:
        return _along(D, p, q, positions[:, None] * u, index) / u

    values = np.zeros(t.shape)
    err, evals = np.zeros(1), 0
    if positions.size:
        integrals, err, evals = integrate(f, 0.0, 1.0, cfg)
        values[live] = integrals[which.reshape(-1)]
    if shape == ():
        return OperatorResult(float(values[0, 0]), float(err[0]), evals)
    return values.reshape(shape)


def psi_inverse(D: DivergenceFunctional, path: MixturePath, t):
    """Differential operator: t * d/dt D(start | R(t)) at a position t or
    along a 1-d grid (a float or an array of the grid's length), or on a
    stack of m paths at t of shape (m,) or (m, k) (an array of t's shape,
    row i equal to the call on path i).

    Exactly 0.0 at t = 0 and on a constant path, never -0.0: there t or the
    path direction is 0, and adding +0.0 turns a signed zero into 0.0
    without changing any other value.
    """
    _require_right_convex(D)
    _, _, s, shape = _lift_path(path, t)
    t = _caller_form(s, shape)
    return t * path_derivative(D, path, t) + 0.0


def psi_iter(
    D: DivergenceFunctional,
    k,
    path: MixturePath,
    t_grid,
    tol: float = 1e-12,
) -> np.ndarray:
    """Iterated integral operator: levels 0..k along a leading axis, in
    front of the grid's shape.

    On a single path t_grid is a 1-d grid and the result is (k + 1, len);
    on a stack of m paths it has shape (m,) or (m, k') and the result
    (k + 1, m) or (k + 1, m, k'). Level 0 is D itself evaluated along the
    path. Above it, one Chebyshev interpolant is fitted to level 0 of every
    path on shared nodes (node count doubling until the residual at fresh
    nodes drops below tol on every path), and each further level
    integrates the previous level's polynomial over s exactly, in its
    Chebyshev coefficients, on the same nodes. Rows are nonincreasing in
    the level at every grid point, and a constant path gives zeros.

    No level is refitted or integrated numerically, so every level's error
    is the level-0 residual r carried through psi: at most about
    |r| log(1/s_1) at level 1, where s_1 ~ (pi / 2n)^2 is the first node
    above 0 for n intervals, that is, about log(n) times the residual, and
    about that factor again at each further level.
    """
    _require_right_convex(D)
    tol = require_positive(tol, "tol")
    k = require_index(k, "iteration depth")
    if np.ndim(t_grid) == 0:
        raise DomainError("t_grid must be a nonempty 1-d array, not a scalar")
    p, q, t, shape = _lift_path(path, t_grid)
    every = np.arange(len(p))

    def level_zero(s: np.ndarray) -> np.ndarray:
        return _along(D, p, q, np.broadcast_to(s, (len(p), s.size)), every)

    levels = np.empty((k + 1,) + t.shape)
    levels[0] = _along(D, p, q, t, every)
    if k > 0:
        interp, _, _ = ChebyshevInterpolant.fit_adaptive(level_zero, tol)
        for level in range(1, k + 1):
            interp = interp.lifted()
            levels[level] = interp(t)
    levels[:, np.all(p == q, axis=-1)] = 0.0
    return levels.reshape((k + 1,) + shape)


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
    operator. Both use the tightened _ROUNDTRIP_CFG. t must lie in (0, 1],
    and the path must be a single one.
    """
    _require_right_convex(D)
    if path.stack_size is not None:
        raise DomainError("psi_roundtrip takes a single path, not a stack")
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
