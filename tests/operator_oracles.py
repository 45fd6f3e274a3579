"""Test-only oracles for the two operators.

``psi_roundtrip`` applies the integral and the differential operator in
both orders at a position t; each order should give back D(start | R(t)).
``cauchy_levels`` gives psi's levels of a separable divergence by the
Cauchy form, for the power-type Bregman generators in ``BREGMAN_DEGREES``.
"""

import numpy as np

from divseq.divergences import DivergenceFunctional
from divseq.distributions import MixturePath
from divseq.errors import DomainError, require_scalar
from divseq.operators import _require_right_convex, psi, psi_inverse
from polylog_oracles import integrate
from quadrature_oracle import QuadratureConfig

# Fourth-order first-derivative stencils, rows (steps, weights): the
# derivative is Sum weights * f(t + h * steps) / (12 h). The one-sided
# stencil serves near t = 0, and negated (mirrored) near t = 1.
_CENTRAL_STENCIL = np.array([[-2.0, -1.0, 1.0, 2.0], [1.0, -8.0, 8.0, -1.0]])
_ONE_SIDED_STENCIL = np.array(
    [[0.0, 1.0, 2.0, 3.0, 4.0], [-25.0, 48.0, -36.0, 16.0, -3.0]]
)


# Internally tightened targets, for psi's kernel and the reference
# quadrature, so that the stencil division does not amplify integration
# noise past the 1e-6 scale.
_ROUNDTRIP_TOL = 1e-14
_ROUNDTRIP_CFG = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-14)


def is_constant(path: MixturePath) -> bool | np.ndarray:
    """Whether start and end coincide: a bool, or one per stacked path."""
    same = np.all(path.start.masses == path.end.masses, axis=-1)
    return bool(same) if same.ndim == 0 else same


def psi_roundtrip(
    D: DivergenceFunctional, path: MixturePath, t: float
) -> tuple[float, float]:
    """Apply the two operators in both orders at t; each should give back
    D(start | R(t)).

    The first component differentiates the numerically integrated operator
    with a fourth-order stencil; the second integrates the differential
    operator. Both use tightened targets, _ROUNDTRIP_TOL and _ROUNDTRIP_CFG.
    t must lie in (0, 1], and the path must be a single one.
    """
    _require_right_convex(D)
    if path.stack_size is not None:
        raise DomainError("psi_roundtrip takes a single path, not a stack")
    t = require_scalar(t, "path position", 0, 1)
    if t == 0.0:
        raise DomainError("roundtrip position must be positive, got 0.0")
    if is_constant(path):
        return (0.0, 0.0)

    h = 4e-6 * max(t, 0.1)
    stencil = _CENTRAL_STENCIL
    if t - 2.0 * h < 0.0:
        stencil = _ONE_SIDED_STENCIL
    elif t + 2.0 * h > 1.0:
        stencil = -_ONE_SIDED_STENCIL
    steps, weights = stencil
    values = psi(D, path, t + h * steps, _ROUNDTRIP_TOL)
    differentiated_integral = t * np.dot(weights, values) / (12.0 * h)

    integrated_derivative, _, _ = integrate(
        lambda s: psi_inverse(D, path, s) / s, 0.0, t, _ROUNDTRIP_CFG
    )
    return (float(differentiated_integral), float(integrated_derivative))


# Power-type Bregman generators F with their degrees, and beta(w) = F(w) -
# F(1) - F'(1)(w - 1) from w and d = w - 1, each formed without cancellation.
BREGMAN_DEGREES = {
    "x^2": (lambda x: x * x, lambda x: 2.0 * x, 2.0, lambda w, d, log_w: d * d),
    "x^1.5": (
        lambda x: x**1.5, lambda x: 1.5 * np.sqrt(x), 1.5,
        lambda w, d, log_w: np.expm1(1.5 * log_w) - 1.5 * d,
    ),
    "x log x": (
        lambda x: x * np.log(x), lambda x: np.log(x) + 1.0, 1.0,
        lambda w, d, log_w: w * log_w - d,
    ),
    "-log x": (lambda x: -np.log(x), lambda x: -1.0 / x, 0.0, lambda w, d, log_w: d - log_w),
}


def cauchy_levels(beta, alpha, p, r, k):
    """Levels 1..k of Sum p^alpha beta(r/p) along P -> R, the Cauchy form
    (1/(j-1)!) Integral_0^1 log(1/u)^(j-1) D(P, R(u)) du / u, on a
    tanh-sinh rule: u = 1 / (1 + e^-2s), s = (pi/2) sinh(tau), 641 steps of
    1/64 in tau, 1 - u formed apart, so that w = (1 - u) + u r/p keeps every
    digit of a tiny r/p near u = 1. It shares nothing with the kernel."""
    tau = np.arange(-320, 321) / 64.0
    s = 0.5 * np.pi * np.sinh(tau)
    u, rest = 1.0 / (1.0 + np.exp(-2.0 * s)), 1.0 / (1.0 + np.exp(2.0 * s))
    per_u = 0.5 * np.pi * np.cosh(tau) / (2.0 * np.cosh(s) ** 2) * (1.0 + np.exp(-2.0 * s)) / 64.0
    log_inv = np.log1p(np.exp(-2.0 * s))  # log(1/u)
    w = rest[:, None] + u[:, None] * (r / p)
    d = u[:, None] * (r / p - 1.0)
    terms = beta(w, d, np.where(np.abs(d) < 0.5, np.log1p(d), np.log(w))) @ p**alpha
    levels, weight = [], per_u
    for j in range(1, k + 1):
        if j > 1:
            weight = weight * log_inv / (j - 1)
        levels.append(weight @ terms)
    return np.array(levels)
