"""Test-only oracle for the two operators: psi and psi_inverse in both orders.

``psi_roundtrip`` applies the integral and the differential operator in
both orders at a position t; each order should give back D(start | R(t)).
"""

import numpy as np

from divseq.divergences import DivergenceFunctional
from divseq.distributions import MixturePath
from divseq.errors import DomainError, require_position
from divseq.operators import _require_right_convex, psi, psi_inverse
from divseq.quadrature import QuadratureConfig
from polylog_oracles import integrate

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
