"""Test-only oracles for the polylogarithm and the pl sequence.

Li_{k+1}(z) is the integral of Li_k(x)/x over [0, z], so integrating the
library's lower-order polylogarithm checks the next order independently of
both of its evaluation routes. ``mpmath_pl`` and ``mpmath_jeffreys`` give
50-digit values of the closed forms from the float masses as stored.
"""

import mpmath
import numpy as np

from divseq.errors import require_index
from divseq.polylog import polylog
from divseq.quadrature import QuadratureConfig, integrate


def polylog_recurrence_check(k, z) -> float:
    """Li_{k+1}(z) obtained by integrating Li_k(x)/x over [0, z].

    The integrand takes its limiting value 1 at x = 0.
    """
    k = require_index(k, minimum=1)
    z = float(z)
    if z == 0.0:
        return 0.0

    def integrand(x):
        return np.array(
            [polylog(k, xi) / xi if xi != 0.0 else 1.0 for xi in x]
        )

    if z > 0.0:
        value, _, _ = integrate(integrand, 0.0, z, QuadratureConfig())
        return value
    value, _, _ = integrate(integrand, z, 0.0, QuadratureConfig())
    return -value


def mpmath_pl(k, p, q) -> float:
    """Sum_i p_i Li_k(1 - q_i/p_i) at 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.fsum(
            mpmath.mpf(pi) * mpmath.polylog(k, 1 - mpmath.mpf(qi) / mpmath.mpf(pi))
            for pi, qi in zip(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
        )
        return float(total)


def mpmath_jeffreys(p, q) -> float:
    """Sum_i (p_i - q_i) log(p_i / q_i) at 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.fsum(
            (mpmath.mpf(pi) - mpmath.mpf(qi)) * mpmath.log(mpmath.mpf(pi) / mpmath.mpf(qi))
            for pi, qi in zip(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
        )
        return float(total)
