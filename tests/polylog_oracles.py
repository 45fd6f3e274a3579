"""Test-only oracles for the quadrature, the polylogarithm and the pl sequence.

``integrate`` is ``cumulative_integral`` on one interval. Li_{k+1}(z) is
the integral of Li_k(x)/x over [0, z], so integrating the library's
lower-order polylogarithm checks the next order independently of both of
its evaluation routes, and ``polylog_integral`` integrates the
Bose-Einstein representation

    Li_k(z) = z / (k-1)! * Integral_0^inf x^(k-1) e^(-x) / (-expm1(-x) + w e^(-x)) dx

in log x, each coordinate one row of edges refined on its own panels, all
in one adaptive run. Its denominator 1 - z e^(-x) is written without
cancellation, so w -> 0 (z -> 1) keeps every digit, and 1/(k-1)! enters
the exponent, so every order stays finite. Its panels use the same rule
as psi's level kernel (chebyshev._kernel_matrices), but it shares nothing
with the polylogarithm's routes. ``mpmath_pl`` and ``mpmath_jeffreys`` give 50-digit
values of the closed forms from the float masses as stored.
"""

import math
from typing import Callable

import mpmath
import numpy as np

from divseq.distributions import _caller_form
from divseq.errors import DomainError, require_index
from divseq.polylog import _arguments, polylog
from divseq.quadrature import QuadratureConfig, cumulative_integral

_TAIL_BOUND = 1e-14
_TAIL_REL_BOUND = 1e-15
_LOG_TAIL = 40.0
_INTEGRAL_PIECES = 8

# The integrand is positive, so every integral is nonzero and a relative
# target alone is well defined. An absolute floor would loosen the contract
# for large |z|, where the integral is about (k-1)! Li_k(z) / z.
_INTEGRAL_CFG = QuadratureConfig(rel_tol=1e-12, abs_tol=np.finfo(float).tiny)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    config: QuadratureConfig,
) -> tuple[float, float, int]:
    """Return (value, error_estimate, evaluations) for the integral over [a, b].

    f gets a 1-d array of abscissae and returns one value for each. This is
    ``cumulative_integral`` on the one row of edges [[a, b]].
    """

    def one_row(x: np.ndarray, rows: np.ndarray, rest: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(x.ravel()), dtype=float)
        if vals.shape != (x.size,):
            raise DomainError(f"integrand gave shape {vals.shape}, not ({x.size},)")
        return vals.reshape(x.shape)

    values, err, neval = cumulative_integral(one_row, [[a, b]], config)
    return float(values[0, -1]), float(err[0]), neval


def _tail_cutoff(k: int, z: float) -> float:
    # Truncation point X for the integral representation. For integer k the
    # remainder past X is exactly |z| * A * e^(-X) * Sum_{j<k} X^j/j! with
    # A = 1/(1 - max(z,0) e^(-X)); grow X until that is below both the
    # absolute budget and a relative one, so small and huge z both stay
    # within contract. The sum is formed in logs: X^j and j! each overflow
    # a float long before their ratio does.
    log_factorials = np.array([math.lgamma(j + 1.0) for j in range(k)])
    x = 35.0
    while True:
        terms = np.arange(k) * math.log(x) - log_factorials
        bound = math.exp(np.logaddexp.reduce(terms) - x)
        bound /= 1.0 - max(z, 0.0) * math.exp(-x)
        if bound < _TAIL_REL_BOUND and abs(z) * bound < _TAIL_BOUND:
            return x
        x += 5.0


def _integral(k: int, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    # The bound grows with |z| on either side of 0, so the extreme
    # arguments set the cutoff every coordinate shares.
    cutoff = max(_tail_cutoff(k, float(z.min())), _tail_cutoff(k, float(z.max())))
    # Integrate in u = log x. Near z = 1 the integrand turns over at x ~ w,
    # which a panel starting at x = 0 cannot see below its first node; in u
    # that turn sits at log w and is resolved like any other feature. The
    # denominator is a convex combination of w and 1, and at least w/e for
    # x <= 1, so below the lower limit L the integrand is under
    # e^(k u) / min(w, 1) and e^(k u + 1) / w. The part left out is then
    # under e^(2 - _LOG_TAIL) of the integral, which is at least 1 for
    # z >= 0.95 and at least 0.6 / w for z <= -0.95.
    lower = math.log(min(float(w.min()), 1.0)) - _LOG_TAIL / k
    log_factorial = math.lgamma(k)

    def integrand(u, rows, rest):
        # x^k e^(-x) / ((k-1)! (1 - z e^(-x))) with x = e^u; the exp(-x)
        # form stays finite however large the cutoff gets, and 1/(k-1)!
        # in the exponent keeps x^k finite at every order.
        x = np.exp(u)
        out = w[rows, None] * np.exp(-x)
        out -= np.expm1(-x)
        return np.divide(np.exp(k * u - x - log_factorial), out, out=out)

    # The integrand is positive, so holding each piece to the relative
    # tolerance holds the whole integral to it; starting from several
    # pieces, each refined in every round, takes fewer rounds than one.
    edges = np.linspace(lower, math.log(cutoff), _INTEGRAL_PIECES + 1)
    edges = np.broadcast_to(edges, (z.size, edges.size))
    values, _, _ = cumulative_integral(integrand, edges, _INTEGRAL_CFG)
    return z * values[:, -1]


def polylog_integral(k, z=None, *, w=None):
    """Quadrature of the integral representation; valid for any z < 1.

    Takes z or, like ``polylog``, w = 1 - z. All coordinates share one
    adaptive run, each refined on its own panels. No route of the library
    uses it: it is the independent cross-check of the series and the
    closed expansions.
    """
    k = require_index(k, minimum=1)
    z, w, shape = _arguments(z, w)
    if z.size == 0:
        return _caller_form(z, shape)
    return _caller_form(_integral(k, z, w), shape)


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
