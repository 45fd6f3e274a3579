"""Integer-order polylogarithm Li_k(z) for real z < 1.

Two evaluation strategies with an automatic switchover: the defining power
series Sum_{j>=1} z^j / j^k inside |z| <= 0.95, and the integral
representation

    Li_k(z) = z / (k-1)! * Integral_0^inf x^(k-1) / (e^x - z) dx

outside, where the series diverges. Orders 0 and 1 use their closed forms.
The module contract is 1e-12 relative accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ToleranceError, require_index
from .quadrature import QuadratureConfig, integrate

_SERIES_RADIUS = 0.95
_SERIES_REL_STOP = 1e-15
_SERIES_MAX_TERMS = 10_000
_TAIL_BOUND = 1e-14

_INTEGRAL_CFG = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=2000)


def _check_argument(z) -> float:
    z = float(z)
    if not np.isfinite(z) or z >= 1.0:
        raise DomainError(f"argument must be a finite real below 1, got {z!r}")
    return z


def polylog_series(k, z) -> float:
    """Direct power-series summation, for |z| comfortably below 1.

    Terms are added until the next one falls below 1e-15 of the partial
    sum; ToleranceError if that has not happened after 10000 terms.
    """
    k = require_index(k)
    z = _check_argument(z)
    if z == 0.0:
        return 0.0
    total = z
    power = z
    for j in range(2, _SERIES_MAX_TERMS + 1):
        power *= z
        term = power / float(j) ** k
        if abs(term) < _SERIES_REL_STOP * abs(total):
            return total
        total += term
    raise ToleranceError(
        f"series for Li_{k}({z}) still moving after {_SERIES_MAX_TERMS} terms"
    )


def _tail_cutoff(k: int, z: float) -> float:
    # Truncation point X for the integral representation. For integer k the
    # remainder past X is exactly |z| * A * e^(-X) * Sum_{j<k} X^j/j! with
    # A = 1/(1 - max(z,0) e^(-X)); grow X until that is below both the
    # absolute budget and a relative one, so small and huge z both stay
    # within contract.
    x = 35.0
    while True:
        partial = sum(x**j / math.factorial(j) for j in range(k))
        amp = 1.0 / (1.0 - max(z, 0.0) * math.exp(-x))
        bound = amp * math.exp(-x) * partial
        if bound < _SERIES_REL_STOP and abs(z) * bound < _TAIL_BOUND:
            return x
        x += 5.0


def polylog_integral(k, z) -> float:
    """Quadrature of the integral representation; valid for any z < 1.

    This is the mandatory route for z <= -0.95 and the cross-validation
    oracle elsewhere.
    """
    k = require_index(k, minimum=1)
    z = _check_argument(z)
    if z == 0.0:
        return 0.0
    cutoff = _tail_cutoff(k, z)

    def integrand(x):
        out = np.empty_like(x)
        pos = x > 0.0
        xp = x[pos]
        # x^(k-1) e^(-x) / (1 - z e^(-x)); the exp(-x) form stays finite
        # however large the cutoff gets.
        decay = np.exp(-xp)
        out[pos] = np.exp((k - 1) * np.log(xp) - xp) / (1.0 - z * decay)
        out[~pos] = 1.0 / (1.0 - z) if k == 1 else 0.0
        return out

    value, _, _ = integrate(integrand, 0.0, cutoff, _INTEGRAL_CFG)
    return z * value / float(math.factorial(k - 1))


def polylog(k, z) -> float:
    """Li_k(z) for integer k >= 0 and real z < 1."""
    k = require_index(k)
    z = _check_argument(z)
    if z == 0.0:
        return 0.0
    if k == 0:
        return z / (1.0 - z)
    if k == 1:
        return -np.log1p(-z)
    if abs(z) <= _SERIES_RADIUS:
        return polylog_series(k, z)
    return polylog_integral(k, z)

