"""Integer-order polylogarithm Li_k(z) for real z < 1, elementwise.

Every entry point takes a scalar, which gives a float, or an array, which
gives an array of the same shape. The kernel works on the pair z and
w = 1 - z and takes each from the form the caller holds exactly:
``polylog`` and ``polylog_integral`` take either. The pl sequence passes
w = q/p, so no digits are lost to forming 1 - q/p as q/p -> 0.

- Orders 0 and 1 use their closed forms z/w and -log w (-log1p(-z) for
  |z| <= 1/2).
- Inside |z| <= 0.95 the defining power series Sum_{j>=1} z^j / j^k is
  summed for all coordinates together, each stopped by the same rule.
- Outside, where the series diverges or crawls, the integral
  representation

      Li_k(z) = z / (k-1)! * Integral_0^inf x^(k-1) e^(-x) / (-expm1(-x) + w e^(-x)) dx

  is integrated in log x for all coordinates in one adaptive run on
  shared panels. Its denominator 1 - z e^(-x) is written without
  cancellation, so w -> 0 (z -> 1) keeps every digit.

The module contract is 1e-12 relative accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ToleranceError, require_index
from .quadrature import QuadratureConfig, cumulative_integral

_SERIES_RADIUS = 0.95
_SERIES_REL_STOP = 1e-15
_SERIES_MAX_TERMS = 10_000
_SERIES_BLOCK_CELLS = 1 << 13
_SERIES_MIN_BLOCK = 8
_SERIES_MAX_BLOCK = 64
_TAIL_BOUND = 1e-14
_LOG_TAIL = 40.0
_INTEGRAL_PIECES = 8

# The integrand is positive, so every integral is nonzero and a relative
# target alone is well defined. An absolute floor would loosen the contract
# for large |z|, where the integral is about (k-1)! Li_k(z) / z.
_INTEGRAL_CFG = QuadratureConfig(
    rel_tol=1e-12, abs_tol=np.finfo(float).tiny, max_subdivisions=2000
)


def _arguments(z, w) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Flat z and w = 1 - z, each formed from the one the caller gave."""
    if (z is None) == (w is None):
        raise DomainError("give the argument as z or as w = 1 - z, not both")
    given = np.asarray(z if w is None else w, dtype=float)
    flat = given.ravel()
    if w is None:
        bad = ~(np.isfinite(flat) & (flat < 1.0))
        what = "argument must be a finite real below 1"
    else:
        bad = ~(np.isfinite(flat) & (flat > 0.0))
        what = "w = 1 - z must be finite and positive"
    if bad.any():
        raise DomainError(f"{what}, got {float(flat[bad][0])!r}")
    if w is None:
        return flat, 1.0 - flat, given.shape
    return 1.0 - flat, flat, given.shape


def _shaped(values: np.ndarray, shape: tuple):
    return float(values[0]) if shape == () else values.reshape(shape)


def _series(k: int, z: np.ndarray, linear: bool = True) -> np.ndarray:
    # Sum_{j>=1} z^j / j^k, or Sum_{j>=2} = Li_k(z) - z with linear=False,
    # which keeps the digits of the difference for small z.
    # Each coordinate adds terms until the next one falls below 1e-15 of its
    # partial sum, exactly as a term-by-term loop would. The terms come in
    # blocks, so the loop runs once per block and not once per term; a block
    # holds at most _SERIES_BLOCK_CELLS terms over all pending coordinates,
    # which bounds the memory a large support takes.
    out = np.zeros_like(z)
    pending = np.flatnonzero(z != 0.0)
    power = z[pending]
    total = power if linear else np.zeros_like(power)
    first = 2
    while pending.size:
        if first > _SERIES_MAX_TERMS:
            raise ToleranceError(
                f"series for Li_{k}({float(z[pending[0]])}) still moving after "
                f"{_SERIES_MAX_TERMS} terms"
            )
        width = min(
            max(_SERIES_BLOCK_CELLS // pending.size, _SERIES_MIN_BLOCK),
            _SERIES_MAX_BLOCK,
            _SERIES_MAX_TERMS + 1 - first,
        )
        block = np.empty((pending.size, width + 1))
        block[:, 0] = power
        block[:, 1:] = z[pending, None]
        np.cumprod(block, axis=1, out=block)
        power = block[:, -1].copy()
        block[:, 1:] /= np.arange(first, first + width, dtype=float) ** k
        block[:, 0] = total
        # partial[:, c] is the sum before term c + 1 of the block is added.
        partial = np.cumsum(block, axis=1)
        stops = np.abs(block[:, 1:]) < _SERIES_REL_STOP * np.abs(partial[:, :-1])
        done = stops.any(axis=1)
        out[pending[done]] = partial[done, np.argmax(stops[done], axis=1)]
        pending = pending[~done]
        total = partial[~done, -1]
        power = power[~done]
        first += width
    return out


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

    def integrand(u):
        # x^k e^(-x) / (1 - z e^(-x)) with x = e^u; the exp(-x) form stays
        # finite however large the cutoff gets.
        x = np.exp(u)
        out = w[:, None] * np.exp(-x)
        out -= np.expm1(-x)
        return np.divide(np.exp(k * u - x), out, out=out)

    # The integrand is positive, so holding each piece to the relative
    # tolerance holds the whole integral to it; starting from several
    # pieces, each refined in every round, takes fewer rounds than one.
    edges = np.linspace(lower, math.log(cutoff), _INTEGRAL_PIECES + 1)
    # All coordinates stay on shared panels, not rows of their own: the
    # common abscissae let exp and expm1 be computed once for all of them.
    values, _, _ = cumulative_integral(integrand, edges, _INTEGRAL_CFG)
    return z * values[:, -1] / float(math.factorial(k - 1))


def polylog_series(k, z):
    """Direct power-series summation, for |z| comfortably below 1.

    Each coordinate adds terms until the next one falls below 1e-15 of its
    partial sum; ToleranceError if any has not stopped after 10000 terms.
    """
    k = require_index(k)
    z, _, shape = _arguments(z, None)
    return _shaped(_series(k, z), shape)


def polylog_integral(k, z=None, *, w=None):
    """Quadrature of the integral representation; valid for any z < 1.

    Takes z or, like ``polylog``, w = 1 - z. All coordinates share one
    adaptive run. This is the mandatory route for z <= -0.95 and the
    cross-validation oracle elsewhere.
    """
    k = require_index(k, minimum=1)
    z, w, shape = _arguments(z, w)
    if z.size == 0:
        return _shaped(z, shape)
    return _shaped(_integral(k, z, w), shape)


def polylog(k, z=None, *, w=None):
    """Li_k(z) for integer k >= 0 and real z < 1, elementwise.

    Give either z or w = 1 - z. Pass w when the caller holds it exactly,
    as the pl sequence holds q/p: as w -> 0 every digit of w then reaches
    the result, where forming 1 - w would have lost them.
    """
    k = require_index(k)
    z, w, shape = _arguments(z, w)
    if k == 0:
        out = z / w
    elif k == 1:
        out = np.where(np.abs(z) <= 0.5, -np.log1p(-z), -np.log(w))
    else:
        out = np.empty_like(z)
        near = np.abs(z) <= _SERIES_RADIUS
        out[near] = polylog_series(k, z[near])
        if not near.all():
            out[~near] = polylog_integral(k, w=w[~near])
    return _shaped(out, shape)
