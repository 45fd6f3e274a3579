"""Closed-form divergence sequences and the squared-Hellinger operator pair.

The polylogarithm sequence evaluates Sum_i p_i Li_k(1 - w_i) with
w_i = q_i/p_i; its first terms are the Neyman chi-square (k=0) and KL
(k=1). The companion sum sequence subtracts successive terms from the
Jeffreys divergence and starts at Jeffreys (k=0) and reverse KL (k=1).
These closed forms serve as exact oracles for the numerically iterated
integral operator. Each order is one array call of the polylogarithm over
the whole support, in the variable w, which keeps every digit as
q_i/p_i -> 0.
"""

from __future__ import annotations

import numpy as np

from .divergences import named_divergence
from .errors import require_index, require_pair, require_position
from .polylog import polylog

_JEFFREYS = named_divergence("jeffreys")
# Below this |x| the Taylor series gives x - log1p(x) without the
# cancellation of the direct difference.
_XLOG_TAYLOR_RADIUS = 0.25
_XLOG_TAYLOR = np.array([0.0, 0.0] + [(-1.0) ** n / n for n in range(2, 32)])


def _pl(k: int, p: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(p * polylog(k, w=w)))


def pl(k, P, Q) -> float:
    """Sum_i p_i Li_k(1 - w_i) with w_i = q_i/p_i > 0."""
    k = require_index(k)
    p, q = require_pair(P, Q)
    return _pl(k, p, q / p)


def sl(k, P, Q) -> float:
    """Jeffreys divergence minus the first k polylogarithm-sequence terms."""
    k = require_index(k)
    p, q = require_pair(P, Q)
    w = q / p
    total = float(_JEFFREYS.evaluator(p, q))
    for j in range(1, k + 1):
        total -= _pl(j, p, w)
    return total


def _mixture_row(P, Q, t) -> tuple[np.ndarray, np.ndarray]:
    p, q = require_pair(P, Q)
    t = require_position(t)
    return p, (1.0 - t) * p + t * q


def _root_gap(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    # sqrt(r) - sqrt(p) without the cancellation of the direct difference.
    return (r - p) / (np.sqrt(r) + np.sqrt(p))


def _x_minus_log1p(x: np.ndarray) -> np.ndarray:
    series = np.polynomial.polynomial.polyval(x, _XLOG_TAYLOR)
    return np.where(np.abs(x) <= _XLOG_TAYLOR_RADIUS, series, x - np.log1p(x))


def hellinger_psi_inverse(P, Q, t) -> float:
    """Closed form for the differential operator applied to squared
    Hellinger: Hel2(P, R(t)) + (1/2) Sum (sqrt(r) - sqrt(p))^2 sqrt(p/r)."""
    p, r = _mixture_row(P, Q, t)
    gap = _root_gap(p, r) ** 2
    return float(0.5 * np.sum(gap) + 0.5 * np.sum(gap * np.sqrt(p / r)))


def hellinger_psi(P, Q, t) -> float:
    """Closed form for the integral operator applied to squared Hellinger:
    2 Hel2(P, R(t)) + 2 Sum p log((sqrt(p) + sqrt(r)) / (2 sqrt(p))).

    With g = sqrt(r) - sqrt(p) and x = g / (2 sqrt(p)) this equals
    (1/2) Sum g^2 + (1/2) Sum (r - p) - 2 Sum p (x - log1p(x)), whose
    terms do not cancel to first order when R(t) is close to P.
    """
    p, r = _mixture_row(P, Q, t)
    gap = _root_gap(p, r)
    x = gap / (2.0 * np.sqrt(p))
    return float(
        0.5 * np.sum(gap**2) + 0.5 * np.sum(r - p) - 2.0 * np.sum(p * _x_minus_log1p(x))
    )
