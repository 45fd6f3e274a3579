"""Closed-form divergence sequences and the squared-Hellinger operator pair.

The polylogarithm sequence evaluates Sum_i p_i Li_k(1 - w_i) with
w_i = q_i/p_i; its first terms are the Neyman chi-square (k=0) and KL
(k=1). The companion sum sequence subtracts successive terms from the
Jeffreys divergence and starts at Jeffreys (k=0) and reverse KL (k=1).
These closed forms serve as exact oracles for the numerically iterated
integral operator. Each order is one array call of the polylogarithm over
the whole support, in the variable w, which keeps every digit as
q_i/p_i -> 0. When the sum cancels, as it does near P, the coordinates
near P are summed as p_i (Li_k(z_i) - z_i) and p_i - q_i instead. Every
function here also takes two (m, n) stacks and gives the m rows' values:
a single pair is a stack of one. pl and sl make one polylogarithm call
per order over all rows and decide the cancellation fallback row by row.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import _caller_form, _lift_pair
from .divergences import named_divergence
from .errors import require_index, require_position
from .polylog import _series, polylog

_JEFFREYS = named_divergence("jeffreys")
# Below this |x| the Taylor series gives x - log1p(x) without the
# cancellation of the direct difference.
_XLOG_TAYLOR_RADIUS = 0.25
_XLOG_TAYLOR = np.array([0.0, 0.0] + [(-1.0) ** n / n for n in range(2, 32)])
# The plain sum Sum_i p_i Li_k(z_i) stands when Sum_i |p_i Li_k(z_i)| is at
# most this many times its value. Each term is good to 8.2e-15 relative (the
# polylogarithm's worst) and the sum adds about 3e-15 more at 10^4
# coordinates, so the plain sum is then within 4e-13 of the exact one,
# relative.
_MAX_CANCELLATION = 32.0
# Where |z_i| <= 1/2 a cancelling sum takes Li_k(z_i) - z_i directly.
_NEAR_RADIUS = 0.5


def _li_minus_z(k: int, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Li_k(z) - z for w = 1 - z and |z| <= 1/2, without forming Li_k(z).
    if k == 0:
        return z * z / w
    if k == 1:
        return _x_minus_log1p(-z)
    return _series(k, z, linear=False)


def _split_sum(k: int, p, q, w, terms) -> float:
    # Near P the plain sum cancels its first-order part
    # Sum_i p_i z_i = Sum_i (p_i - q_i) ~ 0. Where |z_i| <= 1/2 the terms
    # are split into p_i (Li_k(z_i) - z_i) and p_i - q_i, which is exact
    # there, as q_i lies within a factor 2 of p_i, and is summed exactly.
    d = p - q
    z = d / p
    near = np.abs(z) <= _NEAR_RADIUS
    split = np.sum(terms[~near]) + np.sum(p[near] * _li_minus_z(k, z[near], w[near]))
    return float(split) + math.fsum(d[near].tolist())


def _pl(k: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """pl for the rows (m, n) of two stacks, an array of m values; every
    row's polylogarithm terms come from one array call."""
    w = q / p
    terms = p * polylog(k, w=w)
    total = np.sum(terms, axis=-1)
    plain = np.sum(np.abs(terms), axis=-1) <= _MAX_CANCELLATION * np.abs(total)
    for i in (~plain).nonzero()[0]:
        total[i] = _split_sum(k, p[i], q[i], w[i], terms[i])
    return total


def pl(k, P, Q):
    """Sum_i p_i Li_k(1 - w_i) with w_i = q_i/p_i > 0.

    A float for two distributions; for two stacks of m, an array of the m
    rows' values.
    """
    k = require_index(k)
    p, q, shape = _lift_pair(P, Q)
    return _caller_form(_pl(k, p, q), shape)


def sl(k, P, Q):
    """Jeffreys divergence minus the first k polylogarithm-sequence terms.

    A float for two distributions; for two stacks of m, an array of the m
    rows' values.
    """
    k = require_index(k)
    p, q, shape = _lift_pair(P, Q)
    total = _JEFFREYS.evaluator(p, q)
    for j in range(1, k + 1):
        total -= _pl(j, p, q)
    return _caller_form(total, shape)


def _mixture_rows(P, Q, t) -> tuple[np.ndarray, np.ndarray, tuple]:
    p, q, shape = _lift_pair(P, Q)
    t = require_position(t)
    return p, (1.0 - t) * p + t * q, shape


def _root_gap(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    # sqrt(r) - sqrt(p) without the cancellation of the direct difference.
    return (r - p) / (np.sqrt(r) + np.sqrt(p))


def _x_minus_log1p(x: np.ndarray) -> np.ndarray:
    series = np.polynomial.polynomial.polyval(x, _XLOG_TAYLOR)
    return np.where(np.abs(x) <= _XLOG_TAYLOR_RADIUS, series, x - np.log1p(x))


def hellinger_psi_inverse(P, Q, t):
    """Closed form for the differential operator applied to squared
    Hellinger: Hel2(P, R(t)) + (1/2) Sum (sqrt(r) - sqrt(p))^2 sqrt(p/r):
    a float for two distributions, m values for two stacks of m."""
    p, r, shape = _mixture_rows(P, Q, t)
    gap = _root_gap(p, r) ** 2
    value = 0.5 * np.sum(gap, axis=-1) + 0.5 * np.sum(gap * np.sqrt(p / r), axis=-1)
    return _caller_form(value, shape)


def hellinger_psi(P, Q, t):
    """Closed form for the integral operator applied to squared Hellinger:
    2 Hel2(P, R(t)) + 2 Sum p log((sqrt(p) + sqrt(r)) / (2 sqrt(p))).

    With g = sqrt(r) - sqrt(p) and x = g / (2 sqrt(p)) this equals
    (1/2) Sum g^2 + (1/2) Sum (r - p) - 2 Sum p (x - log1p(x)), whose
    terms do not cancel to first order when R(t) is close to P. A float
    for two distributions, m values for two stacks of m.
    """
    p, r, shape = _mixture_rows(P, Q, t)
    gap = _root_gap(p, r)
    x = gap / (2.0 * np.sqrt(p))
    value = (
        0.5 * np.sum(gap**2, axis=-1)
        + 0.5 * np.sum(r - p, axis=-1)
        - 2.0 * np.sum(p * _x_minus_log1p(x), axis=-1)
    )
    return _caller_form(value, shape)
