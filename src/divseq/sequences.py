"""Closed-form divergence sequences and the squared-Hellinger operator pair.

The polylogarithm sequence evaluates Sum_i p_i Li_k(1 - w_i) with
w_i = q_i/p_i; its first terms are the Neyman chi-square (k=0) and KL
(k=1). The companion sum sequence subtracts successive terms from the
Jeffreys divergence and starts at Jeffreys (k=0) and reverse KL (k=1).
These closed forms serve as exact oracles for the numerically iterated
integral operator. pl and sl take one order or a tuple of them, and all
orders are one array call of the polylogarithm over the whole support, in
the variable w, which keeps every digit as q_i/p_i -> 0. When the sum
cancels, as it does near P, the coordinates near P are summed as
p_i (Li_k(z_i) - z_i) and p_i - q_i instead, in one more pass for all
orders. Every function here also takes two (m, n) stacks and gives the m
rows' values: a single pair is a stack of one. Each row's value at each
order is its single call's, bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import _caller_form, _lift_pair, _mix
from .errors import require_orders, require_scalar
from .polylog import _by_order, _series, polylog

# The plain sum Sum_i p_i Li_k(z_i) stands when Sum_i |p_i Li_k(z_i)| is at
# most this many times its value. Each term is good to 1.6e-15 relative (the
# polylogarithm's worst against 40-digit mpmath, k = 0..12, w = q/p from
# 1e-16 to 1e12) and the sum adds about 3e-15 more at 10^4 coordinates, so
# the plain sum is then within 1.5e-13 of the exact one, relative.
_MAX_CANCELLATION = 32.0
# Where |z_i| <= 1/2 a cancelling sum takes Li_k(z_i) - z_i directly.
_NEAR_RADIUS = 0.5


def _split_sums(orders: tuple[int, ...], p, q, terms) -> np.ndarray:
    # Near P the plain sum cancels its first-order part
    # Sum_i p_i z_i = Sum_i (p_i - q_i) ~ 0. Where |z_i| <= 1/2 the terms
    # are split into p_i (Li_k(z_i) - z_i), one series call for all orders,
    # and p_i - q_i, exact there as q_i lies within a factor 2 of p_i, and
    # summed exactly once a row. The far and the near terms are each one
    # masked sum along the rows, so a row's value does not depend on the
    # rows beside it.
    d = p - q
    z = d / p
    near = np.abs(z) <= _NEAR_RADIUS
    split = terms.copy()
    split[:, near] = p[near] * _series(orders, z[near], linear=False)
    gaps = np.array([math.fsum(gap[mask].tolist()) for mask, gap in zip(near, d)])
    far_sum, near_sum = (np.where(mask, split, 0.0).sum(axis=-1) for mask in (~near, near))
    return far_sum + near_sum + gaps


def _pl(orders: tuple[int, ...], p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """pl at each order for the rows (m, n) of two stacks, (orders, m), from
    one polylogarithm call and one _split_sums pass for the cancelling rows."""
    terms = p * polylog(orders, w=q / p)
    total = terms.sum(axis=-1)
    plain = np.abs(terms).sum(axis=-1) <= _MAX_CANCELLATION * np.abs(total)
    if not plain.all():
        rows = np.flatnonzero(~plain.all(axis=0))
        split = _split_sums(orders, p[rows], q[rows], terms[:, rows])
        total[:, rows] = np.where(plain[:, rows], total[:, rows], split)
    return total


def pl(k, P, Q):
    """Sum_i p_i Li_k(1 - w_i) with w_i = q_i/p_i > 0.

    A float for two distributions; for two stacks of m, an array of the m
    rows' values. For a tuple of orders k, one of those per order on a
    leading axis.
    """
    orders = require_orders(k)
    p, q, shape = _lift_pair(P, Q)
    return _by_order(_pl(orders, p, q), k, shape)


def sl(k, P, Q):
    """Jeffreys divergence minus the first k polylogarithm-sequence terms.

    A float for two distributions; for two stacks of m, an array of the m
    rows' values. For a tuple of orders k, one of those per order on a
    leading axis, with the pl terms up to the largest order in one pass.
    """
    orders = require_orders(k)
    p, q, shape = _lift_pair(P, Q)
    top = max(orders, default=0)
    # Jeffreys, Sum d log(p/q), d = p - q, as log1p(d/q) where d is exact (|d| <= q/2):
    # log of the rounded p/q would lose eps/|d/q| of each term's relative precision.
    d, logs = p - q, np.log(p / q)
    np.log1p(d / q, out=logs, where=np.abs(d) <= 0.5 * q)
    chain = [np.sum(d * logs, axis=-1)]
    for term in _pl(tuple(range(1, top + 1)), p, q) if top else ():
        chain.append(chain[-1] - term)
    return _by_order([chain[j] for j in orders], k, shape)


def _chain(name: str, first: int, depth: int, P, R) -> np.ndarray:
    """name(first + k, P, R) for k = 0..depth, where name is "pl" or "sl",
    in one call. pl and sl are resolved when this runs, so a rebound pl or
    sl (a tracing or counting wrapper) is the one called.
    """
    family = pl if name == "pl" else sl
    return family(tuple(range(first, first + depth + 1)), P, R)


def _mixture_rows(P, Q, t) -> tuple[np.ndarray, np.ndarray, tuple]:
    p, q, shape = _lift_pair(P, Q)
    return p, _mix(p, q, np.full(len(p), require_scalar(t, "path position", 0, 1))), shape


def _root_gap(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    # sqrt(r) - sqrt(p) without the cancellation of the direct difference.
    return (r - p) / (np.sqrt(r) + np.sqrt(p))


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
    # x - log1p(x) cancels near 0; for |x| <= 1/4 it is the series Li_1(-x) + x.
    small = np.abs(x) <= 0.25
    x_minus_log1p = x - np.log1p(x)
    x_minus_log1p[small] = _series((1,), -x[small], linear=False)[0]
    value = (
        0.5 * np.sum(gap**2, axis=-1)
        + 0.5 * np.sum(r - p, axis=-1)
        - 2.0 * np.sum(p * x_minus_log1p, axis=-1)
    )
    return _caller_form(value, shape)
