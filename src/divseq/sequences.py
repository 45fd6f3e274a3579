"""Closed-form divergence sequences and the squared-Hellinger operator pair.

The polylogarithm sequence evaluates Sum_i p_i Li_k(1 - q_i/p_i); its
first terms are the Neyman chi-square (k=0) and KL (k=1). The companion
sum sequence subtracts successive terms from the Jeffreys divergence and
starts at Jeffreys (k=0) and reverse KL (k=1). These closed forms serve
as exact oracles for the numerically iterated integral operator.
"""

from __future__ import annotations

import numpy as np

from .distributions import MixturePath
from .divergences import named_divergence
from .errors import require_index, require_pair, require_position
from .polylog import polylog

_JEFFREYS = named_divergence("jeffreys")


def pl(k, P, Q) -> float:
    """Sum_i p_i Li_k(1 - q_i/p_i); the argument is always below 1."""
    k = require_index(k)
    p, q = require_pair(P, Q)
    return float(sum(pi * polylog(k, 1.0 - qi / pi) for pi, qi in zip(p, q)))


def sl(k, P, Q) -> float:
    """Jeffreys divergence minus the first k polylogarithm-sequence terms."""
    k = require_index(k)
    p, q = require_pair(P, Q)
    total = float(_JEFFREYS.evaluator(p, q))
    for j in range(1, k + 1):
        total -= pl(j, p, q)
    return total


def _mixture_row(P, Q, t: float) -> tuple[np.ndarray, np.ndarray]:
    path = MixturePath(P, Q)
    return path.start.masses, path.masses_at(np.array([require_position(t)]))[0]


def hellinger_psi_inverse(P, Q, t) -> float:
    """Closed form for the differential operator applied to squared
    Hellinger: Hel2(P, R(t)) + (1/2) Sum (sqrt(r) - sqrt(p))^2 sqrt(p/r)."""
    p, r = _mixture_row(P, Q, t)
    gap = (np.sqrt(r) - np.sqrt(p)) ** 2
    return float(0.5 * np.sum(gap) + 0.5 * np.sum(gap * np.sqrt(p / r)))


def hellinger_psi(P, Q, t) -> float:
    """Closed form for the integral operator applied to squared Hellinger:
    2 Hel2(P, R(t)) + 2 Sum p log((sqrt(p) + sqrt(r)) / (2 sqrt(p)))."""
    p, r = _mixture_row(P, Q, t)
    sqrt_p = np.sqrt(p)
    sqrt_r = np.sqrt(r)
    hel2 = 0.5 * np.sum((sqrt_r - sqrt_p) ** 2)
    log_term = np.sum(p * np.log((sqrt_p + sqrt_r) / (2.0 * sqrt_p)))
    return float(2.0 * hel2 + 2.0 * log_term)
