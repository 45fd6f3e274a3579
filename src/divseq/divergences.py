"""Divergence functionals over finite discrete distributions.

Ships five named divergences, each given by its closed-form masses and its
generator, plus factories for generic f-divergences and Bregman
divergences. A functional knows its convexity orientation: right-convex
means convex in the second argument (the f-divergence family), left-convex
means convex in the first (the Bregman family). The swap adapter exchanges
arguments and flips the recorded orientation.

A divergence is defined by its evaluator: path_derivative takes one
complex step through it at each position, in distributions._along's
blocks, so evaluators and generators must carry complex masses through
numpy arithmetic and ufuncs (no math.fsum, np.abs or casts).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .distributions import MixturePath, _along, _caller_form, _lift_pair, _lift_path
from .errors import DomainError, SpecError, require_spec, require_type

# The complex step h: a power of two, so dividing by it is exact, and so
# small that h^2 g''' stays far below rounding even at masses of 1e-12.
_STEP = 2.0**-300


class Orientation(Enum):
    RIGHT_CONVEX = "right_convex"
    LEFT_CONVEX = "left_convex"


@dataclass(frozen=True)
class DivergenceFunctional:
    """A divergence together with the metadata the operators need.

    ``evaluator`` maps two mass arrays to a value and broadcasts: the
    arguments are arrays (..., n) that broadcast against each other, and
    every row reduces on its own over the last axis. It takes mass arrays,
    real or complex (path_derivative differentiates it by a complex step);
    ``evaluate`` is the entry point that also accepts Distribution objects.
    ``generator`` is phi and ``degree`` is alpha, D(P, R) = Sum_i p_i^alpha
    phi(r_i / p_i), a sum of per-coordinate terms, which psi_iter may fit
    by groups of coordinates through phi; or it is None (a Bregman form of
    no degree, or a functional built from an evaluator alone, which need
    not be such a sum, as Renyi's log Sum p^2 / r is not), and psi_iter
    takes whole rows alone. Every f-divergence has degree 1.
    """

    identifier: str
    orientation: Orientation
    evaluator: Callable[..., np.ndarray]
    generator: Callable[[np.ndarray], np.ndarray] | None = None
    degree: float = 1.0


def evaluate(D: DivergenceFunctional, P, Q):
    """The divergence value D(P | Q): a float for two distributions, an
    array of the m rows' values for two stacks of m; DomainError on a
    support or stack mismatch."""
    p, q, shape = _lift_pair(P, Q)
    return _caller_form(require_type(D, DivergenceFunctional, "divergence").evaluator(p, q), shape)


# ---------------------------------------------------------------------------
# Named divergences, each given by its closed-form masses and its generator.

def _kl_masses(p, q):
    return np.sum(p * np.log(p / q), axis=-1)


def _chi2_masses(p, q):
    return np.sum((q - p) ** 2 / q, axis=-1)


def _jeffreys_masses(p, q):
    return np.sum((p - q) * np.log(p / q), axis=-1)


def _hellinger2_masses(p, q):
    return 0.5 * np.sum((np.sqrt(q) - np.sqrt(p)) ** 2, axis=-1)


# The masses stay the evaluators (a swap's complex step through the weight p of
# Sum p phi(r/p) cancels phi against w phi'(w)). chi2 and jeffreys are in the
# arrangements whose rounding meets test_operators' _CHAINED_LIFT_ERROR.
_NAMED: dict[str, DivergenceFunctional] = {
    identifier: DivergenceFunctional(identifier, Orientation.RIGHT_CONVEX, mass_fn, phi)
    for identifier, mass_fn, phi in (
        ("kl", _kl_masses, lambda w: -np.log(w)),
        ("reverse_kl", lambda p, q: _kl_masses(q, p), lambda w: w * np.log(w)),
        ("chi2", _chi2_masses, lambda w: (w - 1.0) * (1.0 - 1.0 / w)),
        ("jeffreys", _jeffreys_masses, lambda w: np.log(2.0) * (w - 1.0) * np.log2(w)),
        ("hellinger2", _hellinger2_masses, lambda w: 0.5 * (np.sqrt(w) - 1.0) ** 2),
    )
}

NAMED_IDENTIFIERS = tuple(_NAMED)


def named_divergence(identifier: str) -> DivergenceFunctional:
    try:
        return _NAMED[identifier]
    except (KeyError, TypeError):  # TypeError: an unhashable identifier
        raise DomainError(
            f"unknown divergence {identifier!r}; known: {', '.join(NAMED_IDENTIFIERS)}"
        ) from None


# ---------------------------------------------------------------------------
# Factories.

@dataclass(frozen=True)
class FDivergenceSpec:
    """Convex generator for Sum_i q_i f(p_i / q_i); f(1) must be 0.

    f must act elementwise on real and complex ndarrays alike.
    """

    f: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BregmanSpec:
    """Differentiable strictly convex generator for the Bregman form
    Sum_i F(p_i) - F(q_i) - F'(q_i)(p_i - q_i). F and F_prime must act
    elementwise on real and complex ndarrays alike."""

    F: Callable[[np.ndarray], np.ndarray]
    F_prime: Callable[[np.ndarray], np.ndarray]


_CONVEXITY_GRID = np.logspace(np.log10(0.011), np.log10(95.0), 21)
# make_bregman reads a form's degree at the last of these scales of
# _CONVEXITY_GRID and checks it at all of them.
_DEGREE_SCALES = (0.25, 3.0)


def _require_complex_step(g, name: str) -> None:
    """SpecError unless Im g(x + ih) / h matches a central difference of g
    on the sampled grid, as path_derivative's complex step needs."""
    x, h = _CONVEXITY_GRID, 1e-6 * _CONVEXITY_GRID
    try:
        slope = np.imag(g(x + _STEP * 1j)) / _STEP
    except (TypeError, RuntimeWarning):  # ComplexWarning under an error filter
        slope = np.nan  # g rejects complex input
    central = (g(x + h) - g(x - h)) / (2.0 * h)
    miss = np.abs(slope - central)
    if not np.all(miss <= 1e-6 * (1.0 + np.abs(central))):  # NaN fails too
        raise SpecError(
            f"{name} must take complex arguments through numpy arithmetic and ufuncs "
            f"(no np.abs, no float casts): its complex step misses by {np.max(miss):.3e}"
        )


def make_f_divergence(spec: FDivergenceSpec) -> DivergenceFunctional:
    """Build a right-convex functional from a convex f; phi(w) = w f(1 / w).

    Raises SpecError if f(1) is not 0 within 1e-12, midpoint convexity
    fails on a sampled grid, or f does not carry a complex step.
    """
    f = require_spec(spec, FDivergenceSpec).f
    at_one = float(f(np.asarray(1.0)))
    if abs(at_one) > 1e-12:
        raise SpecError(f"f(1) must vanish, got {at_one!r}")
    a, b = np.meshgrid(_CONVEXITY_GRID, _CONVEXITY_GRID)
    fa, fb = f(a), f(b)
    slack = 1e-9 * (1.0 + np.abs(fa) + np.abs(fb))
    excess = f(0.5 * (a + b)) - 0.5 * (fa + fb)
    if np.any(excess > slack):
        raise SpecError(
            f"f fails midpoint convexity on the sampled grid by {float(excess.max()):.3e}"
        )
    _require_complex_step(f, "f")

    def mass_fn(p, q):
        return np.sum(q * f(p / q), axis=-1)

    return DivergenceFunctional(
        "f_divergence", Orientation.RIGHT_CONVEX, mass_fn, lambda w: w * f(1.0 / w)
    )


def make_bregman(spec: BregmanSpec) -> DivergenceFunctional:
    """Build a left-convex Bregman functional.

    The generator pair is screened with the gradient inequality
    F(x) >= F(y) + F'(y)(x - y) on a sampled grid, and F and F' must each
    carry a complex step; violations raise SpecError. The operators take
    it only once wrapped with swap_orientation.

    A form homogeneous of a degree alpha, B(lx, ly) = l^alpha B(x, y), as
    for F = x^alpha, x log x (alpha = 1) or -log x (alpha = 0), is
    recognized: alpha is read off the middle value of
    log(B(lx, ly) / B(x, y)) / log l over the grid at the last of
    _DEGREE_SCALES, rounded to a sixteenth (so that 1 stays exact), and
    checked at every scale. Then
    B(P, Q) = Sum q^alpha beta(p/q), beta(w) = F(w) - F(1) - F'(1)(w - 1),
    so the functional gets the generator w^alpha beta(1/w) and the degree,
    and its swap, whose generator is beta, takes psi's level kernel. A form
    that misses the check gets no generator.
    """
    F, Fp = require_spec(spec, BregmanSpec).F, spec.F_prime
    x, y = np.meshgrid(_CONVEXITY_GRID, _CONVEXITY_GRID)
    fx, fy = F(x), F(y)
    slack = 1e-9 * (1.0 + np.abs(fx) + np.abs(fy))
    shortfall = fy + Fp(y) * (x - y) - fx
    if np.any(shortfall > slack):
        raise SpecError(
            "generator fails the gradient inequality on the sampled grid "
            f"by {float(shortfall.max()):.3e}"
        )
    _require_complex_step(F, "F")
    _require_complex_step(Fp, "F_prime")

    def terms(p, q):
        return F(p) - F(q) - Fp(q) * (p - q)

    def mass_fn(p, q):
        return np.sum(terms(p, q), axis=-1)

    def size(p, q):  # the magnitude of the terms B sums, for a relative slack
        return np.abs(F(p)) + np.abs(F(q)) + np.abs(Fp(q) * (p - q))

    with np.errstate(all="ignore"):  # B = 0 on the diagonal
        scale = _DEGREE_SCALES[-1]
        ratio = np.log(terms(scale * x, scale * y) / terms(x, y)) / np.log(scale)
        # The middle one by sorting: np.median imports numpy.ma (1 MB, 3 ms).
        ratio = np.sort(ratio[np.isfinite(ratio)])
        alpha = float(np.round(16.0 * ratio[ratio.size // 2]) / 16.0) if ratio.size else 1.0
        for scale in _DEGREE_SCALES:
            power = scale**alpha
            miss = np.abs(terms(scale * x, scale * y) - power * terms(x, y))
            if not np.all(miss <= 1e-9 * (1.0 + size(scale * x, scale * y) + power * size(x, y))):
                return DivergenceFunctional("bregman", Orientation.LEFT_CONVEX, mass_fn)
    slope = Fp(np.asarray(1.0))

    def beta(w):
        return F(w) - F(1.0) - slope * (w - 1.0)

    return DivergenceFunctional(
        "bregman", Orientation.LEFT_CONVEX, mass_fn, lambda w: w**alpha * beta(1.0 / w), alpha
    )


def swap_orientation(D: DivergenceFunctional) -> DivergenceFunctional:
    """(P, Q) -> D(Q, P), the orientation flipped, a generator phi of degree
    alpha to w^alpha phi(1/w) of the same degree."""
    D, right = require_type(D, DivergenceFunctional, "divergence"), Orientation.RIGHT_CONVEX
    flipped = Orientation.LEFT_CONVEX if D.orientation is right else right
    base, phi, alpha = D.evaluator, D.generator, D.degree
    conjugate = None if phi is None else lambda w: w**alpha * phi(1.0 / w)
    return DivergenceFunctional(
        f"swap({D.identifier})", flipped, lambda first, second: base(second, first),
        conjugate, alpha,
    )


def path_derivative(D: DivergenceFunctional, path: MixturePath, t):
    """d/dt of evaluator(start, R(t)) at a position t or along a 1-d grid,
    or on a stack of m paths at t of shape (m,) or (m, k), for every
    functional: one complex step, Im evaluator(start, R(t + ih)) / h.

    Returns a float for a scalar t and an array of t's shape otherwise; a
    grid call equals the scalar calls bitwise, and row i of a stacked call
    equals the call on path i. Raises DomainError if a position is outside
    [0, 1] or t has the wrong shape, and SpecError if the evaluator drops
    the imaginary part of complex masses.
    """
    p, q, s, shape = _lift_path(path, t)
    return _caller_form(_slope(require_type(D, DivergenceFunctional, "divergence"), p, q, s), shape)


def _slope(D: DivergenceFunctional, p: np.ndarray, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """path_derivative on endpoint rows p, q (m, n) at positions s (m, L),
    the complex steps taken by distributions._along, a complex cell two
    floats, each position alone."""
    values = _along(
        lambda p, q, r: D.evaluator(p, r), p, q, s + _STEP * 1j, np.arange(len(p)), 2 * p.shape[-1]
    )
    if not np.iscomplexobj(values):
        raise SpecError(
            f"divergence {D.identifier!r} dropped the imaginary part of complex "
            "masses; its evaluator must use numpy arithmetic and ufuncs only"
        )
    return values.imag / _STEP
