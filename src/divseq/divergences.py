"""Divergence functionals over finite discrete distributions.

Ships five named divergences, each given by its closed-form masses and its
f-divergence generator, plus factories for generic f-divergences and
Bregman divergences. A functional knows its convexity orientation:
right-convex means convex in the second argument (the f-divergence
family), left-convex means convex in the first (the Bregman family). The
swap adapter exchanges arguments and flips the recorded orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .distributions import MixturePath, _caller_form, _lift_pair, _lift_path, _mix
from .errors import DomainError, SpecError

# Path-derivative callables take (ends, s): the endpoint rows (p, q), each
# (m, n), of a stack of m paths, and positions s of shape (m, L), row i on
# path i. They return the (m, L) values of d/dt of the functional
# evaluated with the path's start pinned in one slot and the moving
# mixture R(t) in the other.
PathDerivative = Callable[[tuple[np.ndarray, np.ndarray], np.ndarray], np.ndarray]


class Orientation(Enum):
    RIGHT_CONVEX = "right_convex"
    LEFT_CONVEX = "left_convex"


@dataclass(frozen=True)
class DivergenceFunctional:
    """A divergence together with the metadata the operators need.

    ``evaluator`` maps two mass arrays to a value and broadcasts: the
    arguments are arrays (..., n) that broadcast against each other, and
    the reduction is over the last axis, so every row reduces on its own.
    It takes mass arrays only; ``evaluate`` is the entry point that also
    accepts Distribution objects. ``analytic_path_derivative`` gives d/dt
    of evaluator(start, R(t)); it is None for a functional whose second
    argument has no derivative formula (an unswapped Bregman divergence).
    """

    identifier: str
    orientation: Orientation
    evaluator: Callable[..., np.ndarray]
    analytic_path_derivative: Optional[PathDerivative]
    # Derivative with the moving point in the first slot instead, i.e.
    # d/dt evaluator(R(t), start). swap_orientation exchanges the two so
    # swapped functionals keep analytic derivatives.
    mirror_path_derivative: Optional[PathDerivative] = field(default=None, repr=False)


def evaluate(D: DivergenceFunctional, P, Q):
    """The divergence value D(P | Q): a float for two distributions, an
    array of the m rows' values for two stacks of m; DomainError on a
    support or stack mismatch."""
    p, q, shape = _lift_pair(P, Q)
    return _caller_form(D.evaluator(p, q), shape)


def _path_parts(ends: tuple[np.ndarray, np.ndarray], s: np.ndarray):
    """Start masses and direction (m, 1, n) of the paths between the rows
    of ends, and their mixtures (m, L, n) at positions s of shape (m, L)."""
    p, q = ends
    return p[:, None], (q - p)[:, None], _mix(p, q, s)


def _f_functional(identifier: str, mass_fn, f, fp) -> DivergenceFunctional:
    """Right-convex functional with masses mass_fn(p, q) = Sum q f(p/q).

    Both path derivatives follow from the generator f and its derivative
    fp: moving the second argument gives Sum delta (f(u) - u f'(u)) with
    u = p/r, moving the first gives Sum delta f'(r/p).
    """

    def deriv_moving_right(ends, s):
        p, delta, r = _path_parts(ends, s)
        u = p / r
        return np.sum(delta * (f(u) - u * fp(u)), axis=-1)

    def deriv_moving_left(ends, s):
        p, delta, r = _path_parts(ends, s)
        return np.sum(delta * fp(r / p), axis=-1)

    return DivergenceFunctional(
        identifier=identifier,
        orientation=Orientation.RIGHT_CONVEX,
        evaluator=mass_fn,
        analytic_path_derivative=deriv_moving_right,
        mirror_path_derivative=deriv_moving_left,
    )


# ---------------------------------------------------------------------------
# Named divergences. The closed-form masses are the evaluators; the
# generators only feed the path derivatives.

def _kl_masses(p, q):
    return np.sum(p * np.log(p / q), axis=-1)


def _chi2_masses(p, q):
    return np.sum((q - p) ** 2 / q, axis=-1)


def _jeffreys_masses(p, q):
    return np.sum((p - q) * np.log(p / q), axis=-1)


def _hellinger2_masses(p, q):
    return 0.5 * np.sum((np.sqrt(q) - np.sqrt(p)) ** 2, axis=-1)


_NAMED: dict[str, DivergenceFunctional] = {
    identifier: _f_functional(identifier, mass_fn, f, fp)
    for identifier, mass_fn, f, fp in (
        ("kl", _kl_masses, lambda u: u * np.log(u), lambda u: np.log(u) + 1.0),
        (
            "reverse_kl",
            lambda p, q: _kl_masses(q, p),
            lambda u: -np.log(u),
            lambda u: -1.0 / u,
        ),
        ("chi2", _chi2_masses, lambda u: (u - 1.0) ** 2, lambda u: 2.0 * (u - 1.0)),
        (
            "jeffreys",
            _jeffreys_masses,
            lambda u: (u - 1.0) * np.log(u),
            lambda u: np.log(u) + 1.0 - 1.0 / u,
        ),
        (
            "hellinger2",
            _hellinger2_masses,
            lambda u: 0.5 * (np.sqrt(u) - 1.0) ** 2,
            lambda u: 0.5 * (1.0 - 1.0 / np.sqrt(u)),
        ),
    )
}

NAMED_IDENTIFIERS = tuple(_NAMED)


def named_divergence(identifier: str) -> DivergenceFunctional:
    try:
        return _NAMED[identifier]
    except KeyError:
        raise DomainError(
            f"unknown divergence {identifier!r}; known: {', '.join(NAMED_IDENTIFIERS)}"
        ) from None


# ---------------------------------------------------------------------------
# Factories.

@dataclass(frozen=True)
class FDivergenceSpec:
    """Convex generator for Sum_i q_i f(p_i / q_i); f(1) must be 0.

    Both callables must accept ndarray arguments elementwise.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BregmanSpec:
    """Differentiable strictly convex generator for the Bregman form
    Sum_i F(p_i) - F(q_i) - F'(q_i)(p_i - q_i)."""

    F: Callable[[np.ndarray], np.ndarray]
    F_prime: Callable[[np.ndarray], np.ndarray]


_CONVEXITY_GRID = np.logspace(np.log10(0.011), np.log10(95.0), 21)


def make_f_divergence(spec: FDivergenceSpec) -> DivergenceFunctional:
    """Build a right-convex functional from a convex generator.

    Raises SpecError if f(1) is not 0 within 1e-12 or midpoint convexity
    fails on a sampled grid.
    """
    f, fp = spec.f, spec.f_prime
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

    def mass_fn(p, q):
        return np.sum(q * f(p / q), axis=-1)

    return _f_functional("f_divergence", mass_fn, f, fp)


def make_bregman(spec: BregmanSpec) -> DivergenceFunctional:
    """Build a left-convex Bregman functional.

    The generator pair is screened with the gradient inequality
    F(x) >= F(y) + F'(y)(x - y) on a sampled grid; violations raise
    SpecError. Only the first argument has a derivative formula,
    Sum delta (F'(r) - F'(p)), so path_derivative needs the functional
    wrapped with swap_orientation.
    """
    F, Fp = spec.F, spec.F_prime
    x, y = np.meshgrid(_CONVEXITY_GRID, _CONVEXITY_GRID)
    fx, fy = F(x), F(y)
    slack = 1e-9 * (1.0 + np.abs(fx) + np.abs(fy))
    shortfall = fy + Fp(y) * (x - y) - fx
    if np.any(shortfall > slack):
        raise SpecError(
            "generator fails the gradient inequality on the sampled grid "
            f"by {float(shortfall.max()):.3e}"
        )

    def mass_fn(p, q):
        return np.sum(F(p) - F(q) - Fp(q) * (p - q), axis=-1)

    def deriv_moving_left(ends, s):
        p, delta, r = _path_parts(ends, s)
        return np.sum(delta * (Fp(r) - Fp(p)), axis=-1)

    return DivergenceFunctional(
        identifier="bregman",
        orientation=Orientation.LEFT_CONVEX,
        evaluator=mass_fn,
        analytic_path_derivative=None,
        mirror_path_derivative=deriv_moving_left,
    )


def swap_orientation(D: DivergenceFunctional) -> DivergenceFunctional:
    """The functional (P, Q) -> D(Q, P), with the orientation flipped."""
    flipped = (
        Orientation.LEFT_CONVEX
        if D.orientation is Orientation.RIGHT_CONVEX
        else Orientation.RIGHT_CONVEX
    )
    base = D.evaluator
    return DivergenceFunctional(
        identifier=f"swap({D.identifier})",
        orientation=flipped,
        evaluator=lambda first, second: base(second, first),
        analytic_path_derivative=D.mirror_path_derivative,
        mirror_path_derivative=D.analytic_path_derivative,
    )


def path_derivative(D: DivergenceFunctional, path: MixturePath, t):
    """d/dt of evaluator(start, R(t)) at a position t or along a 1-d grid,
    or on a stack of m paths at t of shape (m,) or (m, k).

    Returns a float for a scalar t and an array of t's shape otherwise; a
    grid call equals the scalar calls bitwise, and row i of a stacked call
    equals the call on path i. Raises DomainError if a position is outside
    [0, 1], t has the wrong shape, or D has no derivative in its second
    argument (an unswapped Bregman functional).
    """
    p, q, s, shape = _lift_path(path, t)
    if D.analytic_path_derivative is None:
        raise DomainError(
            f"divergence {D.identifier!r} has no derivative in its second "
            "argument; wrap it with swap_orientation first"
        )
    return _caller_form(np.asarray(D.analytic_path_derivative((p, q), s), dtype=float), shape)
