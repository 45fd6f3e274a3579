"""Randomized property checks for the divergence operators.

Each check draws seeded random distribution pairs, evaluates one of the
structural guarantees the operators are supposed to satisfy (contraction
under the path integral, monotone iterated chains, domination by the scaled
path derivative, invariance under path reparametrization), and reports the
worst violation seen. Every check is a body run by one shared runner,
``_check``, which draws the pairs and turns a ToleranceError or a NaN
into an infinite violation; the bodies evaluate each path's t points in
one grid call. ``run_suite`` bundles the checks over a fixed roster of divergences
into a single deterministic report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .distributions import Distribution, MixturePath, mixture, new_distribution
from .distributions import random_distribution
from .divergences import (
    BregmanSpec,
    DivergenceFunctional,
    FDivergenceSpec,
    Orientation,
    make_bregman,
    make_f_divergence,
    named_divergence,
    swap_orientation,
)
from .errors import ToleranceError, require_index
from .operators import psi, psi_inverse, psi_iter
from .sequences import pl, sl

__all__ = [
    "PropertyCheck",
    "VerificationReport",
    "check_derivative_dominates",
    "check_integral_contraction",
    "check_iterated_chain",
    "check_path_invariance",
    "run_suite",
]

_CONTRACTION_TOL = 1e-9
_CHAIN_TOL = 1e-6
_DOMINATES_TOL = 1e-9
_INVARIANCE_TOL = 1e-8

# Strict inequalities are only meaningful when the endpoints are genuinely
# distinct, so they are enforced with a small margin and only for pairs whose
# total variation distance clears a separation threshold.
_STRICT_MARGIN = 1e-12
_SEPARATION_TV = 0.01

_MIN_MASS = 0.01
_FIXED_GRID = np.linspace(0.0, 1.0, 11)

# Divergences whose iterated chains have closed forms to compare against.
_CLOSED_FORMS = {"chi2": pl, "jeffreys": sl}


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one property check on one divergence."""

    name: str
    paper_anchor: str
    instances: int
    worst_violation: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of all property checks from one suite run."""

    seed: int
    checks: tuple[PropertyCheck, ...]
    all_passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _check(
    kind: str,
    anchor: str,
    tolerance: float,
    D: DivergenceFunctional,
    instances: int,
    seed: int,
    violation: Callable[[np.random.Generator, MixturePath, bool], float],
) -> PropertyCheck:
    """Run a check body on seeded random pairs and report its worst value.

    Each instance draws a support size and two distributions on it, then
    calls violation(rng, path, separated): the body draws anything else it
    needs from rng and returns its worst violation on that path. separated
    says whether the endpoints are far enough apart in total variation for
    strict inequalities. A ToleranceError anywhere, or a NaN violation,
    makes the check's violation infinite.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    try:
        for _ in range(instances):
            n = int(rng.integers(2, 11))
            start, end = _draw(rng, n), _draw(rng, n)
            tv = 0.5 * float(np.sum(np.abs(end.masses - start.masses)))
            separated = tv > _SEPARATION_TV
            worst = _worst(worst, violation(rng, MixturePath(start, end), separated))
    except ToleranceError:
        worst = math.inf
    name = f"{kind}[{D.identifier}]"
    return PropertyCheck(name, anchor, instances, worst, tolerance, worst <= tolerance)


def _worst(*violations: float) -> float:
    """max(violations), but infinite if any is NaN, which max can drop."""
    return math.inf if any(map(math.isnan, violations)) else max(violations)


def _draw(rng: np.random.Generator, n: int) -> Distribution:
    return random_distribution(n, seed=int(rng.integers(2**31)), min_mass=_MIN_MASS)


def _t_points(rng: np.random.Generator) -> np.ndarray:
    extra = rng.uniform(0.0, 1.0, size=2)
    return np.unique(np.concatenate([_FIXED_GRID, extra]))


def _strict_increase_violation(values: np.ndarray, separated: bool) -> float:
    if not separated or values.size < 2:
        return 0.0
    smallest_step = float(np.min(np.diff(values)))
    return _worst(0.0, _STRICT_MARGIN - smallest_step)


def check_integral_contraction(
    D: DivergenceFunctional, instances: int, seed: int
) -> PropertyCheck:
    """Check psi[D] <= D, psi[D] >= 0, strict growth, and convexity of psi.

    Convexity is probed in the second argument: for a shared start point and a
    random mixture of two end points, psi at the mixed end must not exceed the
    mixture of the two psi values.
    """

    def violation(rng, path, separated):
        start, end = path.start, path.end
        ts = _t_points(rng)
        profile = psi(D, path, ts)
        direct = D.evaluator(start.masses, path.masses_at(ts))
        other = _draw(rng, start.masses.size)
        lam = float(rng.uniform(0.05, 0.95))
        mixed = new_distribution(lam * end.masses + (1.0 - lam) * other.masses)
        at_other = psi(D, MixturePath(start, other), 1.0).value
        at_mixed = psi(D, MixturePath(start, mixed), 1.0).value
        return _worst(
            float(np.max(profile - direct)),
            float(np.max(-profile)),
            _strict_increase_violation(profile, separated),
            at_mixed - (lam * profile[-1] + (1.0 - lam) * at_other),
        )

    return _check(
        "integral_contraction",
        "0 <= psi[D](t) <= D(start, mix(t)) along mixture paths, strictly "
        "increasing in t for separated endpoints, and convex in the end point",
        _CONTRACTION_TOL, D, instances, seed, violation,
    )


def check_iterated_chain(
    D: DivergenceFunctional, depth: int, instances: int, seed: int
) -> PropertyCheck:
    """Check that iterated averaging produces a nonincreasing chain of levels.

    Every level must stay nonnegative and strictly increasing in t, and each
    application of the operator must not increase the value at any t.  For the
    chi-square and Jeffreys divergences the levels are also compared against
    their closed-form polylogarithm expressions.
    """
    depth = require_index(depth, "depth")
    closed_form = _CLOSED_FORMS.get(D.identifier)

    def violation(rng, path, separated):
        ts = _t_points(rng)
        levels = psi_iter(D, depth, path, ts)
        worst = _worst(
            float(np.max(-levels)),
            float(np.diff(levels, axis=0).max(initial=0.0)),
            *(_strict_increase_violation(row, separated) for row in levels),
        )
        if closed_form is not None:
            idx = int(rng.integers(1, ts.size))
            probe = mixture(path, float(ts[idx]))
            for k in range(depth + 1):
                expected = closed_form(k, path.start, probe)
                worst = _worst(worst, abs(float(levels[k, idx]) - expected))
        return worst

    return _check(
        "iterated_chain",
        "repeated application of psi yields nonnegative levels that are "
        "nonincreasing in the level index and strictly increasing in t; "
        "chi2 and jeffreys levels match their closed-form sequences",
        _CHAIN_TOL, D, instances, seed, violation,
    )


def check_derivative_dominates(
    D: DivergenceFunctional, instances: int, seed: int
) -> PropertyCheck:
    """Check psi_inverse[D] >= D pointwise, with both strictly increasing."""

    def violation(rng, path, separated):
        ts = _t_points(rng)
        upper = psi_inverse(D, path, ts)
        direct = D.evaluator(path.start.masses, path.masses_at(ts))
        return _worst(
            float(np.max(direct - upper)),
            _strict_increase_violation(upper, separated),
            _strict_increase_violation(direct, separated),
        )

    return _check(
        "derivative_dominates",
        "psi_inverse[D](t) >= D(start, mix(t)) along mixture paths, with "
        "both sides strictly increasing in t for separated endpoints",
        _DOMINATES_TOL, D, instances, seed, violation,
    )


def check_path_invariance(
    D: DivergenceFunctional, instances: int, seed: int
) -> PropertyCheck:
    """Check that truncating a path and rescaling to [0, 1] changes nothing.

    Both psi and psi_inverse evaluated at t on the full path must agree with
    their values at 1 on the shortened path that ends at the mixture point.
    """

    def violation(rng, path, separated):
        t_star = float(rng.uniform(0.05, 1.0))
        shortened = MixturePath(path.start, mixture(path, t_star))
        return _worst(
            abs(psi(D, path, t_star).value - psi(D, shortened, 1.0).value),
            abs(psi_inverse(D, path, t_star) - psi_inverse(D, shortened, 1.0)),
        )

    return _check(
        "path_invariance",
        "psi and psi_inverse at time t on a path equal their values at "
        "time 1 on the truncated path ending at the mixture point",
        _INVARIANCE_TOL, D, instances, seed, violation,
    )


def _triangular_discrimination() -> DivergenceFunctional:
    spec = FDivergenceSpec(
        f=lambda u: (u - 1.0) ** 2 / (u + 1.0),
        f_prime=lambda u: (u - 1.0) * (u + 3.0) / (u + 1.0) ** 2,
    )
    return make_f_divergence(spec)


def _suite_divergences() -> tuple[DivergenceFunctional, ...]:
    left_kl = replace(named_divergence("kl"), orientation=Orientation.LEFT_CONVEX)
    squared_norm = BregmanSpec(F=lambda x: x * x, F_prime=lambda x: 2.0 * x)
    return (
        named_divergence("chi2"),
        named_divergence("kl"),
        named_divergence("jeffreys"),
        named_divergence("hellinger2"),
        swap_orientation(left_kl),
        _triangular_discrimination(),
        swap_orientation(make_bregman(squared_norm)),
    )


def run_suite(seed: int, instances: int) -> VerificationReport:
    """Run every check against a fixed roster of divergences.

    The roster covers the named divergences, a swapped left-convex variant,
    a generic f-divergence, and a swapped Bregman divergence.  Per-check seeds
    are derived from ``seed`` so the report is reproducible bit for bit.
    """
    instances = require_index(instances, "instances", minimum=1)
    checks: list[PropertyCheck] = []
    for d_index, D in enumerate(_suite_divergences()):
        runners = (
            lambda s: check_integral_contraction(D, instances, s),
            lambda s: check_iterated_chain(D, 3, instances, s),
            lambda s: check_derivative_dominates(D, instances, s),
            lambda s: check_path_invariance(D, instances, s),
        )
        for c_index, runner in enumerate(runners):
            child = np.random.SeedSequence(seed, spawn_key=(d_index, c_index))
            checks.append(runner(int(child.generate_state(1)[0])))
    all_passed = all(check.passed for check in checks)
    return VerificationReport(seed=seed, checks=tuple(checks), all_passed=all_passed)
