"""Randomized property checks for the divergence operators.

Each check draws seeded random distribution pairs, evaluates one of the
structural guarantees the operators are supposed to satisfy (contraction
under the path integral, monotone iterated chains, domination by the scaled
path derivative, invariance under path reparametrization), and reports the
worst violation seen. Every check is a body run by one shared runner,
``_check``. The runner draws every instance first, in a fixed order, then
stacks the instances by support size; the body makes one call per operator
for each stack, so the checked numbers are the public operators' values on
stacked paths. A ToleranceError, a NonFiniteError or a NaN becomes an
infinite violation. ``run_suite`` bundles the checks over a fixed roster
of divergences into a single deterministic report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .distributions import Distribution, MixturePath, mixture, new_distribution
from .distributions import _random_masses
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
from .errors import NonFiniteError, ToleranceError, require_index
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

# Divergences whose iterated chains have closed forms to compare against:
# level k is sequence(k + shift). psi[chi2] = kl and psi[jeffreys] =
# reverse kl, so the kl and reverse-kl (swap(kl)) chains are the chi2 and
# jeffreys chains one level on. The sequences are named and resolved when
# a check runs, so a rebound pl or sl (a tracing or counting wrapper) is
# the one called.
_CLOSED_FORMS = {
    "chi2": ("pl", 0),
    "jeffreys": ("sl", 0),
    "kl": ("pl", 1),
    "swap(kl)": ("sl", 1),
}


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
    draw: Callable[[np.random.Generator, int], tuple],
    violations: Callable[..., np.ndarray],
) -> PropertyCheck:
    """Run a check body on seeded random pairs and report its worst value.

    Each instance draws a support size and two distributions on it, then
    calls draw(rng, n) for the body's own draws, returned as a tuple. Once
    every instance is drawn, the instances are stacked by support size
    (and by the shapes of their draws), and violations(path, separated,
    *draws) takes one such stack: a stacked path, a flag per path saying
    whether its endpoints are far enough apart in total variation for
    strict inequalities, and each draw stacked along a leading axis. It
    returns each instance's worst violation. A ToleranceError or a
    NonFiniteError anywhere, or a NaN violation, makes the check's
    violation infinite.
    """
    rng = np.random.default_rng(seed)
    stacks: dict[tuple, list] = {}
    for _ in range(instances):
        n = int(rng.integers(2, 11))
        start, end = _draw(rng, n), _draw(rng, n)
        extras = draw(rng, n)
        key = (n,) + tuple(np.shape(x) for x in extras)
        stacks.setdefault(key, []).append((start, end) + extras)
    worst = 0.0
    try:
        for members in stacks.values():
            start, end, *extras = (np.array(column) for column in zip(*members))
            path = MixturePath(Distribution(start), Distribution(end))
            separated = 0.5 * np.sum(np.abs(end - start), axis=-1) > _SEPARATION_TV
            worst = max(worst, float(np.max(_worst(violations(path, separated, *extras)))))
    except (ToleranceError, NonFiniteError):
        worst = math.inf
    name = f"{kind}[{D.identifier}]"
    return PropertyCheck(name, anchor, instances, worst, tolerance, worst <= tolerance)


def _worst(*violations) -> np.ndarray:
    """Elementwise maximum of the violations, infinite wherever one is NaN
    (Python's max can drop a NaN; this never does)."""
    worst = np.maximum.reduce(np.broadcast_arrays(*violations))
    return np.where(np.isnan(worst), math.inf, worst)


def _draw(rng: np.random.Generator, n: int) -> np.ndarray:
    """The masses random_distribution(n, seed, _MIN_MASS) would hold, for a
    seed drawn from rng; the stack they join is validated as a whole."""
    seed = int(rng.integers(2**31))
    return _random_masses(np.random.default_rng(seed), n, _MIN_MASS)


def _t_points(rng: np.random.Generator) -> np.ndarray:
    extra = rng.uniform(0.0, 1.0, size=2)
    return np.unique(np.concatenate([_FIXED_GRID, extra]))


def _strict_increase_violation(values: np.ndarray, separated: np.ndarray) -> np.ndarray:
    """Per row of values (m, k): how far the row falls short of strict
    growth by _STRICT_MARGIN, or 0 where its path is not separated."""
    if values.shape[-1] < 2:
        return np.zeros(values.shape[:-1])
    smallest_step = np.min(np.diff(values, axis=-1), axis=-1)
    return np.where(separated, _worst(0.0, _STRICT_MARGIN - smallest_step), 0.0)


def _paths(starts: list, ends: list) -> MixturePath:
    """The stacked paths from the rows of the starts to those of the ends."""
    return MixturePath(Distribution(np.concatenate(starts)), Distribution(np.concatenate(ends)))


def check_integral_contraction(
    D: DivergenceFunctional, instances: int, seed: int
) -> PropertyCheck:
    """Check psi[D] <= D, psi[D] >= 0, strict growth, and convexity of psi.

    Convexity is probed in the second argument: for a shared start point and a
    random mixture of two end points, psi at the mixed end must not exceed the
    mixture of the two psi values.
    """

    def draw(rng, n):
        return _t_points(rng), _draw(rng, n), float(rng.uniform(0.05, 0.95))

    def violations(path, separated, ts, other, lam):
        start, end = path.start.masses, path.end.masses
        mix = lam[:, None]
        mixed = new_distribution(mix * end + (1.0 - mix) * other).masses
        # One psi call: the profile along each path, and psi at 1 toward the
        # other and the mixed end point, whose positions are 0 (an exact
        # zero that costs nothing) but for the last.
        at_one = np.zeros_like(ts)
        at_one[:, -1] = 1.0
        values = psi(
            D,
            _paths([start] * 3, [end, other, mixed]),
            np.concatenate([ts, at_one, at_one]),
        )
        profile, at_other, at_mixed = np.split(values, 3)
        direct = D.evaluator(start[:, None], path.masses_at(ts))
        return _worst(
            np.max(profile - direct, axis=-1),
            np.max(-profile, axis=-1),
            _strict_increase_violation(profile, separated),
            at_mixed[:, -1] - (lam * profile[:, -1] + (1.0 - lam) * at_other[:, -1]),
        )

    return _check(
        "integral_contraction",
        "0 <= psi[D](t) <= D(start, mix(t)) along mixture paths, strictly "
        "increasing in t for separated endpoints, and convex in the end point",
        _CONTRACTION_TOL, D, instances, seed, draw, violations,
    )


def check_iterated_chain(
    D: DivergenceFunctional, depth: int, instances: int, seed: int
) -> PropertyCheck:
    """Check that iterated averaging produces a nonincreasing chain of levels.

    Every level must stay nonnegative and strictly increasing in t, and each
    application of the operator must not increase the value at any t. For
    the divergences in _CLOSED_FORMS the levels are also compared against
    their closed-form polylogarithm expressions.
    """
    depth = require_index(depth, "depth")
    closed_form = _CLOSED_FORMS.get(D.identifier)

    def draw(rng, n):
        ts = _t_points(rng)
        if closed_form is None:
            return (ts,)
        return ts, int(rng.integers(1, ts.size))

    def violations(path, separated, ts, probe_index=None):
        levels = psi_iter(D, depth, path, ts)
        worst = _worst(
            np.max(-levels, axis=(0, 2)),
            np.diff(levels, axis=0).max(axis=(0, 2), initial=0.0),
            *(_strict_increase_violation(row, separated) for row in levels),
        )
        if closed_form is not None:
            name, shift = closed_form
            sequence = pl if name == "pl" else sl
            at = np.arange(len(ts))
            probe = mixture(path, ts[at, probe_index])
            for k in range(depth + 1):
                expected = sequence(k + shift, path.start, probe)
                worst = _worst(worst, np.abs(levels[k, at, probe_index] - expected))
        return worst

    return _check(
        "iterated_chain",
        "repeated application of psi yields nonnegative levels that are "
        "nonincreasing in the level index and strictly increasing in t; "
        "chi2, kl, jeffreys and swap(kl) levels match their closed-form "
        "sequences",
        _CHAIN_TOL, D, instances, seed, draw, violations,
    )


def check_derivative_dominates(
    D: DivergenceFunctional, instances: int, seed: int
) -> PropertyCheck:
    """Check psi_inverse[D] >= D pointwise, with both strictly increasing."""

    def draw(rng, n):
        return (_t_points(rng),)

    def violations(path, separated, ts):
        upper = psi_inverse(D, path, ts)
        direct = D.evaluator(path.start.masses[:, None], path.masses_at(ts))
        return _worst(
            np.max(direct - upper, axis=-1),
            _strict_increase_violation(upper, separated),
            _strict_increase_violation(direct, separated),
        )

    return _check(
        "derivative_dominates",
        "psi_inverse[D](t) >= D(start, mix(t)) along mixture paths, with "
        "both sides strictly increasing in t for separated endpoints",
        _DOMINATES_TOL, D, instances, seed, draw, violations,
    )


def check_path_invariance(
    D: DivergenceFunctional, instances: int, seed: int
) -> PropertyCheck:
    """Check that truncating a path and rescaling to [0, 1] changes nothing.

    Both psi and psi_inverse evaluated at t on the full path must agree with
    their values at 1 on the shortened path that ends at the mixture point.
    """

    def draw(rng, n):
        return (float(rng.uniform(0.05, 1.0)),)

    def violations(path, separated, t_star):
        # Each operator takes the full paths at t* and their truncations at
        # 1 in one call.
        start = path.start.masses
        both = _paths([start, start], [path.end.masses, mixture(path, t_star).masses])
        t = np.concatenate([t_star, np.ones_like(t_star)])
        full, shortened = np.split(psi(D, both, t), 2)
        upper_full, upper_shortened = np.split(psi_inverse(D, both, t), 2)
        return _worst(np.abs(full - shortened), np.abs(upper_full - upper_shortened))

    return _check(
        "path_invariance",
        "psi and psi_inverse at time t on a path equal their values at "
        "time 1 on the truncated path ending at the mixture point",
        _INVARIANCE_TOL, D, instances, seed, draw, violations,
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
