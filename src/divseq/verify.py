"""Randomized property checks for the divergence operators.

Each check draws seeded random distribution pairs, evaluates one of the
structural guarantees the operators are supposed to satisfy (contraction
under the path integral, monotone iterated chains, domination by the scaled
path derivative, invariance under path reparametrization), and reports the
worst violation seen. Every check is a body run by one shared runner,
``_check``. The runner draws every instance's support size, then, one
support size at a time, the masses and the body's draws of all its
instances as arrays with a leading instance axis. It pads every mass row
to the largest drawn size with null outcomes, one tiny mass on both
endpoints, and stacks all sizes into one stack, so the body makes one call
per operator for the whole check. Each roster functional is a sum of
per-outcome terms that vanish where the two masses agree, so a null
outcome adds nothing, and the checked numbers are the public operators'
values on stacked paths, up to the order of their sums. A ToleranceError,
a NonFiniteError or a NaN becomes an infinite violation. ``run_suite``
bundles the checks over a fixed roster of divergences into a single
deterministic report.
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
from .sequences import _chain

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
# A null outcome's mass, on both endpoints of a padded path. An f-divergence
# term p phi(q/p) vanishes where q = p (phi(1) = 0), and so does a Bregman
# term F(q) - F(p) - F'(p)(q - p); psi's kernel skips such outcomes, and
# psi_iter's fit bins them as easy. So padding changes no value but the
# order of its sums, and elsewhere (a mixed end point that rounds, a
# complex step) a null outcome adds about _NULL_MASS * eps. A power of two
# scales exactly; the up to 8 null outcomes of a row sum to far below half
# an ulp of 1, so every row still sums to 1, and every mixture of it is a
# normal float.
_NULL_MASS = 2.0**-1000
_FIXED_GRID = np.linspace(0.0, 1.0, 11)

# Divergences whose iterated chains have closed forms to compare against:
# level k is sequence(k + shift). psi[chi2] = kl and psi[jeffreys] =
# reverse kl, so the kl and reverse-kl (swap(kl)) chains are the chi2 and
# jeffreys chains one level on.
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
    draw: Callable[[np.random.Generator, int, int], tuple],
    violations: Callable[..., np.ndarray],
    mass_rows: int = 0,
) -> PropertyCheck:
    """Run a check body on seeded random pairs and report its worst value.

    The check's generator draws the support size of every instance first.
    Then, for each support size n in ascending order, it draws the start
    and the end masses of that size's count instances as two (count, n)
    arrays, and draw(rng, count, n) makes the body's own draws for all of
    them: a tuple of arrays with a leading axis of length count, the first
    ``mass_rows`` of them mass rows (count, n). So every instance is drawn
    as it would be in a stack of its own size. The sizes then make one
    stack: the endpoints and the body's mass rows are padded to the
    largest drawn size with null outcomes (_NULL_MASS on both endpoints,
    which adds a zero term to every roster functional), and the sizes'
    rows are concatenated in ascending order. violations(path, separated,
    *draws) takes that stack: the stacked paths, a flag per path (taken
    before padding) saying whether its endpoints are far enough apart in
    total variation for strict inequalities, and the body's draws. It
    returns each instance's worst violation, so a check calls each
    operator once. A ToleranceError or a NonFiniteError anywhere, or a NaN
    violation, makes the check's violation infinite.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 11, size=instances)
    width = int(sizes.max())
    stacks = []
    for n, count in zip(*np.unique(sizes, return_counts=True)):
        start, end = (_random_masses(rng, (count, n), _MIN_MASS) for _ in range(2))
        extras = draw(rng, count, n)
        separated = 0.5 * np.sum(np.abs(end - start), axis=-1) > _SEPARATION_TV
        rows = (start, end) + extras[:mass_rows]
        stacks.append((separated,) + tuple(_padded(x, width) for x in rows) + extras[mass_rows:])
    separated, start, end, *extras = (np.concatenate(parts) for parts in zip(*stacks))
    try:
        path = MixturePath(Distribution(start), Distribution(end))
        worst = float(np.max(_worst(violations(path, separated, *extras))))
    except (ToleranceError, NonFiniteError):
        worst = math.inf
    name = f"{kind}[{D.identifier}]"
    return PropertyCheck(name, anchor, instances, worst, tolerance, worst <= tolerance)


def _padded(masses: np.ndarray, width: int) -> np.ndarray:
    """Mass rows (count, n) with width - n null outcomes appended."""
    out = np.full((len(masses), width), _NULL_MASS)
    out[:, : masses.shape[1]] = masses
    return out


def _worst(*violations) -> np.ndarray:
    """Elementwise maximum of the violations, infinite wherever one is NaN
    (Python's max can drop a NaN; this never does)."""
    worst = np.maximum.reduce(np.broadcast_arrays(*violations))
    return np.where(np.isnan(worst), math.inf, worst)


def _t_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """count rows of positions: _FIXED_GRID and two uniform draws, sorted."""
    extra = rng.uniform(0.0, 1.0, size=(count, 2))
    return np.sort(np.hstack([np.tile(_FIXED_GRID, (count, 1)), extra]), axis=-1)


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

    def draw(rng, count, n):
        ts = _t_points(rng, count)
        other = _random_masses(rng, (count, n), _MIN_MASS)
        return other, ts, rng.uniform(0.05, 0.95, size=count)

    def violations(path, separated, other, ts, lam):
        start, end = path.start.masses, path.end.masses
        mix = lam[:, None]
        mixed = new_distribution(mix * end + (1.0 - mix) * other).masses
        # One psi call: the profile along each path, and psi at 1 toward the
        # other and the mixed end point, whose positions are 0 (an exact
        # zero, never formed) but for the last.
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
        _CONTRACTION_TOL, D, instances, seed, draw, violations, mass_rows=1,
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

    def draw(rng, count, n):
        ts = _t_points(rng, count)
        if closed_form is None:
            return (ts,)
        return ts, rng.integers(1, ts.shape[-1], size=count)

    def violations(path, separated, ts, probe_index=None):
        levels = psi_iter(D, depth, path, ts)
        worst = _worst(
            np.max(-levels, axis=(0, 2)),
            np.diff(levels, axis=0).max(axis=(0, 2), initial=0.0),
            *(_strict_increase_violation(row, separated) for row in levels),
        )
        if closed_form is not None:
            at = np.arange(len(ts))
            probe = mixture(path, ts[at, probe_index])
            expected = _chain(*closed_form, depth, path.start, probe)
            worst = _worst(worst, np.max(np.abs(levels[:, at, probe_index] - expected), axis=0))
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

    def draw(rng, count, n):
        return (_t_points(rng, count),)

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

    def draw(rng, count, n):
        return (rng.uniform(0.05, 1.0, size=count),)

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
    return make_f_divergence(FDivergenceSpec(f=lambda u: (u - 1.0) ** 2 / (u + 1.0)))


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
