"""Seeded inputs for the four workloads.

This module imports numpy only, never divseq, so a change to the library
(its sampler included) cannot change what the benchmark feeds it. Mass
vectors follow the law of ``divseq.random_distribution``: normalized
exponential draws shifted into the simplex with a floor on every mass.

Operations come in cycles. Within a cycle the properties that set an
operation's cost (divergence, support size, order k, t stratum, input
class) follow a fixed balanced schedule; the seed draws everything else:
the masses, t within its stratum, and where tiny masses go. Sizes come
from a log-spaced ladder, t strata are equal, k and the classes are
balanced, so the laws the workloads state hold, but every cycle does about
the same work and a run's rates vary little from seed to seed. Stress and
the tiny-mass pairs of closed_forms ignore the seed, so the known failures
are the same in every run. A worker runs whole cycles. Input ``i``
depends only on (seed, workload, i), so the checker can regenerate exactly
the inputs that ran.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

DIVERGENCES = ("chi2", "kl", "jeffreys", "reverse_kl", "hellinger2")
SWEEP_DEPTH = 3
SWEEP_GRID = "0:1:101"
NEAR_ZERO_GRID = "0:0.001:101"
VERIFY_INSTANCES = 200
# Support sizes come from fixed ladders of eight log-spaced sizes, so the
# sizes, which set most of an operation's cost, are the same in every run.
SIZE_STRATA = 8


def _ladder(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(int(round(lo * (hi / lo) ** (m / (SIZE_STRATA - 1))))
                 for m in range(SIZE_STRATA))


SWEEP_SIZES = _ladder(2, 10_000)
# At 10^4 coordinates one sl(3) call takes 6 s in the per-coordinate loop,
# which a 20 s run could hold only a few of; the mechanism is the same at
# every size, so closed_forms stops at 10^3.
CLOSED_FORMS_SIZES = _ladder(10, 1_000)
CLOSED_FORMS_ORDERS = 4  # k in 0..3
# Pool pairs come in four variants per ladder size; variant 3 carries tiny
# masses, so a quarter of closed_forms calls see them. Successive cycles use
# fresh replicas of the pool, so a run's cost averages over many pairs.
CLOSED_FORMS_VARIANTS = 4
CLOSED_FORMS_REPLICAS = 8
# t strata of closed_forms: three equal ones on [0.05, 1], and the path's end
# R(1) = Q, where r_i/p_i -> 0 for a tiny q_i; digits are lost only there,
# and a uniform draw never reaches it.
CLOSED_FORMS_T_SLOTS = 4
STRESS_CLASSES = ("tiny_mass", "near_identical", "near_zero_t")
# A stress step is one pass down the size ladder, eight cycles of one call
# per class, in an order that starts from the second largest size; the
# side that carries the tiny masses alternates, P first. The first call
# then runs the 2962-point pair with tiny masses in P, whose iterated fit
# peaks within a few MB of the address-space cap, and the second tiny-mass
# call exits 3.
_STRESS_ORDER = (6, 0, 4, 2, 7, 1, 5, 3)
# Stress is a fixed suite: every seed runs the same calls. Whether a
# tiny-mass call exits 3 after 1.5 s, succeeds, or runs 9 s into the cap
# depends on its masses, and a run holds 24 calls, so seeded masses moved
# a run's figures by a third to a half from seed to seed.
_STRESS_SEED = 0

_WORKLOAD_IDS = {"verify": 1, "sweep": 2, "closed_forms": 3, "stress": 4}

CYCLE_OPS = {
    "sweep": SIZE_STRATA * len(DIVERGENCES),
    "closed_forms": SIZE_STRATA * CLOSED_FORMS_ORDERS * 2,
    "stress": len(STRESS_CLASSES) * SIZE_STRATA,
}


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_IDS[workload], index])


def floored_masses(rng: np.random.Generator, n: int, min_mass: float) -> np.ndarray:
    draws = rng.exponential(size=n)
    masses = min_mass + (1.0 - n * min_mass) * (draws / draws.sum())
    return masses / masses.sum()


def _regular_pair(rng, n: int):
    return floored_masses(rng, n, 0.01 / n), floored_masses(rng, n, 0.01 / n)


def with_tiny_masses(rng: np.random.Generator, masses: np.ndarray) -> np.ndarray:
    """Set 1-3 coordinates to masses log-uniform on [1e-12, 1e-9]."""
    n = masses.size
    count = int(rng.integers(1, min(3, n - 1) + 1))
    where = rng.choice(n, size=count, replace=False)
    tiny = np.exp(rng.uniform(math.log(1e-12), math.log(1e-9), size=count))
    out = masses.copy()
    rest = np.ones(n, dtype=bool)
    rest[where] = False
    out[rest] *= (1.0 - tiny.sum()) / out[rest].sum()
    out[where] = tiny
    return out


def _tiny_pair(rng, n: int, side: str):
    """A regular pair with 1-3 tiny masses on the given side, "p" or "q"."""
    p, q = _regular_pair(rng, n)
    if side == "p":
        return with_tiny_masses(rng, p), q
    return p, with_tiny_masses(rng, q)


def _near_identical_pair(rng, n: int):
    """Q = P with relative perturbations of size 1e-9 to 1e-6, renormalized."""
    p = floored_masses(rng, n, 0.01 / n)
    eps = math.exp(rng.uniform(math.log(1e-9), math.log(1e-6)))
    q = p * (1.0 + eps * rng.uniform(-1.0, 1.0, size=n))
    return p, q / q.sum()


def pair_json(p: np.ndarray, q: np.ndarray) -> str:
    return json.dumps({"p": p.tolist(), "q": q.tolist()})


@dataclass(frozen=True)
class SweepInput:
    """One CLI sweep call; ``kind`` names the input class."""

    div: str
    p: np.ndarray
    q: np.ndarray
    grid: str
    kind: str

    def argv(self) -> list[str]:
        return [
            "sweep", "--div", self.div, "--depth", str(SWEEP_DEPTH),
            "--t", self.grid, "--pair", pair_json(self.p, self.q),
        ]


def sweep_input(seed: int, i: int) -> SweepInput:
    """Each cycle runs every divergence on every ladder size."""
    rng = _rng(seed, "sweep", i)
    x = i % CYCLE_OPS["sweep"]
    n = SWEEP_SIZES[x // len(DIVERGENCES)]
    p, q = _regular_pair(rng, n)
    return SweepInput(DIVERGENCES[x % len(DIVERGENCES)], p, q, SWEEP_GRID, "regular")


def stress_input(seed: int, i: int) -> SweepInput:
    """Each cycle is one call of each class: tiny masses, near-identical
    pairs, t near 0; successive cycles step through divergences and sizes.
    The seed is not used (see _STRESS_SEED)."""
    rng = _rng(_STRESS_SEED, "stress", i)
    cycle, x = divmod(i, len(STRESS_CLASSES))
    kind = STRESS_CLASSES[x]
    div = DIVERGENCES[cycle % len(DIVERGENCES)]
    n = SWEEP_SIZES[_STRESS_ORDER[cycle % SIZE_STRATA]]
    if kind == "tiny_mass":
        p, q = _tiny_pair(rng, n, "pq"[cycle % 2])
    elif kind == "near_identical":
        p, q = _near_identical_pair(rng, n)
    else:
        p, q = _regular_pair(rng, n)
    grid = NEAR_ZERO_GRID if kind == "near_zero_t" else SWEEP_GRID
    return SweepInput(div, p, q, grid, kind)


def parse_grid(text: str) -> np.ndarray:
    start, stop, count = text.split(":")
    return np.linspace(float(start), float(stop), int(count))


CLOSED_FORMS_POOL = CLOSED_FORMS_REPLICAS * SIZE_STRATA * CLOSED_FORMS_VARIANTS
_POOL_STREAM = 10**9  # pool pairs draw from streams no call index reaches


# The tiny-mass pairs of closed_forms are a fixed set, the same for every
# seed, as stress is. Whether pl(1) or sl(2) at t = 1 misses its reference
# depends on the tiny masses, so with seeded ones the known failures of a
# run went from 2 to 3 between seeds; fixed, every run on any seed fails
# the same calls, and the seed draws the regular pairs and t.
_TINY_PAIR_SEED = 0


def closed_forms_pair(seed: int, j: int):
    """Pool pair j = (replica * SIZE_STRATA + stratum) * CLOSED_FORMS_VARIANTS
    + variant, with its class."""
    stratum, variant = divmod(j % (SIZE_STRATA * CLOSED_FORMS_VARIANTS), CLOSED_FORMS_VARIANTS)
    n = CLOSED_FORMS_SIZES[stratum]
    if variant == CLOSED_FORMS_VARIANTS - 1:
        rng = _rng(_TINY_PAIR_SEED, "closed_forms", _POOL_STREAM + j)
        p, q = _tiny_pair(rng, n, "pq"[j // CLOSED_FORMS_VARIANTS % 2])
        return p, q, "tiny_mass"
    rng = _rng(seed, "closed_forms", _POOL_STREAM + j)
    p, q = _regular_pair(rng, n)
    return p, q, "regular"


@dataclass(frozen=True)
class ClosedFormInput:
    family: str  # "pl" or "sl"
    k: int
    pair: int
    t: float


def closed_forms_input(seed: int, i: int) -> ClosedFormInput:
    """Each cycle runs pl and sl at every order on every ladder size; the
    pair variant and the t stratum rotate from call to call and cycle to
    cycle, so each cycle has a quarter of its calls on tiny-mass pairs and
    a quarter at t = 1."""
    cycle, x = divmod(i, CYCLE_OPS["closed_forms"])
    stratum, rest = divmod(x, CLOSED_FORMS_ORDERS * 2)
    k, f = divmod(rest, 2)
    variant = (cycle + k) % CLOSED_FORMS_VARIANTS
    # Each order pair (0, 1) and (2, 3) spreads its four calls on a size
    # over all four t strata, so every cycle costs about the same.
    slot = (cycle + stratum + 2 * k + f) % CLOSED_FORMS_T_SLOTS
    if slot == CLOSED_FORMS_T_SLOTS - 1:
        t = 1.0
    else:
        width = 0.95 / (CLOSED_FORMS_T_SLOTS - 1)
        t = 0.05 + width * (slot + float(_rng(seed, "closed_forms", i).uniform()))
    replica = cycle % CLOSED_FORMS_REPLICAS
    pair = (replica * SIZE_STRATA + stratum) * CLOSED_FORMS_VARIANTS + variant
    return ClosedFormInput("pl" if f == 0 else "sl", k, pair, t)


def verify_suite_seed(seed: int, j: int) -> int:
    """Seed of the j-th run_suite call of a verify run."""
    return int(np.random.SeedSequence([seed, _WORKLOAD_IDS["verify"], j]).generate_state(1)[0])
