"""End-to-end acceptance checks at desk scale.

Each test covers one acceptance criterion, prints exactly one pass/fail
line (visible with pytest -s or in the captured output of a failure), and
asserts on the same condition.  Tolerances are fixed here on purpose; they
are the published bar, not knobs.
"""

import json
import subprocess
import sys
import time

import numpy as np

from divseq.distributions import MixturePath, mixture, new_distribution, random_distribution
from divseq.divergences import evaluate, named_divergence
from divseq.operators import psi, psi_inverse, psi_iter
from divseq.polylog import polylog, polylog_series
from divseq.sequences import hellinger_psi, hellinger_psi_inverse, pl, sl
from operator_oracles import psi_roundtrip
from polylog_oracles import polylog_integral, polylog_recurrence_check


def _report(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _instances(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 11))
        P = random_distribution(n, seed=int(rng.integers(2**31)), min_mass=0.01)
        Q = random_distribution(n, seed=int(rng.integers(2**31)), min_mass=0.01)
        t = float(rng.uniform())
        yield P, Q, t


def test_criterion_1_integral_of_chi2_recovers_kl():
    chi2 = named_divergence("chi2")
    kl = named_divergence("kl")
    started = time.perf_counter()
    worst = 0.0
    for P, Q, t in _instances(101, 200):
        path = MixturePath(P, Q)
        numeric = psi(chi2, path, t).value
        closed = evaluate(kl, P, mixture(path, t))
        worst = max(worst, abs(numeric - closed))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 10.0
    line = _report(1, ok, f"worst gap {worst:.3e}, {elapsed:.2f} s for 200 instances")
    assert ok, line


def test_criterion_2_integral_of_jeffreys_recovers_shifted_form():
    jeffreys = named_divergence("jeffreys")
    worst = 0.0
    for P, Q, t in _instances(101, 200):
        path = MixturePath(P, Q)
        probe = mixture(path, t)
        numeric = psi(jeffreys, path, t).value
        closed = evaluate(jeffreys, P, probe) - pl(1, P, probe)
        worst = max(worst, abs(numeric - closed))
    ok = worst < 1e-6
    line = _report(2, ok, f"worst gap {worst:.3e} over 200 instances")
    assert ok, line


def test_criterion_3_sequence_chains_are_monotone_and_match_operator():
    rng = np.random.default_rng(103)
    chain_worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        P = random_distribution(n, seed=int(rng.integers(2**31)), min_mass=0.01)
        Q = random_distribution(n, seed=int(rng.integers(2**31)), min_mass=0.01)
        for family in (pl, sl):
            chain = np.array([family(k, P, Q) for k in range(5)])
            chain_worst = max(chain_worst, float(np.max(np.diff(chain))))
            chain_worst = max(chain_worst, -float(chain[-1]))

    chi2 = named_divergence("chi2")
    jeffreys = named_divergence("jeffreys")
    operator_worst = 0.0
    for P, Q, t in _instances(113, 20):
        path = MixturePath(P, Q)
        probe = mixture(path, t)
        grid = np.array([t])
        chi_levels = psi_iter(chi2, 3, path, grid)
        jef_levels = psi_iter(jeffreys, 3, path, grid)
        for k in range(4):
            operator_worst = max(
                operator_worst, abs(float(chi_levels[k, 0]) - pl(k, P, probe))
            )
            operator_worst = max(
                operator_worst, abs(float(jef_levels[k, 0]) - sl(k, P, probe))
            )
    ok = chain_worst < 1e-9 and operator_worst < 1e-6
    line = _report(
        3,
        ok,
        f"chain violation {chain_worst:.3e} over 500 pairs, "
        f"operator gap {operator_worst:.3e} over 20 instances",
    )
    assert ok, line


def test_criterion_4_operator_sandwich_and_hellinger_closed_forms():
    divergences = [named_divergence(i) for i in ("chi2", "kl", "hellinger2", "jeffreys")]
    hellinger2 = named_divergence("hellinger2")
    sandwich_worst = 0.0
    closed_worst = 0.0
    for P, Q, t in _instances(104, 200):
        path = MixturePath(P, Q)
        probe = mixture(path, t)
        for D in divergences:
            lower = psi(D, path, t).value
            upper = psi_inverse(D, path, t)
            middle = evaluate(D, P, probe)
            sandwich_worst = max(
                sandwich_worst, middle - upper, lower - middle, -lower
            )
        closed_worst = max(
            closed_worst,
            abs(psi(hellinger2, path, t).value - hellinger_psi(P, Q, t)),
            abs(psi_inverse(hellinger2, path, t) - hellinger_psi_inverse(P, Q, t)),
        )
    ok = sandwich_worst < 1e-9 and closed_worst < 1e-6
    line = _report(
        4,
        ok,
        f"sandwich violation {sandwich_worst:.3e}, "
        f"hellinger closed-form gap {closed_worst:.3e} over 200 instances",
    )
    assert ok, line


def test_criterion_5_path_reparametrization_invariance():
    divergences = [named_divergence(i) for i in ("chi2", "kl", "hellinger2", "jeffreys")]
    worst = 0.0
    for index, (P, Q, t) in enumerate(_instances(105, 100)):
        D = divergences[index % len(divergences)]
        t = 0.05 + 0.95 * t
        path = MixturePath(P, Q)
        shortened = MixturePath(P, mixture(path, t))
        worst = max(worst, abs(psi(D, path, t).value - psi(D, shortened, 1.0).value))
        worst = max(
            worst, abs(psi_inverse(D, path, t) - psi_inverse(D, shortened, 1.0))
        )
    ok = worst < 1e-8
    line = _report(5, ok, f"worst gap {worst:.3e} over 100 instances")
    assert ok, line


def test_criterion_6_operators_invert_each_other():
    divergences = [named_divergence(i) for i in ("chi2", "kl", "hellinger2", "jeffreys")]
    worst = 0.0
    for index, (P, Q, t) in enumerate(_instances(106, 100)):
        D = divergences[index % len(divergences)]
        t = 0.05 + 0.95 * t
        path = MixturePath(P, Q)
        direct = evaluate(D, P, mixture(path, t))
        differentiated, integrated = psi_roundtrip(D, path, t)
        worst = max(worst, abs(differentiated - direct), abs(integrated - direct))
    ok = worst < 1e-6
    line = _report(6, ok, f"worst roundtrip gap {worst:.3e} over 100 instances")
    assert ok, line


def test_criterion_7_polylog_strategies_and_spot_values():
    strategy_worst = 0.0
    for k in (2, 3, 4):
        for z in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
            strategy_worst = max(
                strategy_worst, abs(polylog_series(k, z) - polylog_integral(k, z))
            )
    recurrence_worst = 0.0
    for k in (1, 2, 3):
        for z in (-3.0, -1.0, -0.5, 0.5, 0.9):
            recurrence_worst = max(
                recurrence_worst, abs(polylog(k + 1, z) - polylog_recurrence_check(k, z))
            )
    spot_worst = max(
        abs(polylog(1, 0.5) - np.log(2.0)),
        abs(polylog(2, 0.5) - 0.5822405264650125),
        abs(polylog(2, -0.5) - -0.4484142069236462),
    )
    ok = strategy_worst < 1e-9 and recurrence_worst < 1e-8 and spot_worst < 1e-9
    line = _report(
        7,
        ok,
        f"series/integral {strategy_worst:.3e}, recurrence {recurrence_worst:.3e}, "
        f"spot values {spot_worst:.3e}",
    )
    assert ok, line


def test_criterion_8_integral_operator_preserves_convexity():
    rng = np.random.default_rng(108)
    worst_slack = np.inf
    for identifier in ("kl", "reverse_kl", "chi2", "jeffreys", "hellinger2"):
        D = named_divergence(identifier)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            P = random_distribution(n, seed=int(rng.integers(2**31)), min_mass=0.01)
            Q1 = random_distribution(n, seed=int(rng.integers(2**31)), min_mass=0.01)
            Q2 = random_distribution(n, seed=int(rng.integers(2**31)), min_mass=0.01)
            lam = float(rng.uniform())
            mixed = new_distribution(lam * Q1.masses + (1.0 - lam) * Q2.masses)
            combined = lam * psi(D, MixturePath(P, Q1), 1.0).value
            combined += (1.0 - lam) * psi(D, MixturePath(P, Q2), 1.0).value
            slack = combined - psi(D, MixturePath(P, mixed), 1.0).value
            worst_slack = min(worst_slack, slack)
    ok = worst_slack >= -1e-9
    line = _report(
        8, ok, f"smallest convexity slack {worst_slack:.3e} over 200 triples x 5"
    )
    assert ok, line


def test_criterion_9_verification_suite_via_cli():
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "divseq.cli",
            "verify",
            "--seed",
            "42",
            "--instances",
            "200",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - started
    payload = json.loads(proc.stdout) if proc.stdout.strip() else {}
    ok = (
        proc.returncode == 0
        and elapsed < 60.0
        and payload.get("all_passed") is True
        and len(payload.get("checks", [])) == 28
    )
    line = _report(
        9, ok, f"exit {proc.returncode}, {elapsed:.1f} s, 28 checks, seed 42 x 200"
    )
    assert ok, line
