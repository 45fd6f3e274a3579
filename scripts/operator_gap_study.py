"""Measure the sandwich gaps around each named divergence.

Along random mixture paths the differential operator dominates the
divergence and the integral operator sits below it.  This study samples
seeded pairs, records both gaps at a t-grid, and reports per-divergence
quantiles, which is a quick way to see how loose each bound runs in
practice (the inequalities themselves are covered by tests).

Usage:
    python3 scripts/operator_gap_study.py --pairs 50 > operator_gaps.csv

Output: CSV (divergence, gap_kind, min, median, p90, max) to stdout,
progress to stderr.
"""

import argparse
import sys

import numpy as np

from divseq.distributions import MixturePath, random_distribution
from divseq.divergences import NAMED_IDENTIFIERS, named_divergence
from divseq.operators import psi, psi_inverse

T_GRID = np.linspace(0.1, 1.0, 10)


def log(message: str) -> None:
    print(message, file=sys.stderr)


def quantile_row(name: str, kind: str, gaps: np.ndarray) -> str:
    levels = np.quantile(gaps, [0.0, 0.5, 0.9, 1.0])
    body = ",".join(f"{level:.6g}" for level in levels)
    return f"{name},{kind},{body}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--support", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    pairs = []
    for _ in range(args.pairs):
        pairs.append(
            (
                random_distribution(args.support, seed=int(rng.integers(2**31))),
                random_distribution(args.support, seed=int(rng.integers(2**31))),
            )
        )
    log(f"{args.pairs} pairs, support {args.support}, seed {args.seed}")

    print("divergence,gap_kind,min,median,p90,max")
    for identifier in NAMED_IDENTIFIERS:
        D = named_divergence(identifier)
        upper_gaps = []
        lower_gaps = []
        for start, end in pairs:
            path = MixturePath(start, end)
            direct = np.asarray(D.evaluator(start.masses, path.masses_at(T_GRID)))
            below = psi(D, path, T_GRID)
            above = psi_inverse(D, path, T_GRID)
            upper_gaps.extend(above - direct)
            lower_gaps.extend(direct - below)
        print(quantile_row(identifier, "derivative_above", np.asarray(upper_gaps)))
        print(quantile_row(identifier, "integral_below", np.asarray(lower_gaps)))
        log(f"{identifier}: done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
