"""Tabulate the polylogarithm divergence chains along a mixture path.

For a seeded random distribution pair, emits every closed-form chain value
pl(k) and sl(k) for k = 0..DEPTH at each grid position t, together with the
matched level from the iterated integral operator so the two routes can be
compared downstream.

Usage:
    python3 scripts/chain_table.py --seed 7 --support 6 > chain_table.csv

Output: CSV (t, family, k, closed_form, operator, gap) to stdout, summary
to stderr.
"""

import argparse
import sys

import numpy as np

from divseq.distributions import Distribution, MixturePath, random_distribution
from divseq.divergences import named_divergence
from divseq.operators import psi_iter
from divseq.sequences import _chain

DEPTH = 3
GRID_POINTS = 11

# Each closed-form family and the divergence whose iterated chain it is.
FAMILIES = {"pl": "chi2", "sl": "jeffreys"}


def log(message: str) -> None:
    print(message, file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--support", type=int, default=6)
    parser.add_argument("--depth", type=int, default=DEPTH)
    parser.add_argument("--points", type=int, default=GRID_POINTS)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    start = random_distribution(args.support, seed=int(rng.integers(2**31)))
    end = random_distribution(args.support, seed=int(rng.integers(2**31)))
    path = MixturePath(start, end)
    grid = np.linspace(0.0, 1.0, args.points)

    log(f"seed {args.seed}, support {args.support}, depth {args.depth}")
    log(f"start {np.array2string(start.masses, precision=4)}")
    log(f"end   {np.array2string(end.masses, precision=4)}")

    # Every grid mixture as one stack: each family's chain is one call, and
    # its stacked rows equal the single calls bitwise.
    probes = Distribution(path.masses_at(grid))
    starts = np.broadcast_to(start.masses, probes.masses.shape)
    print("t,family,k,closed_form,operator,gap")
    worst_gap = 0.0
    for family_name, divergence_id in FAMILIES.items():
        levels = psi_iter(named_divergence(divergence_id), args.depth, path, grid)
        chains = _chain(family_name, 0, args.depth, starts, probes)
        for column, t in enumerate(grid):
            for k in range(args.depth + 1):
                closed, operator = float(chains[k, column]), float(levels[k, column])
                gap = abs(closed - operator)
                worst_gap = max(worst_gap, gap)
                print(
                    f"{t:.15g},{family_name},{k},{closed:.15g},"
                    f"{operator:.15g},{gap:.3e}"
                )
    log(f"worst closed-form vs operator gap: {worst_gap:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
