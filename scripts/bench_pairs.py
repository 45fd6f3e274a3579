"""Run the benchmark on a parent checkout and on this one in alternating pairs.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
once from the root of each checkout, each side on its own src/ and
perfbench/, alternating which side runs first: the parent first in even
pairs, the change first in odd ones. The results go to a BENCH_<pr>.json
file: every run's end-to-end metrics, each side's median and quartiles,
the relative change of the median, in how many pairs the change read
better, in the direction BENCHMARK.json gives each metric, and whether the
claim rule holds; the same for each run's minor page faults, counted over
run.py and the workers it waits for; and each side's line count of
src/divseq/*.py. The claim rule: at least ten pairs, the change better in
at least nine tenths of them, and its median better than the parent's by
more than the distance between the parent's quartiles. A workload and
seed already in the file is replaced, the others kept, so one file can
gather several invocations. Nothing under perfbench/ is written.

Usage, from the root of a checkout, with the parent exported beside it:

    git archive <parent-commit> | tar -x -C ../parent
    python3 scripts/bench_pairs.py --parent ../parent --pr 36 \\
        --workload verify --seed 101 --pairs 10 --seconds 15

--runner replaces ``python3 perfbench/run.py`` (the tests use a stub); the
workload, seed, seconds and trace arguments are appended to it.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def log(message: str) -> None:
    print(message, file=sys.stderr)


def run_once(runner: list[str], tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run from the root of tree: its final JSON line, and as
    "minor_faults" the minor page faults of the run and of every process it
    waited for."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(runner + args, cwd=tree, capture_output=True, text=True, check=False)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark run in {tree} failed ({done.returncode}): {done.stderr[-500:]}")
    return {**json.loads(lines[-1]), "minor_faults": faults}


def src_lines(tree: Path) -> int:
    """Lines of the package's modules, src/divseq/*.py, in tree."""
    paths = sorted((tree / "src" / "divseq").glob("*.py"))
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in paths)


def summary(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles of each side, the median's relative change, the pairs in
    which the change read better (ties count for neither side) and whether
    the claim rule holds."""
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    q_parent, q_change = (np.percentile(side, [25, 50, 75]).tolist() for side in (parent, change))
    base, spread = q_parent[1], q_parent[2] - q_parent[0]
    gain = base - q_change[1] if better == "lower" else q_change[1] - base
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_q1_med_q3": q_parent,
        "change_q1_med_q3": q_change,
        "relative_change_of_median": (q_change[1] - base) / base if base else None,
        "change_better_in": f"{wins}/{len(parent)}",
        "parent_iqr": spread,
        "claim_rule_holds": len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gain > spread,
    }


def measure(runner, trees, workload: str, seed: int, pairs: int, seconds: int, directions) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(runner, trees[side], workload, seed, seconds))
        log(f"{workload}/{seed} pair {i + 1}/{pairs} done ({order[0]} first)")
    names = [name for name in runs["parent"][0]["metrics"] if name in directions]
    faults = ([run["minor_faults"] for run in runs[side]] for side in SIDES)
    return {
        "pairs": pairs,
        "order": "parent first in even pairs (0, 2, ...), change first in odd ones",
        "correct": {side: [run["correct"] for run in runs[side]] for side in SIDES},
        "attempted": {side: [run["attempted"] for run in runs[side]] for side in SIDES},
        "failed": {side: [run["failed"] for run in runs[side]] for side in SIDES},
        "metrics": {
            name: summary(
                *([run["metrics"][name]["value"] for run in runs[side]] for side in SIDES),
                directions[name],
            )
            for name in names
        },
        "minor_faults": summary(*faults, "lower"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="root of the changed checkout")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--runner", default=f"{shlex.quote(sys.executable)} perfbench/run.py")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json in the change's root")
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    out = args.out or trees["change"] / f"BENCH_{args.pr}.json"
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    report.setdefault("what", (
        f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0, "
        "on the parent and the change in alternating pairs (scripts/bench_pairs.py)"
    ))
    report.setdefault("host", f"{platform.machine()}, Python {platform.python_version()}")
    report["src_lines"] = {side: src_lines(trees[side]) for side in SIDES}
    workloads = report.setdefault("workloads", {})
    runner = shlex.split(args.runner)
    for workload in args.workload:
        for seed in args.seed:
            workloads[f"{workload}/{seed}"] = measure(
                runner, trees, workload, seed, args.pairs, args.seconds, directions
            )
            out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
