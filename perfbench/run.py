"""divseq benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: verify, sweep, closed_forms, stress (see README.md for why each
exists and which layers it exercises). With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it runs a fixed number of operations
twice, untraced and traced, and reports the per-layer metrics and the
tracing overhead. Every output is checked against an independent
reference. Human-readable lines start with '#'; the last line is the JSON
result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

WORKLOADS = tuple(worker.WORKLOADS)
# Set-up time is the median over at least this many fresh processes: every
# step worker, topped up with workers that only set up.
SETUP_SAMPLES = 7
# Latency percentiles are smoothed: the geometric mean of the sorted
# latencies whose rank lies within this many percentile points of the
# percentile. A run holds 24 (stress) to a few hundred operations in
# clusters by size and kind, and the plain sample median of stress moved by
# a quarter from run to run on one fixed suite; smoothed, by a sixth. The
# median falls where two equal clusters meet on verify (path_invariance
# and integral_contraction, 7 checks each per suite) and on closed_forms
# (k <= 1 and k >= 2), so p50 takes the middle half, which holds whole
# clusters, and the geometric mean, so that the top of a window spanning a
# decade does not set the figure.
PERCENTILE_WINDOWS = {50: 0.25, 90: 0.05}
# A run is made of whole cycles, and a traced run is one cycle, so two
# traced runs on one seed do identical work. A cycle is one step, except on
# stress, where each call is a step of its own (see end_to_end).
CYCLE_STEPS = {"stress": inputs.CYCLE_OPS["stress"]}
# Timed seconds of one cycle on the reference host. A timed run holds the
# whole number of cycles nearest to --seconds of them, at least one, so its
# work is fixed by --seconds and the seed alone: two runs on one seed make
# the same operations and fail the same ones, however fast the host runs.
# A run that stopped when its timed seconds reached --seconds made one
# cycle more or less from run to run, and on closed_forms, whose known
# failures fall in some cycles only, its failure rate moved with it.
CYCLE_REF_S = {"verify": 7.5, "sweep": 2.4, "closed_forms": 3.0, "stress": 28.0}
# A run must end within 180 s; workers are stopped at this many seconds
# after the run started.
RUN_DEADLINE_S = 170
# Timed seconds of the untraced and the traced run, and their difference.
TRACE_TIMES = ("trace.untraced_s", "trace.traced_s", "trace.overhead_s")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a measurement."""


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(src: Path, workload: str, seed: int, *, first=0, count=0, trace=0,
               deadline: float | None = None) -> dict:
    """Run a worker and return its JSON result; ``deadline`` is a
    time.monotonic() value by which it is stopped (default: RUN_DEADLINE_S)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--first", str(first), "--count", str(count),
        "--trace", str(trace), "--src", str(src),
    ]
    timeout = RUN_DEADLINE_S if deadline is None else max(0.1, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker stopped after {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, records) -> checks.Outcome:
    if workload == "verify":
        return checks.check_verify(records)
    if workload == "closed_forms":
        return checks.check_closed_forms(records, seed)
    make_input = inputs.sweep_input if workload == "sweep" else inputs.stress_input
    return checks.check_sweep(records, seed, make_input)


def environment(root: Path, src: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(src.rglob("*.py")))
    head = root / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "src_lines": src_lines,
        "mem_cap_bytes": worker.MEM_CAP_BYTES,
    }


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": END_TO_END_UNITS[name]}


def smoothed_percentile(values, percent: int) -> float:
    """Geometric mean of the sorted values ranked within
    PERCENTILE_WINDOWS[percent] points of the percentile."""
    ordered = np.sort(np.asarray(values, dtype=float))
    p, half = percent / 100.0, PERCENTILE_WINDOWS[percent]
    top = ordered.size - 1
    lo = max(0, int(np.floor((p - half) * top)))
    hi = min(top, int(np.ceil((p + half) * top)))
    return float(np.exp(np.log(ordered[lo:hi + 1]).mean()))


def host_scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` as the reference host would take them: scaled by how much
    slower than there the host ran the probe timed next to them."""
    return seconds * worker.PROBE_REF_S / probe_s


def run_cycles(workload: str, seconds: int) -> int:
    """Whole cycles a timed run holds: about ``seconds`` on the reference host."""
    return max(1, round(seconds / CYCLE_REF_S[workload]))


def end_to_end(src: Path, workload: str, seed: int, seconds: int, deadline: float):
    """Run run_cycles(workload, seconds) whole cycles, each step in a fresh
    worker. Set-up time is a median over workers. Operation times are
    host-scaled; the raw figures go to '#' lines."""
    workers, timed = [], 0.0
    for step in range(run_cycles(workload, seconds) * CYCLE_STEPS.get(workload, 1)):
        workers.append(run_worker(src, workload, seed, first=step, count=1,
                                  deadline=deadline))
        timed += workers[-1]["timed_s"]
    setups = [w["setup_s"] for w in workers]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(src, workload, seed, deadline=deadline)["setup_s"])
    records = [rec for w in workers for rec in w["records"]]
    for rec in records:
        rec["raw_s"], rec["s"] = rec["s"], host_scaled(rec["s"], rec["probe_s"])
    outcome = check(workload, seed, records)
    lat_ms = np.asarray(outcome.latencies) * 1e3
    raw_ms = np.asarray([rec["raw_s"] for rec in records]) * 1e3
    speed = statistics.median(worker.PROBE_REF_S / rec["probe_s"] for rec in records)
    peaks = [w["peak_rss_mb"] for w in workers]
    if workload == "stress":
        # One call per worker, so each peak is one call's high-water. Their
        # median is an import-sized call that no fit moves, and the largest
        # sits at the cap; the mean moves with any call's memory, and a call
        # that runs into the cap counts at the cap.
        peak, how = statistics.fmean(peaks), "mean"
    else:
        # The lightest step's high-water: which masses need the widest fits
        # is a draw, and the median step peak moved by 11% between runs
        # where the smallest moved by 0.2%.
        peak, how = min(peaks), "smallest"
    metrics = {
        "setup_s": metric("setup_s", statistics.median(setups)),
        "ok_ops_per_s": metric("ok_ops_per_s", outcome.ok / float(np.sum(lat_ms) / 1e3)),
        "op_p50_ms": metric("op_p50_ms", smoothed_percentile(lat_ms, 50)),
        "op_p90_ms": metric("op_p90_ms", smoothed_percentile(lat_ms, 90)),
        "ok_frac": metric("ok_frac", outcome.ok / outcome.attempted),
        "peak_rss_mb": metric("peak_rss_mb", peak),
    }
    beyond_p90 = int(np.sum(lat_ms > metrics["op_p90_ms"]["value"]))
    say(f"setup_s: median of {len(setups)} fresh processes {sorted(setups)}")
    say(f"peak_rss_mb: {how} of {len(peaks)} step processes {sorted(peaks)}")
    say(f"ops: {outcome.attempted} attempted in {timed:.3f} s timed, "
        f"{len(workers)} steps; {beyond_p90} samples beyond p90")
    say(f"host speed: median {speed:.4g} of the reference host's, by the probe; "
        f"raw, unscaled: ok_ops_per_s {outcome.ok / timed:.6g} 1/s, "
        f"op_p50_ms {smoothed_percentile(raw_ms, 50):.6g} ms, "
        f"op_p90_ms {smoothed_percentile(raw_ms, 90):.6g} ms")
    say(f"fail_frac = {(outcome.attempted - outcome.ok) / outcome.attempted:.6g} ratio")
    return outcome, metrics


def per_layer(src: Path, workload: str, seed: int, deadline: float):
    steps = CYCLE_STEPS.get(workload, 1)
    plain = run_worker(src, workload, seed, count=steps, deadline=deadline)
    traced = run_worker(src, workload, seed, count=steps, trace=1, deadline=deadline)
    outcome = check(workload, seed, traced["records"])
    metrics = dict(traced["layers"])
    times = (plain["timed_s"], traced["timed_s"], traced["timed_s"] - plain["timed_s"])
    for name, value in zip(TRACE_TIMES, times):
        metrics[name] = {"value": value, "unit": "s"}
    say(f"ran {steps} steps twice: untraced {plain['timed_s']:.3f} s, "
        f"traced {traced['timed_s']:.3f} s")
    return outcome, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "divseq" / "__init__.py").is_file():
        print(f"error: no divseq package under {src}", file=sys.stderr)
        return 2
    say(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    say("env " + json.dumps(environment(root, src, args.seed)))
    try:
        if args.trace:
            outcome, metrics = per_layer(src, args.workload, args.seed, deadline)
        else:
            outcome, metrics = end_to_end(src, args.workload, args.seed, args.seconds, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reference_gap = checks.spot_check_references(outcome)
    say(f"failures by input class and reason: {json.dumps(outcome.failures, sort_keys=True)}")
    say(f"references vs mpmath: largest relative gap {reference_gap:.3g}")
    for name, m in metrics.items():
        say(f"{name} = {m['value']!r} {m['unit']}")
    correct = outcome.unexpected == 0 and reference_gap <= checks.REFERENCE_REL_TOL
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.attempted - outcome.ok,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
