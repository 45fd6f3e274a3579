"""Run steps of one workload against divseq in this process; print JSON.

Started by run.py in a fresh process for each step of a timed run, and
for each traced or untraced run of one cycle. It caps its own address
space at MEM_CAP_BYTES, imports divseq from the checkout's ``src/``, sets
up the workload's objects and runs steps --first .. --first+--count-1, one
operation after another (a closed loop with one client). It prints one
JSON line: set-up time, per-operation outputs and latencies, the timed
seconds, the peak RSS and, when traced, the per-layer metrics. A step is
a cycle of operations (see inputs.py), for verify one run_suite call, for
stress one call. After set-up and after every operation it times the host
probe (see probe_chunk), outside set-up and the timed region.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# Address-space cap of every worker. Without it one valid stress operation
# reached 3.9 GB on a 7 GB host; with it that operation raises MemoryError,
# which the benchmark counts as a failure.
MEM_CAP_BYTES = 3 * 2**30

# The host probe: a fixed chunk of interpreter and small-array work that
# belongs to the benchmark, so no change to divseq can change its cost. The
# host's speed drifts by tens of percent within seconds to minutes (see
# README.md), and an operation slows with the probe timed next to it; run.py
# scales each time by PROBE_REF_S over the probe time next to it.
# PROBE_REF_S is the chunk's median time on the reference host, so scaled
# times read as seconds there.
PROBE_REF_S = 5.5e-4
_PROBE_CHUNKS = 3
_PROBE_X = np.linspace(0.1, 0.9, 16)


def probe_chunk() -> float:
    start = time.perf_counter()
    total = 0.0
    for j in range(100):
        total += math.log1p(j * 1e-3) * math.exp(-j * 1e-3)
        total += float(np.sum(_PROBE_X * _PROBE_X))
    return time.perf_counter() - start


def _import_divseq(src: str):
    sys.path.insert(0, src)
    import divseq
    import divseq.cli  # noqa: F401  (the sweep workloads' entry point)

    where = os.path.realpath(divseq.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"divseq imported from {where}, not from {src}")
    return divseq


class Workload:
    """Operations of one workload; subclasses fill in setup and run_op."""

    def __init__(self, divseq, inputs, seed: int):
        self.divseq = divseq
        self.inputs = inputs
        self.seed = seed
        self._last_chunks = []

    def probe(self) -> float:
        """Time _PROBE_CHUNKS chunks; return the median chunk time of these
        and of the previous probe, which ran before the last operation."""
        chunks = [probe_chunk() for _ in range(_PROBE_CHUNKS)]
        value = statistics.median(self._last_chunks + chunks)
        self._last_chunks = chunks
        return value

    def run_probed(self, i: int) -> tuple[list[dict], float]:
        """Run operation i, then the probe; tag its records with the probe."""
        records, elapsed = self.run_op(i)
        probe_s = self.probe()
        for record in records:
            record["probe_s"] = probe_s
        return records, elapsed

    def setup(self) -> float:
        """Construct the workload's library objects; return the seconds spent
        generating inputs, which set-up time excludes."""
        return 0.0

    def run_op(self, i: int) -> tuple[list[dict], float]:
        """Run operation i; return its records and its timed seconds."""
        raise NotImplementedError

    def run_step(self, c: int) -> tuple[list[dict], float]:
        """Run cycle c, the unit a run is made of."""
        size = self.inputs.CYCLE_OPS[self.name]
        records, timed = [], 0.0
        for i in range(c * size, (c + 1) * size):
            op_records, elapsed = self.run_probed(i)
            records += op_records
            timed += elapsed
        return records, timed


class VerifyWorkload(Workload):
    """One step is a run_suite call; each of its 28 checks is one operation."""

    name = "verify"

    # run_suite builds its functionals and pairs inside each call, so set-up
    # is the import alone.
    latencies = None

    def _time_checks(self):
        """Time each check where run_suite looks it up (a few microseconds a
        check, against tens of milliseconds of work), then run the probe.
        Installed at the first step, so around any trace wrapper, whose
        spans then leave the probe out."""
        verify = sys.modules["divseq.verify"]
        self.latencies, self.probes = [], []
        for name in ("check_integral_contraction", "check_iterated_chain",
                     "check_derivative_dominates", "check_path_invariance"):
            fn = getattr(verify, name)

            def timed(*args, _fn=fn, **kwargs):
                start = time.perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    self.latencies.append(time.perf_counter() - start)
                    self.probes.append(self.probe())

            setattr(verify, name, timed)

    def run_step(self, i):
        suite_seed = self.inputs.verify_suite_seed(self.seed, i)
        if self.latencies is None:
            self._time_checks()
        self.latencies.clear()
        self.probes.clear()
        report = self.divseq.run_suite(suite_seed, self.inputs.VERIFY_INSTANCES)
        records = [
            {"suite": i, "name": c.name, "passed": bool(c.passed),
             "worst": repr(c.worst_violation), "s": s, "probe_s": probe_s}
            for c, s, probe_s in zip(report.checks, self.latencies, self.probes)
        ]
        # The timed seconds are the checks' own; building the roster of
        # divergences between them takes microseconds.
        return records, sum(self.latencies)


class SweepWorkload(Workload):
    """One operation is one in-process ``divseq sweep`` CLI call."""

    name = "sweep"
    make_input = "sweep_input"

    def setup(self):
        for name in self.inputs.DIVERGENCES:
            self.divseq.named_divergence(name)
        return 0.0

    def run_op(self, i):
        op = getattr(self.inputs, self.make_input)(self.seed, i)
        argv = op.argv()
        out, err = io.StringIO(), io.StringIO()
        record = {"i": i, "rc": None, "error": None}
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                record["rc"] = self.divseq.cli.main(argv)
        except Exception as exc:  # an escape from main is the program's failure
            record["error"] = type(exc).__name__
        elapsed = time.perf_counter() - start
        record.update(s=elapsed, out=out.getvalue(), stderr=err.getvalue()[-300:])
        return [record], elapsed


class StressWorkload(SweepWorkload):
    """One step is one call, so each call's memory high-water is its own."""

    name = "stress"
    make_input = "stress_input"

    def run_step(self, i):
        return self.run_probed(i)


class ClosedFormsWorkload(Workload):
    """One operation is one pl(k, P, R(t)) or sl(k, P, R(t)) library call."""

    name = "closed_forms"

    def setup(self):
        gen_start = time.perf_counter()
        pairs = [self.inputs.closed_forms_pair(self.seed, j)
                 for j in range(self.inputs.CLOSED_FORMS_POOL)]
        gen_s = time.perf_counter() - gen_start
        d = self.divseq
        self.paths = [
            d.MixturePath(d.new_distribution(p), d.new_distribution(q)) for p, q, _ in pairs
        ]
        return gen_s

    def run_op(self, i):
        op = self.inputs.closed_forms_input(self.seed, i)
        path = self.paths[op.pair]
        d = self.divseq
        family = d.sequences.pl if op.family == "pl" else d.sequences.sl
        record = {"i": i, "value": None, "error": None}
        start = time.perf_counter()
        try:
            record["value"] = repr(family(op.k, path.start, d.mixture(path, op.t)))
        except Exception as exc:
            record["error"] = type(exc).__name__
        elapsed = time.perf_counter() - start
        record["s"] = elapsed
        return [record], elapsed


WORKLOADS = {
    "verify": VerifyWorkload,
    "sweep": SweepWorkload,
    "closed_forms": ClosedFormsWorkload,
    "stress": StressWorkload,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, default=0, help="first step to run")
    parser.add_argument("--count", type=int, default=0, help="steps to run; 0 sets up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))
    result_stream = sys.stdout

    divseq = _import_divseq(args.src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import inputs

    workload = WORKLOADS[args.workload](divseq, inputs, args.seed)
    gen_s = workload.setup()
    result = {"setup_s": time.perf_counter() - _PROCESS_START - gen_s}
    workload.probe()  # the probe before the first operation
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, divseq)
    records, timed = [], 0.0
    for step in range(args.first, args.first + args.count):
        if tracer is not None:
            tracer.op_id = step
        step_records, elapsed = workload.run_step(step)
        records += step_records
        timed += elapsed
    result.update(records=records, timed_s=timed)
    if tracer is not None:
        result["layers"] = tracer.metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_stream.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
