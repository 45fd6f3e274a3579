"""Self-checks of the benchmark: references, inputs, checker, trace counts.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_reference_polylog_matches_mpmath_across_the_range():
    ws = np.concatenate([np.logspace(-13, 6, 120), [0.5, 1.0, 1.5, 2.0, 2.0 + 1e-12]])
    for order in range(reference.MAX_ORDER + 1):
        gap = reference.mpmath_spot_check([(order, w) for w in ws])
        assert gap < checks.REFERENCE_REL_TOL, order


def test_reference_closed_forms_agree_with_their_definitions():
    rng = np.random.default_rng(5)
    p, q = inputs.floored_masses(rng, 7, 0.001), inputs.floored_masses(rng, 7, 0.001)
    r = reference.mixture_row(p, q, 0.6)
    assert reference.pl(0, p, r) == pytest.approx(np.sum((r - p) ** 2 / r), rel=1e-13)
    assert reference.pl(1, p, r) == pytest.approx(np.sum(p * np.log(p / r)), rel=1e-13)
    assert reference.sl(1, p, r) == pytest.approx(np.sum(r * np.log(r / p)), rel=1e-12)


def test_inputs_repeat_for_a_seed_and_change_with_it():
    a, b, c = inputs.sweep_input(3, 7), inputs.sweep_input(3, 7), inputs.sweep_input(4, 7)
    assert a.div == c.div and np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)
    assert a.p.size != c.p.size or not np.array_equal(a.p, c.p)
    for i in range(3 * inputs.CYCLE_OPS["sweep"]):
        op = inputs.sweep_input(1, i)
        assert 2 <= op.p.size <= 10_000
        assert abs(op.p.sum() - 1.0) < 1e-12 and op.p.min() >= 0.01 / op.p.size * 0.99


def test_closed_forms_cycle_is_balanced():
    size = inputs.CYCLE_OPS["closed_forms"]
    ops = [inputs.closed_forms_input(2, i) for i in range(4 * size)]
    kinds = [inputs.closed_forms_pair(2, op.pair)[2] for op in ops]
    assert kinds.count("tiny_mass") == len(ops) // 4
    assert sum(op.t == 1.0 for op in ops) == len(ops) // 4
    assert all(0.05 <= op.t <= 1.0 for op in ops)
    assert {op.k for op in ops} == {0, 1, 2, 3}


def test_closed_forms_tiny_mass_pairs_are_the_same_for_every_seed():
    for j in range(inputs.CLOSED_FORMS_POOL):
        p1, q1, kind = inputs.closed_forms_pair(1, j)
        p2, q2, _ = inputs.closed_forms_pair(2, j)
        assert (kind == "tiny_mass") == (np.array_equal(p1, p2) and np.array_equal(q1, q2))


def test_run_work_is_fixed_by_seconds_not_by_time_taken():
    assert run.run_cycles("closed_forms", 15) == 5
    assert run.run_cycles("stress", 15) == run.run_cycles("stress", 1) == 1
    assert all(run.run_cycles(w, 60) > run.run_cycles(w, 15) for w in ("verify", "sweep"))


def test_stress_step_is_a_fixed_pass_down_the_ladder():
    ops = [inputs.stress_input(1, i) for i in range(3 * inputs.SIZE_STRATA)]
    assert [op.kind for op in ops] == list(inputs.STRESS_CLASSES) * inputs.SIZE_STRATA
    assert sorted(op.p.size for op in ops[::3]) == list(inputs.SWEEP_SIZES)
    assert ops[0].p.size == 2962 and ops[0].p.min() < 1e-9 <= ops[0].q.min()
    assert ops[3].q.min() < 1e-9 <= ops[3].p.min()
    assert ops[2].grid == inputs.NEAR_ZERO_GRID
    assert all(np.array_equal(op.q, inputs.stress_input(2, i).q) for i, op in enumerate(ops))


def _sweep_table(op):
    grid = inputs.parse_grid(op.grid)
    lines = ["t,k,value"]
    for t in grid:
        r = reference.mixture_row(op.p, op.q, float(t))
        for k, value in enumerate(reference.sweep_levels(op.div, inputs.SWEEP_DEPTH, op.p, r)):
            lines.append(f"{'%.15g' % t},{k},{'%.15g' % value}")
    return "\n".join(lines) + "\n"


def _wrong_level2(table):
    rows = table.splitlines()
    t, k, value = rows[-2].split(",")  # level 2 at the last grid point
    rows[-2] = f"{t},{k},{float(value) + 2e-6!r}"
    return "\n".join(rows) + "\n"


def test_checker_accepts_the_reference_table_and_flags_a_wrong_level():
    i = 0  # the first sweep input uses chi2
    op = inputs.sweep_input(9, i)
    assert op.div == "chi2"
    table = _sweep_table(op)
    good = {"i": i, "rc": 0, "error": None, "out": table, "s": 0.01}
    assert checks.check_sweep([good], 9, inputs.sweep_input).ok == 1
    bad = dict(good, out=_wrong_level2(table))
    outcome = checks.check_sweep([bad], 9, inputs.sweep_input)
    assert outcome.ok == 0 and outcome.failures == {"regular:miss_level2": 1}
    assert outcome.unexpected == 1
    crashed = dict(good, rc=None, error="MemoryError", out="")
    assert checks.check_sweep([crashed], 9, inputs.sweep_input).failures == {
        "regular:uncaught_MemoryError": 1}


def test_checker_excuses_only_the_known_defects_on_tiny_masses():
    i = 3  # a two-point stress pair with a tiny mass in Q
    op = inputs.stress_input(0, i)
    assert op.kind == "tiny_mass" and op.p.size == 2
    good = {"i": i, "rc": 0, "error": None, "out": _sweep_table(op), "s": 0.01}
    assert checks.check_sweep([good], 0, inputs.stress_input).ok == 1
    known = [dict(good, rc=3, out=""), dict(good, rc=None, error="MemoryError", out="")]
    outcome = checks.check_sweep(known, 0, inputs.stress_input)
    assert outcome.ok == 0 and outcome.unexpected == 0
    wrong = dict(good, out=_wrong_level2(good["out"]))
    outcome = checks.check_sweep([wrong], 0, inputs.stress_input)
    assert outcome.failures == {"tiny_mass:miss_level2": 1} and outcome.unexpected == 1
    crashed = dict(good, rc=None, error="IndexError", out="")
    assert checks.check_sweep([crashed], 0, inputs.stress_input).unexpected == 1


def test_checker_excuses_closed_forms_misses_only_at_the_t1_edge():
    cycles = 4 * inputs.CYCLE_OPS["closed_forms"]
    ops = [(i, inputs.closed_forms_input(6, i)) for i in range(cycles)]
    tiny = [(i, op) for i, op in ops if op.family == "pl" and op.k == 1
            and inputs.closed_forms_pair(6, op.pair)[2] == "tiny_mass"]
    for i, op in tiny:
        p, q, _ = inputs.closed_forms_pair(6, op.pair)
        exact = reference.pl(1, p, reference.mixture_row(p, q, op.t))
        record = {"i": i, "value": repr(exact * (1 + 1e-9)), "error": None, "s": 0.001}
        outcome = checks.check_closed_forms([record], 6)
        assert outcome.unexpected == (0 if op.t == 1.0 else 1)
    assert {op.t == 1.0 for _, op in tiny} == {True, False}


def test_checker_holds_closed_forms_to_one_part_in_1e12():
    op = inputs.closed_forms_input(4, 0)
    p, q, _ = inputs.closed_forms_pair(4, op.pair)
    exact = reference.pl(op.k, p, reference.mixture_row(p, q, op.t))
    record = {"i": 0, "value": repr(exact), "error": None, "s": 0.001}
    assert checks.check_closed_forms([record], 4).ok == 1
    record["value"] = repr(exact * (1 + 1e-11))
    assert checks.check_closed_forms([record], 4).ok == 0


def test_smoothed_percentiles_average_a_window_of_ranks():
    ranks = np.arange(1.0, 101.0)
    window = ranks[24:76]  # ranks within 25 points of the median
    assert run.smoothed_percentile(ranks, 50) == pytest.approx(np.exp(np.log(window).mean()))
    assert 90.0 < run.smoothed_percentile(ranks, 90) < 90.5
    two_clusters = [1.0] * 50 + [100.0] * 50  # the verify and closed_forms shape
    assert run.smoothed_percentile(two_clusters, 50) == pytest.approx(10.0)


def test_host_scaling_divides_out_a_slower_probe():
    ref = run.worker.PROBE_REF_S
    assert run.host_scaled(0.3, ref) == pytest.approx(0.3)
    assert run.host_scaled(0.3, 2 * ref) == pytest.approx(0.15)
    assert 0.2 * ref < run.worker.probe_chunk() < 20 * ref


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    printed = {name: m["unit"] for name, m in tracing.Tracer().metrics().items()}
    printed.update({name: "s" for name in run.TRACE_TIMES})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _traced_counts(workload, seed):
    layers = run.run_worker(ROOT / "src", workload, seed, count=1, trace=1)["layers"]
    return {name: m["value"] for name, m in layers.items() if m["unit"] not in ("s",)}


@pytest.mark.parametrize("workload", ["sweep", "closed_forms"])
def test_two_traced_runs_on_one_seed_give_identical_counts(workload):
    first = _traced_counts(workload, 11)
    assert first == _traced_counts(workload, 11)
    assert first["cli.main.calls" if workload == "sweep" else "sequences.pl.calls"] > 0


def test_sweep_trace_shows_no_polylog_and_closed_forms_no_chebyshev():
    sweep = _traced_counts("sweep", 12)
    assert sweep["polylog.polylog.calls"] == 0 and sweep["chebyshev.fit_adaptive.calls"] > 0
    closed = _traced_counts("closed_forms", 12)
    assert closed["chebyshev.fit_adaptive.calls"] == 0 and closed["polylog.polylog.calls"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
