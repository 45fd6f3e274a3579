"""Smoke runs of the study scripts and of the README's examples, so an API
change that breaks one fails here."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "chain_table.py": (
        ["--seed", "7", "--support", "4", "--depth", "2", "--points", "5"],
        "t,family,k,closed_form,operator,gap",
    ),
    "operator_gap_study.py": (
        ["--pairs", "3", "--support", "4"],
        "divergence,gap_kind,min,median,p90,max",
    ),
}


def test_scripts_run_and_print_their_csv_header():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Both scripts run at once; each is mostly interpreter and numpy start-up.
    procs = {
        name: subprocess.Popen(
            [sys.executable, str(ROOT / "scripts" / name), *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for name, (args, _) in RUNS.items()
    }
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, f"{name}: {err}"
        assert out.splitlines()[0] == RUNS[name][1], name


def test_readme_python_blocks_run(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert capsys.readouterr().out


# A stand-in for perfbench/run.py: it logs which checkout ran it and prints
# a result line whose op_p90_ms is the checkout's SPEED file, plus the run's
# index in that checkout, so the sides and the runs can be told apart;
# op_p50_ms is the run's index alone, a tie in every pair. At SPEED 20 it
# waits for one worker interpreter, whose page faults count for the run.
_STUB = """
import json, pathlib, subprocess, sys
here = pathlib.Path.cwd()
log = here.parent / "calls.log"
with log.open("a") as f:
    f.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
count = sum(1 for line in log.read_text().splitlines() if line.startswith(here.name + " "))
speed = float((here / "SPEED").read_text())
for _ in range(int(speed) // 20):
    subprocess.run([sys.executable, "-c", "pass"], check=True)
metrics = {"op_p90_ms": {"value": speed + count, "unit": "ms"},
           "op_p50_ms": {"value": 5.0 + count, "unit": "ms"},
           "ok_ops_per_s": {"value": 1000.0 / (speed + count), "unit": "1/s"},
           "trace.untraced_s": {"value": 1.0, "unit": "s"}}
print("# a human-readable line")
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}))
"""


def _bench_pairs(tmp_path, workloads: list[str], pairs: int) -> tuple[dict, dict]:
    """Run bench_pairs.py with the stub on a parent and a change that reads
    10 ms faster; the checkouts and the report."""
    trees = {}
    for side, speed, lines in (("parent", 20.0, 5), ("change", 10.0, 3)):
        tree = tmp_path / side
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("# untouched\n")
        (tree / "SPEED").write_text(str(speed))
        # lines - 1 lines in one module and 1 in another; other files do not count.
        package = tree / "src" / "divseq"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n" * (lines - 1))
        (package / "b.py").write_text("y = 2\n")
        (package / "notes.txt").write_text("not a module\n" * 7)
        (tree / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        trees[side] = tree
    stub = tmp_path / "stub.py"
    stub.write_text(_STUB)
    out = tmp_path / "BENCH_x.json"
    args = [
        sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
        "--parent", str(trees["parent"]), "--change", str(trees["change"]), "--pr", "x",
        *(arg for w in workloads for arg in ("--workload", w)), "--seed", "7",
        "--pairs", str(pairs), "--seconds", "3", "--runner", f"{sys.executable} {stub}",
        "--out", str(out),
    ]
    done = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return trees, json.loads(out.read_text())


def test_bench_pairs_alternates_sides_and_summarizes_each_metric(tmp_path):
    trees, report = _bench_pairs(tmp_path, ["verify", "sweep"], 4)
    calls = (tmp_path / "calls.log").read_text().splitlines()
    sides = [line.split()[0] for line in calls]
    assert sides == ["parent", "change", "change", "parent"] * 4
    for i, line in enumerate(calls):
        workload = "verify" if i < 8 else "sweep"
        assert line.split(" ", 1)[1] == f"--workload {workload} --seed 7 --seconds 3 --trace 0"
    assert set(report["workloads"]) == {"verify/7", "sweep/7"}
    assert report["src_lines"] == {"parent": 5, "change": 3}
    verify = report["workloads"]["verify/7"]
    assert verify["pairs"] == 4 and verify["correct"]["change"] == [True] * 4
    # Only BENCHMARK.json's end-to-end metrics, each in its own direction.
    assert set(verify["metrics"]) == {"op_p90_ms", "op_p50_ms", "ok_ops_per_s"}
    p90 = verify["metrics"]["op_p90_ms"]
    assert p90["parent"] == [21.0, 22.0, 23.0, 24.0] and p90["change"] == [11.0, 12.0, 13.0, 14.0]
    assert p90["parent_q1_med_q3"] == [21.75, 22.5, 23.25]
    assert p90["relative_change_of_median"] == pytest.approx(-10.0 / 22.5)
    assert p90["change_better_in"] == "4/4" and p90["better"] == "lower"
    assert verify["metrics"]["ok_ops_per_s"]["change_better_in"] == "4/4"
    # Every run faults; the parent's also count its worker's faults.
    faults = verify["minor_faults"]
    assert all(isinstance(n, int) and n > 0 for side in ("parent", "change") for n in faults[side])
    assert min(faults["parent"]) > max(faults["change"]) and faults["change_better_in"] == "4/4"
    # 4 of 4 pairs, but a claim needs ten.
    assert p90["parent_iqr"] == 1.5 and not p90["claim_rule_holds"]
    for tree in trees.values():  # the benchmark's own files are left alone
        assert [p.name for p in (tree / "perfbench").iterdir()] == ["run.py"]
        assert (tree / "perfbench" / "run.py").read_text() == "# untouched\n"


def test_bench_pairs_applies_the_claim_rule(tmp_path):
    _, report = _bench_pairs(tmp_path, ["verify"], 10)
    metrics = report["workloads"]["verify/7"]["metrics"]
    # 10 of 10 pairs, medians 10 ms apart against a parent IQR of 4.5 ms.
    assert metrics["op_p90_ms"]["parent_iqr"] == 4.5
    assert metrics["op_p90_ms"]["claim_rule_holds"] and metrics["ok_ops_per_s"]["claim_rule_holds"]
    # Ties in every pair win none.
    assert metrics["op_p50_ms"]["change_better_in"] == "0/10"
    assert not metrics["op_p50_ms"]["claim_rule_holds"]
