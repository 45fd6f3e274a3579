"""Smoke runs of the study scripts, so an API change that breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

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
