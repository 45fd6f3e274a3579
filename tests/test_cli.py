import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from divseq.cli import main
from divseq.distributions import new_distribution
from divseq.divergences import evaluate, named_divergence

PAIR = '{"p":[0.5,0.5],"q":[0.25,0.75]}'


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_kl_direct(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--div", "kl", "--pair", PAIR])
        assert code == 0
        assert out.strip() == "0.14384103622589"

    def test_pl2(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--seq", "pl", "--k", "2", "--pair", PAIR]
        )
        assert code == 0
        value = float(out)
        assert value == pytest.approx(0.06691315977068315, abs=1e-14)
        assert out.strip() == "%.15g" % value

    def test_chi2_depth_one_is_kl(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--div", "chi2", "--depth", "1", "--pair", PAIR]
        )
        assert code == 0
        value = float(out)
        assert abs(value - 0.14384103622589046) < 1e-9, f"got {value}"

    def test_partial_t(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--div", "kl", "--t", "0.5", "--pair", PAIR]
        )
        assert code == 0
        P = new_distribution([0.5, 0.5])
        mid = new_distribution([0.375, 0.625])
        expected = evaluate(named_divergence("kl"), P, mid)
        assert float(out) == pytest.approx(expected, rel=1e-14)

    def test_file_input(self, capsys, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(PAIR, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, ["eval", "--div", "kl", "--file", str(pair_file)]
        )
        assert code == 0
        assert out.strip() == "0.14384103622589"

    def test_support_mismatch_exits_2(self, capsys):
        bad = '{"p":[0.5,0.5],"q":[0.25,0.35,0.4]}'
        code, out, err = run_cli(capsys, ["eval", "--div", "kl", "--pair", bad])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_nonpositive_mass_exits_2(self, capsys):
        bad = '{"p":[0.5,0.5],"q":[0.25,0.75,0.0]}'
        code, _, err = run_cli(capsys, ["eval", "--div", "kl", "--pair", bad])
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize(
        "bad",
        [
            '{"p":["a",1],"q":[0.5,0.5]}',
            '{"p":{"a":1},"q":[0.5,0.5]}',
            '{"p":[[0.5,0.5],[0.5]],"q":[0.5,0.5]}',
            '{"p":[[0.5,0.5]],"q":[[0.25,0.75]]}',
        ],
        ids=["string_mass", "object_masses", "ragged", "stacked_pair"],
    )
    def test_masses_that_are_not_one_distribution_exit_2(self, capsys, command, bad):
        argv = [command, "--div", "kl", "--pair", bad]
        if command == "sweep":
            argv += ["--t", "0:1:3"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_subnormal_position_prints_a_number(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--div", "chi2", "--depth", "2", "--t", "1e-310", "--pair", PAIR]
        )
        assert code == 0 and float(out) == 0.0

    def test_malformed_json_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--div", "kl", "--pair", "{oops"])
        assert code == 2
        assert "JSON" in err

    def test_missing_pair_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--div", "kl"])
        assert code == 2

    def test_both_div_and_seq_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, ["eval", "--div", "kl", "--seq", "pl", "--k", "1", "--pair", PAIR]
        )
        assert code == 2

    def test_seq_without_k_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--seq", "pl", "--pair", PAIR])
        assert code == 2

    def test_unknown_divergence_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--div", "nope", "--pair", PAIR])
        assert code == 2

    def test_unattainable_tolerance_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "eval",
                "--div",
                "chi2",
                "--depth",
                "1",
                "--tol",
                "1e-30",
                "--pair",
                PAIR,
            ],
        )
        assert code == 3
        assert err != ""

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("depth", ["0", "2"])
    @pytest.mark.parametrize("command", [["eval"], ["sweep", "--t", "0:1:5"]])
    def test_bad_tolerance_exits_2(self, capsys, command, depth, tol):
        argv = command + ["--div", "chi2", "--depth", depth, "--tol", tol]
        code, out, err = run_cli(capsys, argv + ["--pair", PAIR])
        assert code == 2
        assert out == "" and "tol" in err

    @pytest.mark.parametrize("command", [["eval"], ["sweep", "--t", "0:1:5"]])
    def test_unattainable_tolerance_at_depth_two_exits_3(self, capsys, command):
        argv = command + ["--div", "chi2", "--depth", "2", "--tol", "1e-30"]
        code, out, _ = run_cli(capsys, argv + ["--pair", PAIR])
        assert code == 3
        assert out == ""


class TestSweep:
    def test_chi2_depth_two_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--div", "chi2", "--depth", "2", "--t", "0:1:11", "--pair", PAIR],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,k,value"
        assert len(lines) == 34
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 33
        tail = [row for row in rows if float(row["t"]) == 1.0]
        values = [float(row["value"]) for row in tail]
        assert [int(row["k"]) for row in tail] == [0, 1, 2]
        expected = [1 / 3, 0.14384103622589046, 0.06691315977068315]
        for got, want in zip(values, expected):
            assert abs(got - want) < 1e-9, f"t=1 column {values} vs {expected}"

    def test_depth_zero_reproduces_direct_evaluation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--div", "kl", "--depth", "0", "--t", "0:1:5", "--pair", PAIR],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        D = named_divergence("kl")
        P = new_distribution([0.5, 0.5])
        Q = new_distribution([0.25, 0.75])
        for row in rows:
            t = float(row["t"])
            probe = new_distribution((1.0 - t) * P.masses + t * Q.masses)
            assert float(row["value"]) == pytest.approx(
                evaluate(D, P, probe), abs=1e-15
            )

    def test_constant_pair_all_zero(self, capsys):
        same = '{"p":[0.5,0.5],"q":[0.5,0.5]}'
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--div", "chi2", "--depth", "2", "--t", "0:1:5", "--pair", same],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(row["value"]) == 0.0 for row in rows)

    def test_seq_sweep_matches_operator_sweep(self, capsys):
        code_seq, out_seq, _ = run_cli(
            capsys,
            ["sweep", "--seq", "pl", "--depth", "2", "--t", "0.2:1:3", "--pair", PAIR],
        )
        code_op, out_op, _ = run_cli(
            capsys,
            ["sweep", "--div", "chi2", "--depth", "2", "--t", "0.2:1:3", "--pair", PAIR],
        )
        assert code_seq == 0 and code_op == 0
        seq_rows = list(csv.DictReader(io.StringIO(out_seq)))
        op_rows = list(csv.DictReader(io.StringIO(out_op)))
        assert [(r["t"], r["k"]) for r in seq_rows] == [
            (r["t"], r["k"]) for r in op_rows
        ]
        for left, right in zip(seq_rows, op_rows):
            assert float(left["value"]) == pytest.approx(
                float(right["value"]), abs=1e-8
            )

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sweep",
                "--div",
                "chi2",
                "--depth",
                "1",
                "--t",
                "0:1:3",
                "--format",
                "json",
                "--pair",
                PAIR,
            ],
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 6
        assert all(set(row) == {"t", "k", "value"} for row in rows)
        ts = sorted({row["t"] for row in rows})
        assert ts == [0.0, 0.5, 1.0]
        at_one = {row["k"]: row["value"] for row in rows if row["t"] == 1.0}
        assert at_one[0] == pytest.approx(1 / 3, rel=1e-12)
        assert at_one[1] == pytest.approx(0.14384103622589046, abs=1e-9)

    @pytest.mark.parametrize(
        "grid", ["0:1:1", "0.5:0.5:5", "0.7:0.2:5", "-0.1:1:5", "0:1.2:5", "0:1", "a:b:c"]
    )
    def test_bad_grid_exits_2(self, capsys, grid):
        code, _, _ = run_cli(
            capsys, ["sweep", "--div", "kl", "--t", grid, "--pair", PAIR]
        )
        assert code == 2

    def test_negative_depth_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--div", "kl", "--depth", "-1", "--t", "0:1:3", "--pair", PAIR],
        )
        assert code == 2


class TestVerify:
    def test_small_run_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--seed", "7", "--instances", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 7
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 28

    def test_deterministic_output_bytes(self, capsys):
        _, first, _ = run_cli(capsys, ["verify", "--seed", "9", "--instances", "2"])
        _, second, _ = run_cli(capsys, ["verify", "--seed", "9", "--instances", "2"])
        assert first == second

    def test_zero_instances_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--instances", "0"])
        assert code == 2
        assert out == ""
        assert err != ""


class TestPolylog:
    def test_dilog_half(self, capsys):
        code, out, _ = run_cli(capsys, ["polylog", "--k", "2", "--z", "0.5"])
        assert code == 0
        value = float(out)
        assert value == pytest.approx(0.5822405264650125, abs=1e-14)
        assert out.strip() == "%.15g" % value

    def test_dilog_negative_half(self, capsys):
        code, out, _ = run_cli(capsys, ["polylog", "--k", "2", "--z", "-0.5"])
        assert code == 0
        value = float(out)
        assert value == pytest.approx(-0.4484142069236462, abs=1e-14)
        assert out.strip() == "%.15g" % value

    def test_order_one_is_log_two(self, capsys):
        code, out, _ = run_cli(capsys, ["polylog", "--k", "1", "--z", "0.5"])
        assert code == 0
        assert float(out) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_argument_at_one_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["polylog", "--k", "2", "--z", "1.0"])
        assert code == 2

    def test_negative_order_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["polylog", "--k", "-1", "--z", "0.5"])
        assert code == 2


class TestParser:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "divseq.cli", "eval", "--div", "kl", "--pair", PAIR],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0.14384103622589"
