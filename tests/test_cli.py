import csv
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from divseq import cli
from divseq.chebyshev import _BLOCK_CELLS
from divseq.cli import main
from divseq.distributions import (
    MixturePath,
    mixture,
    new_distribution,
    random_distribution,
)
from divseq.divergences import evaluate, named_divergence
from divseq.operators import psi_iter
from divseq.sequences import pl, sl

PAIR = '{"p":[0.5,0.5],"q":[0.25,0.75]}'
# The smallest normal mass on each side, against the pair's other mass.
TINIEST_NORMAL = '{"p":[2.2250738585072014e-308,1],"q":[1,2.2250738585072014e-308]}'


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _random_pair(n, seed, floor):
    """A pair on n outcomes whose smallest masses lie just above floor."""
    rng = np.random.default_rng(seed)
    p, q = (floor + d / d.sum() for d in rng.exponential(size=(2, n)))
    return new_distribution(p / p.sum()), new_distribution(q / q.sum())


def _pair_json(start, end):
    return json.dumps({"p": start.masses.tolist(), "q": end.masses.tolist()})


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

    def test_integer_mass_beyond_float_range_exits_2(self, capsys):
        huge = '{"p": [1%s, 1], "q": [0.5, 0.5]}' % ("0" * 400)
        code, out, err = run_cli(capsys, ["eval", "--div", "kl", "--pair", huge])
        assert (code, out) == (2, "")
        assert "too large" in err

    def test_pair_file_not_utf8_exits_2(self, capsys, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_bytes(PAIR.encode("utf-8") + b"\xff")
        code, out, err = run_cli(capsys, ["eval", "--div", "kl", "--file", str(pair_file)])
        assert (code, out) == (2, "")
        assert "UTF-8" in err

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

    def test_subnormal_mass_exits_2(self, capsys):
        # Rejected before any ratio q/p can overflow, so no RuntimeWarning.
        bad = '{"p":[1e-310,1],"q":[0.5,0.5]}'
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, ["eval", "--div", "chi2", "--depth", "1", "--pair", bad]
            )
        assert (code, out) == (2, "")
        assert "smallest normal" in err

    @pytest.mark.parametrize("div", ["kl", "reverse_kl", "chi2", "jeffreys", "hellinger2"])
    @pytest.mark.parametrize("depth", ["1", "3"])
    def test_smallest_normal_mass_warns_of_nothing(self, capsys, div, depth):
        # The generators overflow at w = 1/2^-1022 = 4.5e307: a value or a
        # typed error, never a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, ["eval", "--div", div, "--depth", depth, "--pair", TINIEST_NORMAL]
            )
        assert code in (0, 2, 3), err
        assert code == 0 or err.startswith("error:")

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

    def test_k_with_div_exits_2(self, capsys):
        # --k orders a sequence; an operator call would drop it.
        argv = ["eval", "--div", "kl", "--k", "5", "--pair", PAIR]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == "" and "--k" in err

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

    @pytest.mark.parametrize("tol", ["1e-3", "-1"])
    @pytest.mark.parametrize(
        "command", [["eval", "--k", "2"], ["sweep", "--t", "0:1:5", "--depth", "2"]]
    )
    @pytest.mark.parametrize("seq", ["pl", "sl"])
    def test_tolerance_with_seq_exits_2(self, capsys, command, seq, tol):
        # --tol is the operator fit's target; a closed form would ignore it.
        argv = command + ["--seq", seq, "--tol", tol, "--pair", PAIR]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == "" and "--tol" in err

    @pytest.mark.parametrize("depth", ["0", "3"])
    @pytest.mark.parametrize("seq", ["pl", "sl"])
    def test_depth_with_seq_on_eval_exits_2(self, capsys, seq, depth):
        # eval --seq prints the one order --k names; a depth would be dropped.
        argv = ["eval", "--seq", seq, "--k", "2", "--depth", depth, "--pair", PAIR]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == "" and "--depth" in err

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

    @pytest.mark.parametrize(
        "pair, depth, grid",
        [
            (PAIR, "2", "0.2:1:3"),
            # A regular 2962-point pair with masses floored at 0.01/n: its
            # level-0 fit splits into groups of coordinates.
            (_pair_json(*(random_distribution(2962, s, 0.01 / 2962) for s in (7, 8))),
             "3", "0:1:101"),
        ],
        ids=["two_points", "grouped_2962"],
    )
    def test_seq_sweep_matches_operator_sweep(self, capsys, pair, depth, grid):
        code_seq, out_seq, _ = run_cli(
            capsys, ["sweep", "--seq", "pl", "--depth", depth, "--t", grid, "--pair", pair]
        )
        code_op, out_op, _ = run_cli(
            capsys, ["sweep", "--div", "chi2", "--depth", depth, "--t", grid, "--pair", pair]
        )
        assert code_seq == 0 and code_op == 0
        seq_rows = list(csv.DictReader(io.StringIO(out_seq)))
        op_rows = list(csv.DictReader(io.StringIO(out_op)))
        assert [(r["t"], r["k"]) for r in seq_rows] == [
            (r["t"], r["k"]) for r in op_rows
        ]
        for left, right in zip(seq_rows, op_rows):
            expected = float(left["value"])
            gap = abs(float(right["value"]) - expected)
            assert gap <= 1e-10 * max(1.0, abs(expected)), (left, right)

    @pytest.mark.parametrize("n, count", [(40, 11), (2000, 101)], ids=["n40", "n2000"])
    @pytest.mark.parametrize("family", ["pl", "sl"])
    def test_sl_sweep_is_bitwise_the_direct_sl_calls(self, capsys, monkeypatch, family, n, count):
        # The sweep builds sl(k) as sl(k - 1) - pl(k), on blocks of grid rows
        # stacked into one call; the table must be byte for byte the one
        # printed from pl(k) or sl(k) called at every t and order. The t = 0
        # rows take the split-sum fallback. At n = 2000 the grid spans
        # several blocks.
        rng = np.random.default_rng(11)
        p, q = (1e-4 + d / d.sum() for d in rng.exponential(size=(2, n)))
        p[:2] = [3e-11, 7e-10]
        start, end = new_distribution(p / p.sum()), new_distribution(q / q.sum())
        blocks = []
        chain = cli._chain

        def spy(name, first, depth, P, R):
            blocks.append(R.masses.shape)
            return chain(name, first, depth, P, R)

        monkeypatch.setattr(cli, "_chain", spy)
        argv = ["sweep", "--seq", family, "--depth", "3", "--t", f"0:1:{count}"]
        code, out, _ = run_cli(capsys, argv + ["--pair", _pair_json(start, end)])
        assert code == 0
        rows = max(1, _BLOCK_CELLS // n)
        assert blocks == [
            (min(rows, count - i), n) for i in range(0, count, rows)
        ]
        assert (len(blocks) > 1) == (n == 2000)
        direct = pl if family == "pl" else sl
        path = MixturePath(start, end)
        expected = ["t,k,value"] + [
            f"{'%.15g' % t},{k},{'%.15g' % direct(k, start, mixture(path, t))}"
            for t in np.linspace(0.0, 1.0, count)
            for k in range(4)
        ]
        assert out.splitlines() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", ["readme", "n300"])
    def test_table_is_the_psi_iter_levels_line_by_line(self, capsys, case, fmt):
        if case == "readme":
            start, end = new_distribution([0.5, 0.5]), new_distribution([0.25, 0.75])
            div, depth, count = "chi2", 2, 11
        else:
            start, end = _random_pair(300, 3, 1e-5)
            assert start.masses.min() < 2e-5 and end.masses.min() < 2e-5
            div, depth, count = "kl", 3, 101
        argv = ["sweep", "--div", div, "--depth", str(depth), "--t", f"0:1:{count}",
                "--format", fmt, "--pair", _pair_json(start, end)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        grid = np.linspace(0.0, 1.0, count)
        levels = psi_iter(named_divergence(div), depth, MixturePath(start, end), grid)
        if fmt == "csv":
            expected = ["t,k,value"] + [
                f"{'%.15g' % t},{k},{'%.15g' % levels[k, j]}"
                for j, t in enumerate(grid)
                for k in range(depth + 1)
            ]
        else:
            expected = [
                json.dumps({"t": float(t), "k": k, "value": float(levels[k, j])})
                for j, t in enumerate(grid)
                for k in range(depth + 1)
            ]
        assert out == "\n".join(expected) + "\n"

    def test_table_is_one_write(self, monkeypatch):
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        stream = Recorder()
        monkeypatch.setattr(sys, "stdout", stream)
        argv = ["sweep", "--div", "kl", "--depth", "3", "--t", "0:1:101", "--pair", PAIR]
        assert main(argv) == 0
        assert len(writes) == 1
        assert stream.getvalue().count("\n") == 1 + 101 * 4

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

    def test_negative_seed_exits_2(self, capsys):
        # Exit 1 would say a check failed; a bad seed is a domain error.
        code, out, err = run_cli(capsys, ["verify", "--seed", "-1", "--instances", "1"])
        assert code == 2
        assert out == ""
        assert "seed" in err


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

    def test_exponent_notation_negative_argument(self, capsys):
        code, out, _ = run_cli(capsys, ["polylog", "--k", "3", "--z", "-1e6"])
        assert code == 0
        assert float(out) == pytest.approx(-462.2161809030875, rel=1e-14)

    def test_argument_at_one_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["polylog", "--k", "2", "--z", "1.0"])
        assert code == 2

    def test_negative_order_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["polylog", "--k", "-1", "--z", "0.5"])
        assert code == 2


class TestParser:
    def test_parser_is_built_once_and_keeps_no_state(self, capsys, monkeypatch):
        def rebuild():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "_build_parser", rebuild)
        sweep = ["sweep", "--div", "kl", "--depth", "2", "--t", "0:1:5", "--pair", PAIR]
        assert main(["sweep", "--div", "kl", "--pair", PAIR]) == 2  # no --t
        seq_tol = ["sweep", "--seq", "pl", "--tol", "1e-3", "--t", "0:1:5", "--pair", PAIR]
        assert main(seq_tol) == 2
        capsys.readouterr()
        first = run_cli(capsys, sweep)
        second = run_cli(capsys, sweep)
        assert first[0] == 0 and first[1].count("\n") == 16
        assert second == first

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

    def test_pl1_on_a_ratio_below_2_to_the_minus_53_warns_of_nothing(self):
        pair = '{"p":[0.5,0.5],"q":[1e-17,1]}'
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "divseq.cli",
             "eval", "--seq", "pl", "--k", "1", "--pair", pair],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "" and proc.stdout.strip() == "18.8788261098894"
