import itertools
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from divseq.divergences import (
    DivergenceFunctional,
    Orientation,
    named_divergence,
    swap_orientation,
)
from divseq import operators, sequences, verify
from divseq.cli import main
from divseq.distributions import Distribution, MixturePath, _random_masses, mixture
from divseq.divergences import evaluate
from divseq.errors import DomainError, NonFiniteError
from divseq.operators import psi, psi_inverse, psi_iter
from divseq.sequences import pl, sl
from divseq.verify import (
    _CLOSED_FORMS,
    PropertyCheck,
    VerificationReport,
    _check,
    _suite_divergences,
    _t_points,
    check_derivative_dominates,
    check_integral_contraction,
    check_iterated_chain,
    check_path_invariance,
    run_suite,
)


def _broken_divergence():
    base = named_divergence("chi2")
    ev = base.evaluator
    return DivergenceFunctional(
        identifier="broken",
        orientation=Orientation.RIGHT_CONVEX,
        evaluator=lambda a, b: -np.asarray(ev(a, b)),
    )


class TestIntegralContraction:
    def test_chi2_passes(self):
        check = check_integral_contraction(named_divergence("chi2"), 30, seed=1)
        assert check.passed
        assert check.worst_violation < 1e-9
        assert check.tolerance == 1e-9
        assert check.instances == 30
        assert "chi2" in check.name

    def test_swapped_left_convex_kl_passes(self):
        left_kl = replace(named_divergence("kl"), orientation=Orientation.LEFT_CONVEX)
        D = swap_orientation(left_kl)
        assert D.orientation is Orientation.RIGHT_CONVEX
        assert check_integral_contraction(D, 20, seed=3).passed

    def test_broken_divergence_fails(self):
        check = check_integral_contraction(_broken_divergence(), 10, seed=4)
        assert not check.passed
        assert check.worst_violation > check.tolerance


class TestIteratedChain:
    def test_chi2_with_closed_form_oracle(self):
        check = check_iterated_chain(named_divergence("chi2"), 3, 10, seed=2)
        assert check.passed
        assert check.tolerance == 1e-6

    def test_jeffreys_with_closed_form_oracle(self):
        assert check_iterated_chain(named_divergence("jeffreys"), 3, 8, seed=5).passed

    def test_depth_zero_is_trivial(self):
        check = check_iterated_chain(named_divergence("kl"), 0, 5, seed=6)
        assert check.passed

    def test_rejects_negative_depth(self):
        with pytest.raises(DomainError):
            check_iterated_chain(named_divergence("kl"), -1, 5, seed=6)


def _nan_above(identifier, level):
    """A named divergence whose evaluator gives NaN wherever it exceeds level,
    with no generator, so that psi_iter's level-0 fit samples it too."""
    base = named_divergence(identifier)

    def evaluator(p, q):
        # Complex masses (a path derivative's step) get NaN in both parts.
        values = np.asarray(base.evaluator(p, q))
        return np.where(values.real > level, np.nan * values, values)

    return replace(base, evaluator=evaluator, generator=None)


class TestNanViolations:
    # max(0.0, nan) is 0.0 in Python, so a bare max would pass these.
    def test_derivative_dominates_fails_on_nan(self):
        check = check_derivative_dominates(_nan_above("chi2", 0.05), 20, seed=1)
        assert check.worst_violation == math.inf
        assert not check.passed

    def test_depth_zero_chain_fails_on_nan(self):
        check = check_iterated_chain(_nan_above("chi2", 0.05), 0, 20, seed=1)
        assert check.worst_violation == math.inf
        assert not check.passed

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_runner_turns_any_nan_into_inf(self, position):
        # Each stack takes the next count indices; the body reports NaN for
        # the instance at position, whichever stack it lands in.
        indices = itertools.count()
        check = _check(
            "nan_probe", "anchor", 1.0, named_divergence("kl"), 5, 3,
            lambda rng, count, n: (np.fromiter(indices, int, count),),
            lambda path, separated, index: np.where(index == position, math.nan, 0.5),
        )
        assert check.worst_violation == math.inf and not check.passed


class TestRunner:
    def test_stacks_hold_every_instance_once(self):
        # One stack per check: the runner draws as it would stack by support
        # size (the sizes, then for each size in ascending order the start
        # and end masses and the body's draws), pads every mass row to the
        # largest size with null outcomes and calls the body once.
        stacks = []

        def draw(rng, count, n):
            return _random_masses(rng, (count, n), 0.01), np.full(count, n)

        def violations(path, separated, other, n):
            stacks.append((path.start.masses, path.end.masses, other, n, separated))
            return np.zeros(len(n))

        check = _check(
            "stacks", "anchor", 1.0, named_divergence("kl"), 200, 5, draw, violations, mass_rows=1
        )
        assert check.passed and check.worst_violation == 0.0
        ((start, end, other, n, separated),) = stacks
        rng = np.random.default_rng(5)
        sizes = rng.integers(2, 11, size=200)
        assert start.shape == end.shape == other.shape == (200, sizes.max())
        first = 0
        for size, count in zip(*np.unique(sizes, return_counts=True)):
            rows = slice(first, first + count)
            drawn = [_random_masses(rng, (count, size), 0.01) for _ in range(3)]
            for masses, expected in zip((start, end, other), drawn):
                assert masses[rows, :size].tobytes() == expected.tobytes()
                assert np.all(masses[rows, size:] == start[rows, size:])
            assert np.all(start[rows, size:] == verify._NULL_MASS)
            assert np.all(n[rows] == size)
            tv = 0.5 * np.sum(np.abs(drawn[1] - drawn[0]), axis=-1)
            assert np.array_equal(separated[rows], tv > 0.01)
            first += count
        assert first == 200
        for masses in (start, end, other):
            assert np.all(np.abs(masses.sum(axis=-1) - 1.0) <= 1e-12)


def _assert_agree(value, ref, factor=1.0):
    bound = factor * 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(np.asarray(value) - ref) <= bound)


class TestNullOutcomes:
    # A stack padded with the runner's null outcomes gives its unpadded
    # values up to the order of their sums: within 4 eps max(1, |ref|).
    @staticmethod
    def _stacks(n, seed):
        rng = np.random.default_rng(seed)
        starts, ends = (_random_masses(rng, (20, n), 0.01) for _ in range(2))
        plain = MixturePath(Distribution(starts), Distribution(ends))
        padded = MixturePath(*(Distribution(verify._padded(x, 10)) for x in (starts, ends)))
        return plain, padded, _t_points(rng, 20)

    @pytest.mark.parametrize("n", [2, 5, 9])
    @pytest.mark.parametrize("D", _suite_divergences(), ids=lambda D: D.identifier)
    def test_operators_agree(self, monkeypatch, D, n):
        # psi_iter takes the level kernel wherever D has a generator, and
        # swap(bregman), which has none, its fit; psi takes the kernel or,
        # for swap(bregman), the quadrature.
        monkeypatch.setattr(operators, "_KERNEL_CELL_COST", 0.0)
        plain, padded, ts = self._stacks(n, seed=n)
        for op in (
            lambda path: psi(D, path, ts),
            lambda path: psi_inverse(D, path, ts),
            lambda path: evaluate(D, path.start, path.end),
        ):
            _assert_agree(op(padded), op(plain))
        # The fit's lifts carry level 0's rounding on, about 3 times larger
        # at each level (at most 31 eps at level 3 over sizes 2..9 and 15
        # seeds), so there level j is held to 4^j times the bound.
        growth = 1.0 if D.generator else 4.0
        levels = zip(psi_iter(D, 3, padded, ts), psi_iter(D, 3, plain, ts))
        for j, (value, ref) in enumerate(levels):
            _assert_agree(value, ref, growth**j)

    @pytest.mark.parametrize("identifier", ["chi2", "kl", "jeffreys"])
    def test_the_fit_leaves_null_outcomes_out(self, monkeypatch, identifier):
        # phi(1) = 0, so a column with R(T) = P on every row adds +0.0 to
        # level 0: psi_iter's fit leaves it out of its column groups and
        # costs, and padding moves no level above 0 by a single bit.
        monkeypatch.setattr(operators, "_KERNEL_CELL_COST", math.inf)
        D = named_divergence(identifier)
        for seed in range(6):
            for n in (2, 5, 8, 9):
                plain, padded, ts = self._stacks(n, seed)
                levels, ref = psi_iter(D, 3, padded, ts), psi_iter(D, 3, plain, ts)
                assert levels[1:].tobytes() == ref[1:].tobytes(), (seed, n)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_closed_forms_agree(self, n):
        plain, padded, ts = self._stacks(n, seed=n)
        for family in (pl, sl):
            for t in ts.T:
                ref = family((0, 1, 2, 3), plain.start, mixture(plain, t))
                _assert_agree(family((0, 1, 2, 3), padded.start, mixture(padded, t)), ref)


class TestNonFiniteValues:
    # A NaN from the evaluator reaches the quadrature of psi and the level-0
    # fit of psi_iter, which raise NonFiniteError; the runner reports inf.
    @pytest.mark.parametrize(
        "run",
        [
            lambda D: check_integral_contraction(D, 20, seed=1),
            lambda D: check_iterated_chain(D, 3, 20, seed=1),
            lambda D: check_derivative_dominates(D, 20, seed=1),
            lambda D: check_path_invariance(D, 20, seed=1),
        ],
        ids=["contraction", "chain", "dominates", "invariance"],
    )
    def test_every_check_reports_inf(self, run):
        check = run(_nan_above("chi2", 0.05))
        assert check.worst_violation == math.inf
        assert not check.passed

    def test_verify_command_exits_1(self, monkeypatch, capsys):
        roster = (named_divergence("kl"), _nan_above("chi2", 0.05))
        monkeypatch.setattr(verify, "_suite_divergences", lambda: roster)
        assert main(["verify", "--seed", "1", "--instances", "20"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert len(failed) == 4 and all("chi2" in name for name in failed)

    def test_support_size_mismatch_still_raises(self):
        base = named_divergence("chi2")
        D = replace(base, evaluator=lambda p, q: evaluate(base, p[..., :-1], q))
        with pytest.raises(DomainError) as caught:
            check_integral_contraction(D, 5, seed=1)
        assert not isinstance(caught.value, NonFiniteError)


class TestClosedFormOracles:
    def test_every_named_chain_in_the_roster_has_an_oracle(self):
        named = {"chi2", "kl", "jeffreys", "swap(kl)"}
        assert named <= {D.identifier for D in _suite_divergences()}
        assert set(_CLOSED_FORMS) == named

    @pytest.mark.parametrize(
        "D",
        [D for D in _suite_divergences() if D.identifier in _CLOSED_FORMS],
        ids=lambda D: D.identifier,
    )
    def test_named_chains_pass(self, D):
        check = check_iterated_chain(D, 3, 30, seed=12)
        assert check.passed and check.worst_violation <= 1e-11

    def test_oracles_call_the_module_sequences(self, monkeypatch):
        # pl and sl are resolved when a check runs, so a wrapper bound in
        # their place (as a tracer binds one) sees every oracle call.
        calls = {"pl": 0, "sl": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(sequences, "pl", counting("pl", sequences.pl))
        monkeypatch.setattr(sequences, "sl", counting("sl", sequences.sl))
        check_iterated_chain(named_divergence("chi2"), 2, 5, seed=3)
        assert calls["pl"] > 0 and calls["sl"] == 0
        check_iterated_chain(named_divergence("jeffreys"), 2, 5, seed=3)
        assert calls["sl"] > 0

    @pytest.mark.parametrize("identifier", ["kl", "swap(kl)"])
    def test_a_wrong_chain_is_caught(self, identifier):
        # chi2's chain under kl's name misses pl(k + 1); jeffreys' chain
        # under swap(kl)'s misses sl(k + 1).
        base = named_divergence("chi2" if identifier == "kl" else "jeffreys")
        check = check_iterated_chain(replace(base, identifier=identifier), 2, 10, seed=13)
        assert not check.passed


class TestDerivativeDominates:
    @pytest.mark.parametrize("identifier", ["kl", "hellinger2"])
    def test_named_pass(self, identifier):
        check = check_derivative_dominates(named_divergence(identifier), 30, seed=7)
        assert check.passed
        assert check.tolerance == 1e-9

    def test_broken_divergence_fails(self):
        assert not check_derivative_dominates(_broken_divergence(), 10, seed=8).passed


class TestPathInvariance:
    def test_chi2_passes(self):
        check = check_path_invariance(named_divergence("chi2"), 20, seed=9)
        assert check.passed
        assert check.tolerance == 1e-8


class TestSuite:
    def test_small_suite_passes(self):
        report = run_suite(seed=11, instances=8)
        assert isinstance(report, VerificationReport)
        assert report.all_passed
        assert report.seed == 11
        # Seven divergences, four checks each.
        assert len(report.checks) == 28
        for check in report.checks:
            assert isinstance(check, PropertyCheck)
            assert check.passed == (check.worst_violation <= check.tolerance)

    def test_deterministic_given_seed(self):
        first = run_suite(seed=5, instances=6).to_json()
        second = run_suite(seed=5, instances=6).to_json()
        assert first == second

    def test_json_schema(self):
        report = run_suite(seed=3, instances=5)
        payload = json.loads(report.to_json())
        assert set(payload) == {"seed", "checks", "all_passed"}
        assert payload["seed"] == 3
        assert payload["all_passed"] == all(c["passed"] for c in payload["checks"])
        for entry in payload["checks"]:
            assert set(entry) == {
                "name",
                "paper_anchor",
                "instances",
                "worst_violation",
                "tolerance",
                "passed",
            }
        assert "\n" not in report.to_json()

    def test_rejects_nonpositive_instances(self):
        with pytest.raises(DomainError):
            run_suite(seed=1, instances=0)

    def test_no_check_calls_the_quadrature(self, monkeypatch):
        # Every roster functional has a generator, swap(bregman x^2) one of
        # degree 2 read off its form, so psi takes the level kernel throughout.
        def refused(*args, **kwargs):
            raise AssertionError("run_suite called cumulative_integral")

        monkeypatch.setattr(operators, "cumulative_integral", refused)
        assert all(D.generator is not None for D in _suite_divergences())
        assert run_suite(seed=42, instances=40).all_passed

    def test_building_the_roster_imports_no_numpy_ma(self):
        # Reading the Bregman degree takes the middle ratio by sorting, as
        # np.median would import numpy.ma: 1 MB and 3 ms on every verify run.
        code = "import sys; from divseq import verify; verify._suite_divergences(); " \
            "sys.exit('numpy.ma' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
