import json
import math
from dataclasses import replace

import numpy as np
import pytest

from divseq.divergences import (
    DivergenceFunctional,
    Orientation,
    named_divergence,
    swap_orientation,
)
from divseq import verify
from divseq.cli import main
from divseq.divergences import evaluate
from divseq.errors import DomainError, NonFiniteError
from divseq.verify import (
    _CLOSED_FORMS,
    PropertyCheck,
    VerificationReport,
    _check,
    _suite_divergences,
    check_derivative_dominates,
    check_integral_contraction,
    check_iterated_chain,
    check_path_invariance,
    run_suite,
)


def _broken_divergence():
    base = named_divergence("chi2")
    ev = base.evaluator
    deriv = base.analytic_path_derivative
    return DivergenceFunctional(
        identifier="broken",
        orientation=Orientation.RIGHT_CONVEX,
        evaluator=lambda a, b: -np.asarray(ev(a, b)),
        analytic_path_derivative=lambda path, t: -deriv(path, t),
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
    """A named divergence whose evaluator gives NaN wherever it exceeds level."""
    base = named_divergence(identifier)

    def evaluator(p, q):
        values = np.asarray(base.evaluator(p, q), dtype=float)
        return np.where(values > level, np.nan, values)

    return replace(base, evaluator=evaluator)


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
        # Each instance draws its own index; the body reports NaN for the
        # instance at position, whichever stack it lands in.
        indices = iter(range(5))
        check = _check(
            "nan_probe", "anchor", 1.0, named_divergence("kl"), 5, 3,
            lambda rng, n: (next(indices),),
            lambda path, separated, index: np.where(index == position, math.nan, 0.5),
        )
        assert check.worst_violation == math.inf and not check.passed


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

        monkeypatch.setattr(verify, "pl", counting("pl", verify.pl))
        monkeypatch.setattr(verify, "sl", counting("sl", verify.sl))
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
