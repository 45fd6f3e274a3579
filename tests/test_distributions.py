import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divseq.chebyshev import ChebyshevInterpolant, lobatto_nodes
from divseq.distributions import (
    Distribution,
    MixturePath,
    mixture,
    new_distribution,
    random_distribution,
)
from divseq.divergences import (
    BregmanSpec,
    FDivergenceSpec,
    evaluate,
    make_bregman,
    make_f_divergence,
    named_divergence,
    path_derivative,
    swap_orientation,
)
from divseq.errors import DomainError, SpecError
from divseq.operators import psi, psi_inverse, psi_iter
from divseq.polylog import polylog
from divseq.sequences import hellinger_psi, hellinger_psi_inverse, pl
from divseq.verify import (
    check_derivative_dominates,
    check_integral_contraction,
    check_iterated_chain,
    check_path_invariance,
)

P_HALF = new_distribution([0.5, 0.5])
Q_QUART = new_distribution([0.25, 0.75])


def test_uniform_passes_through():
    d = new_distribution([0.5, 0.5])
    np.testing.assert_array_equal(d.masses, [0.5, 0.5])
    assert d.support_size == 2


def test_valid_input_passes_through():
    d = new_distribution([0.25, 0.75])
    np.testing.assert_array_equal(d.masses, [0.25, 0.75])


def test_uniform_five_point():
    d = new_distribution([0.2] * 5)
    assert d.support_size == 5
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-15)


def test_small_drift_is_renormalized():
    d = new_distribution([0.5, 0.5 + 1e-10])
    assert abs(d.masses.sum() - 1.0) < 1e-12
    # proportions preserved
    assert d.masses[1] / d.masses[0] == pytest.approx((0.5 + 1e-10) / 0.5, rel=1e-14)


def test_large_deviation_rejected():
    with pytest.raises(DomainError):
        new_distribution([0.7, 0.2])
    with pytest.raises(DomainError):
        new_distribution([0.5, 0.5 + 1e-8])


def test_zero_mass_rejected():
    with pytest.raises(DomainError):
        new_distribution([0.5, 0.0, 0.5])


def test_subnormal_mass_rejected():
    # Below the smallest normal float a ratio q/p of masses can overflow;
    # at it, every ratio is finite.
    tiny = np.finfo(float).tiny
    with pytest.raises(DomainError, match="smallest normal"):
        new_distribution([1e-310, 1.0])
    with pytest.raises(DomainError):
        Distribution(np.array([[0.5, 0.5], [np.nextafter(tiny, 0.0), 1.0]]))
    d = new_distribution([tiny, 1.0])
    with np.errstate(over="raise"):
        assert np.isfinite(0.5 / d.masses).all()


def test_negative_mass_rejected():
    with pytest.raises(DomainError):
        new_distribution([1.2, -0.2])


def test_short_support_rejected():
    with pytest.raises(DomainError):
        new_distribution([1.0])
    with pytest.raises(DomainError):
        new_distribution([])


def test_non_finite_mass_rejected():
    with pytest.raises(DomainError):
        new_distribution([0.5, float("nan")])
    with pytest.raises(DomainError):
        new_distribution([0.5, float("inf")])


def test_direct_construction_names_each_fault():
    # The checks come from one minimum and one sum a row, and each fault
    # keeps its message, also in a row of a stack that is not the first.
    good = [0.5, 0.5]
    for bad in ([0.5, np.nan], [0.5, -np.inf], [np.inf, 0.5], [1e-310, 1.0]):
        with pytest.raises(DomainError, match="must be finite and at least"):
            Distribution(np.array([good, bad]))
    with pytest.raises(DomainError, match=r"sum to 0\.9, outside"):
        Distribution(np.array([good, [0.5, 0.4]]))


def test_integer_mass_beyond_float_range_rejected():
    # A JSON integer like 1 followed by 400 zeros reaches the array as a
    # Python int, which no float64 holds.
    with pytest.raises(DomainError, match="too large"):
        new_distribution([10**400, 1])


def test_masses_are_read_only():
    d = new_distribution([0.5, 0.5])
    with pytest.raises(ValueError):
        d.masses[0] = 0.9


def test_distribution_equality():
    assert new_distribution([0.5, 0.5]) == new_distribution([0.5, 0.5])
    assert new_distribution([0.5, 0.5]) != new_distribution([0.25, 0.75])
    assert new_distribution([0.5, 0.5]) != new_distribution([0.2] * 5)


class TestMixture:
    path = MixturePath(P_HALF, Q_QUART)

    def test_left_endpoint_exact(self):
        r = mixture(self.path, 0.0)
        np.testing.assert_array_equal(r.masses, P_HALF.masses)

    def test_right_endpoint_exact(self):
        r = mixture(self.path, 1.0)
        np.testing.assert_array_equal(r.masses, Q_QUART.masses)

    def test_midpoint_by_hand(self):
        r = mixture(self.path, 0.5)
        np.testing.assert_array_equal(r.masses, [0.375, 0.625])

    def test_t_outside_unit_interval_rejected(self):
        for t in (-0.01, 1.01, float("nan")):
            with pytest.raises(DomainError):
                mixture(self.path, t)

    def test_support_mismatch_rejected(self):
        with pytest.raises(DomainError):
            MixturePath(P_HALF, new_distribution([0.2] * 5))

    def test_reversal_symmetry_on_dyadic_grid(self):
        # t and 1-t are exact complements for dyadic t, so the two
        # parametrizations must agree bitwise.
        back = MixturePath(Q_QUART, P_HALF)
        for j in range(65):
            t = j / 64.0
            a = mixture(self.path, t).masses
            b = mixture(back, 1.0 - t).masses
            np.testing.assert_array_equal(a, b, err_msg=f"t={t}")

    def test_stays_normalized_along_path(self):
        for t in np.linspace(0.0, 1.0, 37):
            r = mixture(self.path, float(t))
            assert abs(r.masses.sum() - 1.0) < 1e-12
            assert (r.masses > 0).all()

    def test_constant_path_is_constant(self):
        path = MixturePath(P_HALF, P_HALF)
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(mixture(path, t).masses, P_HALF.masses)

    def test_masses_at_matches_scalar_mixture(self):
        ts = np.array([0.0, 0.125, 0.5, 0.875, 1.0])
        block = self.path.masses_at(ts)
        assert block.shape == (5, 2)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(block[i], mixture(self.path, float(t)).masses)


class TestRandomDistribution:
    def test_deterministic_for_fixed_seed(self):
        a = random_distribution(2, seed=42, min_mass=0.01)
        b = random_distribution(2, seed=42, min_mass=0.01)
        np.testing.assert_array_equal(a.masses, b.masses)

    def test_seed_changes_output(self):
        a = random_distribution(6, seed=1, min_mass=0.01)
        b = random_distribution(6, seed=2, min_mass=0.01)
        assert not np.array_equal(a.masses, b.masses)

    def test_floor_respected(self):
        d = random_distribution(5, seed=7, min_mass=0.05)
        assert d.masses.min() >= 0.05
        assert abs(d.masses.sum() - 1.0) < 1e-12

    def test_infeasible_floor_rejected(self):
        with pytest.raises(DomainError):
            random_distribution(2, seed=0, min_mass=0.6)
        with pytest.raises(DomainError):
            random_distribution(4, seed=0, min_mass=0.25)

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(DomainError):
            random_distribution(3, seed=0, min_mass=0.0)

    def test_small_support_rejected(self):
        with pytest.raises(DomainError):
            random_distribution(1, seed=0, min_mass=0.1)

    @pytest.mark.parametrize("n, seed", [(3, -1), (3.5, 1), (3, 1.0), ("3", 1)])
    def test_support_size_and_seed_must_be_integers(self, n, seed):
        with pytest.raises(DomainError):
            random_distribution(n, seed)

    def test_numpy_integers_are_accepted(self):
        assert random_distribution(np.int64(4), np.int64(9)) == random_distribution(4, 9)

    @pytest.mark.parametrize(
        "n, seed, masses",
        [
            (2, 0, [0.40206936966578555, 0.5979306303342145]),
            (3, 42, [0.337302486984236, 0.3280425704977658, 0.3346549425179983]),
            (5, 7, [0.2075221359296761, 0.29620774824471563, 0.16872268781393857,
                    0.2598893306555145, 0.06765809735615508]),
            (10, 2024, [0.11878468981862386, 0.02460421394247956, 0.031575747218766076,
                        0.17521463803489934, 0.3072467754456769, 0.0398259436042668,
                        0.07620211975706948, 0.06537995123310139, 0.021012901896972722,
                        0.1401530190481439]),
        ],
    )
    def test_frozen_draws(self, n, seed, masses):
        # The acceptance tests draw their pairs through random_distribution,
        # so its masses are pinned bit for bit.
        np.testing.assert_array_equal(random_distribution(n, seed).masses, masses)

    @pytest.mark.parametrize("n", [2, 3, 7, 10])
    def test_supports(self, n):
        d = random_distribution(n, seed=11, min_mass=0.01)
        assert d.support_size == n
        assert d.masses.min() >= 0.01


@st.composite
def mass_vectors(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return raw


@given(mass_vectors())
@settings(max_examples=200, deadline=None)
def test_normalized_vectors_construct(raw):
    total = sum(raw)
    masses = [x / total for x in raw]
    d = new_distribution(masses)
    assert abs(d.masses.sum() - 1.0) < 1e-12
    assert (d.masses > 0).all()


@given(mass_vectors(), st.integers(min_value=0, max_value=64))
@settings(max_examples=100, deadline=None)
def test_mixture_stays_in_simplex(raw, j):
    total = sum(raw)
    p = new_distribution([x / total for x in raw])
    q = new_distribution([1.0 / len(raw)] * len(raw))
    t = j / 64.0
    r = mixture(MixturePath(p, q), t)
    assert (r.masses > 0).all()
    assert abs(r.masses.sum() - 1.0) < 1e-12


_KL = named_divergence("kl")
_PATH = MixturePath(P_HALF, Q_QUART)
_MALFORMED = {
    "distribution_of_strings": lambda: Distribution(["a", "b"]),
    "ragged_distribution": lambda: Distribution([[0.5, 0.5], [0.5]]),
    "evaluate_strings": lambda: evaluate(_KL, ["a", "b"], [0.5, 0.5]),
    "pl_ragged": lambda: pl(2, [[0.5, 0.5], [0.5]], [0.5, 0.5]),
    "mixture_string": lambda: mixture(_PATH, "a"),
    "psi_iter_strings": lambda: psi_iter(_KL, 2, _PATH, ["a"]),
    "polylog_string": lambda: polylog(2, "a"),
    "psi_tol_string": lambda: psi(_KL, _PATH, 0.5, tol="x"),
    "path_of_lists": lambda: MixturePath([0.5, 0.5], [0.3, 0.7]),
    "psi_on_a_string": lambda: psi(_KL, "x", 0.5),
    "psi_inverse_on_a_string": lambda: psi_inverse(_KL, "x", 0.5),
    "path_derivative_string": lambda: path_derivative(_KL, _PATH, "a"),
    "masses_at_string": lambda: _PATH.masses_at("a"),
    "hellinger_psi_string": lambda: hellinger_psi(P_HALF, Q_QUART, "a"),
    "interpolant_of_strings": lambda: ChebyshevInterpolant(["a", "b"]),
    "interpolant_at_a_string": lambda: ChebyshevInterpolant([0.0, 1.0])("a"),
    # A scalar argument is a real number or a 0-d array: never None, a list
    # or a one-element array, which numpy 2 no longer converts to a float.
    "psi_tol_list": lambda: psi(_KL, _PATH, 0.5, tol=[1e-12]),
    "psi_tol_none": lambda: psi(_KL, _PATH, 0.5, tol=None),
    "psi_iter_tol_list": lambda: psi_iter(_KL, 2, _PATH, [0.5], tol=[1e-12]),
    "fit_adaptive_target_list": lambda: ChebyshevInterpolant.fit_adaptive(np.exp, [1e-12]),
    "hellinger_psi_position_list": lambda: hellinger_psi(P_HALF, Q_QUART, [0.5]),
    "hellinger_psi_inverse_position_list": lambda: hellinger_psi_inverse(P_HALF, Q_QUART, [0.5]),
    "masses_at_past_one": lambda: _PATH.masses_at(1.5),
    "masses_at_nan": lambda: _PATH.masses_at(np.nan),
    "min_mass_list": lambda: random_distribution(2, 0, min_mass=[0.1]),
    "min_mass_none": lambda: random_distribution(2, 0, min_mass=None),
    "lobatto_nodes_fraction": lambda: lobatto_nodes(2.5),
    "lobatto_nodes_string": lambda: lobatto_nodes("a"),
    "lifts_negative": lambda: ChebyshevInterpolant([0.0, 1.0]).lifts(-1),
    "lifts_zero": lambda: ChebyshevInterpolant([0.0, 1.0]).lifts(0),
    "lifts_fraction": lambda: ChebyshevInterpolant([0.0, 1.0]).lifts(1.5),
    "evaluate_a_name": lambda: evaluate("kl", P_HALF, Q_QUART),
    "psi_a_name": lambda: psi("kl", _PATH, 0.5),
    "psi_inverse_a_name": lambda: psi_inverse("kl", _PATH, 0.5),
    "psi_iter_a_name": lambda: psi_iter("kl", 2, _PATH, [0.5]),
    "path_derivative_a_name": lambda: path_derivative("kl", _PATH, 0.5),
    "swap_orientation_a_name": lambda: swap_orientation("kl"),
    "named_divergence_list": lambda: named_divergence(["kl"]),
    "contraction_no_instances": lambda: check_integral_contraction(_KL, 0, 0),
    "chain_negative_instances": lambda: check_iterated_chain(_KL, 3, -1, 0),
    "invariance_negative_seed": lambda: check_path_invariance(_KL, 2, -1),
    "dominates_fractional_instances": lambda: check_derivative_dominates(_KL, 2.5, 0),
}

# A factory takes its own spec type, with callable generators.
_MALFORMED_SPECS = {
    "f_divergence_of_a_function": lambda: make_f_divergence(lambda u: u),
    "bregman_of_none": lambda: make_bregman(None),
    "f_divergence_spec_of_none": lambda: make_f_divergence(FDivergenceSpec(f=None)),
    "bregman_spec_of_a_float": lambda: make_bregman(BregmanSpec(F=np.square, F_prime=2.0)),
}


@pytest.mark.parametrize("call", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_arguments_raise_domain_error(call):
    # A DomainError is a ValueError, so callers catching ValueError still do;
    # numpy's bare ValueError, a TypeError and an AttributeError are not typed.
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", _MALFORMED_SPECS.values(), ids=_MALFORMED_SPECS.keys())
def test_malformed_specs_raise_spec_error(call):
    with pytest.raises(SpecError):
        call()
