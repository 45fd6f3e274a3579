import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divseq.distributions import (
    MixturePath,
    mixture,
    new_distribution,
    random_distribution,
)
from divseq.divergences import (
    BregmanSpec,
    DivergenceFunctional,
    FDivergenceSpec,
    NAMED_IDENTIFIERS,
    Orientation,
    evaluate,
    make_bregman,
    make_f_divergence,
    named_divergence,
    path_derivative,
    swap_orientation,
)
from divseq.errors import DomainError, SpecError
from divseq.chebyshev import lobatto_nodes
from divseq.operators import _along, _level_zero, psi_inverse, psi_iter
from divseq.sequences import pl, sl
from divseq.verify import _suite_divergences
from operator_oracles import BREGMAN_DEGREES

P = new_distribution(np.array([0.5, 0.5]))
Q = new_distribution(np.array([0.25, 0.75]))

# Reference values computed by 50-digit summation of the defining series.
KL_PQ = 0.14384103622589046
REV_KL_PQ = 0.13081203594113696
CHI2_PQ = 1.0 / 3.0
JEFFREYS_PQ = 0.27465307216702742
HELLINGER2_PQ = 0.034074173710931713
HELLINGER2_DERIV_AT_1 = 0.07471462268067113


def _finite_difference_path_derivative(D, path, t):
    """Second-order finite difference of t -> evaluator(start, R(t)).

    Central step h = cbrt(machine epsilon) * max(t, 0.1); one-sided
    three-point stencils take over when t is within h of 0 or 1.
    """
    h = float(np.cbrt(np.finfo(float).eps)) * max(t, 0.1)
    if t - h >= 0.0 and t + h <= 1.0:
        pts = np.array([t - h, t + h])
        lo, hi = D.evaluator(path.start.masses, path.masses_at(pts))
        return float((hi - lo) / (2.0 * h))
    if t - h < 0.0:
        pts = np.array([t, t + h, t + 2.0 * h])
        g0, g1, g2 = D.evaluator(path.start.masses, path.masses_at(pts))
        return float((-3.0 * g0 + 4.0 * g1 - g2) / (2.0 * h))
    pts = np.array([t, t - h, t - 2.0 * h])
    g0, g1, g2 = D.evaluator(path.start.masses, path.masses_at(pts))
    return float((3.0 * g0 - 4.0 * g1 + g2) / (2.0 * h))


# Hand-written path derivatives of the named divergences: d/dt D(P, R(t))
# with the second argument moving ("right") or D(R(t), P) with the first
# moving ("left"). Oracles for the complex-step derivatives.
def _path_parts(path, t):
    p = path.start.masses
    return p, path.end.masses - p, path.masses_at(np.array([t]))[0]


def _kl_deriv_moving_right(path, t):
    p, delta, r = _path_parts(path, t)
    return float(-np.sum(p * delta / r))


def _kl_deriv_moving_left(path, t):
    p, delta, r = _path_parts(path, t)
    return float(np.sum(delta * (1.0 + np.log(r / p))))


def _chi2_deriv_moving_right(path, t):
    p, delta, r = _path_parts(path, t)
    return float(np.sum(delta * (1.0 - (p / r) ** 2)))


def _chi2_deriv_moving_left(path, t):
    p, delta, r = _path_parts(path, t)
    return float(2.0 * np.sum(delta * (r - p) / p))


def _jeffreys_deriv(path, t):
    p, delta, r = _path_parts(path, t)
    return float(np.sum(delta * (1.0 + np.log(r / p))) - np.sum(p * delta / r))


def _hellinger2_deriv(path, t):
    p, delta, r = _path_parts(path, t)
    return float(0.5 * np.sum(delta * (1.0 - np.sqrt(p / r))))


HAND_WRITTEN_DERIVATIVES = {
    "kl": (_kl_deriv_moving_right, _kl_deriv_moving_left),
    "reverse_kl": (_kl_deriv_moving_left, _kl_deriv_moving_right),
    "chi2": (_chi2_deriv_moving_right, _chi2_deriv_moving_left),
    "jeffreys": (_jeffreys_deriv, _jeffreys_deriv),
    "hellinger2": (_hellinger2_deriv, _hellinger2_deriv),
}


# The same formulas term by term, as (p, delta, r) -> term, summed in
# mpmath over the exact path r = (1 - t) p + t q of the float endpoints.
def _mp_kl_right(p, d, r):
    return -p * d / r


def _mp_kl_left(p, d, r):
    return d * (1 + mpmath.log(r / p))


def _mp_jeffreys(p, d, r):
    return _mp_kl_left(p, d, r) + _mp_kl_right(p, d, r)


def _mp_hellinger2(p, d, r):
    return d * (1 - mpmath.sqrt(p / r)) / 2


MPMATH_DERIVATIVE_TERMS = {
    "kl": (_mp_kl_right, _mp_kl_left),
    "reverse_kl": (_mp_kl_left, _mp_kl_right),
    "chi2": (lambda p, d, r: d * (1 - (p / r) ** 2), lambda p, d, r: 2 * d * (r - p) / p),
    "jeffreys": (_mp_jeffreys, _mp_jeffreys),
    "hellinger2": (_mp_hellinger2, _mp_hellinger2),
}


def _mp_path_sum(term, path, t):
    """Sum_i term(p_i, q_i - p_i, r_i(t)) at 60 digits, as a float."""
    with mpmath.workdps(60):
        t = mpmath.mpf(float(t))
        total = mpmath.fsum(
            term(p, q - p, (1 - t) * p + t * q)
            for p, q in zip(map(mpmath.mpf, path.start.masses), map(mpmath.mpf, path.end.masses))
        )
        return float(total)


def _tiny_mass_pairs(count, seed, floor=1e-6):
    """Seeded pairs in which each side has one coordinate at exactly floor."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        sides = []
        for _side in range(2):
            weights = rng.exponential(size=n)
            weights[rng.integers(n)] = 0.0
            masses = floor + (1.0 - n * floor) * weights / weights.sum()
            sides.append(new_distribution(masses))
        pairs.append(tuple(sides))
    return pairs


class TestNamedDivergences:
    @pytest.mark.parametrize(
        "identifier,expected",
        [
            ("kl", KL_PQ),
            ("reverse_kl", REV_KL_PQ),
            ("chi2", CHI2_PQ),
            ("jeffreys", JEFFREYS_PQ),
            ("hellinger2", HELLINGER2_PQ),
        ],
    )
    def test_reference_values(self, identifier, expected):
        D = named_divergence(identifier)
        assert evaluate(D, P, Q) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("identifier", NAMED_IDENTIFIERS)
    def test_self_divergence_is_exactly_zero(self, identifier):
        D = named_divergence(identifier)
        assert evaluate(D, P, P) == 0.0
        assert evaluate(D, Q, Q) == 0.0

    @pytest.mark.parametrize("identifier", NAMED_IDENTIFIERS)
    def test_named_are_right_convex_and_differentiable(self, identifier):
        D = named_divergence(identifier)
        assert D.orientation is Orientation.RIGHT_CONVEX
        assert np.isfinite(path_derivative(D, MixturePath(P, Q), 0.5))
        assert D.identifier == identifier

    def test_unknown_identifier(self):
        with pytest.raises(DomainError):
            named_divergence("alpha_divergence")

    def test_support_mismatch(self):
        R3 = new_distribution(np.array([0.2, 0.3, 0.5]))
        with pytest.raises(DomainError):
            evaluate(named_divergence("kl"), P, R3)

    def test_jeffreys_is_sum_of_both_kls(self):
        kl = named_divergence("kl")
        j = named_divergence("jeffreys")
        total = evaluate(kl, P, Q) + evaluate(kl, Q, P)
        assert evaluate(j, P, Q) == pytest.approx(total, rel=1e-14)


class TestDivergenceAxioms:
    def test_nonnegative_and_positive_off_diagonal(self):
        rng_seed = 20240
        for identifier in NAMED_IDENTIFIERS:
            D = named_divergence(identifier)
            for j in range(100):
                n = 2 + (j % 7)
                A = random_distribution(n, seed=rng_seed + 2 * j)
                B = random_distribution(n, seed=rng_seed + 2 * j + 1)
                value = evaluate(D, A, B)
                assert value >= 0.0, f"{identifier} negative at pair {j}"
                if np.max(np.abs(A.masses - B.masses)) > 1e-9:
                    assert value > 0.0, f"{identifier} zero at distinct pair {j}"

    def test_right_convexity_in_second_argument(self):
        rng = np.random.default_rng(5150)
        for identifier in NAMED_IDENTIFIERS:
            D = named_divergence(identifier)
            for j in range(60):
                n = int(rng.integers(2, 8))
                A = random_distribution(n, seed=int(rng.integers(1 << 30)))
                B1 = random_distribution(n, seed=int(rng.integers(1 << 30)))
                B2 = random_distribution(n, seed=int(rng.integers(1 << 30)))
                lam = float(rng.uniform())
                mix = new_distribution(lam * B1.masses + (1.0 - lam) * B2.masses)
                lhs = lam * evaluate(D, A, B1) + (1.0 - lam) * evaluate(D, A, B2)
                rhs = evaluate(D, A, mix)
                assert lhs >= rhs - 1e-10, f"{identifier} convexity broke at {j}"

    def test_midpoint_convex_along_mixture_path(self):
        rng = np.random.default_rng(808)
        for identifier in NAMED_IDENTIFIERS:
            D = named_divergence(identifier)
            for j in range(40):
                n = int(rng.integers(2, 6))
                A = random_distribution(n, seed=int(rng.integers(1 << 30)))
                B = random_distribution(n, seed=int(rng.integers(1 << 30)))
                path = MixturePath(A, B)
                t1, t2 = np.sort(rng.uniform(size=2))
                g = lambda s: D.evaluator(A.masses, path.masses_at(np.array([s]))[0])
                mid = g(0.5 * (t1 + t2))
                assert mid <= 0.5 * g(t1) + 0.5 * g(t2) + 1e-10

    def test_strictly_increasing_along_path(self):
        grid = np.linspace(0.0, 1.0, 21)
        for identifier in NAMED_IDENTIFIERS:
            D = named_divergence(identifier)
            path = MixturePath(P, Q)
            vals = D.evaluator(P.masses, path.masses_at(grid))
            assert np.all(np.diff(vals) > 0.0), f"{identifier} not increasing"


class TestFDivergenceFactory:
    @pytest.mark.parametrize(
        "f,matches",
        [
            (lambda u: u * np.log(u), "kl"),
            (lambda u: (u - 1.0) ** 2, "chi2"),
            (lambda u: -np.log(u), "reverse_kl"),
            (lambda u: 0.5 * (1.0 - np.sqrt(u)) ** 2, "hellinger2"),
            (lambda u: (u - 1.0) * np.log(u), "jeffreys"),
        ],
    )
    def test_recovers_named_divergences(self, f, matches):
        D = make_f_divergence(FDivergenceSpec(f=f))
        ref = named_divergence(matches)
        for seed in range(25):
            A = random_distribution(4, seed=seed)
            B = random_distribution(4, seed=1000 + seed)
            assert evaluate(D, A, B) == pytest.approx(
                evaluate(ref, A, B), rel=1e-12, abs=1e-12
            )

    def test_orientation_and_derivative(self):
        D = make_f_divergence(FDivergenceSpec(f=lambda u: (u - 1.0) ** 2))
        assert D.orientation is Orientation.RIGHT_CONVEX
        path = MixturePath(P, Q)
        assert path_derivative(D, path, 1.0) == pytest.approx(
            _chi2_deriv_moving_right(path, 1.0), rel=1e-15
        )

    def test_rejects_f_not_vanishing_at_one(self):
        with pytest.raises(SpecError):
            make_f_divergence(FDivergenceSpec(f=lambda u: u**2))

    def test_rejects_concave_f(self):
        with pytest.raises(SpecError):
            make_f_divergence(FDivergenceSpec(f=lambda u: -((u - 1.0) ** 2)))

    # Both generators are convex with f(1) = 0, so only the complex-step
    # screen catches them: each drops the imaginary part of a complex u.
    @pytest.mark.parametrize(
        "f",
        [lambda u: np.abs(u - 1.0), lambda u: (u.real - 1.0) ** 2],
        ids=["abs", "real_part"],
    )
    def test_rejects_generator_that_drops_the_complex_step(self, f):
        with pytest.raises(SpecError, match="complex"):
            make_f_divergence(FDivergenceSpec(f=f))


class TestBregmanFactory:
    def test_squared_euclidean(self):
        D = make_bregman(BregmanSpec(F=lambda x: x**2, F_prime=lambda x: 2.0 * x))
        assert evaluate(D, P, Q) == pytest.approx(0.125, abs=1e-15)
        assert D.orientation is Orientation.LEFT_CONVEX

    def test_negative_entropy_recovers_kl(self):
        D = make_bregman(
            BregmanSpec(F=lambda x: x * np.log(x), F_prime=lambda x: np.log(x) + 1.0)
        )
        assert evaluate(D, P, Q) == pytest.approx(KL_PQ, rel=1e-12)

    def test_zero_on_equal_arguments(self):
        D = make_bregman(BregmanSpec(F=lambda x: x**2, F_prime=lambda x: 2.0 * x))
        assert evaluate(D, Q, Q) == 0.0

    def test_rejects_concave_generator(self):
        with pytest.raises(SpecError):
            make_bregman(BregmanSpec(F=lambda x: np.sqrt(x), F_prime=lambda x: 0.5 / np.sqrt(x)))

    def test_rejects_derivative_that_drops_the_complex_step(self):
        # 2|x| is F' on the positive grid, so the gradient inequality holds.
        with pytest.raises(SpecError, match="F_prime"):
            make_bregman(BregmanSpec(F=lambda x: x**2, F_prime=lambda x: 2.0 * np.abs(x)))


class TestBregmanDegree:
    @pytest.mark.parametrize("name", list(BREGMAN_DEGREES))
    def test_the_swap_of_a_homogeneous_form_has_generator_beta(self, name):
        F, F_prime, degree, terms = BREGMAN_DEGREES[name]
        beta = lambda w: terms(w, w - 1.0, np.log(w))  # noqa: E731
        D = make_bregman(BregmanSpec(F, F_prime))
        swapped = swap_orientation(D)
        assert D.degree == swapped.degree == degree
        assert swapped.orientation is Orientation.RIGHT_CONVEX
        w = np.logspace(-12, 6, 181)
        exact = beta(w)
        scale = np.abs(F(w)) + np.abs(F(1.0)) + np.abs(F_prime(1.0) * (w - 1.0))
        assert np.all(np.abs(swapped.generator(w) - exact) <= 16 * np.finfo(float).eps * scale)
        # D(P, R) = Sum p^alpha beta(r/p) for the swap, Sum q^alpha beta(p/q) unswapped.
        for seed in range(5):
            p, q = (random_distribution(6, seed=2 * seed + i).masses for i in (1, 2))
            want = np.sum(p**degree * beta(q / p))
            assert evaluate(swapped, p, q) == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert evaluate(D, q, p) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_an_affine_term_keeps_the_degree(self):
        # F and F + affine give the same form.
        D = make_bregman(BregmanSpec(lambda x: x * x + 3.0 * x - 2.0, lambda x: 2.0 * x + 3.0))
        assert D.degree == 2.0
        w = np.logspace(-6, 6, 25)
        assert np.allclose(D.generator(w), w * w * (1.0 / w - 1.0) ** 2, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("F, F_prime", [
        # Convex on the grid, but scaling by no single power.
        (lambda x: x * x + x**3, lambda x: 2.0 * x + 3.0 * x * x),
        (lambda x: np.exp(x / 10.0), lambda x: np.exp(x / 10.0) / 10.0),
        # Homogeneous near degree 1.7, off every sixteenth.
        (lambda x: x**1.7, lambda x: 1.7 * x**0.7),
    ], ids=["x^2 + x^3", "exp", "x^1.7"])
    def test_a_form_of_no_degree_gets_no_generator(self, F, F_prime):
        D = make_bregman(BregmanSpec(F, F_prime))
        assert D.generator is None and swap_orientation(D).generator is None
        assert evaluate(D, Q, Q) == 0.0

    def test_degree_one_swaps_as_before_bitwise(self):
        # f-divergences have degree 1, and their swap takes no power.
        kl = named_divergence("kl")
        assert kl.degree == 1.0
        w = np.logspace(-12, 6, 37)
        assert swap_orientation(kl).generator(w).tobytes() == (w * kl.generator(1.0 / w)).tobytes()


class TestSwap:
    def test_swap_kl_is_reverse_kl(self):
        swapped = swap_orientation(named_divergence("kl"))
        rev = named_divergence("reverse_kl")
        for seed in range(20):
            A = random_distribution(3, seed=seed)
            B = random_distribution(3, seed=500 + seed)
            assert evaluate(swapped, A, B) == evaluate(rev, A, B)

    def test_swap_flips_orientation(self):
        kl = named_divergence("kl")
        assert swap_orientation(kl).orientation is Orientation.LEFT_CONVEX
        breg = make_bregman(BregmanSpec(F=lambda x: x**2, F_prime=lambda x: 2.0 * x))
        assert swap_orientation(breg).orientation is Orientation.RIGHT_CONVEX

    def test_swap_is_involution(self):
        kl = named_divergence("kl")
        twice = swap_orientation(swap_orientation(kl))
        assert twice.orientation is Orientation.RIGHT_CONVEX
        for seed in range(20):
            A = random_distribution(5, seed=seed)
            B = random_distribution(5, seed=900 + seed)
            assert evaluate(twice, A, B) == evaluate(kl, A, B)

    def test_swap_symmetric_divergence_agrees(self):
        j = named_divergence("jeffreys")
        swapped = swap_orientation(j)
        for seed in range(20):
            A = random_distribution(4, seed=seed)
            B = random_distribution(4, seed=700 + seed)
            assert evaluate(swapped, A, B) == pytest.approx(evaluate(j, A, B), rel=1e-12)

    def test_swapped_named_keeps_analytic_derivative(self):
        swapped = swap_orientation(named_divergence("kl"))
        path = MixturePath(P, Q)
        for t in (0.0, 0.5, 1.0):
            assert path_derivative(swapped, path, t) == pytest.approx(
                _kl_deriv_moving_left(path, t), rel=1e-15, abs=1e-16
            )


def _split_roster():
    named = [named_divergence(name) for name in NAMED_IDENTIFIERS]
    f_div = make_f_divergence(FDivergenceSpec(f=lambda u: u * np.log(u)))
    bregman = make_bregman(BregmanSpec(F=lambda x: x * np.log(x), F_prime=lambda x: np.log(x) + 1.0))
    roster = named + [swap_orientation(D) for D in named] + [f_div, bregman]
    return roster + [swap_orientation(f_div), swap_orientation(bregman)] + list(_suite_divergences())


@pytest.mark.parametrize("D", _split_roster(), ids=lambda D: D.identifier)
def test_evaluator_sums_its_terms_over_the_last_axis(D):
    # psi_iter fits level 0 by groups of columns and adds the groups' fits,
    # which relies on every evaluator being a sum of per-coordinate terms.
    rng = np.random.default_rng(4)
    p, q = (d / d.sum(axis=-1, keepdims=True) for d in rng.exponential(size=(2, 6, 30)))
    cols = np.array_split(rng.permutation(30), 3)
    whole = D.evaluator(p, q)
    parts = sum(D.evaluator(p[:, c], q[:, c]) for c in cols)
    assert whole.shape == (6,)
    np.testing.assert_allclose(parts, whole, rtol=1e-13, atol=1e-15)


# Each generator phi (D(P, R) = Sum_i p_i phi(r_i / p_i)) in 40-digit
# mpmath: the named ones, swap(kl)'s w phi_kl(1 / w), which is reverse_kl's,
# and the triangular discrimination's w f(1 / w) = (w - 1)^2 / (w + 1).
_MP_GENERATORS = {
    "kl": lambda w: -mpmath.log(w),
    "reverse_kl": lambda w: w * mpmath.log(w),
    "chi2": lambda w: (w - 1) ** 2 / w,
    "jeffreys": lambda w: (w - 1) * mpmath.log(w),
    "hellinger2": lambda w: (mpmath.sqrt(w) - 1) ** 2 / 2,
    "swap(kl)": lambda w: w * mpmath.log(w),
    "f_divergence": lambda w: (w - 1) ** 2 / (w + 1),
}


def _with_generators():
    named = [named_divergence(name) for name in NAMED_IDENTIFIERS]
    suite = [D for D in _suite_divergences() if D.identifier == "f_divergence"]
    return named + [swap_orientation(named_divergence("kl"))] + suite


def _condition_scale(phi, w):
    """|phi(w)| + |w phi'(w)|, phi' by a complex step: phi's change, in
    units of eps, when w or a rounding inside phi moves by a relative eps."""
    step = 2.0**-300
    return np.abs(phi(w)) + np.abs(w * np.imag(phi(w + step * 1j)) / step)


class TestGenerators:
    @pytest.mark.parametrize("D", _with_generators(), ids=lambda D: D.identifier)
    def test_generator_matches_mpmath(self, D):
        w = np.logspace(-12, 6, 181)
        exact_phi = _MP_GENERATORS[D.identifier]
        with mpmath.workdps(40):
            exact = np.array([float(exact_phi(mpmath.mpf(float(x)))) for x in w])
        bound = 8 * np.finfo(float).eps * _condition_scale(D.generator, w)
        assert np.all(np.abs(D.generator(w) - exact) <= bound)
        assert D.generator(np.ones(3)).tolist() == [0.0, 0.0, 0.0]

    def test_swap_records_the_conjugate_generator(self):
        w = np.logspace(-12, 6, 37)
        # A Bregman form of no degree has no generator, and neither has its swap.
        cubic = BregmanSpec(F=lambda x: x * x + x**3, F_prime=lambda x: 2.0 * x + 3.0 * x * x)
        assert swap_orientation(make_bregman(cubic)).generator is None
        kl, rev = named_divergence("kl"), named_divergence("reverse_kl")
        np.testing.assert_allclose(
            swap_orientation(kl).generator(w), rev.generator(w), rtol=1e-15, atol=0.0
        )
        twice = swap_orientation(swap_orientation(kl))
        np.testing.assert_allclose(twice.generator(w), kl.generator(w), rtol=0.0, atol=1e-14)

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(11)
        regular = [tuple(random_distribution(50, s, 0.01 / 50).masses for s in (1, 2))]
        tiny = [(A.masses, B.masses) for A, B in _tiny_mass_pairs(4, seed=77, floor=1e-12)]
        near = []
        for _ in range(2):
            p = random_distribution(40, int(rng.integers(1 << 30)), 1e-4).masses
            q = p * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0, size=p.size))
            near.append((p, q / q.sum()))
        return regular + tiny + near

    @pytest.mark.parametrize("D", _with_generators(), ids=lambda D: D.identifier)
    def test_fit_kernel_matches_the_evaluator_on_the_float_mixture(self, D):
        # psi_iter samples level 0 at the fit's nodes through the generator,
        # on w = (1 - s) + s r/p, where the evaluator sees the rounded
        # mixture: the two differ by how w is rounded, a few ulps of the
        # condition scale. At s = 0 both are exactly 0.
        for n_intervals in (16, 2**14):
            s = lobatto_nodes(n_intervals)
            ends = [0, 1, 2, -3, -2, -1]
            for p, q in self._pairs():
                kernel = _level_zero(D, p[None], q[None])(s[None], np.arange(1), s[::-1][None])
                kernel = kernel[0, ends]
                mixed = _along(
                    D, p[None], q[None], s[None, ends], np.arange(1), s[::-1][None, ends]
                )[0]
                w = s[::-1][ends, None] + s[ends, None] * (q / p)
                rounded = (s[::-1][ends, None] * p + s[ends, None] * q) / p
                cond = np.maximum(*(_condition_scale(D.generator, x) for x in (w, rounded)))
                scale = np.sum(p * cond, axis=-1)
                assert kernel[0] == mixed[0] == 0.0
                assert np.all(np.abs(kernel - mixed) <= 16 * np.finfo(float).eps * scale)

    def test_evaluator_alone_takes_the_mixture_route_to_the_same_levels(self):
        kl = named_divergence("kl")
        bare = DivergenceFunctional("kl_evaluator", Orientation.RIGHT_CONVEX, kl.evaluator)
        assert bare.generator is None
        grid = np.linspace(0.0, 1.0, 11)
        for n in (7, 877):
            path = MixturePath(*(random_distribution(n, s, 0.01 / n) for s in (2 * n, 2 * n + 1)))
            levels, reference = psi_iter(bare, 3, path, grid), psi_iter(kl, 3, path, grid)
            np.testing.assert_array_equal(levels[0], reference[0])
            bound = 1e-13 * np.maximum(1.0, np.abs(reference[1:]))
            assert np.all(np.abs(levels[1:] - reference[1:]) <= bound)


class TestPathDerivative:
    @pytest.mark.parametrize("identifier", NAMED_IDENTIFIERS)
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 1.0])
    def test_analytic_matches_finite_difference(self, identifier, t):
        D = named_divergence(identifier)
        path = MixturePath(P, Q)
        analytic = path_derivative(D, path, t)
        numeric = _finite_difference_path_derivative(D, path, t)
        assert analytic == pytest.approx(numeric, abs=1e-6), f"t={t}"

    @pytest.mark.parametrize("identifier", NAMED_IDENTIFIERS)
    @pytest.mark.parametrize("moving", ["second", "first"])
    def test_generator_derivatives_match_hand_written(self, identifier, moving):
        right, left = HAND_WRITTEN_DERIVATIVES[identifier]
        D = named_divergence(identifier)
        oracle = right
        if moving == "first":
            D, oracle = swap_orientation(D), left
        for A, B in _tiny_mass_pairs(20, seed=6047):
            path = MixturePath(A, B)
            scale = float(np.sum(np.abs(B.masses - A.masses)))
            for t in (0.0, 0.3, 0.9, 1.0):
                expected = oracle(path, t)
                bound = 1e-12 * max(abs(expected), scale)
                assert abs(path_derivative(D, path, t) - expected) <= bound, (A, B, t)

    def test_hellinger_derivative_reference_value(self):
        D = named_divergence("hellinger2")
        value = path_derivative(D, MixturePath(P, Q), 1.0)
        assert value == pytest.approx(HELLINGER2_DERIV_AT_1, abs=1e-13)

    def test_constant_path_has_zero_derivative(self):
        D = named_divergence("kl")
        path = MixturePath(P, P)
        for t in [0.0, 0.5, 1.0]:
            assert path_derivative(D, path, t) == 0.0

    def test_swapped_matches_reverse(self):
        swapped = swap_orientation(named_divergence("kl"))
        rev = named_divergence("reverse_kl")
        path = MixturePath(P, Q)
        for t in [0.0, 0.25, 0.5, 1.0]:
            assert path_derivative(swapped, path, t) == pytest.approx(
                path_derivative(rev, path, t), rel=1e-13, abs=1e-15
            )

    def test_swapped_bregman_derivative_is_exact(self):
        D = make_bregman(BregmanSpec(F=lambda x: x**2, F_prime=lambda x: 2.0 * x))
        path = MixturePath(P, Q)
        delta_sq = float(np.sum((Q.masses - P.masses) ** 2))
        for t in [0.0, 0.4, 1.0]:
            value = path_derivative(swap_orientation(D), path, t)
            assert abs(value - 2.0 * t * delta_sq) <= 1e-15, f"t={t}"

    def test_unswapped_bregman_derivative_is_exact(self):
        # path_derivative is not an operator: it differentiates the second
        # argument of any functional, here Sum (p - r)^2 = t^2 Sum delta^2.
        D = make_bregman(BregmanSpec(F=lambda x: x**2, F_prime=lambda x: 2.0 * x))
        path = MixturePath(P, Q)
        delta_sq = float(np.sum((Q.masses - P.masses) ** 2))
        for t in [0.0, 0.4, 1.0]:
            value = path_derivative(D, path, t)
            assert abs(value - 2.0 * t * delta_sq) <= 1e-15, f"t={t}"

    def test_rejects_an_evaluator_that_drops_the_imaginary_part(self):
        chi2 = named_divergence("chi2")
        D = DivergenceFunctional(
            "real_chi2", Orientation.RIGHT_CONVEX, lambda p, q: np.real(chi2.evaluator(p, q))
        )
        with pytest.raises(SpecError, match="imaginary"):
            path_derivative(D, MixturePath(P, Q), 0.5)

    @pytest.mark.parametrize("identifier", NAMED_IDENTIFIERS)
    @pytest.mark.parametrize("moving", ["second", "first"])
    @pytest.mark.parametrize("floor", [1e-6, 1e-12])
    def test_complex_step_matches_mpmath(self, identifier, moving, floor):
        right, left = MPMATH_DERIVATIVE_TERMS[identifier]
        D, term = named_divergence(identifier), right
        if moving == "first":
            D, term = swap_orientation(D), left
        grid = np.array([1e-9, 0.3, 0.9, 1.0])
        for A, B in _tiny_mass_pairs(10, seed=3191, floor=floor):
            path = MixturePath(A, B)
            scale = float(np.sum(np.abs(B.masses - A.masses)))
            values = path_derivative(D, path, grid)
            for t, value in zip(grid, values):
                exact = _mp_path_sum(term, path, t)
                assert abs(value - exact) <= 4e-15 * max(abs(exact), scale), (A, B, t)

    def test_generic_f_divergence_derivative(self):
        D = make_f_divergence(FDivergenceSpec(f=lambda u: (u - 1.0) ** 2))
        ref = named_divergence("chi2")
        path = MixturePath(P, Q)
        for t in [0.1, 0.6, 1.0]:
            assert path_derivative(D, path, t) == pytest.approx(
                path_derivative(ref, path, t), rel=1e-12
            )

    def test_rejects_t_outside_unit_interval(self):
        D = named_divergence("kl")
        with pytest.raises(DomainError):
            path_derivative(D, MixturePath(P, Q), 1.5)


class TestInverseIdentities:
    # Level 1 of the chain run backwards, t d/dt Li_k(tz) = Li_{k-1}(tz):
    # psi_inverse[kl] = chi2(P, R(t)) = pl(0), psi_inverse[reverse_kl] =
    # jeffreys(P, R(t)) = sl(0), and psi_inverse[jeffreys] is their sum.
    @pytest.mark.parametrize(
        "identifier,closed_form",
        [
            ("kl", lambda A, R: pl(0, A, R)),
            ("reverse_kl", lambda A, R: sl(0, A, R)),
            ("jeffreys", lambda A, R: sl(0, A, R) + pl(0, A, R)),
        ],
        ids=["kl", "reverse_kl", "jeffreys"],
    )
    @pytest.mark.parametrize("floor", [1e-6, 1e-12])
    def test_psi_inverse_matches_the_closed_forms(self, identifier, closed_form, floor):
        D = named_divergence(identifier)
        grid = np.array([0.05, 0.3, 0.9, 1.0])
        for A, B in _tiny_mass_pairs(20, seed=3191, floor=floor):
            path = MixturePath(A, B)
            for t, value in zip(grid, psi_inverse(D, path, grid)):
                exact = closed_form(A, mixture(path, t))
                assert abs(value - exact) <= 2e-15 * max(abs(exact), 1.0), (A, B, t)


@st.composite
def distribution_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    coords = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    left = draw(st.lists(coords, min_size=n, max_size=n))
    right = draw(st.lists(coords, min_size=n, max_size=n))
    return (
        new_distribution([x / sum(left) for x in left]),
        new_distribution([x / sum(right) for x in right]),
    )


@given(distribution_pairs())
@settings(max_examples=100, deadline=None)
def test_named_divergences_never_go_meaningfully_negative(pair):
    a, b = pair
    for identifier in NAMED_IDENTIFIERS:
        value = evaluate(named_divergence(identifier), a, b)
        assert value >= -1e-12, f"{identifier} gave {value}"


@given(distribution_pairs())
@settings(max_examples=60, deadline=None)
def test_swap_is_exactly_argument_exchange(pair):
    a, b = pair
    for identifier in ("kl", "chi2", "hellinger2"):
        D = named_divergence(identifier)
        assert evaluate(swap_orientation(D), a, b) == evaluate(D, b, a)
