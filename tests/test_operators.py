import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from divseq.distributions import (
    MixturePath,
    mixture,
    new_distribution,
    random_distribution,
)
from divseq.divergences import (
    BregmanSpec,
    evaluate,
    make_bregman,
    named_divergence,
    path_derivative,
    swap_orientation,
)
from divseq.errors import DomainError, ToleranceError
from divseq.operators import (
    OperatorResult,
    QuadratureConfig,
    psi,
    psi_inverse,
    psi_iter,
    psi_roundtrip,
)
from divseq.sequences import pl, sl
from divseq.verify import _suite_divergences

SRC = Path(__file__).resolve().parents[1] / "src"

P = new_distribution(np.array([0.5, 0.5]))
Q = new_distribution(np.array([0.25, 0.75]))
PATH = MixturePath(P, Q)

KL_PQ = 0.14384103622589046
REV_KL_PQ = 0.13081203594113696
# Closed-form values for the integrated and differentiated squared
# Hellinger distance at t=1, frozen from 50-digit evaluation.
HELLINGER2_PSI = 0.016296227542159367
HELLINGER2_PSI_INV = 0.07471462268067113
PL2_PQ = 0.06691315977068315
PL3_PQ = 0.03230767447457166


def _random_pair(seed, n=None):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 8))
    A = random_distribution(n, seed=seed * 2 + 1)
    B = random_distribution(n, seed=seed * 2 + 2)
    return A, B


class TestPsi:
    def test_integrated_chi2_is_kl(self):
        res = psi(named_divergence("chi2"), PATH, 1.0)
        assert isinstance(res, OperatorResult)
        assert res.value == pytest.approx(KL_PQ, abs=1e-9)
        assert 0.0 <= res.estimated_error < 1e-9
        assert res.evaluations >= 15

    def test_integrated_jeffreys_is_reverse_kl(self):
        res = psi(named_divergence("jeffreys"), PATH, 1.0)
        assert res.value == pytest.approx(REV_KL_PQ, abs=1e-9)

    def test_integrated_hellinger_reference(self):
        res = psi(named_divergence("hellinger2"), PATH, 1.0)
        assert res.value == pytest.approx(HELLINGER2_PSI, abs=1e-9)

    def test_zero_upper_limit(self):
        res = psi(named_divergence("kl"), PATH, 0.0)
        assert res == OperatorResult(0.0, 0.0, 0)

    def test_constant_path(self):
        res = psi(named_divergence("kl"), MixturePath(P, P), 0.7)
        assert res == OperatorResult(0.0, 0.0, 0)

    def test_partial_upper_limit_matches_restricted_path(self):
        # Integrating to t along P->Q equals integrating to 1 along P->R(t).
        t_star = 0.6
        M = mixture(PATH, t_star)
        full = psi(named_divergence("chi2"), PATH, t_star)
        restricted = psi(named_divergence("chi2"), MixturePath(P, M), 1.0)
        assert full.value == pytest.approx(restricted.value, abs=1e-8)

    def test_rejects_left_convex(self):
        breg = make_bregman(BregmanSpec(F=lambda x: x**2, F_prime=lambda x: 2.0 * x))
        with pytest.raises(DomainError):
            psi(breg, PATH, 1.0)
        res = psi(swap_orientation(breg), PATH, 1.0)
        assert res.value >= 0.0

    @pytest.mark.parametrize("t", [-0.1, 1.1, np.nan])
    def test_rejects_bad_t(self, t):
        with pytest.raises(DomainError):
            psi(named_divergence("kl"), PATH, t)


class TestPsiInverse:
    def test_zero_at_origin(self):
        assert psi_inverse(named_divergence("kl"), PATH, 0.0) == 0.0

    def test_hellinger_reference(self):
        value = psi_inverse(named_divergence("hellinger2"), PATH, 1.0)
        assert value == pytest.approx(HELLINGER2_PSI_INV, abs=1e-12)

    def test_constant_path(self):
        assert psi_inverse(named_divergence("kl"), MixturePath(Q, Q), 0.8) == 0.0


class TestPsiProfile:
    """psi on a grid: the profile t -> psi[D](t) in one call."""

    def test_matches_pointwise_psi(self):
        D = named_divergence("chi2")
        grid = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
        profile = psi(D, PATH, grid)
        assert isinstance(profile, np.ndarray) and profile.shape == grid.shape
        for j, t in enumerate(grid):
            assert profile[j] == pytest.approx(psi(D, PATH, t).value, abs=1e-10)

    def test_unsorted_grid_with_duplicates(self):
        D = named_divergence("kl")
        grid = np.array([0.8, 0.3, 0.8, 0.0])
        profile = psi(D, PATH, grid)
        assert profile[0] == profile[2]
        assert profile[3] == 0.0
        assert profile[0] == pytest.approx(psi(D, PATH, 0.8).value, abs=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            psi(named_divergence("kl"), PATH, np.array([0.2, 1.2]))


class TestPsiIter:
    def test_depth_two_reproduces_polylog_sequence(self):
        rows = psi_iter(named_divergence("chi2"), 2, PATH, np.array([1.0]))
        assert rows.shape == (3, 1)
        assert rows[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rows[1, 0] == pytest.approx(KL_PQ, abs=1e-9)
        assert rows[2, 0] == pytest.approx(PL2_PQ, abs=1e-8)

    def test_depth_three(self):
        rows = psi_iter(named_divergence("chi2"), 3, PATH, np.array([1.0]))
        assert rows[3, 0] == pytest.approx(PL3_PQ, abs=1e-7)

    def test_jeffreys_level_one_is_reverse_kl(self):
        rows = psi_iter(named_divergence("jeffreys"), 1, PATH, np.array([1.0]))
        assert rows[1, 0] == pytest.approx(REV_KL_PQ, abs=1e-8)

    def test_depth_zero_is_direct_evaluation(self):
        D = named_divergence("kl")
        grid = np.linspace(0.0, 1.0, 7)
        rows = psi_iter(D, 0, PATH, grid)
        direct = D.evaluator(P.masses, PATH.masses_at(grid))
        assert np.array_equal(rows[0], direct)

    def test_grid_order_is_preserved(self):
        D = named_divergence("chi2")
        shuffled = np.array([0.5, 1.0, 0.25])
        rows = psi_iter(D, 2, PATH, shuffled)
        ordered = psi_iter(D, 2, PATH, np.sort(shuffled))
        perm = np.argsort(shuffled)
        assert np.allclose(rows[:, perm], ordered, atol=1e-12)

    @pytest.mark.parametrize("identifier", ["chi2", "jeffreys", "hellinger2"])
    def test_levels_are_nonincreasing(self, identifier):
        grid = np.linspace(0.0, 1.0, 11)
        rows = psi_iter(named_divergence(identifier), 4, PATH, grid)
        assert np.all(np.diff(rows, axis=0) <= 1e-9)
        assert np.all(rows >= -1e-9)

    def test_constant_path_is_all_zeros(self):
        rows = psi_iter(named_divergence("chi2"), 3, MixturePath(P, P), np.linspace(0, 1, 5))
        assert np.array_equal(rows, np.zeros((4, 5)))

    def test_deeper_levels_require_right_convex(self):
        breg = make_bregman(BregmanSpec(F=lambda x: x**2, F_prime=lambda x: 2.0 * x))
        with pytest.raises(DomainError):
            psi_iter(breg, 1, PATH, np.array([1.0]))

    def test_depth_six_matches_closed_forms(self):
        # Verify-style pairs: 2 to 10 points, every mass at least 0.01.
        grid = np.array([0.0, 0.3, 0.7, 1.0])
        for seed in range(20):
            n = int(np.random.default_rng(seed).integers(2, 11))
            A = random_distribution(n, seed=2 * seed + 1, min_mass=0.01)
            B = random_distribution(n, seed=2 * seed + 2, min_mass=0.01)
            path = MixturePath(A, B)
            chi2 = psi_iter(named_divergence("chi2"), 6, path, grid)
            jeffreys = psi_iter(named_divergence("jeffreys"), 6, path, grid)
            for j, t in enumerate(grid):
                R = mixture(path, t)
                for k in range(7):
                    assert abs(chi2[k, j] - pl(k, A, R)) <= 1e-10, (seed, t, k)
                    assert abs(jeffreys[k, j] - sl(k, A, R)) <= 1e-10, (seed, t, k)

    def test_large_support_with_tiny_masses(self):
        # 877 points, masses floored at 0.01/n, and two masses near 1e-11 in
        # P: the level-0 fit takes the full 16384 intervals, and every level
        # above it comes from that one fit. psi^k[kl] = pl(k + 1).
        rng = np.random.default_rng(8)
        p, q = (1e-5 + 0.99 * d / d.sum() for d in rng.exponential(size=(2, 877)))
        p[:2] = [6e-12, 2.5e-11]
        p[2:] *= (1.0 - p[:2].sum()) / p[2:].sum()
        A, B = new_distribution(p), new_distribution(q / q.sum())
        path = MixturePath(A, B)
        grid = np.linspace(0.0, 1.0, 5)
        rows = psi_iter(named_divergence("kl"), 3, path, grid)
        for j, t in enumerate(grid):
            R = mixture(path, t)
            for k in range(4):
                assert abs(rows[k, j] - pl(k + 1, A, R)) <= 1e-9, (t, k)

    def test_unresolvable_level_zero_raises_tolerance_error(self):
        # chi2 toward q masses of 1e-11 peaks near t = 1 at about 1e10; no
        # fit within the node cap meets the 1e-12 residual (CLI exit 3).
        p = np.array([0.2, 0.1, 0.15, 0.05, 0.2, 0.1, 0.2])
        q = np.array([0.3, 1e-11, 0.2, 0.1, 0.1, 3e-11, 0.3])
        path = MixturePath(new_distribution(p), new_distribution(q / q.sum()))
        with pytest.raises(ToleranceError):
            psi_iter(named_divergence("chi2"), 3, path, np.linspace(0.0, 1.0, 5))

    def test_unresolvable_level_zero_fits_in_one_gib(self):
        # The same pair in a child process capped at 1 GiB of address space:
        # the residual check at the node cap (8192 points against 8193
        # nodes) must be evaluated in row blocks to reach ToleranceError
        # instead of MemoryError.
        script = (
            "import numpy as np\n"
            "from divseq.distributions import MixturePath, new_distribution\n"
            "from divseq.divergences import named_divergence\n"
            "from divseq.operators import psi_iter\n"
            "p = np.array([0.2, 0.1, 0.15, 0.05, 0.2, 0.1, 0.2])\n"
            "q = np.array([0.3, 1e-11, 0.2, 0.1, 0.1, 3e-11, 0.3])\n"
            "path = MixturePath(new_distribution(p), new_distribution(q / q.sum()))\n"
            "try:\n"
            "    psi_iter(named_divergence('chi2'), 3, path, np.linspace(0, 1, 5))\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
        )

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.stdout.strip() == "ToleranceError", proc.stderr

    @pytest.mark.parametrize("t", [1e-310, 5e-324])
    def test_levels_at_a_subnormal_position_are_zero(self, t):
        # 1/t overflows next to the node at 0, where every level above 0
        # is exactly 0.
        for identifier in ("chi2", "kl"):
            rows = psi_iter(named_divergence(identifier), 3, PATH, np.array([t, 1.0]))
            assert np.all(rows[1:, 0] == 0.0) and np.all(np.isfinite(rows))

    def test_rejects_bad_inputs(self):
        D = named_divergence("chi2")
        with pytest.raises(DomainError):
            psi_iter(D, -1, PATH, np.array([1.0]))
        with pytest.raises(DomainError):
            psi_iter(D, 1, PATH, np.array([0.5, 1.5]))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("k", [0, 2])
    def test_rejects_bad_tol_at_any_depth(self, k, tol):
        # Depth 0 fits nothing, yet the target is checked up front.
        with pytest.raises(DomainError):
            psi_iter(named_divergence("chi2"), k, PATH, np.array([1.0]), tol)

    def test_tol_is_the_fit_target(self):
        D = named_divergence("chi2")
        loose = psi_iter(D, 2, PATH, np.array([1.0]), tol=1e-6)
        assert loose[2, 0] == pytest.approx(PL2_PQ, abs=1e-5)
        with pytest.raises(ToleranceError):
            psi_iter(D, 2, PATH, np.array([1.0]), tol=1e-30)


class TestPsiRoundtrip:
    def test_chi2_at_one(self):
        left, right = psi_roundtrip(named_divergence("chi2"), PATH, 1.0)
        assert left == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert right == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_kl_at_half(self):
        D = named_divergence("kl")
        direct = evaluate(D, P, mixture(PATH, 0.5))
        left, right = psi_roundtrip(D, PATH, 0.5)
        assert left == pytest.approx(direct, abs=1e-6)
        assert right == pytest.approx(direct, abs=1e-6)

    def test_random_instances(self):
        for seed in [11, 12, 13]:
            A, B = _random_pair(seed)
            path = MixturePath(A, B)
            for identifier, t in [("hellinger2", 0.37), ("jeffreys", 0.85)]:
                D = named_divergence(identifier)
                direct = evaluate(D, A, mixture(path, t))
                left, right = psi_roundtrip(D, path, t)
                assert left == pytest.approx(direct, abs=1e-6), f"{identifier} seed {seed}"
                assert right == pytest.approx(direct, abs=1e-6), f"{identifier} seed {seed}"

    @pytest.mark.parametrize("t", [5e-7, 1.0 - 1e-7], ids=["forward", "backward"])
    @pytest.mark.parametrize("identifier", ["chi2", "kl", "hellinger2", "jeffreys"])
    def test_one_sided_stencils(self, identifier, t):
        # Within two steps of 0 or 1 the stencil is one-sided. kl is held
        # only to the absolute contract: near P its evaluator itself loses
        # digits (about 1e-4 relative at t = 5e-7).
        D = named_divergence(identifier)
        for seed in [11, 12, 13]:
            A, B = _random_pair(seed)
            path = MixturePath(A, B)
            direct = evaluate(D, A, mixture(path, t))
            bound = 1e-6 if identifier == "kl" else 1e-8 * direct
            for value in psi_roundtrip(D, path, t):
                assert abs(value - direct) <= bound, (seed, value, direct)

    def test_constant_path(self):
        assert psi_roundtrip(named_divergence("kl"), MixturePath(P, P), 0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("t", [0.0, -0.2, 1.4, np.nan])
    def test_rejects_t_outside_half_open_interval(self, t):
        with pytest.raises(DomainError):
            psi_roundtrip(named_divergence("kl"), PATH, t)


SUITE = _suite_divergences()
# Unsorted, with a duplicate, and with both ends of the path.
GRID = np.array([0.37, 0.0, 1e-9, 0.013, 0.5, 0.37, 0.999, 1.0, 0.2])


class TestGridDerivatives:
    @pytest.mark.parametrize("D", SUITE, ids=[D.identifier for D in SUITE])
    @pytest.mark.parametrize("n", [2, 7, 10, 64, 500])
    def test_grid_equals_scalar_calls_bitwise(self, D, n):
        # n = 500 takes numpy's pairwise summation past one block.
        A, B = (random_distribution(n, seed=n + s, min_mass=1e-4) for s in (0, 1))
        path = MixturePath(A, B)
        for op in (psi_inverse, path_derivative):
            on_grid = op(D, path, GRID)
            pointwise = np.array([op(D, path, float(t)) for t in GRID])
            assert isinstance(op(D, path, 0.5), float)
            assert on_grid.shape == GRID.shape
            assert on_grid.tobytes() == pointwise.tobytes(), op.__name__

    @pytest.mark.parametrize("D", SUITE, ids=[D.identifier for D in SUITE])
    def test_zero_at_origin_is_positive_zero(self, D):
        for seed in range(10):
            path = MixturePath(*_random_pair(seed + 800))
            at_zero = [psi_inverse(D, path, 0.0), psi_inverse(D, path, GRID)[1]]
            for value in at_zero:
                assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("D", SUITE, ids=[D.identifier for D in SUITE])
    def test_constant_path_gives_zeros(self, D):
        A, _ = _random_pair(5, n=6)
        path = MixturePath(A, A)
        values = psi_inverse(D, path, GRID)
        assert values.tobytes() == np.zeros_like(GRID).tobytes()
        assert psi_inverse(D, path, 0.7) == 0.0
        assert np.all(path_derivative(D, path, GRID) == 0.0)
        assert psi(D, path, GRID).tobytes() == np.zeros_like(GRID).tobytes()

    @pytest.mark.parametrize(
        "t",
        [GRID.reshape(3, 3), np.nan, 1.5, np.array([0.5, np.nan]),
         np.array([0.5, 1.5]), np.array([])],
        ids=["2d", "nan", "1.5", "grid_nan", "grid_1.5", "empty"],
    )
    @pytest.mark.parametrize("op", [psi_inverse, path_derivative, psi])
    def test_rejects_bad_positions(self, op, t):
        with pytest.raises(DomainError):
            op(named_divergence("kl"), PATH, t)


class TestGridPsi:
    # The distinct positions of a grid share one cumulative quadrature, so
    # a grid value is a sum of segment integrals and agrees with the scalar
    # call to within the quadrature target, not bitwise; a one-position grid
    # is the scalar call's single segment, bitwise.
    @pytest.mark.parametrize("D", SUITE, ids=[D.identifier for D in SUITE])
    @pytest.mark.parametrize("n", [2, 7, 10, 64, 500])
    def test_grid_agrees_with_scalar_calls(self, D, n):
        A, B = (random_distribution(n, seed=n + s, min_mass=1e-4) for s in (0, 1))
        path = MixturePath(A, B)
        on_grid = psi(D, path, GRID)
        assert on_grid.shape == GRID.shape
        pointwise = np.array([psi(D, path, float(t)).value for t in GRID])
        singles = np.array([psi(D, path, np.array([t]))[0] for t in GRID])
        assert singles.tobytes() == pointwise.tobytes()
        cfg = QuadratureConfig()
        target = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(pointwise))
        assert np.all(np.abs(on_grid - pointwise) <= target)
        # Order and duplicates change nothing; 0 gives +0.0.
        distinct = np.unique(GRID)
        by_distinct = psi(D, path, distinct)[np.searchsorted(distinct, GRID)]
        assert on_grid.tobytes() == by_distinct.tobytes()
        assert on_grid[1] == 0.0 and math.copysign(1.0, on_grid[1]) == 1.0

    def test_all_zero_grid_gives_zeros(self):
        values = psi(named_divergence("kl"), PATH, np.zeros(3))
        assert values.tobytes() == np.zeros(3).tobytes()


class TestOrientation:
    # Every operator rejects a left-convex D before any other work, so even
    # the constant-path and t = 0 short cuts never accept one.
    @pytest.mark.parametrize(
        "apply",
        [
            lambda D, path: psi(D, path, 1.0),
            lambda D, path: psi(D, path, np.array([0.0, 0.5, 1.0])),
            lambda D, path: psi_iter(D, 0, path, np.array([0.5, 1.0])),
            lambda D, path: psi_iter(D, 2, path, np.array([0.5, 1.0])),
            lambda D, path: psi_inverse(D, path, 0.5),
            lambda D, path: psi_inverse(D, path, GRID),
            lambda D, path: path_derivative(D, path, GRID),
            lambda D, path: psi_roundtrip(D, path, 0.5),
        ],
        ids=["psi", "psi_grid", "psi_iter_k0", "psi_iter_k2", "psi_inverse",
             "psi_inverse_grid", "path_derivative_grid", "psi_roundtrip"],
    )
    @pytest.mark.parametrize(
        "path", [PATH, MixturePath(P, P)], ids=["moving", "constant"]
    )
    def test_unswapped_bregman_rejected(self, apply, path):
        breg = make_bregman(BregmanSpec(F=lambda x: x**2, F_prime=lambda x: 2.0 * x))
        with pytest.raises(DomainError):
            apply(breg, path)


class TestOrderingProperties:
    @pytest.mark.parametrize("identifier", ["chi2", "kl", "jeffreys", "hellinger2"])
    def test_derivative_dominates_value_dominates_integral(self, identifier):
        D = named_divergence(identifier)
        for seed in range(30):
            A, B = _random_pair(seed + 300)
            path = MixturePath(A, B)
            t = float(np.random.default_rng(seed).uniform(0.05, 1.0))
            upper = psi_inverse(D, path, t)
            middle = float(D.evaluator(A.masses, path.masses_at(np.array([t]))[0]))
            lower = psi(D, path, t).value
            assert upper >= middle - 1e-9, f"{identifier} seed {seed}"
            assert middle >= lower - 1e-9, f"{identifier} seed {seed}"
            assert lower >= -1e-12, f"{identifier} seed {seed}"

    def test_integral_operator_strictly_increases(self):
        grid = np.linspace(0.0, 1.0, 21)
        profile = psi(named_divergence("chi2"), PATH, grid)
        assert np.all(np.diff(profile) > 0.0)

    def test_differential_operator_strictly_increases(self):
        D = named_divergence("kl")
        grid = np.linspace(0.05, 1.0, 20)
        values = [psi_inverse(D, PATH, t) for t in grid]
        assert np.all(np.diff(values) > 0.0)

    def test_path_invariance_of_both_operators(self):
        for seed in range(20):
            A, B = _random_pair(seed + 900)
            path = MixturePath(A, B)
            t_star = float(np.random.default_rng(seed + 41).uniform(0.1, 0.9))
            M = mixture(path, t_star)
            sub = MixturePath(A, M)
            for identifier in ["chi2", "hellinger2"]:
                D = named_divergence(identifier)
                assert psi(D, path, t_star).value == pytest.approx(
                    psi(D, sub, 1.0).value, abs=1e-8
                ), f"{identifier} seed {seed}"
                assert psi_inverse(D, path, t_star) == pytest.approx(
                    psi_inverse(D, sub, 1.0), abs=1e-8
                ), f"{identifier} seed {seed}"

    def test_integral_operator_preserves_right_convexity(self):
        D = named_divergence("kl")
        rng = np.random.default_rng(77)
        for j in range(20):
            n = int(rng.integers(2, 6))
            A = random_distribution(n, seed=int(rng.integers(1 << 30)))
            B1 = random_distribution(n, seed=int(rng.integers(1 << 30)))
            B2 = random_distribution(n, seed=int(rng.integers(1 << 30)))
            lam = float(rng.uniform())
            Bmix = new_distribution(lam * B1.masses + (1.0 - lam) * B2.masses)
            lhs = lam * psi(D, MixturePath(A, B1), 1.0).value
            lhs += (1.0 - lam) * psi(D, MixturePath(A, B2), 1.0).value
            rhs = psi(D, MixturePath(A, Bmix), 1.0).value
            assert lhs >= rhs - 1e-9, f"instance {j}"


def test_quadrature_config_reexported():
    cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=50)
    res = psi(named_divergence("chi2"), PATH, 1.0, cfg)
    assert res.value == pytest.approx(KL_PQ, abs=1e-7)
