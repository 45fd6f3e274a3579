import dataclasses
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from divseq import chebyshev, distributions, operators
from divseq.chebyshev import _KERNEL_NODES, _MAX_INTERVALS, ChebyshevInterpolant, lobatto_nodes
from divseq.distributions import (
    _lift_path,
    _random_masses,
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
from divseq.errors import DomainError, ToleranceError
from divseq.operators import (
    OperatorResult,
    _column_groups,
    _grouped_level_zero,
    psi,
    psi_inverse,
    psi_iter,
)
from divseq.sequences import _chain, hellinger_psi, pl, sl
from divseq.verify import _CLOSED_FORMS, _suite_divergences, _t_points
from operator_oracles import BREGMAN_DEGREES, cauchy_levels, psi_roundtrip

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

    @pytest.mark.parametrize("generator", [True, False], ids=["generator", "mixture"])
    def test_psi_at_t_is_psi_at_one_on_the_truncated_path_bitwise(self, generator):
        # psi integrates every path on its truncation P -> R(T), T its
        # largest position, and R(1) is the end bitwise.
        kl = named_divergence("kl")
        D = kl if generator else dataclasses.replace(kl, generator=None)
        for A, B in (_random_pair(4, 7), _tiny_p_pair(1, 10), _tiny_p_pair(1, 10)[::-1]):
            path = MixturePath(A, B)
            for t in (0.6, 0.05, 1.0):
                truncated = MixturePath(A, mixture(path, t))
                alone, restricted = psi(D, path, t), psi(D, truncated, 1.0)
                assert alone.value.hex() == restricted.value.hex()
                assert alone.estimated_error.hex() == restricted.estimated_error.hex()
                assert alone.evaluations == restricted.evaluations

    def test_psi_is_psi_iters_level_one_bitwise(self):
        # psi and psi_iter share one target and one kernel choice, and
        # psi_iter takes the kernel at a single position: on these 400 calls
        # psi is psi_iter's level 1, with a generator and without one.
        identifiers = ("kl", "reverse_kl", "chi2", "jeffreys", "hellinger2")
        named = [named_divergence(i) for i in identifiers]
        roster = named + [dataclasses.replace(D, generator=None) for D in named]
        tol, calls = 1e-12, 0
        for seed in range(20):
            path = MixturePath(*_random_pair(seed, (3, 7, 10)[seed % 3]))
            for D in roster:
                for t in (0.3, 1.0):
                    alone = psi(D, path, t, tol).value
                    level_one = psi_iter(D, 1, path, np.array([t]), tol)[1, 0]
                    assert alone.hex() == level_one.hex(), (seed, D.identifier, t)
                    calls += 1
        assert calls == 400

    def test_without_a_generator_psi_samples_the_mixtures(self):
        # The runner along paths also reads a generator's level kernel, so
        # the mixtures sampled are counted where the evaluator reads them.
        kl, calls = _counting(named_divergence("kl"))
        with_generator = psi(kl, PATH, 0.6)
        assert calls == [0]
        res = psi(dataclasses.replace(kl, generator=None), PATH, 0.6)
        assert calls[0] == res.evaluations > 0
        assert res.value == pytest.approx(with_generator.value, rel=1e-10)

    @pytest.mark.parametrize("name", ["kl", "reverse_kl", "chi2", "jeffreys", "hellinger2"])
    def test_smallest_normal_mass_gives_a_finite_estimate_or_a_typed_error(self, name):
        # w = r/p reaches 1/2^-1022 = 4.5e307, where generators overflow and
        # the kernel's rounding term scale * (|v| + 2) eps would too.
        tiny = 2.2250738585072014e-308
        P, Q = new_distribution([tiny, 1.0]), new_distribution([1.0, tiny])
        path = MixturePath(P, Q)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                res = psi(named_divergence(name), path, 1.0)
            except (DomainError, ToleranceError):
                return
        assert math.isfinite(res.value) and math.isfinite(res.estimated_error)
        if name == "chi2":  # psi of chi2 is KL(P | Q)
            assert res.value == pytest.approx(evaluate(named_divergence("kl"), P, Q), rel=1e-12)

    def test_bregman_without_a_generator_meets_closed_forms_on_tiny_masses(self):
        # Without their generators (make_bregman reads these forms' degrees
        # and gives them one, but none for their sum) psi and psi_iter take
        # one level kernel per path on its truncation. Swapped, x log x is
        # reverse KL less Sum (r - p) = 0, whose level k is sl(k + 1, P,
        # R(t)), and x^2 is t^2 Sum (q - p)^2, whose level k is t^2 / 2^k
        # Sum (q - p)^2. 152 calls of each form at each depth.
        forms = [
            (lambda x: x * np.log(x), lambda x: np.log(x) + 1.0, 1.0, 0.0, 1e-12),
            (lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0, 1e-14),
            (lambda x: x * np.log(x) + x * x, lambda x: np.log(x) + 1.0 + 2.0 * x, 1.0, 1.0, 1e-12),
        ]
        bare = [
            dataclasses.replace(swap_orientation(make_bregman(BregmanSpec(F, F_prime))), generator=None)
            for F, F_prime, *_ in forms
        ]
        pairs = [_tiny_p_pair(seed, n) for seed in range(6) for n in (10, 100, 877)]
        pairs += [_random_pair(seed, 7) for seed in range(20)]
        for A, B in pairs:
            for start, end in ((A, B), (B, A)):
                path = MixturePath(start, end)
                gap = np.sum((end.masses - start.masses) ** 2)
                for t in (0.3, 1.0):
                    chain = sl((1, 2, 3, 4), start, mixture(path, t))
                    for D, (*_, entropy, square, bound) in zip(bare, forms):
                        refs = entropy * chain + square * t * t * gap / 2.0 ** np.arange(4)
                        scale = np.maximum(1.0, np.abs(refs))
                        value = psi(D, path, t).value
                        assert abs(value - refs[1]) <= bound * scale[1], (t, value, refs[1])
                        levels = psi_iter(D, 3, path, np.array([t]))[:, 0]
                        assert np.all(np.abs(levels - refs)[1:] <= 1e-11 * scale[1:]), (t, levels)

    def test_positions_at_zero_form_no_mixture(self, monkeypatch):
        # Shaped as verify's contraction call: most rows sit at t = 0 but
        # for their last position. The kernel forms the mixtures at each
        # path's end (m n cells, for its range) and at the positions above
        # 0 only; those at 0 stay +0.0, and every value is the single call's.
        cells, mix = [0], distributions._mix

        def counted(p, q, t):
            out = mix(p, q, t)
            cells[0] += out.size
            return out

        rng = np.random.default_rng(8)
        n, m = 6, 12
        A, B = (_random_masses(rng, (m, n), 0.01) for _ in range(2))
        t = np.zeros((m, 13))
        t[:, -1] = 1.0
        t[: m // 3] = np.sort(rng.uniform(0.0, 1.0, (m // 3, 13)), axis=-1)
        t[0, :4] = 0.0
        path = MixturePath(Distribution(A), Distribution(B))
        kl = named_divergence("kl")
        # The ends are formed in operators, the positions by distributions._along.
        for module in (operators, distributions):
            monkeypatch.setattr(module, "_mix", counted)
        values = psi(kl, path, t)
        assert cells[0] == m * n + np.count_nonzero(t) * n
        assert values[t == 0.0].tobytes() == np.zeros(np.count_nonzero(t == 0.0)).tobytes()
        for module in (operators, distributions):
            monkeypatch.setattr(module, "_mix", mix)
        for i in range(m):
            alone = MixturePath(Distribution(A[i]), Distribution(B[i]))
            for j in np.flatnonzero(t[i]):
                assert values[i, j] == psi(kl, alone, t[i, j]).value

    def test_kernel_keeps_one_block_at_a_time(self):
        # 1000 positions on a 10^4-point pair: each block of positions is
        # formed, evaluated and summed in its turn, so the call's peak is a
        # few blocks' temporaries, not all positions'.
        n = 10_000
        A, B = (random_distribution(n, s, 0.01 / n) for s in (3, 4))
        grid = np.linspace(0.0, 1.0, 1000)
        tracemalloc.start()
        try:
            values = psi(named_divergence("kl"), MixturePath(A, B), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(values)) and peak <= 8e6, peak

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
        # P: their level-0 fit takes the full 16384 intervals, the other 875
        # coordinates' 512, and every level above comes from the sum of the
        # two fits. psi^k[kl] = pl(k + 1).
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
        # the fit runs to the node cap (16385 nodes, each doubling's
        # residual one DCT of the stack) and must reach ToleranceError
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

    # Node counts of the level-0 fit, one per seeded pair (seed, support
    # size) below, for each verify divergence.
    _FITTED_NODES = {
        "chi2": [65, 129, 129, 65],
        "kl": [65, 129, 65, 65],
        "jeffreys": [65, 129, 65, 65],
        "hellinger2": [33, 129, 65, 65],
        "swap(kl)": [33, 129, 65, 65],
        "f_divergence": [33, 65, 65, 65],
        "swap(bregman)": [33, 33, 33, 33],
    }

    @staticmethod
    def _fitted_nodes(monkeypatch, D, path):
        # The fit's node counts, on shapes where psi_iter would take the
        # level kernel too.
        monkeypatch.setattr(operators, "_KERNEL_CELL_COST", math.inf)
        counts = []
        fit = ChebyshevInterpolant.fit_adaptive.__func__

        def counted(cls, f, *rest):
            interp, residual, evaluations = fit(cls, f, *rest)
            counts.append(len(interp.nodes))
            return interp, residual, evaluations

        monkeypatch.setattr(ChebyshevInterpolant, "fit_adaptive", classmethod(counted))
        psi_iter(D, 3, path, np.linspace(0.0, 1.0, 11))
        return counts

    @pytest.mark.parametrize("D", _suite_divergences(), ids=lambda D: D.identifier)
    def test_fits_stop_at_their_recorded_node_counts(self, monkeypatch, D):
        counts = []
        for seed, n in [(0, 2), (1, 5), (2, 10), (3, 40)]:
            A, B = _random_pair(seed, n)
            counts += self._fitted_nodes(monkeypatch, D, MixturePath(A, B))
        assert counts == self._FITTED_NODES[D.identifier]

    def test_fit_near_a_small_ratio_at_one_uses_exact_complements(self, monkeypatch):
        # chi2 on 23 points with min q/p = 0.0034: near s = 1 level 0 is
        # steep, and sampled at 1.0 - s in place of the exact complement
        # its fit stalls above 1e-12 up to the node cap. It fits at 1024
        # intervals.
        p = np.array([
            0.1377940554790809, 0.043452626106112155, 0.000991062291418603,
            0.19143048425959722, 0.012062824313446036, 0.03892956207485482,
            0.015373231823087337, 0.02898065932956215, 0.017462025159841382,
            0.0253451329700742, 0.009446080457467936, 0.002237329695127666,
            0.07618390125647098, 0.05114304424647392, 0.0597749168557682,
            0.006115347777975873, 0.0743636172870481, 0.0015771740646240357,
            0.031020738651990624, 0.03265764875492846, 0.013256401125704255,
            0.12210657282152296, 0.008295563197822016,
        ])
        q = np.array([
            0.0004631698119198326, 0.026145123797381733, 0.014550822818444819,
            0.03927025441541762, 0.024957004283791072, 0.13895025439306127,
            0.02122290125968634, 0.07967874247728353, 0.07985723572853377,
            0.05314267690373703, 0.028895878197397227, 0.02182535129658932,
            0.03963043694555125, 0.10252239911822794, 0.009290395915556379,
            0.022873192686828376, 0.004703472172673964, 0.08188737733067117,
            0.09143120813836948, 0.014912185689930448, 0.03618982020911904,
            0.019195484220446417, 0.048404612189381996,
        ])
        path = MixturePath(new_distribution(p), new_distribution(q))
        assert self._fitted_nodes(monkeypatch, named_divergence("chi2"), path) == [1025]

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


def _tiny_p_pair(seed, n):
    """A pair shaped like the benchmark's tiny-mass stress calls: masses
    floored at 0.01/n, then 1-3 masses of P log-uniform on [1e-12, 1e-9]."""
    rng = np.random.default_rng(seed)
    p, q = (0.01 / n + 0.99 * d / d.sum() for d in rng.exponential(size=(2, n)))
    count = int(rng.integers(1, 4))
    tiny = np.exp(rng.uniform(np.log(1e-12), np.log(1e-9), count))
    p[count:] *= (1.0 - tiny.sum()) / p[count:].sum()
    p[:count] = tiny
    return new_distribution(p), new_distribution(q)


def _mass_cells(D):
    """D with an evaluator and a generator that count the mass cells they
    are given: psi_iter samples its fit through the generator."""
    seen = [0]

    def evaluator(p, r):
        seen[0] += r.size
        return D.evaluator(p, r)

    def generator(w):
        seen[0] += w.size
        return D.generator(w)

    return dataclasses.replace(D, evaluator=evaluator, generator=generator), seen


def _joint_level_zero(D, path):
    """Level 0 of psi_iter on one path as one function of s over the whole
    support, sampled as psi_iter samples it."""
    sample = _grouped_level_zero(D, path.start.masses[None], path.end.masses[None], [slice(None)])
    return lambda s: sample(s[None], np.arange(1), s[::-1][None], [0])[0]


class TestGroupedLevelZero:
    # psi_iter fits level 0 by groups of coordinates, a few hard ones apart
    # from the many easy ones. The tiny-mass pairs are ones whose fits
    # resolve within the node cap; most 877-point pairs drawn this way raise
    # ToleranceError there, the documented outcome (see
    # test_unresolvable_level_zero_raises_tolerance_error).
    _ORACLES = {"chi2": (pl, 0), "kl": (pl, 1), "jeffreys": (sl, 0), "reverse_kl": (sl, 1)}
    _PAIRS = {
        "tiny_2962": lambda: _tiny_p_pair(0, 2962),
        "tiny_877": lambda: _tiny_p_pair(6, 877),
        "regular_10000": lambda: tuple(random_distribution(10_000, s, 1e-6) for s in (5, 6)),
    }

    @pytest.mark.parametrize("pair", _PAIRS)
    @pytest.mark.parametrize("identifier", _ORACLES)
    def test_levels_match_the_closed_forms_on_hard_inputs(self, pair, identifier):
        A, B = self._PAIRS[pair]()
        path = MixturePath(A, B)
        grid = np.array([0.3, 0.7, 1.0])
        levels = psi_iter(named_divergence(identifier), 3, path, grid)
        family, shift = self._ORACLES[identifier]
        for j, t in enumerate(grid):
            R = mixture(path, t)
            for k in range(1, 4):
                ref = family(k + shift, A, R)
                assert abs(levels[k, j] - ref) <= 1e-10 * max(1.0, abs(ref)), (t, k)

    def test_tiny_masses_split_off_and_every_column_has_one_group(self):
        A, B = _tiny_p_pair(6, 877)
        groups, _, _ = _column_groups(A.masses[None], B.masses[None])
        assert len(groups) >= 2
        assert set(groups[-1]) <= {0, 1}  # the tiny masses sit at 0 and 1
        assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(877))

    def test_columns_with_no_direction_join_the_easiest_group(self):
        A, B = _tiny_p_pair(0, 2962)
        q = B.masses.copy()
        q[100:200] = A.masses[100:200]
        groups, _, _ = _column_groups(A.masses[None], q[None])
        assert set(range(100, 200)) <= set(groups[0])

    def test_split_fit_takes_a_tenth_of_the_joint_fits_mass_cells(self):
        kl, seen = _mass_cells(named_divergence("kl"))
        A, B = _tiny_p_pair(6, 877)
        path = MixturePath(A, B)
        grid = np.linspace(0.0, 1.0, 11)
        _, _, joint_nodes = ChebyshevInterpolant.fit_adaptive(
            _joint_level_zero(kl, path), 1e-12
        )
        seen[0] = 0
        psi_iter(kl, 1, path, grid)
        split = seen[0] - grid.size * 877  # less level 0 on the grid
        assert split <= 0.1 * joint_nodes * 877, (split, joint_nodes * 877)

    @pytest.mark.parametrize("D", _suite_divergences(), ids=lambda D: D.identifier)
    def test_one_group_gives_the_joint_fit_bitwise(self, D):
        A, B = _random_pair(3, 40)
        path = MixturePath(A, B)
        assert len(_column_groups(A.masses[None], B.masses[None])[0]) == 1
        grid = np.linspace(0.0, 1.0, 11)
        interp, _, _ = ChebyshevInterpolant.fit_adaptive(_joint_level_zero(D, path), 1e-12)
        expected = [psi_iter(D, 0, path, grid)[0], *interp.lifts(3)(grid)[:, 0]]
        assert psi_iter(D, 3, path, grid).tobytes() == np.array(expected).tobytes()


class TestOneLoopLevelZero:
    # psi_iter fits every column group of level 0 in one doubling loop, each
    # group stopping at its own node count, and adds the groups'
    # interpolants in Chebyshev coefficients.
    _ORACLES = TestGroupedLevelZero._ORACLES

    # The roster calls (seed, n, orientation, divergence) that answer; the
    # other 139 raise ToleranceError at the node cap, as they did when each
    # group was a fit of its own.
    _ANSWERED = {
        (3, 877, 0, "chi2"), (3, 877, 0, "kl"), (3, 877, 0, "jeffreys"),
        (3, 877, 0, "reverse_kl"), (3, 877, 1, "reverse_kl"),
    }

    @staticmethod
    def _fits(monkeypatch):
        """Per fit_adaptive call: [calls of f, nodes f was given]. Each call
        hands f the nodes alone, as the benchmark's tracer does."""
        fits = []
        fit = ChebyshevInterpolant.fit_adaptive.__func__

        def counted(cls, f, *rest):
            record = [0, 0]
            fits.append(record)

            def f_counted(x):
                record[0] += 1
                record[1] += x.size
                return f(x)

            return fit(cls, f_counted, *rest)

        monkeypatch.setattr(ChebyshevInterpolant, "fit_adaptive", classmethod(counted))
        return fits

    def test_tiny_mass_roster_fails_where_it_did_and_at_no_more_cost(self, monkeypatch):
        fits = self._fits(monkeypatch)
        grid = np.linspace(0.0, 1.0, 11)
        answered = set()
        for seed in range(6):
            for n in (10, 100, 877):
                A, B = _tiny_p_pair(seed, n)
                for orientation, (start, end) in enumerate(((A, B), (B, A))):
                    path = MixturePath(start, end)
                    for identifier, (family, shift) in self._ORACLES.items():
                        fits.clear()
                        try:
                            levels = psi_iter(named_divergence(identifier), 3, path, grid)
                        except ToleranceError:
                            # One loop to the cap: 17 nodes and 10 doublings,
                            # 16385 nodes in all, what the failing group alone
                            # took when each group was a fit of its own.
                            assert fits == [[11, _MAX_INTERVALS + 1]]
                            continue
                        answered.add((seed, n, orientation, identifier))
                        for j, t in enumerate(grid):
                            R = mixture(path, t)
                            for k in range(1, 4):
                                ref = family(k + shift, start, R)
                                bound = 1e-10 * max(1.0, abs(ref))
                                assert abs(levels[k, j] - ref) <= bound, (seed, n, t, k)
        assert answered == self._ANSWERED

    @pytest.mark.parametrize("n", [877, 2962, 10_000])
    def test_grouped_fit_takes_at_most_half_the_one_group_cells(self, n):
        # Regular pairs with masses floored at 0.01/n, as in the benchmark's
        # sweep; a one-group fit samples every column at the hardest one's
        # node count.
        A, B = (random_distribution(n, s, 0.01 / n) for s in (2 * n, 2 * n + 1))
        path = MixturePath(A, B)
        grid = np.linspace(0.0, 1.0, 11)
        for identifier, (family, shift) in self._ORACLES.items():
            D, seen = _mass_cells(named_divergence(identifier))
            _, _, joint_nodes = ChebyshevInterpolant.fit_adaptive(
                _joint_level_zero(D, path), 1e-12
            )
            seen[0] = 0
            levels = psi_iter(D, 3, path, grid)
            grouped = seen[0] - grid.size * n  # less level 0 on the grid
            assert grouped <= 0.5 * joint_nodes * n, (identifier, grouped, joint_nodes * n)
            for j in (3, 7, 10):
                R = mixture(path, grid[j])
                for k in range(1, 4):
                    ref = family(k + shift, A, R)
                    bound = 1e-10 * max(1.0, abs(ref))
                    assert abs(levels[k, j] - ref) <= bound, (identifier, grid[j], k)

    def test_column_groups_keep_octaves_apart_and_the_cap_alone(self):
        # The pair of TestTruncatedLevelZero's 877-point bound: its octave
        # bins, 580, 221, 66 and 10 columns, each save more than their own
        # residual DCTs cost. Tiny masses sit past the node cap, in a group
        # that no column below the cap joins.
        A, B = (random_distribution(877, s, 0.01 / 877) for s in (1754, 1755))
        groups, _, _ = _column_groups(A.masses[None], B.masses[None])
        assert [len(g) for g in groups] == [580, 221, 66, 10]
        for seed in range(6):
            for n in (10, 100, 877):
                A, B = _tiny_p_pair(seed, n)
                groups, _, _ = _column_groups(A.masses[None], B.masses[None])
                tiny = np.flatnonzero(A.masses < 1e-8)
                assert np.array_equal(groups[-1], tiny), (seed, n)


class TestOnePassSampler:
    # psi_iter's fit samples every live column group in one blocked pass per
    # doubling: one sampler forms the terms on the live groups' columns, laid
    # out group after group, and reads each group's row sum off its slice.
    @staticmethod
    def _pair(n):
        A, B = (random_distribution(n, s, 0.01 / n) for s in (2 * n, 2 * n + 1))
        return A, B

    @staticmethod
    def _sampled(monkeypatch, seen=(0,)):
        """Per fit_adaptive call: each sampler call's (live groups, nodes,
        cells counted in seen), and the fitted node count."""
        monkeypatch.setattr(operators, "_KERNEL_CELL_COST", math.inf)
        fits = []
        fit = ChebyshevInterpolant.fit_adaptive.__func__

        def counted(cls, f, target, live):
            calls = []

            def f_counted(x):
                before, values = seen[0], f(x)
                calls.append((list(live), x.size, seen[0] - before))
                return values

            interp, residual, evaluations = fit(cls, f_counted, target, live)
            fits.append((calls, len(interp.nodes)))
            return interp, residual, evaluations

        monkeypatch.setattr(ChebyshevInterpolant, "fit_adaptive", classmethod(counted))
        return fits

    # Support sizes whose pairs form 1, 2, 3 and 4 column groups.
    _GROUPS = {40: 1, 77: 2, 260: 3, 877: 4}

    @pytest.mark.parametrize("n", _GROUPS)
    def test_one_sampler_call_per_doubling_whatever_the_group_count(self, monkeypatch, n):
        A, B = self._pair(n)
        assert len(_column_groups(A.masses[None], B.masses[None])[0]) == self._GROUPS[n]
        fits = self._sampled(monkeypatch)
        for identifier in TestGroupedLevelZero._ORACLES:
            fits.clear()
            psi_iter(named_divergence(identifier), 3, MixturePath(A, B), np.linspace(0.0, 1.0, 11))
            ((calls, fitted),) = fits
            # The first sample, 17 nodes, then one call per doubling.
            doublings = int(np.log2((fitted - 1) // 16))
            assert [size for _, size, _ in calls] == [17] + [16 * 2**d for d in range(doublings)]
            assert calls[0][0] == list(range(self._GROUPS[n])), identifier

    @pytest.mark.parametrize("D", _suite_divergences(), ids=lambda D: D.identifier)
    def test_a_group_read_off_its_slice_is_its_level_zero_alone(self, D):
        # Three paths of 877 points, positions in blocks of many rows and of
        # part of one, and live groups that are one run or not.
        pairs = [self._pair(877), _tiny_p_pair(3, 877), _tiny_p_pair(4, 877)]
        p = np.array([A.masses for A, _ in pairs])
        r = np.array([B.masses for _, B in pairs])
        groups, _, _ = _column_groups(p, r)
        assert len(groups) >= 3
        sample, rows = _grouped_level_zero(D, p, r, groups), np.array([2, 0, 1, 1])
        for n in (16, 1024):
            s = np.broadcast_to(lobatto_nodes(n), (len(rows), n + 1))
            alone = [
                _grouped_level_zero(D, p[:, g], r[:, g], [slice(None)])(s, rows, s[:, ::-1], [0])[0]
                for g in groups
            ]
            # The per-cell arithmetic, each position's terms summed at once.
            for g, values in zip(groups, alone):
                ratio, weight = (x[rows][:, None] for x in (r[:, g] / p[:, g], p[:, g] ** D.degree))
                terms = D.generator(s[..., None] * ratio + s[:, ::-1, None]) * weight
                assert values.tobytes() == terms.sum(axis=-1).tobytes()
            for live in (list(range(len(groups))), [1, 2], [0, 2], [len(groups) - 1]):
                stack = sample(s, rows, s[:, ::-1], live)
                assert stack.shape == (len(live), len(rows), n + 1)
                for g, values in zip(live, stack):
                    assert values.tobytes() == alone[g].tobytes(), (n, live, g)

    @pytest.mark.parametrize("identifier", ["chi2", "kl", "jeffreys"])
    def test_each_call_samples_the_live_groups_columns_at_its_nodes(self, monkeypatch, identifier):
        A, B = self._pair(877)
        groups, _, _ = _column_groups(A.masses[None], B.masses[None])
        D, seen = _mass_cells(named_divergence(identifier))
        fits = self._sampled(monkeypatch, seen)
        psi_iter(D, 3, MixturePath(A, B), np.linspace(0.0, 1.0, 11))
        ((calls, _),) = fits
        for live, size, cells in calls:
            assert cells == sum(len(groups[g]) for g in live) * size, (live, size)
        # Some group stopped before the last call, and was not sampled again.
        assert len(calls[-1][0]) < len(groups)


def _regular_10k():
    return tuple(random_distribution(10_000, s, 1e-6) for s in (5, 6))


class TestTruncatedLevelZero:
    # Since ds/s is scale-free, psi_iter's levels above 0 at t on P -> Q are
    # those at t / T on P -> R(T), T the largest grid position; level 0 is
    # fitted on the truncated path only.
    _WITH_CLOSED_FORMS = [D for D in _suite_divergences() if D.identifier in _CLOSED_FORMS]

    @pytest.mark.parametrize("T", [1.0, 0.3, 1e-3])
    @pytest.mark.parametrize("D", _suite_divergences(), ids=lambda D: D.identifier)
    def test_levels_equal_the_truncated_paths_bitwise(self, D, T):
        A, B = _random_pair(3, 40)
        path = MixturePath(A, B)
        grid = np.linspace(0.0, T, 11)
        levels = psi_iter(D, 3, path, grid)
        truncated = psi_iter(D, 3, MixturePath(A, mixture(path, T)), grid / T)
        assert levels[1:].tobytes() == truncated[1:].tobytes()
        if T == 1.0:
            direct = [evaluate(D, A, mixture(path, t)) for t in grid]
            assert levels[0].tobytes() == np.array(direct).tobytes()

    @pytest.mark.parametrize("identifier", ["chi2", "kl", "hellinger2"])
    def test_a_short_grid_fits_on_few_nodes(self, identifier):
        # On a grid that reaches t = 1 this pair takes 2.69M to 3.21M cells.
        A, B = _regular_10k()
        D, seen = _mass_cells(named_divergence(identifier))
        psi_iter(D, 3, MixturePath(A, B), np.linspace(0.0, 1e-2, 101))
        assert seen[0] <= (101 + 65) * 10_000

    def test_a_short_grid_forms_one_group(self):
        A, B = _regular_10k()
        end = mixture(MixturePath(A, B), 1e-2).masses
        assert len(_column_groups(A.masses[None], end[None])[0]) == 1

    @pytest.mark.parametrize("T", [1e-3, 1e-2, 0.3])
    @pytest.mark.parametrize("n", [7, 877])
    def test_short_grids_match_the_closed_forms(self, n, T):
        A, B = (random_distribution(n, s, 0.01 / n) for s in (2 * n, 2 * n + 1))
        path = MixturePath(A, B)
        grid = np.array([0.3 * T, 0.7 * T, T])
        for D in self._WITH_CLOSED_FORMS:
            levels = psi_iter(D, 3, path, grid)
            name, shift = _CLOSED_FORMS[D.identifier]
            family = pl if name == "pl" else sl
            for j, t in enumerate(grid):
                R = mixture(path, t)
                for k in range(1, 4):
                    ref = family(k + shift, A, R)
                    bound = 1e-10 * max(1.0, abs(ref))
                    assert abs(levels[k, j] - ref) <= bound, (D.identifier, t, k)

    # The worst |level - closed form| / max(1, |closed form|) over levels
    # 1-3, the closed-form divergences and an 11-point grid on [0, 1], with
    # every level lifted from the previous level's node values and
    # evaluated on its own. Lifting in coefficient space gives 1.02e-14
    # and 6.91e-14.
    _CHAINED_LIFT_ERROR = {7: 1.3586354263850353e-14, 877: 7.924216838262055e-14}

    @pytest.mark.parametrize("n", [7, 877])
    def test_levels_no_further_from_the_closed_forms_than_chained_lifts(self, n):
        A, B = (random_distribution(n, s, 0.01 / n) for s in (2 * n, 2 * n + 1))
        path = MixturePath(A, B)
        grid = np.linspace(0.0, 1.0, 11)
        worst = 0.0
        for D in self._WITH_CLOSED_FORMS:
            levels = psi_iter(D, 3, path, grid)
            name, shift = _CLOSED_FORMS[D.identifier]
            family = pl if name == "pl" else sl
            for j, t in enumerate(grid):
                R = mixture(path, t)
                for k in range(1, 4):
                    ref = family(k + shift, A, R)
                    worst = max(worst, abs(levels[k, j] - ref) / max(1.0, abs(ref)))
        assert worst <= self._CHAINED_LIFT_ERROR[n], worst

    def test_every_tiny_mass_call_answers_near_zero(self):
        # 72 calls, most of which raise ToleranceError on grids that reach
        # t = 1: near 0 the tiny masses are far from a zero of r_i.
        grid = np.linspace(0.0, 1e-3, 5)
        for seed in range(6):
            for n in (10, 100, 877):
                A, B = _tiny_p_pair(seed, n)
                for start, end in ((A, B), (B, A)):
                    path = MixturePath(start, end)
                    for identifier, shift in (("chi2", 0), ("kl", 1)):
                        levels = psi_iter(named_divergence(identifier), 3, path, grid)
                        for j, t in enumerate(grid):
                            R = mixture(path, t)
                            for k in range(1, 4):
                                ref = pl(k + shift, start, R)
                                bound = 1e-9 * max(1.0, abs(ref))
                                assert abs(levels[k, j] - ref) <= bound, (seed, n, t, k)

    @pytest.mark.parametrize("grid", [np.zeros(4), np.linspace(0.0, 1e-300, 5)])
    @pytest.mark.parametrize("D", _suite_divergences(), ids=lambda D: D.identifier)
    def test_grids_next_to_zero_give_zeros_above_level_zero(self, D, grid):
        # There R(T) = P bitwise: the truncated path is constant.
        levels = psi_iter(D, 3, PATH, grid)
        assert levels[1:].tobytes() == np.zeros((3, grid.size)).tobytes()

    def test_a_zero_row_in_a_stack_gives_zeros(self):
        A, B = _random_pair(4, 9)
        D = named_divergence("kl")
        grids = np.array([np.zeros(6), np.linspace(0.0, 0.3, 6)])
        stacked = MixturePath(
            Distribution(np.array([A.masses, A.masses])),
            Distribution(np.array([B.masses, B.masses])),
        )
        levels = psi_iter(D, 3, stacked, grids)
        alone = psi_iter(D, 3, MixturePath(A, B), grids[1])
        assert levels[1:, 0].tobytes() == np.zeros((3, 6)).tobytes()
        assert np.max(np.abs(levels[:, 1] - alone)) <= 1e-12


def _taken(monkeypatch):
    """The integrators psi_iter calls above level 0, in call order."""
    taken = []
    kernel, fit = operators._level_pieces, ChebyshevInterpolant.fit_adaptive.__func__

    def counted_kernel(*args):
        taken.append("kernel")
        return kernel(*args)

    def counted_fit(cls, *args):
        taken.append("fit")
        return fit(cls, *args)

    monkeypatch.setattr(operators, "_level_pieces", counted_kernel)
    monkeypatch.setattr(ChebyshevInterpolant, "fit_adaptive", classmethod(counted_fit))
    return taken


def _verify_stacks(seed, grid=None):
    """Stacks shaped as verify's iterated-chain calls: 20 paths of each
    support size 2..10, masses at least 0.01, 13 positions per path (the
    grid given, or verify's), each stack in both orientations."""
    rng = np.random.default_rng(seed)
    for n in range(2, 11):
        A, B = (_random_masses(rng, (20, n), 0.01) for _ in range(2))
        ts = _t_points(rng, 20) if grid is None else np.tile(grid, (20, 1))
        for start, end in ((A, B), (B, A)):
            yield MixturePath(Distribution(start), Distribution(end)), ts


class TestKernelRoute:
    # psi_iter takes levels 1..k as Sum p Phi_j(log w) from the level kernel
    # where that is predicted to cost less than the fit.
    _WITH_CLOSED_FORMS = TestTruncatedLevelZero._WITH_CLOSED_FORMS

    @pytest.mark.parametrize("D", _WITH_CLOSED_FORMS, ids=lambda D: D.identifier)
    def test_levels_match_the_closed_forms_on_verify_stacks(self, monkeypatch, D):
        taken = _taken(monkeypatch)
        name, shift = _CLOSED_FORMS[D.identifier]
        for path, ts in _verify_stacks(33):
            levels = psi_iter(D, 3, path, ts)
            for j in range(ts.shape[1]):
                ref = _chain(name, shift, 3, path.start, mixture(path, ts[:, j]))[1:]
                error = np.abs(levels[1:, :, j] - ref)
                assert np.all(error <= 1e-12 * np.maximum(1.0, np.abs(ref))), (D.identifier, j)
        assert set(taken) == {"kernel"}

    def test_hellinger2_level_one_is_hellinger_psi(self, monkeypatch):
        taken = _taken(monkeypatch)
        grid = np.linspace(0.0, 1.0, 13)
        for path, ts in _verify_stacks(34, grid):
            levels = psi_iter(named_divergence("hellinger2"), 1, path, ts)
            for j, t in enumerate(grid):
                ref = hellinger_psi(path.start, path.end, t)
                assert np.all(np.abs(levels[1, :, j] - ref) <= 1e-14), t
        assert set(taken) == {"kernel"}

    # (support size, pair seed, integrator) on 101 positions for chi2, kl,
    # jeffreys and reverse_kl: the 2- and 7-point pairs and the 23-point pair
    # whose fit is predicted at 512 nodes take the kernel, the 23-point pair
    # at 128 nodes and the 77-point pair the fit (on these pairs the kernel
    # took 0.5-0.8x the fit's time, or within 2.2% of it, where it is
    # taken, and up to 1.4x where it is not).
    _DECISIONS = [
        (2, 4, "kernel"), (2, 0, "kernel"), (7, 0, "kernel"), (7, 1, "kernel"),
        (23, 0, "kernel"), (23, 1, "fit"), (77, 0, "fit"),
    ]

    @pytest.mark.parametrize("n, seed, route", _DECISIONS)
    def test_the_cost_rule_routes_small_supports(self, monkeypatch, n, seed, route):
        taken = _taken(monkeypatch)
        A, B = (random_distribution(n, s, 0.01 / n) for s in (2 * seed, 2 * seed + 1))
        for identifier in TestGroupedLevelZero._ORACLES:
            taken.clear()
            psi_iter(named_divergence(identifier), 3, MixturePath(A, B), np.linspace(0.0, 1.0, 101))
            assert taken == [route], identifier

    def test_a_column_at_the_node_cap_keeps_the_fit(self, monkeypatch):
        # The 7-point pair of test_unresolvable_level_zero_raises_tolerance_error
        # on 5 positions, where the kernel would cost a tenth of the fit.
        taken = _taken(monkeypatch)
        p = np.array([0.2, 0.1, 0.15, 0.05, 0.2, 0.1, 0.2])
        q = np.array([0.3, 1e-11, 0.2, 0.1, 0.1, 3e-11, 0.3])
        path = MixturePath(new_distribution(p), new_distribution(q / q.sum()))
        with pytest.raises(ToleranceError):
            psi_iter(named_divergence("chi2"), 3, path, np.linspace(0.0, 1.0, 5))
        assert taken == ["fit"]


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
        # One blocked slope serves both operators.
        slope = GRID * path_derivative(D, path, GRID) + 0.0
        assert psi_inverse(D, path, GRID).tobytes() == slope.tobytes()

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
    # Where D has a generator, every position is its own truncation of the
    # path, summed through the level kernel, so a grid value is the scalar
    # call's bitwise. Without one, every position of a path is read off one
    # level kernel built on its truncation at its largest position, so a
    # grid value agrees with the scalar call to within the kernel's target;
    # a one-position grid is the scalar call, bitwise.
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
        if D.generator is not None:
            assert on_grid.tobytes() == pointwise.tobytes()
        target = np.maximum(1e-12, 1e-12 * np.abs(pointwise))  # psi's default tol
        assert np.all(np.abs(on_grid - pointwise) <= target)
        # Order and duplicates change nothing; 0 gives +0.0.
        distinct = np.unique(GRID)
        by_distinct = psi(D, path, distinct)[np.searchsorted(distinct, GRID)]
        assert on_grid.tobytes() == by_distinct.tobytes()
        assert on_grid[1] == 0.0 and math.copysign(1.0, on_grid[1]) == 1.0

    def test_all_zero_grid_gives_zeros(self):
        values = psi(named_divergence("kl"), PATH, np.zeros(3))
        assert values.tobytes() == np.zeros(3).tobytes()


def _counting(D):
    """D with an evaluator that counts the (row, position) cells it is given."""
    seen = [0]

    def evaluator(p, r):
        seen[0] += int(np.prod(r.shape[:-1]))
        return D.evaluator(p, r)

    return dataclasses.replace(D, evaluator=evaluator), seen


def _kernel_rounds(monkeypatch):
    """A list that gets the part count of each round of a level kernel's
    sampling of a path without a generator: its pieces, then two parts per
    halving."""
    rounds, along = [], operators._along

    def counted(f, p, q, s, paths, width):
        rounds.append(s.size // _KERNEL_NODES)
        return along(f, p, q, s, paths, width)

    monkeypatch.setattr(operators, "_along", counted)
    return rounds


def _stacked(starts, ends):
    paths = [MixturePath(Distribution(a), Distribution(b)) for a, b in zip(starts, ends)]
    return MixturePath(Distribution(np.array(starts)), Distribution(np.array(ends))), paths


class TestPsiRowByRow:
    # Without a generator, each path of a stack builds its own level kernel
    # within its own halving budget, so it costs and converges as it would
    # alone.
    CHI2 = dataclasses.replace(named_divergence("chi2"), generator=None)

    def test_each_path_has_its_own_subdivision_budget(self, monkeypatch):
        # At this tolerance each path converges alone within 400 halvings,
        # but the paths need more than 400 between them.
        tol = 1e-15
        monkeypatch.setattr(chebyshev, "_MAX_HALVINGS", 400)
        rounds = _kernel_rounds(monkeypatch)
        starts = [random_distribution(5, 2 * i, 1e-3).masses for i in range(30)]
        ends = [random_distribution(5, 2 * i + 1, 1e-3).masses for i in range(30)]
        stack, paths = _stacked(starts, ends)
        grids = np.tile(np.linspace(0.0, 1.0, 11), (30, 1))
        halvings = 0
        for path, grid, row in zip(paths, grids, psi(self.CHI2, stack, grids, tol)):
            rounds.clear()
            alone = psi(self.CHI2, path, grid, tol)
            # After the pieces, two parts per halving; a piece's first
            # halving is outside the budget.
            halvings += sum(rounds[1:]) // 2 - rounds[0]
            assert row.tobytes() == alone.tobytes()
        assert halvings > chebyshev._MAX_HALVINGS

    def test_a_hard_path_costs_the_stack_its_own_evaluations_only(self):
        chi2, seen = _counting(self.CHI2)
        hard = np.array([1e-6, 0.25, 0.25, 0.25, 0.25 - 1e-6])
        starts = [random_distribution(5, i).masses for i in range(21)]
        ends = [hard] + [random_distribution(5, 100 + i).masses for i in range(20)]
        stack, paths = _stacked(starts, ends)
        grids = np.empty((21, 11))
        grids[0] = np.linspace(0.0, 1.0, 11)
        # Six distinct positions per regular path, the rest duplicates.
        grids[1:] = np.linspace(0.0, 1.0, 6)[np.arange(11) % 6]
        seen[0] = 0
        values = psi(chi2, stack, grids)
        stacked_cost, alone_cost = seen[0], 0
        for path, grid, row in zip(paths, grids, values):
            seen[0] = 0
            np.testing.assert_allclose(row, psi(chi2, path, grid), rtol=1e-14, atol=0.0)
            alone_cost += seen[0]
        assert stacked_cost > 0
        assert abs(stacked_cost - alone_cost) <= 0.02 * alone_cost


@pytest.mark.parametrize("D", SUITE, ids=[D.identifier for D in SUITE])
@pytest.mark.parametrize("t", [5e-324, 1e-310])
def test_psi_at_a_subnormal_position_is_zero(D, t):
    # A subnormal T truncates the path to R(T) = P bitwise, which psi
    # integrates to an exact zero; on a longer path the integrand never
    # divides by a position, and an abscissa u = 0 on a segment of
    # subnormal width takes the integrand's limit 0.
    def positive_zero(x):
        return x == 0.0 and not math.copysign(1.0, x) < 0.0

    A, B = random_distribution(6, seed=1), random_distribution(6, seed=2)
    assert positive_zero(psi(D, MixturePath(A, B), t).value)
    grid = psi(D, MixturePath(A, B), np.array([0.3, t, 0.0, 5e-324, 1.0]))
    assert positive_zero(grid[1]) and positive_zero(grid[3]) and np.all(grid[[0, 4]] > 0.0)
    stack, _ = _stacked([A.masses, B.masses], [B.masses, A.masses])
    rows = psi(D, stack, np.array([[t, 1e-310], [t, 0.5]]))
    assert all(positive_zero(v) for v in (rows[0, 0], rows[0, 1], rows[1, 0]))
    assert rows[1, 1] > 0.0


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
            lambda D, path: psi_roundtrip(D, path, 0.5),
        ],
        ids=["psi", "psi_grid", "psi_iter_k0", "psi_iter_k2", "psi_inverse",
             "psi_inverse_grid", "psi_roundtrip"],
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


def _roster():
    """psi's roster: tiny-mass pairs (n = 10, 100, 877) and regular 7-point
    pairs, both orientations, each at t = 0.3 and 1."""
    pairs = [_tiny_p_pair(s, n) for s in range(6) for n in (10, 100, 877)]
    pairs += [_random_pair(s, 7) for s in range(20)]
    for A, B in pairs:
        for path in (MixturePath(A, B), MixturePath(B, A)):
            for t in (0.3, 1.0):
                yield path, t


# Each named divergence's psi as a closed-form chain and its order.
_PSI_ORACLES = {"chi2": (pl, 1), "kl": (pl, 2), "jeffreys": (sl, 1), "reverse_kl": (sl, 2)}


class TestPsiKernel:
    # Where D has a generator phi, psi is Sum p Phi(log w), w = R(t)/P, with
    # Phi from the level kernel.
    @staticmethod
    def _tiny_calls():
        for seed in range(6):
            for n in (10, 100, 877):
                A, B = _tiny_p_pair(seed, n)
                for path in (MixturePath(A, B), MixturePath(B, A)):
                    yield path, 1.0
                    yield path, np.linspace(0.0, 1.0, 11)

    def test_tiny_mass_chi2_calls_match_pl1(self):
        # On the reversed pairs w = R(t)/P falls to 9e-12 at t = 1, where
        # chi2's generator is near 1/w.
        chi2, tol = named_divergence("chi2"), 1e-12  # psi's default
        for path, t in self._tiny_calls():
            res = psi(chi2, path, t)
            ref = [pl(1, path.start, mixture(path, s)) for s in np.atleast_1d(t)]
            if isinstance(res, OperatorResult):
                assert abs(res.value - ref[0]) <= min(res.estimated_error, tol * ref[0])
            else:
                np.testing.assert_allclose(res, ref, rtol=tol, atol=tol * len(t))

    @pytest.mark.parametrize("identifier", list(_PSI_ORACLES))
    def test_the_estimate_bounds_the_error_and_is_not_vacuous(self, identifier):
        D, (chain, order) = named_divergence(identifier), _PSI_ORACLES[identifier]
        for path, t in _roster():
            res = psi(D, path, t)
            ref = chain(order, path.start, mixture(path, t))
            scale = max(1.0, abs(ref))
            assert abs(res.value - ref) <= res.estimated_error <= 1e-12 * scale, (path, t)
            if identifier in ("chi2", "jeffreys"):
                assert abs(res.value - ref) <= 1e-14 * scale

    @pytest.mark.parametrize("top", [5e-324, 1e-310])
    def test_a_subnormal_top_gives_zero_at_no_cost(self, top):
        A, B = random_distribution(6, seed=1), random_distribution(6, seed=2)
        path = MixturePath(A, B)
        assert mixture(path, top).masses.tobytes() == A.masses.tobytes()  # R(T) = P
        assert psi(named_divergence("kl"), path, top) == OperatorResult(0.0, 0.0, 0)

    def test_an_end_mass_of_1e_300(self):
        # Toward the tiny mass chi2's integrand has a pole about 1e-299 past
        # the path's end, and w = 1e-300 / p_0 there takes the kernel's
        # pieces out to v = log w near -690; from it w reaches 1e299.
        A, B = _random_pair(3, 10)
        p = A.masses.copy()
        p[0], p[1:] = 1e-300, p[1:] * (1.0 - 1e-300) / p[1:].sum()
        tiny = new_distribution(p)
        for identifier, (chain, order) in _PSI_ORACLES.items():
            for start, end in ((B, tiny), (tiny, B)):
                res = psi(named_divergence(identifier), MixturePath(start, end), 1.0)
                ref = chain(order, start, end)
                assert res.value == pytest.approx(ref, rel=1e-13), identifier

    def test_coordinates_that_stay_put_cost_nothing(self):
        # q_i = p_i holds w_i = 1 along the path: Phi(0) = 0 exactly.
        chi2 = named_divergence("chi2")
        A, B = _random_pair(2, 6)
        ends = A.masses.copy()
        ends[3:] = B.masses[3:] * ends[3:].sum() / B.masses[3:].sum()
        partial = MixturePath(A, Distribution(ends))
        assert psi(chi2, MixturePath(A, A), 0.6) == OperatorResult(0.0, 0.0, 0)
        for t in (0.3, 1.0):
            res = psi(chi2, partial, t)
            assert res.evaluations > 0
            assert res.value == pytest.approx(pl(1, A, mixture(partial, t)), rel=1e-14)


def _tiny_q_pair(seed, n, mass):
    """A pair with masses floored at 0.01/n whose Q has one mass of ``mass``."""
    rng = np.random.default_rng(seed)
    p, q = (0.01 / n + 0.99 * d / d.sum() for d in rng.exponential(size=(2, n)))
    q[1:] *= (1.0 - mass) / q[1:].sum()
    q[0] = mass
    return new_distribution(p), new_distribution(q)


def test_psi_of_a_generator_growing_like_w_squared_reaches_a_tiny_mass():
    # phi(w) = (w - 1)^2 grows like e^2v, so at a target of 1e-12 the level
    # kernel halves every cell past |v| = 1.2 once: out to |v| = 68 for a
    # mass of 1e-30, over a thousand halvings, each a piece's first and so
    # outside the budget. D(P, R(s)) = s^2 Sum (q - p)^2 / p, whose psi
    # is t^2 / 2 Sum (q - p)^2 / p.
    D = make_f_divergence(FDivergenceSpec(f=lambda x: (1.0 - x) ** 2 / x))
    A = new_distribution(np.array([1e-30, 0.4, 0.6]))
    B = new_distribution(np.array([0.5, 0.25, 0.25]))
    for start, end in ((A, B), (B, A)):
        gap = np.sum((end.masses - start.masses) ** 2 / start.masses)
        for t in (0.3, 1.0):
            ref = 0.5 * t * t * gap
            value = psi(D, MixturePath(start, end), t, 1e-12).value
            assert abs(value - ref) <= 1e-12 * max(1.0, ref), (t, value, ref)


class TestBregmanDegree:
    # A swapped Bregman functional of degree alpha is Sum p^alpha beta(r/p),
    # so psi and psi_iter take it from the level kernel with weights p^alpha.
    _GRID = np.array([0.3, 1.0])

    @staticmethod
    def _paths():
        pairs = [
            _tiny_q_pair(seed, n, mass)
            for seed in range(6) for n in (10, 100, 877) for mass in (1e-12, 1e-11, 1e-10)
        ]
        pairs += [_random_pair(seed, 7) for seed in range(20)]
        for A, B in pairs:
            for path in (MixturePath(A, B), MixturePath(B, A)):
                yield path, A.masses.size > 7

    @classmethod
    def _references(cls, name, path):
        """Levels 0..3 at 0.3 and 1: t^2 Sum (q - p)^2 / 2^k for x^2, sl(k + 1)
        for x log x (reverse KL on the simplex), else the Cauchy form."""
        start, gap = path.start, np.sum((path.end.masses - path.start.masses) ** 2)
        ends = [mixture(path, t) for t in cls._GRID]
        if name == "x^2":
            return np.array([[t * t * gap / 2.0**k for t in cls._GRID] for k in range(4)])
        if name == "x log x":
            return np.array([[sl(k + 1, start, R) for R in ends] for k in range(4)])
        _, _, alpha, beta = BREGMAN_DEGREES[name]
        above = np.array([cauchy_levels(beta, alpha, start.masses, R.masses, 3) for R in ends])
        return np.vstack([[np.nan, np.nan], above.T])

    def test_the_cauchy_form_matches_mpmath(self):
        mpmath_beta = {
            "x^1.5": lambda w: w ** mpmath.mpf(1.5) - 1 - mpmath.mpf(1.5) * (w - 1),
            "-log x": lambda w: w - 1 - mpmath.log(w),
        }
        for name, exact in mpmath_beta.items():
            _, _, alpha, beta = BREGMAN_DEGREES[name]
            for w_end in (1e-12, 1e-6, 0.3, 0.999, 1.001, 2.5, 40.0, 1e6):
                got = cauchy_levels(beta, alpha, np.array([1.0]), np.array([w_end]), 3)
                with mpmath.workdps(30):
                    step = mpmath.mpf(w_end) - 1

                    def level(j):
                        weight = lambda u: mpmath.log(1 / u) ** (j - 1) / mpmath.factorial(j - 1)  # noqa: E731
                        return float(mpmath.quad(lambda u: exact(1 + u * step) * weight(u) / u, [0, 1]))

                    refs = np.array([level(j) for j in (1, 2, 3)])
                assert np.all(np.abs(got - refs) <= 1e-15 * np.maximum(1.0, np.abs(refs))), w_end

    @pytest.mark.parametrize("name", list(BREGMAN_DEGREES))
    def test_psi_and_its_levels_meet_their_references(self, monkeypatch, name):
        # psi on every pair; psi_iter on the 7-point pairs, which the cost rule
        # sends to the kernel. On the tiny-mass pairs a column is predicted at
        # the node cap, so psi_iter keeps the fit, and its kernel route
        # (_psi_kernel) is checked alone.
        F, F_prime, alpha, _ = BREGMAN_DEGREES[name]
        D = swap_orientation(make_bregman(BregmanSpec(F, F_prime)))
        taken = _taken(monkeypatch)
        for path, tiny in self._paths():
            refs = self._references(name, path)
            scale = np.maximum(1.0, np.abs(refs))
            values = psi(D, path, self._GRID)
            assert np.all(np.abs(values - refs[1]) <= 1e-12 * scale[1]), (name, path)
            if tiny:
                p, q, t, _ = _lift_path(path, self._GRID)
                levels = operators._psi_kernel(D, p, q, t, 3, 1e-12)[0][:, 0]
            else:
                levels = psi_iter(D, 3, path, self._GRID)[1:]
            assert np.all(np.abs(levels - refs[1:]) <= 1e-12 * scale[1:]), (name, path)
        assert set(taken) == {"kernel"}


def test_psi_takes_a_tolerance():
    res = psi(named_divergence("chi2"), PATH, 1.0, 1e-8)
    assert res.value == pytest.approx(KL_PQ, abs=1e-7)
    for bad in (0.0, -1e-12, np.nan, np.inf):
        with pytest.raises(DomainError, match="tol"):
            psi(named_divergence("chi2"), PATH, 1.0, bad)


class TestOperatorsOnGenerators:
    NAMED = ("kl", "reverse_kl", "chi2", "jeffreys", "hellinger2")

    @staticmethod
    def _midpoint_gap(op):
        # op(Q_0.4) - (op(Q_0.2) + op(Q_0.6)) / 2 for Q_a = (0.2, a, 0.8 - a)
        # and P = (0.9, 0.05, 0.05) at t = 1; convexity in the end point
        # makes it <= 0.
        start = new_distribution(np.array([0.9, 0.05, 0.05]))
        v = [
            op(MixturePath(start, new_distribution(np.array([0.2, a, 0.8 - a]))))
            for a in (0.2, 0.4, 0.6)
        ]
        return v[1] - 0.5 * (v[0] + v[2])

    def test_psi_inverse_does_not_preserve_convexity(self):
        # psi_inverse maps the generator phi to (w - 1) phi'(w); for chi2
        # that has second derivative (6 - 2w) / w^4, negative past w = 3.
        chi2 = named_divergence("chi2")
        gap = self._midpoint_gap(lambda path: psi_inverse(chi2, path, 1.0))
        assert gap == pytest.approx(2.2569e-3, rel=1e-4)

    @pytest.mark.parametrize("identifier", NAMED)
    def test_psi_and_other_inverses_stay_convex_there(self, identifier):
        D = named_divergence(identifier)
        assert self._midpoint_gap(lambda path: psi(D, path, 1.0).value) < 0.0
        if identifier != "chi2":
            assert self._midpoint_gap(lambda path: psi_inverse(D, path, 1.0)) < 0.0

    # phi''(1) of each generator, D = Sum p phi(q/p).
    CURVATURE = {"kl": 1.0, "reverse_kl": 1.0, "chi2": 2.0, "jeffreys": 2.0,
                 "hellinger2": 0.25}

    @pytest.mark.parametrize("identifier", NAMED)
    def test_iterates_collapse_to_chi2(self, identifier):
        # psi maps t^m to t^m / m, so 2^k psi^k keeps only the t^2 term of
        # D(P, R(t)): (phi''(1) / 2) t^2 Sum (p - q)^2 / p.
        rng = np.random.default_rng(3)
        p, q = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        path = MixturePath(new_distribution(p), new_distribution(q))
        limit = 0.5 * self.CURVATURE[identifier] * np.sum((p - q) ** 2 / p)
        levels = psi_iter(named_divergence(identifier), 12, path, np.array([1.0]))[:, 0]
        ratio = 2.0 ** np.arange(13) * levels / limit
        assert np.all(np.diff(ratio[4:]) > 0.0)
        assert 0.9 <= ratio[12] <= 1.0
