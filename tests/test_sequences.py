import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divseq.distributions import MixturePath, mixture, new_distribution, random_distribution
from divseq.divergences import evaluate, named_divergence
from divseq.errors import DomainError
from divseq import sequences
from divseq.operators import psi, psi_inverse, psi_iter
from divseq.polylog import _series, polylog
from divseq.sequences import hellinger_psi, hellinger_psi_inverse, pl, sl
from polylog_oracles import mpmath_jeffreys, mpmath_pl

P = new_distribution(np.array([0.5, 0.5]))
Q = new_distribution(np.array([0.25, 0.75]))

# 50-digit reference values for the canonical pair.
PL_REFERENCE = {
    0: 1.0 / 3.0,
    1: 0.14384103622589046,
    2: 0.06691315977068315,
    3: 0.03230767447457166,
    4: 0.015882261921646471,
}
SL_REFERENCE = {
    0: 0.27465307216702742,
    1: 0.13081203594113696,
    2: 0.06389887617045381,
}
HELLINGER2_PSI = 0.016296227542159367
HELLINGER2_PSI_INV = 0.07471462268067113


def _tiny_masses(seed, n=12):
    """Masses with four entries between 1e-12 and 1e-9, the rest of order 1/n."""
    rng = np.random.default_rng(seed)
    masses = rng.exponential(size=n)
    masses[:4] = [1e-12, 3e-12, 1e-10, 1e-9]
    return masses / masses.sum()


# The pair on which 1 - q/p lost digits, and tiny masses on either side. At
# t = 1 the mixture is Q itself, so q_i/p_i reaches 1e-12 or 1e12.
EDGE_PAIRS = {
    "roadmap": (np.array([0.5, 0.5]), np.array([1.0 - 1e-9, 1e-9])),
    "tiny_p": (_tiny_masses(1), _tiny_masses(2)[::-1].copy()),
    "tiny_q": (_tiny_masses(3)[::-1].copy(), _tiny_masses(4)),
}


def _edge_pair(name):
    p, q = EDGE_PAIRS[name]
    A, B = new_distribution(p), new_distribution(q)
    return A, mixture(MixturePath(A, B), 1.0)


def _pair(seed, n=None):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 8))
    A = random_distribution(n, seed=3 * seed + 1)
    B = random_distribution(n, seed=3 * seed + 2)
    return A, B


class TestPolylogSequence:
    @pytest.mark.parametrize("k,expected", sorted(PL_REFERENCE.items()))
    def test_reference_values(self, k, expected):
        assert pl(k, P, Q) == pytest.approx(expected, abs=1e-13)

    def test_order_zero_is_chi2(self):
        chi2 = named_divergence("chi2")
        for seed in range(50):
            A, B = _pair(seed)
            assert pl(0, A, B) == pytest.approx(evaluate(chi2, A, B), rel=1e-12)

    def test_order_one_is_kl(self):
        kl = named_divergence("kl")
        for seed in range(50):
            A, B = _pair(seed + 100)
            assert pl(1, A, B) == pytest.approx(evaluate(kl, A, B), rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_identical_pair_gives_exact_zero(self, k):
        assert pl(k, Q, Q) == 0.0

    def test_chain_is_nonincreasing_and_nonnegative(self):
        for seed in range(120):
            A, B = _pair(seed + 5000)
            chain = [pl(k, A, B) for k in range(5)]
            diffs = np.diff(chain)
            assert np.all(diffs <= 1e-9), f"seed {seed}: {chain}"
            assert chain[-1] >= -1e-9, f"seed {seed}: {chain}"

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            pl(-1, P, Q)
        with pytest.raises(DomainError):
            pl(0.5, P, Q)
        R3 = new_distribution(np.array([0.2, 0.3, 0.5]))
        with pytest.raises(DomainError):
            pl(1, P, R3)

    @pytest.mark.parametrize("name", sorted(EDGE_PAIRS))
    @pytest.mark.parametrize("k", range(4))
    def test_matches_mpmath_at_the_edge(self, name, k):
        A, R = _edge_pair(name)
        expected = mpmath_pl(k, A.masses, R.masses)
        assert abs(pl(k, A, R) - expected) <= 1e-12 * abs(expected)

    def test_one_call_over_a_large_support(self):
        rng = np.random.default_rng(17)
        p, q = rng.exponential(size=(2, 500))
        A, B = new_distribution(p / p.sum()), new_distribution(q / q.sum())
        expected = mpmath_pl(3, A.masses, B.masses)
        assert abs(pl(3, A, B) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("k", range(4))
    def test_near_identical_pairs_match_mpmath(self, eps, k):
        # pl(k) is about eps^2 here, while its first-order part
        # Sum p_i z_i = Sum (p_i - q_i) cancels to zero.
        rng = np.random.default_rng(int(-np.log10(eps)))
        for _ in range(5):
            p = rng.exponential(size=20)
            A = new_distribution(p / p.sum())
            q = A.masses * (1.0 + eps * rng.uniform(-1.0, 1.0, size=20))
            B = new_distribution(q / q.sum())
            expected = mpmath_pl(k, A.masses, B.masses)
            assert abs(pl(k, A, B) - expected) <= 1e-12 * abs(expected)

    def test_high_order_keeps_its_second_order_part(self):
        # Li_k(z) - z = z^2 / 2^k + O(z^3 / 3^k), and P, Q give z = +-1/2,
        # so pl(200) is 2^-200 / 4 to far below 1e-12; 1/j^200 overflows.
        assert pl(200, P, Q) == pytest.approx(0.25 * 2.0**-200, rel=1e-12, abs=0.0)

    def test_accepts_raw_arrays(self):
        assert pl(2, P.masses, Q.masses) == pl(2, P, Q)
        with pytest.raises(DomainError):
            pl(2, np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestSumSequence:
    @pytest.mark.parametrize("k,expected", sorted(SL_REFERENCE.items()))
    def test_reference_values(self, k, expected):
        assert sl(k, P, Q) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("name", sorted(EDGE_PAIRS))
    @pytest.mark.parametrize("k", range(4))
    def test_matches_mpmath_at_the_edge(self, name, k):
        A, R = _edge_pair(name)
        jeffreys = mpmath_jeffreys(A.masses, R.masses)
        terms = [mpmath_pl(j, A.masses, R.masses) for j in range(1, k + 1)]
        expected = jeffreys - sum(terms)
        scale = abs(jeffreys) + sum(abs(x) for x in terms)
        assert abs(sl(k, A, R) - expected) <= 1e-12 * scale

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_near_identical_pairs_keep_relative_accuracy(self, eps):
        # Near P each Jeffreys term is (p - q) log(p/q), and log of the
        # rounded ratio p/q would lose eps/|p/q - 1| of its relative
        # precision; sl takes log1p of the exact p - q over q there. The
        # chain is about eps^2, far below the terms it is made from.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(-np.log10(eps)))
        for _ in range(5):
            p = rng.exponential(size=20)
            A = new_distribution(p / p.sum())
            q = A.masses * (1.0 + eps * rng.uniform(-1.0, 1.0, size=20))
            B = new_distribution(q / q.sum())
            values = sl((0, 1, 2, 3), A, B)
            with mp.workdps(50):
                ps, qs = ([mp.mpf(x) for x in X.masses] for X in (A, B))
                chain = [mp.fsum((a - b) * mp.log(a / b) for a, b in zip(ps, qs))]
                for k in (1, 2, 3):
                    term = mp.fsum(a * mp.polylog(k, 1 - b / a) for a, b in zip(ps, qs))
                    chain.append(chain[-1] - term)
            for value, expected in zip(values, map(float, chain)):
                assert abs(value - expected) <= 1e-13 * abs(expected)

    def test_order_zero_is_jeffreys(self):
        j = named_divergence("jeffreys")
        for seed in range(30):
            A, B = _pair(seed + 200)
            assert sl(0, A, B) == pytest.approx(evaluate(j, A, B), rel=1e-13)

    def test_order_one_is_reverse_kl(self):
        rev = named_divergence("reverse_kl")
        for seed in range(30):
            A, B = _pair(seed + 300)
            assert sl(1, A, B) == pytest.approx(evaluate(rev, A, B), rel=1e-11)

    def test_identical_pair_gives_exact_zero(self):
        for k in [0, 1, 3]:
            assert sl(k, P, P) == 0.0

    def test_chain_is_nonincreasing_and_nonnegative(self):
        for seed in range(60):
            A, B = _pair(seed + 7000)
            chain = [sl(k, A, B) for k in range(5)]
            assert np.all(np.diff(chain) <= 1e-9), f"seed {seed}: {chain}"
            assert chain[-1] >= -1e-9, f"seed {seed}: {chain}"


class TestOperatorAgreement:
    def test_iterated_integral_of_chi2_matches_closed_form(self):
        for seed in [3, 4, 5, 6]:
            A, B = _pair(seed + 400)
            path = MixturePath(A, B)
            t = float(np.random.default_rng(seed).uniform(0.3, 1.0))
            M = mixture(path, t)
            rows = psi_iter(named_divergence("chi2"), 3, path, np.array([t]))
            for k in range(4):
                assert rows[k, 0] == pytest.approx(pl(k, A, M), abs=1e-6), (
                    f"seed {seed} level {k}"
                )

    def test_iterated_integral_of_jeffreys_matches_closed_form(self):
        for seed in [13, 14, 15]:
            A, B = _pair(seed + 500)
            path = MixturePath(A, B)
            t = float(np.random.default_rng(seed).uniform(0.3, 1.0))
            M = mixture(path, t)
            rows = psi_iter(named_divergence("jeffreys"), 3, path, np.array([t]))
            for k in range(4):
                assert rows[k, 0] == pytest.approx(sl(k, A, M), abs=1e-6), (
                    f"seed {seed} level {k}"
                )

    def test_integrated_jeffreys_subtracts_first_polylog_term(self):
        j = named_divergence("jeffreys")
        for seed in [21, 22, 23]:
            A, B = _pair(seed)
            path = MixturePath(A, B)
            t = float(np.random.default_rng(seed + 9).uniform(0.2, 1.0))
            M = mixture(path, t)
            expected = evaluate(j, A, M) - pl(1, A, M)
            assert psi(j, path, t).value == pytest.approx(expected, abs=1e-6)

    def test_convexity_in_second_argument(self):
        rng = np.random.default_rng(31337)
        for k in [0, 1, 2]:
            for j in range(25):
                n = int(rng.integers(2, 6))
                A = random_distribution(n, seed=int(rng.integers(1 << 30)))
                B1 = random_distribution(n, seed=int(rng.integers(1 << 30)))
                B2 = random_distribution(n, seed=int(rng.integers(1 << 30)))
                lam = float(rng.uniform())
                Bmix = new_distribution(lam * B1.masses + (1.0 - lam) * B2.masses)
                for seq in (pl, sl):
                    lhs = lam * seq(k, A, B1) + (1.0 - lam) * seq(k, A, B2)
                    assert lhs >= seq(k, A, Bmix) - 1e-9, f"{seq.__name__} k={k} #{j}"


class TestHellingerClosedForms:
    def test_reference_values(self):
        assert hellinger_psi(P, Q, 1.0) == pytest.approx(HELLINGER2_PSI, abs=1e-15)
        assert hellinger_psi_inverse(P, Q, 1.0) == pytest.approx(
            HELLINGER2_PSI_INV, abs=1e-15
        )

    def test_zero_at_path_start(self):
        assert hellinger_psi(P, Q, 0.0) == 0.0
        assert hellinger_psi_inverse(P, Q, 0.0) == 0.0

    def test_zero_on_identical_pair(self):
        for t in [0.0, 0.4, 1.0]:
            assert hellinger_psi(Q, Q, t) == 0.0
            assert hellinger_psi_inverse(Q, Q, t) == 0.0

    def test_sandwich_on_grids(self):
        hel2 = named_divergence("hellinger2")
        for seed in range(25):
            A, B = _pair(seed + 600)
            path = MixturePath(A, B)
            for t in np.linspace(0.0, 1.0, 9):
                mid = float(hel2.evaluator(A.masses, path.masses_at(np.array([t]))[0]))
                upper = hellinger_psi_inverse(A, B, t)
                lower = hellinger_psi(A, B, t)
                assert upper >= mid - 1e-12, f"seed {seed} t={t}"
                assert mid >= lower - 1e-12, f"seed {seed} t={t}"
                assert lower >= -1e-12, f"seed {seed} t={t}"

    def test_agrees_with_numerical_operators(self):
        D = named_divergence("hellinger2")
        for seed in range(15):
            A, B = _pair(seed + 800)
            path = MixturePath(A, B)
            t = float(np.random.default_rng(seed + 3).uniform(0.1, 1.0))
            assert hellinger_psi(A, B, t) == pytest.approx(
                psi(D, path, t).value, abs=1e-8
            )
            assert hellinger_psi_inverse(A, B, t) == pytest.approx(
                psi_inverse(D, path, t), abs=1e-10
            )

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_near_identical_pairs_match_mpmath(self, eps):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(-np.log10(eps)))
        for _ in range(5):
            p = rng.exponential(size=20)
            A = new_distribution(p / p.sum())
            q = A.masses * (1.0 + eps * rng.uniform(-1.0, 1.0, size=20))
            B = new_distribution(q / q.sum())
            with mp.workdps(50):
                ps = [mp.mpf(x) for x in A.masses]
                rs = [mp.mpf(x) for x in B.masses]
                gaps = [(mp.sqrt(r) - mp.sqrt(pi)) ** 2 for pi, r in zip(ps, rs)]
                psi_ref = float(sum(gaps) + 2 * mp.fsum(
                    pi * mp.log((mp.sqrt(pi) + mp.sqrt(r)) / (2 * mp.sqrt(pi)))
                    for pi, r in zip(ps, rs)
                ))
                inv_ref = float(mp.fsum(
                    g / 2 + g * mp.sqrt(pi / r) / 2 for g, pi, r in zip(gaps, ps, rs)
                ))
            assert abs(hellinger_psi(A, B, 1.0) - psi_ref) <= 1e-13 * psi_ref
            assert abs(hellinger_psi_inverse(A, B, 1.0) - inv_ref) <= 1e-13 * inv_ref

    def test_accepts_raw_arrays(self):
        for fn in (hellinger_psi, hellinger_psi_inverse):
            assert fn(P.masses, Q.masses, 0.7) == fn(P, Q, 0.7)
            with pytest.raises(DomainError):
                fn(P.masses, np.array([0.2, 0.3, 0.5]), 0.7)

    def test_rejects_bad_t(self):
        for t in [-0.1, 1.1, np.nan]:
            with pytest.raises(DomainError):
                hellinger_psi(P, Q, t)
            with pytest.raises(DomainError):
                hellinger_psi_inverse(P, Q, t)


@st.composite
def arbitrary_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    coords = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    left = draw(st.lists(coords, min_size=n, max_size=n))
    right = draw(st.lists(coords, min_size=n, max_size=n))
    return (
        new_distribution([x / sum(left) for x in left]),
        new_distribution([x / sum(right) for x in right]),
    )


@given(arbitrary_pairs())
@settings(max_examples=40, deadline=None)
def test_chains_never_increase_on_arbitrary_pairs(pair):
    a, b = pair
    for family in (pl, sl):
        chain = [family(k, a, b) for k in range(4)]
        slack = 1e-9 * (1.0 + abs(chain[0]))
        assert chain[-1] >= -slack, f"{family.__name__} tail {chain[-1]}"
        for k in range(3):
            assert chain[k + 1] <= chain[k] + slack, f"{family.__name__} {chain}"


class TestOrderTuples:
    @staticmethod
    def _stack(n=1000):
        # Three rows of 1000 coordinates: one with tiny masses, one that ends
        # within 1e-7 of its start, so its sums cancel at every order, and a
        # regular one.
        rng = np.random.default_rng(24)
        p = rng.exponential(size=(3, n)) + 1e-3
        p[0, :4] = [1e-12, 3e-12, 1e-10, 1e-9]
        p /= p.sum(axis=1, keepdims=True)
        q = rng.exponential(size=(3, n)) + 1e-3
        q[1] = p[1] * (1.0 + 1e-7 * rng.uniform(-1.0, 1.0, n))
        return p, q / q.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("family", [pl, sl])
    def test_each_order_is_its_own_call_bitwise(self, family):
        p, q = self._stack()
        orders = (0, 1, 2, 3, 4)
        values = family(orders, p, q)
        assert values.shape == (5, 3)
        for row, k in zip(values, orders):
            assert row.tobytes() == family(k, p, q).tobytes(), k
            for i in range(3):
                assert row[i] == family(k, p[i], q[i]), (k, i)
        single = family((3, 1), p[2], q[2])
        assert single.shape == (2,) and single.tolist() == [values[3, 2], values[1, 2]]

    def test_tuple_of_orders_checks_each(self):
        with pytest.raises(DomainError):
            pl((1, -1), P, Q)
        with pytest.raises(DomainError):
            sl((0.5,), P, Q)

    def test_power_tables_stay_within_table_cells(self, monkeypatch):
        # sl(3) on 10^4 coordinates: every table of powers, for the series
        # and the mu expansion, holds at most _TABLE_CELLS cells.
        module = importlib.import_module("divseq.polylog")
        build, sizes = module._power_table, []

        def spy(head, x, width):
            table = build(head, x, width)
            sizes.append(table.size)
            return table

        monkeypatch.setattr(module, "_power_table", spy)
        rng = np.random.default_rng(10_000)
        p, q = rng.exponential(size=(2, 10_000))
        sl(3, p / p.sum(), q / q.sum())
        assert len(sizes) > 2 and max(sizes) <= module._TABLE_CELLS
        # Orders 2 and 40 on 10^4 w from 2e-9 to 4.5, so on all three routes:
        # the table the routes share takes the mu expansion's 40 powers, and
        # a chunk of _TABLE_CELLS // 40 columns. Each coordinate's value is
        # its own: pieces of a chunk's size, each its own call, give the
        # same values bitwise.
        sizes.clear()
        w = np.exp(rng.uniform(-20.0, 1.5, 10_000))
        orders, step = (2, 40), module._TABLE_CELLS // 40
        assert (w < 0.5).any() and (w > 2.0).any() and ((w >= 0.5) & (w <= 2.0)).any()
        values = polylog(orders, w=w)
        assert len(sizes) == -(-w.size // step) and max(sizes) <= module._TABLE_CELLS
        pieces = [polylog(orders, w=w[lo : lo + step]) for lo in range(0, w.size, step)]
        assert values.tobytes() == np.concatenate(pieces, axis=1).tobytes()

    def test_a_thousand_coordinates_take_one_table(self, monkeypatch):
        # sl(3) at 1000 points, 20 powers a table: one table, not two.
        module = importlib.import_module("divseq.polylog")
        build, sizes = module._power_table, []
        monkeypatch.setattr(
            module, "_power_table", lambda *args: sizes.append(args[1].size) or build(*args))
        rng = np.random.default_rng(1000)
        p, q = rng.exponential(size=(2, 1000))
        sl(3, p / p.sum(), q / q.sum())
        assert sizes == [1000]


def _split_sums_by_rows(orders, p, q, terms):
    """sequences._split_sums as a loop over rows and orders, each part a
    sum of the boolean-selected terms: the reference for its masked sums."""
    d = p - q
    z = d / p
    near = np.abs(z) <= sequences._NEAR_RADIUS
    split = terms.copy()
    split[:, near] = p[near] * _series(orders, z[near], linear=False)
    gaps = [math.fsum(gap[mask].tolist()) for mask, gap in zip(near, d)]
    return np.array([[float(np.sum(row[~mask]) + np.sum(row[mask])) + gap
                      for row, mask, gap in zip(rows, near, gaps)] for rows in split]), split


@pytest.mark.parametrize("n", [3, 7, 8, 40, 300])
def test_split_sums_match_the_row_loop(n):
    # Rows near P, with a few coordinates far from it, so both parts are
    # summed. Below 8 terms numpy adds them in order, zeros or not, so the
    # masked sums are the loop's bitwise; from 8 on its pairwise order
    # moves, and each part is within the summation bound 2 n eps Sum |terms|.
    rng = np.random.default_rng(n)
    p = 0.01 / n + 0.99 * rng.dirichlet(np.ones(n), size=6)
    q = p * (1.0 + 1e-6 * rng.standard_normal(p.shape))
    q[:, : max(1, n // 5)] *= 3.0
    q /= q.sum(axis=1, keepdims=True)
    orders = (0, 1, 2, 3)
    terms = p * polylog(orders, w=q / p)
    ref, split = _split_sums_by_rows(orders, p, q, terms)
    value = sequences._split_sums(orders, p, q, terms)
    if n < 8:
        assert value.tobytes() == ref.tobytes()
    eps = np.finfo(float).eps
    bound = 2.0 * n * eps * np.abs(split).sum(axis=-1) + 2.0 * eps * np.abs(ref)
    assert np.all(np.abs(value - ref) <= bound)
