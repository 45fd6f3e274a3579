import importlib
import warnings

import numpy as np
import pytest

from divseq.distributions import new_distribution
from divseq.errors import DomainError, ToleranceError
from divseq.polylog import polylog, polylog_series
from divseq.sequences import pl
from polylog_oracles import polylog_integral, polylog_recurrence_check

# Reference values from 50-digit arbitrary-precision evaluation.
LI2_HALF = 0.5822405264650125  # = pi^2/12 - (log 2)^2/2
LI2_NEG_HALF = -0.4484142069236462
LI3_HALF = 0.5372131936080402
LI2_NEG_09 = -0.7521631792172616
LI3_NEG_3 = -2.3487905545840766


class TestClosedForms:
    def test_order_zero(self):
        assert polylog(0, 0.5) == 1.0
        assert polylog(0, -1.0) == -0.5

    def test_order_one_is_log(self):
        assert polylog(1, 0.5) == pytest.approx(np.log(2.0), rel=1e-15)
        assert polylog(1, -1.0) == pytest.approx(-np.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7])
    def test_zero_argument(self, k):
        assert polylog(k, 0.0) == 0.0

    def test_order_one_below_2_to_the_minus_53_warns_of_nothing(self):
        # z = 1 - w rounds to 1 there; log1p(-z), the branch not taken,
        # must not divide by zero on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = polylog(1, w=np.array([1e-20, 0.3]))
            alone = polylog(1, w=1e-300)
        assert values.tolist() == [-np.log(1e-20), -np.log(0.3)]
        assert alone == -np.log(1e-300)


class TestReferenceValues:
    @pytest.mark.parametrize(
        "k,z,expected",
        [
            (2, 0.5, LI2_HALF),
            (2, -0.5, LI2_NEG_HALF),
            (3, 0.5, LI3_HALF),
            (2, -0.9, LI2_NEG_09),
        ],
    )
    def test_series_region(self, k, z, expected):
        assert polylog(k, z) == pytest.approx(expected, abs=1e-14)

    def test_integral_region(self):
        assert polylog(3, -3.0) == pytest.approx(LI3_NEG_3, rel=1e-12)

    def test_against_brute_force_partial_sums(self):
        for k in [2, 3, 4]:
            for z in [-0.8, -0.3, 0.2, 0.6, 0.9]:
                j = np.arange(1, 120_000, dtype=np.float64)
                brute = float(np.sum(z**j / j**k))
                assert polylog(k, z) == pytest.approx(brute, abs=1e-13), f"k={k} z={z}"

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for k in [2, 3, 5]:
            for z in [-20.0, -3.0, -0.96, 0.5, 0.97]:
                ref = float(mp.polylog(k, z))
                assert polylog(k, z) == pytest.approx(ref, rel=1e-11), f"k={k} z={z}"

    def test_large_order_approaches_argument(self):
        value = polylog(8, 0.5)
        assert 0.5 < value < 0.502


class TestStrategyAgreement:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("z", [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
    def test_series_matches_integral(self, k, z):
        assert abs(polylog_series(k, z) - polylog_integral(k, z)) < 1e-9

    def test_integral_matches_log_closed_form(self):
        assert polylog_integral(1, 0.5) == pytest.approx(np.log(2.0), abs=1e-10)


class TestHighOrders:
    def test_series_terms_past_overflow_are_zero(self):
        # j^k overflows to inf from k ~ 170, and z^j / inf is the 0.0 that
        # z^j / j^k rounds to; the sum is the argument itself.
        assert polylog(200, -0.7) == -0.7
        assert polylog_series(175, 0.4) == 0.4

    def test_series_arguments_build_no_expansion_coefficients(self, monkeypatch):
        # The mu expansion's and inversion's coefficients cost about k^2.7 to
        # build; arguments in the series region alone build none, so a high
        # order there costs what a low one does.
        module = importlib.import_module("divseq.polylog")
        built, build = [], module._coefficients
        monkeypatch.setattr(module, "_coefficients", lambda k: built.append(k) or build(k))
        z = np.array([0.5, -0.5, 0.25, -1e-3, 0.0])
        for k in (2, 50, 2000):
            assert polylog(k, z).tobytes() == polylog_series(k, z).tobytes()
        # On P = (1/2, 1/2), Q = (1/4, 3/4), z = 1 - q/p is 1/2 and -1/2;
        # Sum p z = 0, so pl is Sum p (Li_k(z) - z), all of it below 2^-2000.
        P, Q = new_distribution([0.5, 0.5]), new_distribution([0.25, 0.75])
        direct = 0.5 * (polylog_series(2000, 0.5) - 0.5) + 0.5 * (polylog_series(2000, -0.5) + 0.5)
        assert pl(2000, P, Q) == direct
        assert built == []

    @pytest.mark.parametrize("k", [131, 172, 200, 300])
    def test_integral_matches_closed_expansions(self, k):
        z = np.array([-1e6, -3.0, -0.5, 0.3, 0.97])
        np.testing.assert_allclose(polylog_integral(k, z), polylog(k, z), rtol=1e-12, atol=0.0)


class TestRecurrence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("z", [-3.0, -1.0, -0.5, 0.5, 0.9])
    def test_integrating_lower_order_reproduces_next(self, k, z):
        assert abs(polylog(k + 1, z) - polylog_recurrence_check(k, z)) < 1e-8

    def test_examples(self):
        assert polylog_recurrence_check(1, 0.5) == pytest.approx(LI2_HALF, abs=1e-9)
        assert polylog_recurrence_check(1, -0.5) == pytest.approx(LI2_NEG_HALF, abs=1e-9)
        assert polylog_recurrence_check(2, 0.0) == 0.0

    def test_rejects_order_zero(self):
        with pytest.raises(DomainError):
            polylog_recurrence_check(0, 0.5)


class TestShapeProperties:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sign(self, k):
        for z in [-5.0, -1.0, -0.2]:
            assert polylog(k, z) < 0.0
        for z in [0.1, 0.5, 0.95, 0.99]:
            assert polylog(k, z) > 0.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_strictly_increasing_in_z(self, k):
        grid = np.linspace(-3.0, 0.95, 40)
        vals = [polylog(k, z) for z in grid]
        assert np.all(np.diff(vals) > 0.0)


class TestValidation:
    @pytest.mark.parametrize("z", [1.0, 1.5, np.inf, -np.inf, np.nan])
    def test_bad_argument(self, z):
        with pytest.raises(DomainError):
            polylog(2, z)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            polylog(-1, 0.5)
        with pytest.raises(DomainError):
            polylog(2.5, 0.5)

    def test_integral_requires_positive_order(self):
        with pytest.raises(DomainError):
            polylog_integral(0, 0.5)

    def test_series_stalls_near_one(self):
        with pytest.raises(ToleranceError):
            polylog_series(2, 0.9999)

    @pytest.mark.parametrize("z", [-1.5, -2.0])
    def test_series_rejects_divergent_arguments_up_front(self, z):
        # Summed, the terms overflow long before the 10000-term limit.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="diverges"):
                polylog_series(2, z)

    def test_series_stalls_on_the_unit_circle(self):
        with pytest.raises(ToleranceError):
            polylog_series(2, -1.0)


class TestArrays:
    # Both sides of each seam between routes (|z| = 1/2 and z = -1), the
    # z -> 1 edge, a far negative argument and the old series radius
    # |z| = 0.95, in one array.
    Z = np.array(
        [-1e6, -3.0, -1.0000000000000002, -1.0, -0.9999999999999999, -0.951,
         -0.949, -0.5000000000000001, -0.5, -0.3, 0.0, 0.4, 0.5,
         0.5000000000000001, 0.949, 0.951, 0.999, 1.0 - 1e-12]
    )

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_array_matches_scalar_calls(self, k):
        values = polylog(k, self.Z)
        assert isinstance(values, np.ndarray) and values.shape == self.Z.shape
        scalars = np.array([polylog(k, z) for z in self.Z])
        # Every route works coordinate by coordinate: the series stops each
        # on its own, and the expansions are polynomials.
        np.testing.assert_array_equal(values, scalars)

    def test_array_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for k in [2, 3, 4]:
            values = polylog(k, self.Z)
            with mp.workdps(40):
                ref = np.array([float(mp.polylog(k, mp.mpf(z))) for z in self.Z])
            np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0, err_msg=f"k={k}")

    def test_scalar_gives_float_and_shape_is_kept(self):
        assert type(polylog(2, 0.5)) is float
        assert type(polylog_series(2, 0.5)) is float
        assert type(polylog_integral(2, -3.0)) is float
        grid = self.Z[:10].reshape(2, 5)
        for fn in (polylog, polylog_integral):
            assert fn(3, grid).shape == (2, 5)
        assert polylog_series(3, np.array([[0.1, 0.2]])).shape == (1, 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_routes_agree_on_arrays(self, k):
        z = np.array([-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
        np.testing.assert_allclose(
            polylog_series(k, z), polylog_integral(k, z), rtol=0, atol=1e-12
        )

    def test_w_form_keeps_digits_at_the_edge(self):
        mp = pytest.importorskip("mpmath")
        w = np.array([1e-15, 1e-12, 3e-9, 1e-4, 0.04, 0.5, 1.0, 2.5, 1e3, 1e12])
        for k in range(5):
            with mp.workdps(40):
                ref = np.array([float(mp.polylog(k, 1 - mp.mpf(x))) for x in w])
            np.testing.assert_allclose(polylog(k, w=w), ref, rtol=1e-12, atol=0.0)
            if k >= 1:
                integral = polylog_integral(k, w=w)
                np.testing.assert_allclose(integral, ref, rtol=1e-12, atol=0.0)

    def test_takes_z_or_w_not_both(self):
        for fn in (polylog, polylog_integral):
            with pytest.raises(DomainError):
                fn(2)
            with pytest.raises(DomainError):
                fn(2, 0.5, w=0.5)

    @pytest.mark.parametrize("bad", [1.0, 1.5, np.nan, np.inf])
    def test_one_bad_element_raises(self, bad):
        z = np.array([0.5, -2.0, bad, 0.1])
        for fn in (polylog, polylog_series, polylog_integral):
            with pytest.raises(DomainError):
                fn(2, z)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_one_bad_w_raises(self, bad):
        for fn in (polylog, polylog_integral):
            with pytest.raises(DomainError):
                fn(2, w=np.array([0.5, bad, 2.0]))

    def test_one_stalled_series_raises(self):
        with pytest.raises(ToleranceError):
            polylog_series(2, np.array([0.1, 0.9999, -0.5]))


def _mpmath_li(mp, k, w):
    with mp.workdps(40):
        return np.array([float(mp.polylog(k, 1 - mp.mpf(float(x)))) for x in w])


class TestClosedExpansions:
    # Seams between routes: w = 1/2 (z = 1/2), w = 3/2 (z = -1/2) and w = 2
    # (z = -1), each with its neighbours one ulp either side.
    SEAMS = np.array([0.5, 1.5, 2.0])
    SEAM_W = np.concatenate(
        [SEAMS, np.nextafter(SEAMS, 0.0), np.nextafter(SEAMS, np.inf)]
    )
    WIDE_W = np.logspace(-12.0, 12.0, 97)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_contract_against_mpmath_over_w(self, k):
        mp = pytest.importorskip("mpmath")
        w = np.concatenate([self.WIDE_W, self.SEAM_W])
        ref = _mpmath_li(mp, k, w)
        values = polylog(k, w=w)
        np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)
        # The same coordinates one call each, and given as z where 1 - w is
        # exact (all of them below w = 2).
        scalars = np.array([polylog(k, w=x) for x in w])
        np.testing.assert_array_equal(values, scalars)
        exact_z = w <= 2.0
        np.testing.assert_allclose(
            polylog(k, 1.0 - w[exact_z]), ref[exact_z], rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("k", range(2, 13))
    def test_empty_array(self, k):
        for values in (polylog(k, np.array([])), polylog(k, w=np.zeros((0, 3)))):
            assert isinstance(values, np.ndarray) and values.size == 0
        assert polylog(k, w=np.zeros((0, 3))).shape == (0, 3)

    def test_makes_no_quadrature_call(self, monkeypatch):
        # Every quadrature call, whoever imported it, runs _integrate_segments.
        module = importlib.import_module("divseq.quadrature")

        def refuse(*args, **kwargs):
            raise AssertionError("polylog called the quadrature")

        monkeypatch.setattr(module, "_integrate_segments", refuse)
        w = np.concatenate([self.WIDE_W, self.SEAM_W])
        for k in range(13):
            assert np.isfinite(polylog(k, w=w)).all()

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_closed_values(self, k):
        # Li_k(1) = zeta(k) and Li_k(-1) = -(1 - 2^(1-k)) zeta(k).
        mp = pytest.importorskip("mpmath")
        zeta = float(mp.zeta(k))
        assert polylog(k, w=1e-300) == pytest.approx(zeta, rel=1e-15)
        assert polylog(k, -1.0) == pytest.approx(-(1.0 - 2.0 ** (1 - k)) * zeta, rel=1e-15)


class TestOrderTuples:
    # The series route's arguments: |z| <= 1/2, both edges, tiny ones of
    # either sign and the neighbours of +-1/2 (0 is tested apart).
    SERIES_Z = np.concatenate([
        np.delete(np.linspace(-0.5, 0.5, 201), 100),
        [-1e-8, 1e-8, -1e-3, 1e-3, -0.4999, 0.4999],
        np.nextafter([-0.5, 0.5], 0.0),
    ])

    @pytest.mark.parametrize("linear", [True, False])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_series_route_against_mpmath(self, k, linear):
        # Li_k(z), or Li_k(z) - z, to 1e-15 relative: one block of 64
        # terms, each coordinate's terms added smallest first.
        mp = pytest.importorskip("mpmath")
        module = importlib.import_module("divseq.polylog")
        z = self.SERIES_Z
        with mp.workdps(40):
            ref = np.array([
                float(mp.polylog(k, mp.mpf(x)) - (0 if linear else mp.mpf(x))) for x in z
            ])
        values = module._series((k,), z, linear)[0]
        np.testing.assert_allclose(values, ref, rtol=1e-15, atol=0.0)
        assert module._series((k,), np.zeros(3), linear)[0].tolist() == [0.0] * 3

    ORDERS = (0, 1, 2, 3, 5, 12)

    @pytest.mark.parametrize("given", ["z", "seam_w", "stack_w"])
    def test_each_order_is_its_own_call_bitwise(self, given):
        rng = np.random.default_rng(24)
        arguments = {
            "z": {"z": TestArrays.Z},
            "seam_w": {"w": TestClosedExpansions.SEAM_W},
            "stack_w": {"w": np.exp(rng.uniform(-28.0, 5.0, (3, 1000)))},
        }[given]
        values = polylog(self.ORDERS, **arguments)
        shape = next(iter(arguments.values())).shape
        assert values.shape == (len(self.ORDERS),) + shape
        for row, k in zip(values, self.ORDERS):
            assert row.tobytes() == polylog(k, **arguments).tobytes(), k
        # Any subset or order of the orders gives the same rows.
        assert polylog((12, 2), **arguments).tobytes() == values[[5, 2]].tobytes()

    def test_scalar_argument_gives_one_value_per_order(self):
        values = polylog((0, 2, 3), 0.5)
        assert values.shape == (3,)
        assert values.tolist() == [polylog(k, 0.5) for k in (0, 2, 3)]

    def test_bad_order_in_a_tuple_raises(self):
        for bad in ((2, -1), (2, 2.5)):
            with pytest.raises(DomainError):
                polylog(bad, 0.5)
