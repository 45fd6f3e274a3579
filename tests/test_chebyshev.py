import mpmath
import numpy as np
import pytest

from divseq import chebyshev
from divseq.chebyshev import (
    _BLOCK_CELLS,
    ChebyshevInterpolant,
    _coefficients,
    _fresh_values,
    _padded,
    _level_pieces,
    _values,
    lobatto_nodes,
)
from divseq.divergences import named_divergence
from divseq.verify import _triangular_discrimination
from divseq.errors import DomainError, NonFiniteError, ToleranceError


def _lifted(interp):
    """The interpolant of s -> Integral_0^s interp(u) / u du on the same
    nodes: level 1 of lifts(1)."""
    return ChebyshevInterpolant(interp.lifts(1).values[0])


def level_kernel(phi, v, tol, k=1):
    """Phi_1..Phi_k at nonzero v (1-d), as psi takes them: the levels built
    once on pieces covering v and evaluated in blocks of _BLOCK_CELLS level
    values, each point alone, so the levels at v depend on phi, v, k and
    tol alone. Returns the levels (k, len(v)), their error
    bounds and phi's evaluation count."""
    levels, evaluations = _level_pieces(phi, np.min(v), np.max(v), tol, k)
    values, bounds, step = np.empty((k, len(v))), np.empty((k, len(v))), max(1, _BLOCK_CELLS // k)
    for lo in range(0, len(v), step):
        values[:, lo : lo + step], bounds[:, lo : lo + step] = levels(v[lo : lo + step])
    return values, bounds, evaluations


def test_nodes_span_unit_interval():
    t = lobatto_nodes(16)
    assert t[0] == 0.0
    assert t[-1] == 1.0
    assert np.all(np.diff(t) > 0)
    assert len(t) == 17


def test_nodes_nest_under_doubling():
    coarse = lobatto_nodes(32)
    fine = lobatto_nodes(64)
    assert np.array_equal(fine[::2], coarse)


def test_interpolates_node_values_exactly():
    nodes = lobatto_nodes(8)
    vals = np.sin(3.0 * nodes)
    interp = ChebyshevInterpolant(vals)
    assert np.array_equal(interp.nodes, nodes)
    assert np.array_equal(interp(nodes), vals)


def test_node_hits_and_overflow_take_the_node_value():
    # Points on a node, or so close to one that 1/(x - node) overflows,
    # take that node's value bitwise, for one interpolant and for a stack.
    nodes = lobatto_nodes(32)
    values = np.stack([np.cos(3.0 * nodes) + 1.0, np.sin(5.0 * nodes)])
    x = np.concatenate([nodes, [1e-310, 5e-324, 1.0 - 1e-17]])
    expected = np.concatenate([values, values[:, [0, 0, -1]]], axis=-1)
    stack = ChebyshevInterpolant(values)
    assert stack(x).tobytes() == expected.tobytes()
    for row, want in zip(values, expected):
        assert ChebyshevInterpolant(row)(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_points_raise(bad):
    # A non-finite point has no nearest node; it is rejected like every
    # other invalid input, for one interpolant, a stack and levels of stacks.
    values = np.arange(5.0)
    for interp in (
        ChebyshevInterpolant(values),
        ChebyshevInterpolant(np.stack([values, -values])),
        ChebyshevInterpolant(np.ones((3, 2, 5))),
    ):
        with pytest.raises(DomainError):
            interp(bad)
        with pytest.raises(DomainError):
            interp(np.array([[0.5, bad], [0.25, 0.75]]))


def test_values_fix_the_nodes():
    # n + 1 values sit at lobatto_nodes(n); nodes cannot be passed, so
    # values sampled elsewhere cannot be paired with the Lobatto weights.
    x = np.linspace(0.0, 1.0, 17)
    with pytest.raises(TypeError):
        ChebyshevInterpolant(x, np.exp(x))
    s = lobatto_nodes(16)
    lifted = _lifted(ChebyshevInterpolant(np.expm1(s)))
    # Integral_0^1 (e^u - 1) / u du = Ein(1).
    assert abs(lifted(1.0) - 1.3179021514544038) <= 1e-14


@pytest.mark.parametrize(
    "values",
    [1.0, np.ones(1), [], np.ones((3, 1)), np.ones((0, 3)), np.ones((2, 0, 3))],
    ids=["scalar", "one", "empty", "one_value_rows", "empty_stack", "empty_levels"],
)
def test_rejects_bad_values(values):
    # Values of more than one axis are a stack of interpolants; see
    # test_stacks.TestStackedInterpolants and TestLevelKernel.
    with pytest.raises(DomainError):
        ChebyshevInterpolant(values)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rejects_non_finite_values(bad):
    # A non-finite value would be hidden: evaluation repairs a non-finite
    # output from the nearest node, which is meant for points on a node.
    for values in ([0.0, bad], [[1.0, 2.0, 3.0], [0.0, bad, 1.0]]):
        with pytest.raises(DomainError, match="finite"):
            ChebyshevInterpolant(np.array(values))


def test_blocked_evaluation_matches_pointwise_calls():
    # 2049 nodes leave room for _BLOCK_CELLS // 2049 rows per block, so
    # 2183 points span more than four blocks; node hits fall in several.
    nodes = lobatto_nodes(2048)
    interp = ChebyshevInterpolant(np.cos(7.0 * nodes))
    x = np.concatenate([np.linspace(0.0, 1.0, 1500), nodes[::3]])
    assert len(x) > 4 * (_BLOCK_CELLS // len(nodes))
    pointwise = np.array([interp(float(xi)) for xi in x])
    assert interp(x).tobytes() == pointwise.tobytes()


def test_fit_exponential():
    interp, residual, neval = ChebyshevInterpolant.fit_adaptive(np.exp, 1e-12)
    assert residual <= 1e-12
    x = np.linspace(0.0, 1.0, 637)
    assert np.max(np.abs(interp(x) - np.exp(x))) < 1e-11
    assert neval == len(interp.nodes)


def test_fit_runge_bump():
    fn = lambda x: 1.0 / (1.0 + 25.0 * (x - 0.5) ** 2)
    interp, residual, _ = ChebyshevInterpolant.fit_adaptive(fn, 1e-12)
    assert residual <= 1e-12
    x = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(interp(x) - fn(x))) < 1e-10


def test_fit_preserves_zero_at_origin():
    fn = lambda x: np.expm1(2.0 * x)
    interp, _, _ = ChebyshevInterpolant.fit_adaptive(fn, 1e-12)
    assert interp(0.0) == 0.0
    assert float(interp(np.array([0.0]))[0]) == 0.0


def test_scalar_and_array_calls_agree():
    interp, _, _ = ChebyshevInterpolant.fit_adaptive(np.cos, 1e-12)
    xs = np.array([0.0, 0.123, 0.5, 0.999, 1.0])
    batch = interp(xs)
    for j, x in enumerate(xs):
        assert batch[j] == interp(float(x))
    assert np.isscalar(interp(0.25)) or np.ndim(interp(0.25)) == 0


def test_unreachable_target_raises(monkeypatch):
    rng = np.random.default_rng(7)
    calls = []

    def noise(x):
        calls.append(np.size(x))
        return rng.standard_normal(np.shape(x))

    monkeypatch.setattr(chebyshev, "_MAX_INTERVALS", 256)
    with pytest.raises(ToleranceError, match="at 256 intervals"):
        ChebyshevInterpolant.fit_adaptive(noise, 1e-12)
    # 17 initial values, then 16, 32, 64 and 128 fresh ones.
    assert calls == [17, 16, 32, 64, 128]


def test_fit_rejects_bad_target():
    for target in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            ChebyshevInterpolant.fit_adaptive(np.exp, target)


def test_fit_rejects_non_finite_values():
    with pytest.raises(DomainError):
        ChebyshevInterpolant.fit_adaptive(lambda x: np.where(x > 0.5, np.nan, x), 1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("batch", ["first", "one_node", "fresh"])
def test_fit_rejects_a_non_finite_batch_as_it_arrives(bad, batch):
    # Under the suite's error::RuntimeWarning filter, residual arithmetic
    # on a non-finite value would fail this test with a RuntimeWarning.
    calls = []

    def f(x):
        calls.append(x.size)
        out = np.cos(x)
        if batch == "first" and len(calls) == 1:
            out[x > 0.5] = bad
        elif batch == "one_node" and len(calls) == 1:
            out[3] = bad
        elif batch == "fresh" and len(calls) == 3:
            out[-1] = bad
        return out

    with pytest.raises(NonFiniteError):
        ChebyshevInterpolant.fit_adaptive(f, 1e-30)
    assert calls == ([17] if batch != "fresh" else [17, 16, 32])


class TestGroupedFit:
    # fit_adaptive fits a sum of groups in one doubling loop: one sampler
    # gives the live groups' values, a group that stops leaves the live
    # list and is never sampled again, each group stops at its own node
    # count, and the interpolants add in Chebyshev coefficients.
    @staticmethod
    def _parts():
        return [np.exp, lambda x: np.cos(7.0 * x), _runge]

    @staticmethod
    def _sampler(parts, live, calls):
        """One sampler of the parts listed in live, easiest first, as a
        (live, 2, N) stack; each part records the node counts it was
        sampled at in its own list of calls."""
        calls[:] = [[] for _ in parts]

        def f(x):
            for g in live:
                calls[g].append(x.size)
            return np.stack([np.stack([parts[g](x), 2.0 * parts[g](x)]) for g in live])

        return f

    def _fit(self, target, calls):
        parts, live = self._parts(), [0, 1, 2]
        result = ChebyshevInterpolant.fit_adaptive(self._sampler(parts, live, calls), target, live)
        assert live == []  # every group stopped, and left the list
        return result

    def test_groups_stop_at_their_own_node_counts(self):
        calls = []
        interp, residual, neval = self._fit(1e-12, calls)
        assert residual <= 1e-12
        assert neval == len(interp.nodes) == 257
        # Each group saw the loop's nodes until it stopped, and none after.
        assert calls == [[17, 16], [17, 16, 32], [17, 16, 32, 64, 128]]
        x = np.linspace(0.0, 1.0, 301)
        total = sum(part(x) for part in self._parts())
        assert np.max(np.abs(interp(x) - np.stack([total, 2.0 * total]))) <= 1e-11

    def test_the_sum_is_taken_in_coefficients(self):
        calls = []
        interp, _, _ = self._fit(1e-12, calls)
        n = len(interp.nodes) - 1
        expected = 0.0
        for part, seen in zip(self._parts(), calls):
            s = lobatto_nodes(sum(seen) - 1)  # one interval fewer than the nodes it saw
            values = np.stack([part(s), 2.0 * part(s)])
            expected = expected + _padded(_coefficients(values), n)
        # Kept as summed: lifting takes no round trip through node values.
        assert interp.coefficients.tobytes() == expected.tobytes()
        assert np.max(np.abs(interp.values - _values(expected))) == 0.0

    @pytest.mark.parametrize(
        "target, seen",
        [
            (1e-6, [[17, 16], [17, 16], [17, 16, 32, 64]]),
            (1e-9, [[17, 16], [17, 16, 32], [17, 16, 32, 64]]),
            (1e-12, [[17, 16], [17, 16, 32], [17, 16, 32, 64, 128]]),
        ],
    )
    def test_the_residuals_of_a_row_sum_to_at_most_the_target(self, target, seen):
        # Rows are paths; the second row's errors are twice the first's, and
        # a group stops once its share is met on every row.
        calls = []
        interp, residual, _ = self._fit(target, calls)
        assert calls == seen
        x = np.linspace(0.0, 1.0, 1001)
        total = sum(part(x) for part in self._parts())
        assert residual <= target
        assert np.max(np.abs(interp(x) - np.stack([total, 2.0 * total]))) <= target

    def test_one_listed_group_is_the_fit_of_its_function(self):
        # A list of one group returns the fine interpolant of its values,
        # that of the function fitted alone, bitwise.
        live, calls = [0], []
        stacked = self._sampler([_runge], live, calls)
        interp, residual, neval = ChebyshevInterpolant.fit_adaptive(stacked, 1e-12, live)
        alone = ChebyshevInterpolant.fit_adaptive(
            lambda x: np.stack([_runge(x), 2.0 * _runge(x)]), 1e-12
        )
        assert interp.values.tobytes() == alone[0].values.tobytes()
        assert (residual, neval) == alone[1:] and live == []

    def test_a_group_at_the_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(7)
        calls = []
        parts = [np.exp, lambda x: rng.standard_normal(x.shape)]
        live = [0, 1]
        monkeypatch.setattr(chebyshev, "_MAX_INTERVALS", 256)
        with pytest.raises(ToleranceError, match="at 256 intervals"):
            ChebyshevInterpolant.fit_adaptive(self._sampler(parts, live, calls), 1e-12, live)
        # One loop: 17 initial nodes, then 16, 32, 64 and 128 fresh ones,
        # the exponential stopping on its own before the noise fails.
        assert calls == [[17, 16], [17, 16, 32, 64, 128]]
        assert live == [1]


@pytest.mark.parametrize("n", [2**e for e in range(4, 15)])
def test_node_sets_mirror_to_their_exact_complements(n):
    # fit_adaptive samples lobatto_nodes(n) and the fresh nodes
    # lobatto_nodes(2n)[1::2]; reversed, each is cos^2 of its angle, that
    # is 1 - s of the exact Chebyshev point, to a few ulp relative, where
    # 1.0 - s misses by dozens of ulp at the node next to s = 1.
    mpmath.mp.dps = 30
    eps = np.finfo(float).eps
    for s, intervals, j in (
        (lobatto_nodes(n), 2 * n, np.arange(n + 1)),
        (lobatto_nodes(2 * n)[1::2], 4 * n, np.arange(1, 2 * n, 2)),
    ):
        assert np.all(np.diff(s) > 0)
        exact = np.array(
            [float(mpmath.cos(mpmath.pi * int(i) / intervals) ** 2) for i in j]
        )
        exact[j == intervals // 2] = 0.0  # the angle pi/2 at s = 1
        mirrored = s[::-1]
        assert np.all(mirrored[exact == 0.0] == 0.0)
        inner = exact > 0.0
        rel = np.abs(mirrored[inner] - exact[inner]) / exact[inner]
        assert rel.max() <= 4.0 * eps, rel.max() / eps
        last = np.nonzero(inner)[0][-1]
        naive = abs((1.0 - s)[last] - exact[last]) / exact[last]
        assert naive > 16.0 * eps, naive / eps


def _runge(s):
    return 1.0 / (1.0 + 25.0 * (s - 0.5) ** 2)


def _resampled(values, n):
    """The interpolant of values at lobatto_nodes(m) at lobatto_nodes(n >= m):
    coefficients zero-padded to degree n, one inverse DCT; n = m returns values."""
    if values.shape[-1] == n + 1:
        return values
    return _values(_padded(_coefficients(values), n))


@pytest.mark.parametrize("n", [1, 2, 16, 256, 8192])
def test_fresh_values_are_the_resampled_interpolant_at_the_fresh_nodes(n):
    # _fresh_values takes the full resampling's arithmetic on the fresh
    # nodes alone: the same values, bitwise, on a stack of any shape.
    rng = np.random.default_rng(n)
    for shape in [(n + 1,), (3, n + 1), (2, 4, n + 1)]:
        values = rng.standard_normal(shape)
        expected = _resampled(values, 2 * n)[..., 1::2]
        assert _fresh_values(values).tobytes() == expected.tobytes(), shape


@pytest.mark.parametrize("n", [16, 256, 8192])
@pytest.mark.parametrize("m", [1, 3])
def test_fresh_values_match_barycentric_evaluation(n, m):
    s = lobatto_nodes(n)
    values = np.stack([np.cos(7.0 * s), _runge(s), np.exp(s)])[:m]
    fresh = lobatto_nodes(2 * n)[1::2]
    gap = np.abs(_fresh_values(values) - ChebyshevInterpolant(values)(fresh))
    assert gap.max() <= 1e-13


@pytest.mark.parametrize("n, m", [(16, 32), (16, 1024), (256, 8192), (64, 96)])
def test_resampled_values_are_the_interpolant_on_more_nodes(n, m):
    s = lobatto_nodes(n)
    values = np.stack([np.cos(7.0 * s), _runge(s)])
    out = _resampled(values, m)
    gap = np.abs(out - ChebyshevInterpolant(values)(lobatto_nodes(m)))
    assert out.shape == (2, m + 1) and gap.max() <= 1e-13
    assert _resampled(values, n) is values


def test_fit_never_evaluates_barycentrically(monkeypatch):
    def refuse(self, x):
        raise AssertionError("barycentric evaluation inside fit_adaptive")

    monkeypatch.setattr(ChebyshevInterpolant, "__call__", refuse)
    interp, residual, _ = ChebyshevInterpolant.fit_adaptive(np.exp, 1e-12)
    assert residual <= 1e-12
    stack = lambda x: np.stack([np.cos(7.0 * x), _runge(x)])
    interp, residual, _ = ChebyshevInterpolant.fit_adaptive(stack, 1e-12)
    assert residual <= 1e-12 and interp.values.shape[0] == 2


@pytest.mark.parametrize("n", [16, 256, 16384])
def test_coefficients_round_trip(n):
    s = lobatto_nodes(n)
    values = np.cos(7.0 * s) + s**3
    gap = np.max(np.abs(_values(_coefficients(values)) - values))
    assert gap <= 1e-15 * np.max(np.abs(values))


@pytest.mark.parametrize("n", [16, 256, 16384])
@pytest.mark.parametrize("j", [1, 2, 5, 16])
def test_lift_of_a_monomial_is_exact(n, j):
    # Integral_0^s u^j / u du = s^j / j.
    s = lobatto_nodes(n)
    lifted = _lifted(ChebyshevInterpolant(s**j))
    assert np.array_equal(lifted.nodes, s)
    assert lifted.values[0] == 0.0
    assert np.max(np.abs(lifted.values - s**j / j)) <= 1e-14
    x = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(lifted(x) - x**j / j)) <= 1e-14



def _lifted_by_loops(values):
    """The lift by the textbook recurrences, one coefficient at a time."""
    a = _coefficients(values)
    n = len(a) - 1
    # Divide by 1 + x: b_{k-1} = 2(a_k - b_k) - b_{k+1} from b_{n-1} = 2 a_n,
    # closed with b_0 = a_1 - b_1 - b_2 / 2.
    b = np.zeros(n + 2)
    for k in range(n, 1, -1):
        b[k - 1] = 2.0 * (a[k] - b[k]) - b[k + 1]
    b[0] = a[1] - b[1] - 0.5 * b[2]
    # Integrate from x = -1, as numpy's chebint with lbnd = -1.
    c = np.zeros(n + 1)
    c[1] = b[0] - 0.5 * b[2]
    for k in range(2, n + 1):
        c[k] = (b[k - 1] - b[k + 1]) / (2.0 * k)
    c[0] = -sum((-1.0) ** k * c[k] for k in range(1, n + 1))
    out = _values(c)
    out[0] = 0.0
    return out


@pytest.mark.parametrize("n", [16, 256, 4096])
def test_lift_matches_the_recurrences_run_as_loops(n):
    s = lobatto_nodes(n)
    values = np.expm1(s) * np.exp(-3.0 * s) + np.sin(40.0 * s) ** 2
    lifted = _lifted(ChebyshevInterpolant(values))
    assert np.max(np.abs(lifted.values - _lifted_by_loops(values))) <= 1e-14


class TestLevelKernel:
    # lifts(k) lifts k times in coefficient space and evaluates all levels
    # in one call; _lifted is its one-level case.
    @staticmethod
    def _stack(n):
        s = lobatto_nodes(n)
        return np.stack([
            np.expm1(s) * np.exp(-3.0 * s) + np.sin(40.0 * s) ** 2,
            np.log1p(-0.9 * s) ** 2,
            s**3,
        ])

    @pytest.mark.parametrize("n", [16, 256, 4096, 16384])
    def test_levels_agree_with_chained_single_lifts(self, n):
        # A chained lift goes back to node values between levels; the kernel
        # keeps every level's coefficients, so the two differ by rounding.
        interp = ChebyshevInterpolant(self._stack(n))
        levels = interp.lifts(3)
        assert levels.values.shape == (3, 3, n + 1)
        chained = interp
        for level in levels.values:
            chained = _lifted(chained)
            assert level[:, 0].tobytes() == np.zeros(3).tobytes()
            scale = np.max(np.abs(chained.values))
            assert np.max(np.abs(level - chained.values)) <= 1e-14 * scale

    def test_stacked_levels_evaluate_as_each_level_alone(self):
        # Points include t = 0 and nodes, where the node fallback applies.
        interp = ChebyshevInterpolant(self._stack(64))
        levels = interp.lifts(3)
        x = np.concatenate([[0.0], np.linspace(0.0, 1.0, 23), interp.nodes[::7]])
        per_row = np.stack([x, x[::-1], np.sort(x)])
        shared, own = levels(x), levels(per_row)
        assert shared.shape == own.shape == (3, 3, x.size)
        assert levels(0.0).tobytes() == np.zeros((3, 3)).tobytes()
        for j, values in enumerate(levels.values):
            alone = ChebyshevInterpolant(values)
            assert shared[j].tobytes() == alone(x).tobytes()
            assert own[j].tobytes() == alone(per_row).tobytes()
            for i, row in enumerate(values):
                assert own[j, i].tobytes() == ChebyshevInterpolant(row)(per_row[i]).tobytes()


_MP_GENERATORS = {
    "kl": lambda w: -mpmath.log(w),
    "reverse_kl": lambda w: w * mpmath.log(w),
    "chi2": lambda w: (w - 1) ** 2 / w,
    "jeffreys": lambda w: (w - 1) * mpmath.log(w),
    "hellinger2": lambda w: (mpmath.sqrt(w) - 1) ** 2 / 2,
}
_KERNEL_V = np.array([-12.0, -7.3, -4.0, -2.0, -1.0, -0.3, -1e-3, 2e-6, 0.6, 1.0, 2.5, 7.0, 12.0])


def _mp_level(phi, v):
    """Phi(v) = Integral_0^v phi(e^u) / (1 - e^-u) du at 40 digits."""
    with mpmath.workdps(40):
        slope = mpmath.diff(phi, 1)  # the integrand's limit at u = 0

        def integrand(u):
            return phi(mpmath.exp(u)) / -mpmath.expm1(-u) if u != 0 else slope

        return float(mpmath.quad(integrand, [0, mpmath.mpf(v) / 2, mpmath.mpf(v)]))


# Levels 1-3 for the five named generators, the triangular discrimination
# and total variation, which is kinked at w = 1, that is at the cut v = 0.
_MP_LEVEL_GENERATORS = dict(
    _MP_GENERATORS,
    triangular=lambda w: (w - 1) ** 2 / (w + 1),
    total_variation=lambda w: abs(w - 1) / 2,
)
_LEVEL_GENERATORS = {
    "triangular": _triangular_discrimination().generator,
    "total_variation": lambda w: 0.5 * np.abs(w - 1.0),
}
_LEVEL_V = np.array([-12.0, -4.0, -1.0, -1e-3, 2e-6, 0.6, 2.5, 7.0, 12.0])


def _mp_levels(phi, v, k):
    """Phi_1..Phi_k(v) in the Cauchy form, Integral_0^1 phi(1 - s + s e^v)
    log(1/s)^(j - 1) / (j - 1)! ds / s, at 40 digits."""
    with mpmath.workdps(40):
        step = mpmath.expm1(mpmath.mpf(v))

        def level(j):
            weight = lambda s: mpmath.log(1 / s) ** (j - 1) / mpmath.factorial(j - 1)  # noqa: E731
            return float(mpmath.quad(lambda s: phi(1 + s * step) * weight(s) / s, [0, 1]))

        return [level(j) for j in range(1, k + 1)]


def _kinked(w):
    return np.maximum(w - 2.0, 0.0)


class TestGeneratorKernel:
    # The level kernel, psi's Phi(v) for a generator phi, built on pieces of v.
    @pytest.mark.parametrize("identifier", list(_MP_GENERATORS))
    def test_matches_40_digits(self, identifier):
        (values,), (bounds,), evaluations = level_kernel(
            named_divergence(identifier).generator, _KERNEL_V, 1e-12
        )
        refs = np.array([_mp_level(_MP_GENERATORS[identifier], v) for v in _KERNEL_V])
        error, scale = np.abs(values - refs), np.maximum(1.0, np.abs(refs))
        assert np.all(error <= 1e-14 * scale)
        assert np.all(error <= bounds) and np.all(bounds <= 1e-12 * scale)
        assert evaluations % chebyshev._KERNEL_NODES == 0

    def test_keeps_its_relative_precision_near_zero(self):
        # kl's integrand is -1 at u = 0, so Phi(v) ~ -v with no cancellation.
        v = np.array([-0.4, -3e-4, -1e-6, 1e-9, 5e-7, 0.01])
        (values,), _, _ = level_kernel(named_divergence("kl").generator, v, 1e-12)
        refs = np.array([_mp_level(_MP_GENERATORS["kl"], x) for x in v])
        np.testing.assert_allclose(values, refs, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_a_range_from_zero_builds_no_piece_below_it(self, k):
        # One path's level 0 lives on w >= 1 alone: from lo = 0 the kernel
        # samples no w below 1, and its levels above 0 are those of a range
        # reaching below 0, bitwise.
        chi2, seen = named_divergence("chi2").generator, []

        def phi(w):
            seen.append(w.min())
            return chi2(w)

        v = np.array([1e-9, 0.01, 0.3, 0.5])
        one_sided, _ = _level_pieces(phi, 0.0, 0.5, 1e-12, k)
        assert min(seen) > 1.0
        both_sides, _ = _level_pieces(chi2, -0.5, 0.5, 1e-12, k)
        for ours, theirs in zip(one_sided(v), both_sides(v)):
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_values_depend_on_v_alone(self, k):
        # Whatever else a call holds: a piece's edge, far pieces, pieces near 0.
        rng = np.random.default_rng(5)
        v = np.concatenate([rng.uniform(-30.0, 30.0, 40), rng.uniform(-1.0, 1.0, 40)])
        v = np.append(v, [1e-12, -2.0])
        for identifier in _MP_GENERATORS:
            phi = named_divergence(identifier).generator
            values, bounds, _ = level_kernel(phi, v, 1e-12, k)
            assert values.shape == bounds.shape == (k, v.size)
            for part in (np.arange(3), np.arange(40, 45), [81], np.arange(0, 82, 7)):
                alone, alone_bounds, _ = level_kernel(phi, v[part], 1e-12, k)
                assert alone.tobytes() == values[:, part].tobytes(), identifier
                assert alone_bounds.tobytes() == bounds[:, part].tobytes(), identifier

    @pytest.mark.parametrize("k", [1, 3])
    def test_values_in_halved_cells_depend_on_v_alone(self, k):
        # _kinked's cell (11/16, 12/16] holds the kink at log 2 and is halved
        # unevenly, down to the kink. At a target of 1e-12 every cell past
        # |v| = 1.2 is halved into equal parts for (w - 1)^2, whose levels are
        # (e^v - 1)^2 / 2^j, above 0, and for (w - 1)^2 / w^3, whose level 1
        # is (1 - e^-v)^2 / 2, below it. Each point keeps its value bitwise
        # whatever else a call holds.
        rng = np.random.default_rng(6)
        inside = np.append(rng.uniform(0.6875, 0.75, 30), [np.log(2.0), 0.75, 0.6875 + 2**-40])
        cases = {
            "kinked": (_kinked, np.concatenate([inside, rng.uniform(-3.0, 8.0, 30)]), 1e-10),
            "square": (
                lambda w: (w - 1.0) ** 2,
                np.concatenate([rng.uniform(1.2, 4.6, 40), rng.uniform(-4.0, 1.2, 20)]), 1e-12,
            ),
            "mirrored": (
                lambda w: (w - 1.0) ** 2 / w**3,
                np.concatenate([rng.uniform(-4.6, -1.2, 40), rng.uniform(-1.2, 4.0, 20)]), 1e-12,
            ),
        }
        exact = {
            "kinked": lambda v: np.exp(np.maximum(v, np.log(2.0)))
            - np.log(np.expm1(np.maximum(v, np.log(2.0)))) - 2.0,
            "square": lambda v: np.expm1(v) ** 2 / 2.0,
            "mirrored": lambda v: np.expm1(-v) ** 2 / 2.0,
        }
        for name, (phi, v, tol) in cases.items():
            values, bounds, evaluations = level_kernel(phi, v, tol, k)
            _, _, unhalved = level_kernel(phi, v, 1e-3, k)
            assert evaluations > unhalved, name
            for part in (np.arange(30), np.arange(30, 33), [0], np.arange(0, v.size, 5)):
                alone, alone_bounds, _ = level_kernel(phi, v[part], tol, k)
                assert alone.tobytes() == values[:, part].tobytes(), name
                assert alone_bounds.tobytes() == bounds[:, part].tobytes(), name
            ref = exact[name](v)
            error = np.abs(values[0] - ref)
            assert np.all(error <= np.maximum(1e-12, tol * np.abs(ref))), name
            if name != "kinked":
                assert np.all(error <= 1e-14 * np.maximum(1.0, ref)) and np.all(error <= bounds[0])
        levels = np.expm1(cases["square"][1]) ** 2 / 2.0 ** np.arange(1, k + 1)[:, None]
        values, bounds, _ = level_kernel(cases["square"][0], cases["square"][1], 1e-12, k)
        error = np.abs(values - levels)
        assert np.all(error <= 1e-14 * np.maximum(1.0, levels)) and np.all(error <= bounds)

    # One side's pieces, outward: (0, 2^cut], the +-4^e pieces up to 1/16,
    # then cells of width 1/16; each holds its outer end.
    @staticmethod
    def _outer_ends(cut, last_cell):
        return np.concatenate([2.0 ** np.arange(cut, -3, 2), np.arange(2, last_cell + 1) / 16.0])

    @pytest.mark.parametrize("k", [1, 3])
    def test_an_edge_belongs_to_the_piece_it_closes(self, k):
        # Every interior edge out to 3, of both signs: on the edge, and one ulp
        # inward, a point takes the piece the edge closes; one ulp outward, the
        # next piece out.
        cut = chebyshev._FINEST_CUT if k == 1 else chebyshev._ITERATED_CUT
        edges = self._outer_ends(cut, 48)[:-1]
        outward = np.arange(edges.size, dtype=float)
        for sign in (1.0, -1.0):
            v = sign * edges
            place = outward if sign > 0 else -1.0 - outward
            beyond = place + sign
            assert chebyshev._piece_places(v, cut).tolist() == place.tolist()
            assert chebyshev._piece_places(np.nextafter(v, 0.0), cut).tolist() == place.tolist()
            assert chebyshev._piece_places(np.nextafter(v, 2.0 * v), cut).tolist() == beyond.tolist()
        # Below 2^cut every point takes the piece at 0.
        tiny = np.array([2.0**cut, 1e-300, 5e-324])
        assert chebyshev._piece_places(tiny, cut).tolist() == [0.0] * 3
        assert chebyshev._piece_places(-tiny, cut).tolist() == [-1.0] * 3

    def test_points_on_and_next_to_edges_match_40_digits(self):
        edges = self._outer_ends(chebyshev._FINEST_CUT, 48)[[0, 5, 12, 13, 14, 15, 30, 60]]
        v = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        v = np.concatenate([v, -v])
        for identifier in ("kl", "chi2"):
            phi = named_divergence(identifier).generator
            (values,), (bounds,), _ = level_kernel(phi, v, 1e-12)
            refs = np.array([_mp_level(_MP_GENERATORS[identifier], x) for x in v])
            error = np.abs(values - refs)
            assert np.all(error <= 1e-14 * np.maximum(1.0, np.abs(refs))), identifier
            assert np.all(error <= bounds), identifier

    @pytest.mark.parametrize("identifier", list(_MP_LEVEL_GENERATORS))
    def test_levels_match_the_cauchy_form(self, identifier):
        phi = _LEVEL_GENERATORS.get(identifier) or named_divergence(identifier).generator
        values, bounds, _ = level_kernel(phi, _LEVEL_V, 1e-12, 3)
        refs = np.array([_mp_levels(_MP_LEVEL_GENERATORS[identifier], v, 3) for v in _LEVEL_V]).T
        error, scale = np.abs(values - refs), np.maximum(1.0, np.abs(refs))
        assert np.all(error <= 1e-14 * scale)
        assert np.all(error <= bounds) and np.all(bounds <= 1e-11 * scale)

    @pytest.mark.parametrize("k", [1, 3])
    def test_a_point_just_past_the_range_takes_the_edge_piece(self, k):
        # kl's pieces on [-4, 4] end at -4 and 4. A point one ulp past either
        # end, as rounding can leave a range taken from each path's end,
        # takes the piece at that end, as close to its value there as at 4.
        levels, _ = chebyshev._level_pieces(
            named_divergence("kl").generator, -4.0, 4.0, 1e-12, k
        )
        ends = np.array([-4.0, 4.0])
        past, _ = levels(np.nextafter(ends, 2.0 * ends))
        at, _ = levels(ends)
        np.testing.assert_allclose(past, at, rtol=1e-14, atol=0.0)

    def test_a_kinked_generator_halves_its_pieces_to_the_target(self):
        # Phi(v) = e^v - log(e^v - 1) - 2 past the kink at v = log 2.
        v = np.array([0.3, 1.5, 4.0])
        (values,), (bounds,), evaluations = level_kernel(_kinked, v, 1e-12)
        exact = np.where(v > np.log(2.0), np.exp(v) - np.log(np.expm1(v)) - 2.0, 0.0)
        assert np.all(np.abs(values - exact) <= np.maximum(1e-12, 1e-10 * np.abs(exact)))
        assert np.all(np.abs(values - exact) <= bounds)
        assert evaluations > 10 * chebyshev._KERNEL_NODES  # the kink's piece was halved

    def test_fails_past_its_halving_budget(self, monkeypatch):
        monkeypatch.setattr(chebyshev, "_MAX_HALVINGS", 5)
        with pytest.raises(ToleranceError):
            level_kernel(_kinked, np.array([1.5]), 1e-12)

    def test_rejects_a_non_finite_generator_or_point(self):
        with pytest.raises(NonFiniteError):
            nan_past_3 = lambda w: np.where(w > 3.0, np.nan, w - 1.0)  # noqa: E731
            level_kernel(nan_past_3, np.array([2.0]), 1e-12)
        with pytest.raises(NonFiniteError):
            level_kernel(_kinked, np.array([1.0, np.inf]), 1e-12)
