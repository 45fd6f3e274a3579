import numpy as np
import pytest

from divseq import chebyshev
from divseq.chebyshev import (
    _BLOCK_CELLS,
    ChebyshevInterpolant,
    _coefficients,
    _values,
    lobatto_nodes,
)
from divseq.errors import DomainError, ToleranceError


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


def test_values_fix_the_nodes():
    # n + 1 values sit at lobatto_nodes(n); nodes cannot be passed, so
    # values sampled elsewhere cannot be paired with the Lobatto weights.
    x = np.linspace(0.0, 1.0, 17)
    with pytest.raises(TypeError):
        ChebyshevInterpolant(x, np.exp(x))
    s = lobatto_nodes(16)
    lifted = ChebyshevInterpolant(np.expm1(s)).lifted()
    # Integral_0^1 (e^u - 1) / u du = Ein(1).
    assert abs(lifted(1.0) - 1.3179021514544038) <= 1e-14


@pytest.mark.parametrize(
    "values",
    [np.ones((2, 3, 3)), np.ones(1), [], np.ones((3, 1)), np.ones((0, 3))],
    ids=["3d", "one", "empty", "one_value_rows", "empty_stack"],
)
def test_rejects_bad_values(values):
    # 2-d values are a stack of interpolants; see test_stacked_interpolants.
    with pytest.raises(DomainError):
        ChebyshevInterpolant(values)


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
    lifted = ChebyshevInterpolant(s**j).lifted()
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
    lifted = ChebyshevInterpolant(values).lifted()
    assert np.max(np.abs(lifted.values - _lifted_by_loops(values))) <= 1e-14
