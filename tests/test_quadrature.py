import mpmath
import numpy as np
import pytest
from scipy import integrate as sci_integrate

from divseq import MixturePath, named_divergence, quadrature, random_distribution
from divseq.errors import DomainError, ToleranceError
from divseq.chebyshev import _KERNEL_NODES, _kernel_matrices
from divseq.quadrature import _EPS, _PANEL_NODES, QuadratureConfig, cumulative_integral
from polylog_oracles import integrate

CFG = QuadratureConfig()


def test_polynomial_is_exact_to_roundoff():
    value, err, neval = integrate(lambda x: x**2, 0.0, 1.0, CFG)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert err >= 0.0
    assert neval >= _PANEL_NODES


def test_high_degree_polynomial():
    # The 12-point panel rule is exact to degree 11 only, so x^13 takes
    # refinement, which must still end within roundoff of the integral.
    value, _, _ = integrate(lambda x: 7.0 * x**13 - x**5 + 2.0, 0.0, 1.0, CFG)
    assert value == pytest.approx(0.5 - 1.0 / 6.0 + 2.0, abs=1e-14)


def _fejer_first_rule(n):
    """Fejer's first rule on [-1, 1] at the n first-kind points
    cos(theta_j), theta_j = pi (j + 1/2) / n, in 40-digit arithmetic:
    w_j = (2/n) (1 - 2 Sum_{k=1}^{n/2} cos(2 k theta_j) / (4k^2 - 1))."""
    with mpmath.workdps(40):
        theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
        weights = [
            2 * (1 - 2 * mpmath.fsum(mpmath.cos(2 * k * t) / (4 * k * k - 1)
                                     for k in range(1, n // 2 + 1))) / n
            for t in theta
        ]
        return [mpmath.cos(t) for t in theta], weights


@pytest.mark.parametrize("n", [_KERNEL_NODES, _PANEL_NODES])
def test_the_level_kernel_and_the_quadrature_share_one_panel_rule(n):
    # The kernel's integral row is Fejer's first rule on its points, which
    # integrates x^j over [-1, 1] exactly for j < n, and the quadrature
    # takes its panels from the same matrices at its own point count.
    x, maps, _ = _kernel_matrices(n)
    nodes, weights = _fejer_first_rule(n)
    np.testing.assert_allclose(x, [float(t) for t in nodes], rtol=0.0, atol=2 * _EPS)
    # Each weight to within eps, half an ulp of the largest: the row is
    # formed in floats from the Chebyshev coefficient maps.
    np.testing.assert_allclose(maps[n + 4], [float(w) for w in weights], rtol=0.0, atol=_EPS)
    for j in range(n):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(maps[n + 4] @ x**j - exact) <= 8 * _EPS, j
    assert (maps[n + 4] > 0.0).all()


def test_sine_over_half_period():
    value, _, _ = integrate(np.sin, 0.0, np.pi, CFG)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_sqrt_endpoint_kink():
    value, _, _ = integrate(np.sqrt, 0.0, 1.0, CFG)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize(
    "fn,a,b",
    [
        (lambda x: np.exp(-(x**2)), 0.0, 5.0),
        (lambda x: 1.0 / (1.0 + x**2), 0.0, 8.0),
        (lambda x: np.log1p(x) / (1.0 + x), 0.0, 3.0),
        (lambda x: np.exp(x) * np.cos(10.0 * x), 0.0, 2.0),
    ],
)
def test_agrees_with_scipy_quad(fn, a, b):
    ours, _, _ = integrate(fn, a, b, CFG)
    ref, _ = sci_integrate.quad(lambda x: float(fn(np.array([x]))[0]), a, b, limit=200)
    assert ours == pytest.approx(ref, abs=1e-10, rel=1e-10)


def test_zero_width_interval():
    value, err, neval = integrate(np.exp, 0.3, 0.3, CFG)
    assert value == 0.0 and err == 0.0 and neval == 0


@pytest.mark.parametrize(
    "fn",
    [
        lambda x: x[:-1],
        lambda x: np.ones((2, x.size)),
        lambda x: np.ones((2, 3, x.size)),
        lambda x: np.ones(2 * x.size),
    ],
)
def test_integrand_of_the_wrong_shape_rejected(fn):
    with pytest.raises(DomainError):
        integrate(fn, 0.0, 1.0, CFG)


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        integrate(np.exp, 1.0, 0.0, CFG)


def test_error_estimate_brackets_truth():
    for fn, a, b, truth in [
        (np.sin, 0.0, np.pi, 2.0),
        (lambda x: np.exp(-(x**2)), 0.0, 5.0, 0.8862269254527579),
    ]:
        value, err, _ = integrate(fn, a, b, CFG)
        assert abs(value - truth) <= max(100.0 * err, 1e-12)


def _inverse_sqrt_cusp(x):
    return 1.0 / np.sqrt(np.abs(x - 0.31) + 1e-300)


def test_singular_integrand_exhausts_small_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
    with pytest.raises(ToleranceError):
        integrate(_inverse_sqrt_cusp, 0.0, 1.0, CFG)


def test_sqrt_cusp_converges_with_default_budget():
    value, _, _ = integrate(lambda x: np.sqrt(np.abs(x - 0.31)), 0.0, 1.0, CFG)
    truth = (2.0 / 3.0) * (0.31**1.5 + 0.69**1.5)
    assert value == pytest.approx(truth, rel=1e-9)


def test_unbounded_singularity_reports_failure_not_garbage():
    # No extrapolation is attempted, so a non-integrable-looking cusp must
    # surface as ToleranceError rather than a silently wrong value.
    with pytest.raises(ToleranceError):
        integrate(_inverse_sqrt_cusp, 0.0, 1.0, CFG)


def _exp_rows(x, rows, rest):
    return np.exp(x)


def test_cumulative_matches_single_segments():
    edges = np.array([[0.0, 0.1, 0.35, 0.6, 1.0]])
    vals, err, _ = cumulative_integral(_exp_rows, edges, CFG)
    assert vals[0, 0] == 0.0
    for j, e in enumerate(edges[0]):
        direct = np.exp(e) - 1.0
        assert vals[0, j] == pytest.approx(direct, abs=1e-12), f"edge {e}"
    assert err[0] >= 0.0


def test_cumulative_requires_increasing_edges():
    with pytest.raises(DomainError):
        cumulative_integral(_exp_rows, np.array([[0.0, 0.5, 0.4]]), CFG)


@pytest.mark.parametrize(
    "edges", [[0.0, 0.5, 1.0], [0.3, 0.3], [[0.5]], np.zeros((1, 2, 2))]
)
def test_edges_must_be_rows_of_at_least_two(edges):
    # A single interval is the one-row case, edges [[a, b]].
    with pytest.raises(DomainError):
        cumulative_integral(_exp_rows, edges, CFG)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=-1e-10)


def test_defaults():
    cfg = QuadratureConfig()
    assert cfg.rel_tol == 1e-10
    assert cfg.abs_tol == 1e-12
    assert quadrature._MAX_SUBDIVISIONS == 2000


def _scalar_reference(f, a, b, config):
    """The adaptive loop on one interval, one panel split per round, chosen
    by its raw error, on the panel rule written out from the kernel's maps
    one row at a time. Panel sums take the library's fixed order per row."""
    pa, pb = np.array([a]), np.array([b])
    x, maps, _ = _kernel_matrices(_PANEL_NODES)
    n = _PANEL_NODES

    def rule(vals, weights):
        return np.einsum("ij,j->i", vals, weights)

    def panels(a, b):
        # The interpolant's integral and its last two Chebyshev
        # coefficients, each its own row of the maps.
        half = 0.5 * (b - a)
        pts = (0.5 * (a + b))[:, None] + half[:, None] * x[None, :]
        vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        value = half * rule(vals, maps[n + 4])
        tail = 2.0 * (np.abs(half * rule(vals, maps[n + 2])) + np.abs(half * rule(vals, maps[n + 3])))
        resabs = half * rule(np.abs(vals), maps[n + 4])
        return value, np.maximum(tail, 50.0 * _EPS * resabs), pts.size

    pi, pe, neval = panels(pa, pb)
    while True:
        value = np.bincount(np.zeros(len(pa), dtype=int), weights=pi)[0]
        error = np.bincount(np.zeros(len(pa), dtype=int), weights=pe)[0]
        if error <= max(config.abs_tol, config.rel_tol * abs(value)):
            return float(value), float(error), neval
        worst = int(np.argmax(pe))
        mid = 0.5 * (pa[worst] + pb[worst])
        ci, ce, ne = panels(np.array([pa[worst], mid]), np.array([mid, pb[worst]]))
        neval += ne
        keep = np.arange(len(pa)) != worst
        pa = np.concatenate([pa[keep], [pa[worst], mid]])
        pb = np.concatenate([pb[keep], [mid, pb[worst]]])
        pi = np.concatenate([pi[keep], ci])
        pe = np.concatenate([pe[keep], ce])


def _chi2_path_integrand():
    path = MixturePath(random_distribution(6, seed=11), random_distribution(6, seed=12))
    chi2 = named_divergence("chi2")
    return lambda s: chi2.evaluator(path.start.masses, path.masses_at(s)) / s


_BITWISE_CASES = [
    (np.sin, 0.0, np.pi),
    (np.sqrt, 0.0, 1.0),
    (lambda x: np.exp(x) * np.cos(10.0 * x), 0.0, 2.0),
    (_chi2_path_integrand(), 0.0, 0.8),
]


@pytest.mark.parametrize("case", range(len(_BITWISE_CASES)))
@pytest.mark.parametrize("cfg", [CFG, QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15)])
def test_single_component_is_bitwise_the_scalar_loop(case, cfg):
    fn, a, b = _BITWISE_CASES[case]
    assert integrate(fn, a, b, cfg) == _scalar_reference(fn, a, b, cfg)


def test_each_row_meets_its_own_target():
    rates = np.array([0.5, 1.0, 3.0, 20.0, 200.0])
    freqs = np.array([0.0, 2.0, 7.0, 1.0, 30.0])

    def family(x, rows, rest):
        return np.exp(-rates[rows][:, None] * x) * np.cos(freqs[rows][:, None] * x)

    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
    edges = np.broadcast_to([0.0, 2.0], (len(rates), 2))
    values, errs, _ = cumulative_integral(family, edges, cfg)
    assert values.shape == edges.shape and errs.shape == (len(rates),)
    # Closed form of the integral of e^(-a x) cos(b x) over [0, 2].
    e2 = np.exp(-2.0 * rates)
    truth = (
        rates + e2 * (freqs * np.sin(2.0 * freqs) - rates * np.cos(2.0 * freqs))
    ) / (rates**2 + freqs**2)
    for i in range(len(rates)):
        target = max(cfg.abs_tol, cfg.rel_tol * abs(truth[i]))
        assert errs[i] <= max(cfg.abs_tol, cfg.rel_tol * abs(values[i, -1]))
        assert abs(values[i, -1] - truth[i]) <= target
        alone, err, _ = cumulative_integral(
            lambda x, rows, rest, i=i: family(x, np.full_like(rows, i), rest),
            edges[i : i + 1],
            cfg,
        )
        assert values[i].tobytes() == alone[0].tobytes() and errs[i] == err[0]
    edges = np.broadcast_to([0.0, 0.7, 2.0], (len(rates), 3))
    values, _, _ = cumulative_integral(family, edges, cfg)
    assert np.all(values[:, 0] == 0.0)
    np.testing.assert_allclose(values[:, -1], truth, rtol=cfg.rel_tol, atol=cfg.abs_tol)


_RATES = np.array([30.0, 100.0, 300.0, 1000.0, 3000.0])


def _decays(x, rows, rest):
    # Row i integrates e^(-rate_i x); x is (panels, _PANEL_NODES), rows (panels,).
    return np.exp(-_RATES[rows][:, None] * x)


def test_rows_of_edges_are_refined_as_alone_within_their_own_budget(monkeypatch):
    # Each row converges alone within 12 splits, but the rows need more
    # than 12 between them.
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 12)
    edges = np.array([[0.0, 0.01, 0.01, 0.5, 1.0]] * len(_RATES))
    values, errs, neval = cumulative_integral(_decays, edges, CFG)
    assert values.shape == edges.shape and errs.shape == (len(_RATES),)
    splits, total = 0, 0
    for i, rate in enumerate(_RATES):
        alone, err, n = cumulative_integral(
            lambda x, rows, rest, rate=rate: np.exp(-rate * x), edges[i : i + 1], CFG
        )
        np.testing.assert_allclose(values[i], alone[0], rtol=1e-15, atol=0.0)
        assert errs[i] == pytest.approx(err[0], rel=1e-12)
        # The empty segment adds exactly 0.0 and is not evaluated.
        assert values[i, 2] == values[i, 1]
        splits, total = splits + (n // _PANEL_NODES - 3) // 2, total + n
        truth = -np.expm1(-rate * edges[i]) / rate
        np.testing.assert_allclose(values[i], truth, rtol=1e-10, atol=1e-12)
    assert splits > quadrature._MAX_SUBDIVISIONS
    assert neval == total


def test_each_row_of_a_batch_equals_its_single_row_call_bitwise():
    # Every panel sum takes one fixed order per row, whatever the number of
    # rows that share the call.
    edges = np.array([[0.0, 0.01, 0.5, 1.0]] * len(_RATES))
    values, errs, _ = cumulative_integral(_decays, edges, CFG)
    for i in range(len(_RATES)):
        alone, err, _ = cumulative_integral(
            lambda x, rows, rest, i=i: _decays(x, np.full_like(rows, i), rest),
            edges[i : i + 1],
            CFG,
        )
        assert values[i].tobytes() == alone[0].tobytes() and errs[i] == err[0]


def test_a_row_past_its_budget_fails_the_call(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
    # Row 1 is the cusp that exhausts this budget alone; row 0 converges.

    def rows_f(x, rows, rest):
        return np.where(rows[:, None] == 1, _inverse_sqrt_cusp(x), np.exp(x))

    with pytest.raises(ToleranceError):
        cumulative_integral(rows_f, np.array([[0.0, 1.0], [0.0, 1.0]]), CFG)
    values, _, _ = cumulative_integral(rows_f, np.array([[0.0, 1.0], [0.0, 0.0]]), CFG)
    assert values[0, 1] == pytest.approx(np.e - 1.0, rel=1e-12)


def test_edges_without_a_nonempty_segment_give_zeros():
    values, err, neval = cumulative_integral(_exp_rows, [[0.3, 0.3]], CFG)
    assert values.tolist() == [[0.0, 0.0]] and err.tolist() == [0.0] and neval == 0
    values, errs, neval = cumulative_integral(_decays, np.zeros((2, 3)), CFG)
    assert values.tolist() == [[0.0] * 3] * 2 and errs.tolist() == [0.0, 0.0] and neval == 0


def test_the_complement_resolves_a_pole_just_past_one():
    # 1 / (1 - x + d) with its pole d = 1e-13 past x = 1: 1.0 - x rounds
    # each abscissa's distance to the pole by up to 1e-16, and refinement
    # runs into roundoff; rest keeps it to its relative precision.
    d = 1e-13
    for a in (0.0, 0.5, 1.0 - 1e-9):
        truth = np.log1p((1.0 - a) / d)
        values, err, _ = cumulative_integral(
            lambda x, rows, rest: 1.0 / (rest + d), [[a, 1.0]], CFG
        )
        assert abs(values[0, -1] - truth) <= CFG.rel_tol * truth and err[0] <= CFG.rel_tol * truth
        with pytest.raises(ToleranceError):
            cumulative_integral(
                lambda x, rows, rest: 1.0 / ((1.0 - x) + d), [[a, 1.0]], CFG
            )
