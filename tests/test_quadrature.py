from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate as sci_integrate

from divseq import MixturePath, named_divergence, quadrature, random_distribution
from divseq.errors import DomainError, ToleranceError
from divseq.quadrature import (
    _EPS,
    _WG,
    _WK,
    _XK,
    QuadratureConfig,
    cumulative_integral,
)
from polylog_oracles import integrate

CFG = QuadratureConfig()


def test_polynomial_is_exact_to_roundoff():
    value, err, neval = integrate(lambda x: x**2, 0.0, 1.0, CFG)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert err >= 0.0
    assert neval >= 15


def test_high_degree_polynomial():
    # K15 integrates degree <= 22 exactly; a single panel should do it.
    value, _, _ = integrate(lambda x: 7.0 * x**13 - x**5 + 2.0, 0.0, 1.0, CFG)
    assert value == pytest.approx(0.5 - 1.0 / 6.0 + 2.0, abs=1e-14)


def _gauss_kronrod_15():
    """K15's positive nodes, ascending, and the weights of K15 and G7, the
    center's first, from their definitions in 40-digit arithmetic: the
    Gauss nodes are the roots of P7, the Kronrod ones those of the
    Stieltjes polynomial E8 (even, monic, orthogonal to x^j P7 for j < 8),
    and each rule's weights make it exact on x^(2j) over [-1, 1] for as
    many j as it has nonnegative nodes."""
    legendre = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for n in range(1, 7):  # (n + 1) P_{n+1} = (2n + 1) x P_n - n P_{n-1}
        x_pn = [Fraction(0)] + legendre[n]
        prev = legendre[n - 1] + [Fraction(0)] * 2
        legendre.append([((2 * n + 1) * a - n * b) / (n + 1) for a, b in zip(x_pn, prev)])
    p7 = legendre[7]

    def moment(k):
        return Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)

    def mpf(c):
        return mpmath.mpf(c.numerator) / c.denominator

    def weights(nodes):
        # The center weight and one per node pair.
        a = [[int(j == 0)] + [2 * x ** (2 * j) for x in nodes] for j in range(len(nodes) + 1)]
        return mpmath.lu_solve(a, [mpf(moment(2 * j)) for j in range(len(nodes) + 1)])

    with mpmath.workdps(40):
        # E8 = y^4 + c3 y^3 + ... + c0 in y = x^2: x^j P7 E8 integrates to 0 for odd j < 8.
        rows = [[mpf(sum(c * moment(i + 2 * e + j) for i, c in enumerate(p7))) for e in range(5)]
                for j in (1, 3, 5, 7)]
        coeffs = mpmath.lu_solve([r[:4] for r in rows], [-r[4] for r in rows])
        roots = [mpmath.polyroots(c, maxsteps=200, extraprec=200)
                 for c in ([mpf(c) for c in p7[::-2]], [1] + list(coeffs)[::-1])]
        gauss, nodes = ([mpmath.sqrt(y) for y in sorted(ys)]
                        for ys in (roots[0], roots[0] + roots[1]))
        return nodes, weights(nodes), weights(gauss)


def test_rule_constants_are_the_correctly_rounded_gauss_kronrod_pair():
    # The rules' 15-digit constants biased every panel by about -3e-15
    # relative (Sum w_K was 2 - 6e-15); each is now the float nearest its
    # exact value, and each rule's weights sum to exactly 2.
    nodes, wk, wg = _gauss_kronrod_15()
    assert _XK[8:].tolist() == [float(x) for x in nodes]
    assert _WK[7:].tolist() == [float(w) for w in wk]
    assert _WG[7::2].tolist() == [float(w) for w in wg]
    assert _WK.sum() == _WG.sum() == 2.0


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
    by its raw error. Panel sums take the library's fixed order per row."""
    pa, pb = np.array([a]), np.array([b])

    def rule(vals, weights):
        return np.einsum("ij,j->i", vals, weights)

    def panels(a, b):
        half = 0.5 * (b - a)
        pts = (0.5 * (a + b))[:, None] + half[:, None] * _XK[None, :]
        vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        kron = rule(vals, _WK) * half
        gauss = rule(vals, _WG) * half
        resabs = rule(np.abs(vals), _WK) * half
        mean = kron / (b - a)
        resasc = rule(np.abs(vals - mean[:, None]), _WK) * half
        delta = np.abs(kron - gauss)
        err = delta.copy()
        scale = np.ones_like(delta)
        pos = resasc > 0.0
        scale[pos] = np.minimum(1.0, (200.0 * delta[pos] / resasc[pos]) ** 1.5)
        err[pos] = resasc[pos] * scale[pos]
        return kron, np.maximum(err, 50.0 * _EPS * resabs), pts.size

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
    # Row i integrates e^(-rate_i x); x is (panels, 15), rows (panels,).
    return np.exp(-_RATES[rows][:, None] * x)


def test_rows_of_edges_are_refined_as_alone_within_their_own_budget(monkeypatch):
    # Each row converges alone within 10 splits, but the rows need more
    # than 10 between them.
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
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
        splits, total = splits + (n // 15 - 3) // 2, total + n
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
