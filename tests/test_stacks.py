"""Stacks: (m, n) masses are m distributions, two stacks make m paths, and
every operator and closed form takes them. Row i of a stacked call must
match the call on path i alone, bitwise where the computation is row by
row and within the stated tolerance where rows share an adaptive scheme."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from divseq import cli, distributions, operators, sequences
from divseq.chebyshev import ChebyshevInterpolant, lobatto_nodes
from divseq.distributions import (
    Distribution,
    MixturePath,
    mixture,
    new_distribution,
    random_distribution,
)
from divseq.divergences import evaluate, named_divergence, path_derivative
from divseq.errors import DomainError
from divseq.operators import psi, psi_inverse, psi_iter
from divseq.sequences import hellinger_psi, hellinger_psi_inverse, pl, sl
from divseq.verify import _suite_divergences
from operator_oracles import is_constant, psi_roundtrip

SUITE = _suite_divergences()
IDS = [D.identifier for D in SUITE]
M = 5


def _stack(n, seed, min_mass=1e-3):
    """A stack of M paths on n outcomes and the M single paths it holds."""
    starts = np.array([random_distribution(n, seed + 2 * i, min_mass).masses for i in range(M)])
    ends = np.array([random_distribution(n, seed + 2 * i + 1, min_mass).masses for i in range(M)])
    stacked = MixturePath(Distribution(starts), Distribution(ends))
    singles = [MixturePath(Distribution(a), Distribution(b)) for a, b in zip(starts, ends)]
    return stacked, singles


def _grids(seed, k=9):
    """One unsorted grid per path, holding 0, 1 and a duplicate."""
    rng = np.random.default_rng(seed)
    grids = rng.uniform(0.0, 1.0, size=(M, k))
    grids[:, 0], grids[:, 1], grids[:, -1] = 1.0, 0.0, grids[:, 2]
    return grids


@pytest.mark.parametrize("D", SUITE, ids=IDS)
@pytest.mark.parametrize("n", [2, 7, 10, 64])
class TestRowsMatchSinglePaths:
    def test_row_by_row_kernels_are_bitwise(self, D, n):
        stacked, singles = _stack(n, seed=n)
        grids = _grids(n)
        at = grids[:, 3]
        masses = stacked.masses_at(grids)
        direct = D.evaluator(stacked.start.masses[:, None], masses)
        inverse = psi_inverse(D, stacked, grids)
        inverse_at = psi_inverse(D, stacked, at)
        derivative = path_derivative(D, stacked, grids)
        level_zero = psi_iter(D, 0, stacked, grids)
        assert masses.shape == grids.shape + (n,)
        assert direct.shape == inverse.shape == derivative.shape == grids.shape
        assert level_zero.shape == (1,) + grids.shape and inverse_at.shape == (M,)
        for i, path in enumerate(singles):
            row = path.masses_at(grids[i])
            assert masses[i].tobytes() == row.tobytes()
            assert direct[i].tobytes() == D.evaluator(path.start.masses, row).tobytes()
            assert inverse[i].tobytes() == psi_inverse(D, path, grids[i]).tobytes()
            assert inverse_at[i] == psi_inverse(D, path, float(at[i]))
            assert derivative[i].tobytes() == path_derivative(D, path, grids[i]).tobytes()
            assert level_zero[0, i].tobytes() == psi_iter(D, 0, path, grids[i])[0].tobytes()
        probes = mixture(stacked, at)
        for i, path in enumerate(singles):
            assert probes.masses[i].tobytes() == mixture(path, at[i]).masses.tobytes()

    def test_psi_rows_within_the_quadrature_target(self, D, n):
        stacked, singles = _stack(n, seed=3 * n)
        grids = _grids(3 * n)
        values = psi(D, stacked, grids)
        at_one = psi(D, stacked, np.ones(M))
        assert values.shape == grids.shape and at_one.shape == (M,)
        for i, path in enumerate(singles):
            alone = np.array([psi(D, path, float(t)).value for t in grids[i]])
            if D.generator is not None:  # each position is a level kernel sum
                assert values[i].tobytes() == alone.tobytes() and at_one[i] == alone[0], i
            target = np.maximum(1e-12, 1e-12 * np.abs(alone))  # psi's default tol
            assert np.all(np.abs(values[i] - alone) <= target), i
            assert abs(at_one[i] - alone[0]) <= target[0]
            # t = 0 is an exact +0.0; duplicates give equal values.
            assert values[i, 1] == 0.0 and np.signbit(values[i, 1]) == False  # noqa: E712
            assert values[i, -1] == values[i, 2]

    def test_iterated_levels_within_1e12(self, D, n):
        stacked, singles = _stack(n, seed=5 * n)
        grids = _grids(5 * n)
        levels = psi_iter(D, 3, stacked, grids)
        on_one = psi_iter(D, 3, stacked, grids[:, 4])
        assert levels.shape == (4,) + grids.shape and on_one.shape == (4, M)
        for i, path in enumerate(singles):
            alone = psi_iter(D, 3, path, grids[i])
            assert np.max(np.abs(levels[:, i] - alone)) <= 1e-12, i
            assert np.max(np.abs(on_one[:, i] - alone[:, 4])) <= 1e-12, i


@pytest.mark.parametrize("n", [2, 7, 10, 64, 300])
def test_closed_form_rows_within_1e12_relative(n):
    stacked, singles = _stack(n, seed=7 * n, min_mass=1e-4)
    t = np.linspace(0.1, 1.0, M)
    probes = mixture(stacked, t)
    for k in range(5):
        for family in (pl, sl):
            values = family(k, stacked.start, probes)
            assert values.shape == (M,)
            for i, path in enumerate(singles):
                alone = family(k, path.start, mixture(path, t[i]))
                assert isinstance(alone, float)
                assert abs(values[i] - alone) <= 1e-12 * abs(alone), (family.__name__, k, i)


@pytest.mark.parametrize("n", [2, 7, 300])
def test_evaluate_and_hellinger_forms_give_one_value_per_row(n):
    stacked, singles = _stack(n, seed=9 * n)
    P, Q = stacked.start, stacked.end
    values = [evaluate(D, P, Q) for D in SUITE]
    hellinger = [f(P, Q, 0.4) for f in (hellinger_psi, hellinger_psi_inverse)]
    for row in values + hellinger:
        assert row.shape == (M,)
    for i, path in enumerate(singles):
        A, B = path.start, path.end
        for D, row in zip(SUITE, values):
            assert row[i] == evaluate(D, A, B), (D.identifier, i)
        assert hellinger[0][i] == hellinger_psi(A, B, 0.4)
        assert hellinger[1][i] == hellinger_psi_inverse(A, B, 0.4)


def test_closed_form_fallback_is_decided_row_by_row():
    # Row 0 is nearly identical to its end point, so its plain sum cancels
    # and it takes the split sum; row 1 does not.
    p = np.array([0.2, 0.3, 0.5])
    near = p + np.array([1e-9, -2e-9, 1e-9])
    far = np.array([0.5, 0.3, 0.2])
    P, Q = np.stack([p, p]), np.stack([near, far])
    for k in range(4):
        for family in (pl, sl):
            values = family(k, P, Q)
            assert values[0] == family(k, p, near)
            assert abs(values[1] - family(k, p, far)) <= 1e-12 * abs(family(k, p, far))


@pytest.mark.parametrize("n", [2, 7, 300])
def test_closed_form_rows_equal_single_calls_bitwise(n, monkeypatch):
    # Even rows end within 1e-7 relative of their start, so their plain sums
    # cancel and take the split sum, all of them in one pass; odd rows do
    # not. Each term is formed elementwise and each row summed in one fixed
    # order, so every row is its single call, whichever rows share the stack.
    stacked, _ = _stack(n, seed=13 * n, min_mass=1e-5)
    p = stacked.start.masses
    near = p * (1.0 + 1e-7 * np.random.default_rng(n).uniform(-1.0, 1.0, p.shape))
    near /= near.sum(axis=1, keepdims=True)
    q = np.where(np.arange(M)[:, None] % 2 == 0, near, stacked.end.masses)
    split, taken, passes = sequences._split_sums, set(), [0]

    def spy(k, rows, *rest):
        passes[0] += 1
        for row in rows:
            taken.add(int(np.flatnonzero((p == row).all(axis=1))[0]))
        return split(k, rows, *rest)

    monkeypatch.setattr(sequences, "_split_sums", spy)
    for k in range(4):
        for family in (pl, sl):
            taken.clear()
            passes[0] = 0
            values = family(k, p, q)
            # One pass for every order: sl(k) takes one for its k pl terms
            # together, and sl(0) none.
            assert passes[0] == (1 if family is pl or k > 0 else 0)
            # sl(0) is the Jeffreys divergence alone, with no pl term.
            assert taken == ({0, 2, 4} if family is pl or k > 0 else set())
            for i in range(M):
                assert values[i] == family(k, p[i], q[i]), (family.__name__, k, i)


@pytest.mark.parametrize("D", SUITE, ids=IDS)
def test_one_row_stack_equals_the_single_path_bitwise(D):
    (path,) = _stack(6, seed=11)[1][:1]
    one = MixturePath(
        Distribution(path.start.masses[None]), Distribution(path.end.masses[None])
    )
    grid = _grids(11)[0]
    assert psi(D, one, grid[None])[0].tobytes() == psi(D, path, grid).tobytes()
    assert psi(D, one, np.array([0.6]))[0] == psi(D, path, 0.6).value
    assert psi_iter(D, 3, one, grid[None])[:, 0].tobytes() == psi_iter(D, 3, path, grid).tobytes()
    assert psi_inverse(D, one, grid[None])[0].tobytes() == psi_inverse(D, path, grid).tobytes()
    R, r = mixture(one, np.array([0.3])), mixture(path, 0.3)
    assert R.masses[0].tobytes() == r.masses.tobytes()
    for k in range(4):
        assert pl(k, one.start, R)[0] == pl(k, path.start, r)
        assert sl(k, one.start, R)[0] == sl(k, path.start, r)


@pytest.mark.parametrize("D", SUITE[:3], ids=IDS[:3])
def test_constant_rows_give_zeros(D):
    stacked, singles = _stack(4, seed=21)
    ends = stacked.end.masses.copy()
    ends[2] = stacked.start.masses[2]
    mixed = MixturePath(stacked.start, Distribution(ends))
    assert list(is_constant(mixed)) == [False, False, True, False, False]
    grids = _grids(21)
    assert np.all(psi(D, mixed, grids)[2] == 0.0)
    assert np.all(psi_iter(D, 3, mixed, grids)[:, 2] == 0.0)
    assert np.all(psi_inverse(D, mixed, grids)[2] == 0.0)
    # The moving rows are as they were on the first path of the stack.
    assert psi_inverse(D, mixed, grids)[0].tobytes() == psi_inverse(D, singles[0], grids[0]).tobytes()


@pytest.mark.parametrize("D", SUITE[:2], ids=IDS[:2])
def test_blocking_changes_no_value(D, monkeypatch, capsys):
    # Every caller of distributions._blocks, through the runner _along or
    # directly: level 0, the complex step, both level kernels, the fit's
    # sampler, barycentric evaluation and the CLI's pl/sl sweep.
    stacked, _ = _stack(10, seed=31)
    grids = _grids(31)
    single = MixturePath(
        Distribution(stacked.start.masses[0]), Distribution(stacked.end.masses[0])
    )
    bare = dataclasses.replace(D, generator=None)
    wide = MixturePath(random_distribution(300, 5, 1e-4), random_distribution(300, 6, 1e-4))
    grid = np.linspace(0.0, 1.0, 101)
    interp = ChebyshevInterpolant(np.cos(np.arange(M)[:, None] + 7.0 * lobatto_nodes(64)))
    pair = json.dumps({"p": wide.start.masses.tolist(), "q": wide.end.masses.tolist()})
    fits, grouped = [], operators._grouped_level_zero
    monkeypatch.setattr(operators, "_grouped_level_zero", lambda *a: fits.append(a) or grouped(*a))

    def outputs():
        at = psi(D, single, grids[0, 3])
        assert cli.main(["sweep", "--seq", "sl", "--depth", "2", "--t", "0:1:11", "--pair", pair]) == 0
        values = [
            psi(D, stacked, grids), psi_iter(D, 2, stacked, grids),
            psi(D, single, grids[0]), psi_iter(D, 2, single, grids[0]),
            psi(bare, single, grids[0]), psi_iter(bare, 2, single, grids[0]),
            np.array([at.value, at.estimated_error, at.evaluations]),
            psi_inverse(D, stacked, grids), path_derivative(D, stacked, grids),
            interp(grids), interp(grid),
        ]
        kernel_fits = len(fits)
        values.append(psi_iter(D, 2, wide, grid))
        assert kernel_fits == 0 and len(fits) == 1  # the kernel route, then the fit
        fits.clear()
        return [v.tobytes() for v in values] + [capsys.readouterr().out.encode()]

    before = outputs()
    # Several whole rows (but not all five) of 9 positions per block, below
    # one path's positions per block, below one position's support, and one
    # cell: each position, point or grid row a block of its own.
    for cells in (300, 64, 7, 4, 1):
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", cells)
        after = outputs()
        for i, (a, b) in enumerate(zip(before, after)):
            assert a == b, (cells, i)


class TestStackedDistributions:
    def test_rows_renormalized_one_by_one(self):
        rows = np.array([[0.5, 0.5 + 1e-10], [0.2, 0.8], [0.1, 0.9 - 1e-10]])
        stack = new_distribution(rows)
        assert stack.stack_size == 3 and stack.support_size == 2
        for i in range(3):
            assert stack.masses[i].tobytes() == new_distribution(rows[i]).masses.tobytes()
        assert new_distribution([0.5, 0.5]).stack_size is None

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.5, 0.5], [0.7, 0.2]],
            [[0.5, 0.5], [1.0, 0.0]],
            [[0.5, 0.5], [np.nan, 0.5]],
            [[1.0], [1.0]],
            np.ones((0, 3)),
            np.full((2, 2, 2), 0.5),
        ],
        ids=["bad_sum", "zero_mass", "nan", "short_rows", "empty", "3d"],
    )
    def test_a_row_that_is_not_a_distribution_is_rejected(self, rows):
        with pytest.raises(DomainError):
            new_distribution(rows)
        with pytest.raises(DomainError):
            Distribution(np.asarray(rows, dtype=float))
        # Raw mass arrays are held to the same rule, on either side of a pair.
        good = np.full(np.shape(rows), 1.0 / max(1, np.shape(rows)[-1]))
        kl = named_divergence("kl")
        for call in (
            lambda P, Q: evaluate(kl, P, Q),
            lambda P, Q: hellinger_psi(P, Q, 0.5),
            lambda P, Q: pl(2, P, Q),
            lambda P, Q: sl(2, P, Q),
        ):
            for P, Q in ((rows, good), (good, rows)):
                with pytest.raises(DomainError):
                    call(P, Q)

    def test_raw_masses_are_checked_before_any_arithmetic(self):
        # Each of these once returned a value, a NaN or a RuntimeWarning.
        kl = named_divergence("kl")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sum"):
                evaluate(kl, [0.5, 0.6], [0.5, 0.5])
            with pytest.raises(DomainError, match="finite"):
                hellinger_psi([0.5, np.nan], [0.5, 0.5], 0.5)
            with pytest.raises(DomainError, match="at least"):
                evaluate(kl, [0.5, 0.5], [0.0, 1.0])
        assert evaluate(kl, [0.5, 0.5], [0.25, 0.75]) == evaluate(
            kl, Distribution(np.array([0.5, 0.5])), Distribution(np.array([0.25, 0.75]))
        )

    def test_mismatched_stacks_are_rejected(self):
        three, _ = _stack(4, seed=41)
        with pytest.raises(DomainError):
            MixturePath(three.start, Distribution(three.end.masses[:2]))
        with pytest.raises(DomainError):
            MixturePath(three.start, Distribution(three.end.masses[0]))
        with pytest.raises(DomainError):
            pl(2, three.start, Distribution(three.end.masses[:2]))
        with pytest.raises(DomainError):
            sl(2, three.start.masses, three.end.masses[:, :3])


STACKED, _ = _stack(4, seed=51)
BAD_POSITIONS = [
    0.5, np.ones(M - 1), np.ones((M + 1, 3)), np.ones((M, 2, 2)), np.ones((M, 0)),
    np.full(M, 1.5), np.full((M, 2), np.nan),
]
BAD_IDS = ["scalar", "short", "long_grid", "3d", "empty", "outside", "nan"]


@pytest.mark.parametrize("t", BAD_POSITIONS, ids=BAD_IDS)
@pytest.mark.parametrize(
    "apply",
    [
        lambda t: psi(named_divergence("kl"), STACKED, t),
        lambda t: psi_inverse(named_divergence("kl"), STACKED, t),
        lambda t: path_derivative(named_divergence("kl"), STACKED, t),
        lambda t: psi_iter(named_divergence("kl"), 2, STACKED, t),
    ],
    ids=["psi", "psi_inverse", "path_derivative", "psi_iter"],
)
def test_positions_of_the_wrong_shape_are_rejected(apply, t):
    with pytest.raises(DomainError):
        apply(t)


def test_roundtrip_takes_a_single_path():
    with pytest.raises(DomainError):
        psi_roundtrip(named_divergence("kl"), STACKED, 0.5)


def test_mixture_and_masses_at_need_one_row_per_path():
    with pytest.raises(DomainError):
        mixture(STACKED, np.full((M, 2), 0.5))
    with pytest.raises(DomainError):
        mixture(STACKED, 0.5)
    with pytest.raises(DomainError):
        STACKED.masses_at(np.full(M - 1, 0.5))


class TestStackedInterpolants:
    def _rows(self):
        return [np.exp, np.cos, lambda s: 1.0 / (1.0 + 25.0 * (s - 0.5) ** 2)]

    def test_stack_fits_until_every_row_meets_the_target(self):
        rows = self._rows()
        interp, residual, neval = ChebyshevInterpolant.fit_adaptive(
            lambda s: np.stack([f(s) for f in rows]), 1e-12
        )
        assert residual <= 1e-12 and interp.values.shape == (3, neval)
        # The Runge bump needs the most nodes; the stack takes that many.
        alone = [ChebyshevInterpolant.fit_adaptive(f, 1e-12)[0] for f in rows]
        assert len(interp.nodes) == max(len(a.nodes) for a in alone)
        x = np.linspace(0.0, 1.0, 301)
        for i, f in enumerate(rows):
            assert np.max(np.abs(interp(x)[i] - f(x))) <= 1e-10

    def test_rows_behave_as_their_own_interpolants(self):
        nodes = lobatto_nodes(64)
        values = np.stack([f(nodes) for f in self._rows()])
        stack = ChebyshevInterpolant(values)
        x = np.concatenate([np.linspace(0.0, 1.0, 37), nodes[::5]])
        per_row = np.stack([x, x[::-1], np.sort(x)])
        shared, own, lifted = stack(x), stack(per_row), stack.lifts(1).values[0]
        assert shared.shape == (3, x.size) and own.shape == (3, x.size)
        assert stack(0.25).shape == (3,)
        for i in range(3):
            alone = ChebyshevInterpolant(values[i])
            assert shared[i].tobytes() == alone(x).tobytes()
            assert own[i].tobytes() == alone(per_row[i]).tobytes()
            assert lifted[i].tobytes() == alone.lifts(1).values[0].tobytes()

    def test_per_row_points_need_one_row_per_interpolant(self):
        # Levels of a stack pair their rows with the points' rows too.
        stack = ChebyshevInterpolant(np.ones((3, 17)))
        for interp in (stack, stack.lifts(2)):
            with pytest.raises(DomainError):
                interp(np.ones((2, 4)))
        assert stack.lifts(2)(np.full((3, 4), 0.5)).shape == (2, 3, 4)
