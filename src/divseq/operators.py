"""Integral and differential operators on divergences along mixture paths.

The integral operator maps D to t -> Integral_0^t D(P | R(s)) / s ds and
contracts any right-convex divergence toward zero; the differential
operator t -> t * d/dt D(P | R(t)) expands it. Both take a position t or
a 1-d grid of positions, and on a stack of m paths t of shape (m,), one
position per path, or (m, k), one grid per path; each result has t's
shape. Every operator lifts its path to a stack (a single path is a stack
of one, see distributions._lift_path), computes on endpoint rows (m, n)
and positions (m, L) only, and reshapes the result to the caller's form.
Since ds/s is scale-free, the value at t is the value at the end of the
truncation P -> R(t). With a generator phi of degree alpha, D = Sum
p^alpha phi(r/p) (every f-divergence, alpha = 1, and a swapped Bregman
functional given its degree), psi is Sum p^alpha Phi(log w), w = R(t)/P,
Phi from chebyshev's level kernel, built once per call on the range of
log w at each path's end and evaluated in one pass over blocks of
positions, positions at t = 0 left out; without one it is a cumulative
quadrature per path on the kernel's panel rule, the package's one use of
the quadrature. psi_iter takes Sum p^alpha Phi_j(log w) from the same kernel
where that is predicted to cost less, or samples level 0 on P -> R(T), T
the largest position, fits it
by one Chebyshev polynomial per group of the coordinates that move in
one doubling loop, and integrates the summed polynomial exactly, level
after level, in its Chebyshev coefficients.
Every operator requires a right-convex D and rejects any other before it
checks anything else. The check that applies psi and psi_inverse in both
orders and recovers D lives with the tests (tests/operator_oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import (
    _BLOCK_CELLS, _EPS, _KERNEL_NODES, _MAX_INTERVALS, ChebyshevInterpolant, _level_pieces,
)
from .distributions import MixturePath, _caller_form, _lift_path, _mix
from .divergences import DivergenceFunctional, Orientation, _slope
from .errors import DomainError, require_index, require_positive
from .quadrature import QuadratureConfig, cumulative_integral

__all__ = [
    "OperatorResult",
    "QuadratureConfig",
    "psi",
    "psi_inverse",
    "psi_iter",
]

@dataclass(frozen=True)
class OperatorResult:
    value: float
    estimated_error: float
    evaluations: int


def _require_right_convex(D: DivergenceFunctional) -> None:
    if D.orientation is not Orientation.RIGHT_CONVEX:
        raise DomainError(
            f"divergence {D.identifier!r} is not right-convex; wrap it with "
            "swap_orientation first"
        )


def _blocks(shape: tuple, n: int):
    """Row slices of positions (m, L) on n coordinates, each with its column
    slices, into blocks of at most _BLOCK_CELLS mass cells (whole rows where
    one fits); each position reduces alone, so blocking changes no value."""
    cells = max(1, _BLOCK_CELLS // n)
    rows, step = max(1, cells // shape[1]), min(shape[1], cells)
    for i in range(0, shape[0], rows):
        yield slice(i, i + rows), [slice(j, j + step) for j in range(0, shape[1], step)]


def _along(
    D: DivergenceFunctional, p: np.ndarray, q: np.ndarray, s: np.ndarray,
    paths: np.ndarray, rest: np.ndarray | None = None,
) -> np.ndarray:
    """D(p | (1-s) p + s q) at positions s (m, L), row i along the path
    with endpoint rows p[paths[i]] and q[paths[i]]: an (m, L) array, the
    mixtures formed and reduced by _blocks. An exact complement rest of
    s's shape stands for 1 - s, as in _mix.
    """
    out = np.empty(s.shape)
    for i, cols in _blocks(s.shape, p.shape[-1]):
        pb, qb = p[paths[i]], q[paths[i]]
        for j in cols:
            mixed = _mix(pb, qb, s[i, j], None if rest is None else rest[i, j])
            out[i, j] = D.evaluator(pb[:, None], mixed)
    return out


def _level_zero(D: DivergenceFunctional, p: np.ndarray, r: np.ndarray):
    """D on the paths p -> r, rows (m, n): a sampler of positions s (R, L),
    the path of each row (R,) and rest (R, L), the exact complement 1 - s
    (1.0 - s would lose it near s = 1). With a generator phi of degree
    alpha it gives Sum p^alpha phi(w), w = rest + s r/p (1 at s = 0, r/p at
    s = 1 exactly), else _along's values on the mixture.
    """
    phi, ratio = D.generator, r / p
    if phi is None:
        return lambda s, rows, rest: _along(D, p, r, s, rows, rest)
    weights = p**D.degree

    def sample(s: np.ndarray, rows: np.ndarray, rest: np.ndarray) -> np.ndarray:
        out, s, rest = np.empty(s.shape), s[..., None], rest[..., None]
        # phi may overflow at a huge w; its caller rejects what is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, cols in _blocks(out.shape, p.shape[-1]):
                pb, rb = weights[rows[i], None], ratio[rows[i], None]
                for j in cols:
                    w = s[i, j] * rb
                    w += rest[i, j]
                    terms = phi(w)
                    terms *= pb
                    out[i, j] = terms.sum(axis=-1)
        return out

    return sample


# A bin of columns fitted apart pays its own residual DCT at each doubling,
# 8 to 23 mass cells' time per row and node (1 to 20 rows, 33 to 4097
# nodes; 2 cores, Python 3.11). Over the doublings up to a final count of N
# nodes that is about this many cells per row times N (see _column_groups).
_DCT_CELLS = 40
# psi_iter predicts the level kernel's cost as k m L n (_KERNEL_NODES + 1)
# cells, each worth about this many of the fit's predicted cells (sampling,
# residual DCTs and (k + 1) m L N evaluation, from _column_groups). On the 80
# sweep inputs of the benchmark's seeds 101 and 202 (depth 3, 101 positions)
# the kernel ran slower than the fit on those predicted at 1.18 or fewer
# kernel cells, and on the near-identical 7-point stress pair, predicted at
# 1.51, 5-8% slower. Of the 22 predicted between 1.9 and 5.3, which this
# factor moves to the kernel, 19 ran 1-38% faster there and 3 within 4%
# slower (two 2-point pairs at 5.23 and a 77-point one at 2.31), so not every
# input that moved got faster; no factor keeps the 2-point pairs on the fit
# without keeping the 7-point ones at 3.02, 9-26% faster on the kernel. Every
# generator chain call of run_suite there is predicted at 7.4 (2 cores,
# Python 3.11).
_KERNEL_CELL_COST = 1.75


def _column_groups(p: np.ndarray, q: np.ndarray) -> tuple[list[np.ndarray | slice], int, int]:
    """Column groups of endpoint rows p, q (m, n) to fit level 0 by, easiest
    first: index arrays, or [slice(None)] where no split can pay; then the
    fit's predicted cells per row (each group's columns plus _DCT_CELLS,
    times its nodes, summed) and its largest predicted node count. psi_iter
    passes the truncated path's end R(T) as q and fits in u = s / T.

    r_i = p_i (1 - u z_i), z_i = 1 - q_i/p_i, vanishes at x = 2/z_i - 1 in
    x = 2u - 1, on the Bernstein ellipse rho = exp(2 artanh(a)), a the
    smaller of sqrt(q_i/p_i) and its inverse; Chebyshev coefficients decay
    like rho^-N (Trefethen, Approximation Theory and Approximation
    Practice, ch. 8). A column's difficulty d, 1/log(rho) at its hardest
    row, is binned by octave j, about N_j = 64 * 2^j <= 128 d nodes up to
    the node cap. The groups are fitted in one doubling loop, each stopping
    at its own node count, so a group apart costs its own calls and
    residual DCTs per doubling, not a fit: a bin joins the next harder one
    unless the cells it saves per row, its columns (with any joined to it)
    times N_harder - N_j, exceed _DCT_CELLS * N_j. The fixed cost of the
    calls is not counted, as octave groups also carry less rounding into
    the lifts: each group's coefficients come from a float64 DCT whose
    error, about eps * max|values|, is amplified by every division by s,
    and a group of easy columns adds its error to its few low-order
    coefficients only. On 40 regular 877-point pairs the worst level 1-3
    error against pl/sl had a median of 1.1e-13 from one group and
    5.9e-14 from octave groups. The bins at the cap form one group, which
    no bin below the cap joins: that group mostly raises ToleranceError
    at the cap, and a column joined to it would be sampled on all its
    nodes for nothing. This sets only the cost: every fit is adaptive.
    """
    ratio = q / p
    with np.errstate(divide="ignore"):  # artanh(1) is infinite: z_i = 0
        a = np.sqrt(np.minimum(ratio.min(axis=0), 1.0 / ratio.max(axis=0)))
        octave = np.maximum(np.frexp(0.5 / np.arctanh(a))[1], 0)
    counts = np.bincount(octave)
    nodes = np.minimum(64 * 2 ** np.arange(len(counts)), _MAX_INTERVALS).tolist()
    bins = np.flatnonzero(counts).tolist()
    label, size = np.zeros(len(counts), dtype=int), 0
    for j, harder in zip(bins, bins[1:]):
        size += int(counts[j])
        capped = nodes[harder] == _MAX_INTERVALS > nodes[j]
        if capped or size * (nodes[harder] - nodes[j]) > _DCT_CELLS * nodes[j]:
            label[j + 1 :] += 1
            size = 0
    # Each group's predicted node count is its hardest bin's.
    hardest, columns = {label[j]: nodes[j] for j in bins}, np.bincount(label, counts)
    cells = sum((int(c) + _DCT_CELLS) * hardest[g] for g, c in enumerate(columns))
    if label[-1] == 0:
        return [slice(None)], cells, nodes[-1]
    return [np.flatnonzero(label[octave] == g) for g in range(label[-1] + 1)], cells, nodes[-1]


def psi(
    D: DivergenceFunctional,
    path: MixturePath,
    t,
    cfg: QuadratureConfig | None = None,
) -> OperatorResult | np.ndarray:
    """Integral operator: Integral_0^t D(start | R(s)) / s ds.

    A position t on a single path gives an OperatorResult; a 1-d grid, or
    t of shape (m,) or (m, k) on a stack of m paths, gives an array of t's
    shape. Where D has a generator, each value is Sum p^alpha Phi(log w),
    alpha D's degree, at its own position alone (_psi_kernel), so a grid
    or stack value is the single call's bitwise, and the estimate is the
    p^alpha-weighted sum of the kernel's bounds. A D without one is one
    cumulative quadrature per path (_psi_quadrature), whose grid values
    agree with the single calls to within cfg. Either way psi at t on P -> Q is psi at 1 on P -> R(t)
    bitwise, and t = 0 and a constant path give exact zeros at no cost.
    """
    _require_right_convex(D)
    cfg = QuadratureConfig() if cfg is None else cfg
    p, q, t, shape = _lift_path(path, t)
    if D.generator is None:
        values, err, evals = _psi_quadrature(D, p, q, t, cfg)
    else:
        (values,), err, evals = _psi_kernel(D, p, q, t, 1, cfg.rel_tol, cfg.abs_tol, shape == ())
    if shape == ():
        return OperatorResult(float(values[0, 0]), float(err.flat[0]), evals)
    return values.reshape(shape)


def _psi_kernel(
    D: DivergenceFunctional, p, q, t, k: int, rel_tol: float, abs_tol: float, bounded=False,
):
    """Sum p^alpha Phi_j(log w), w = R(t)/P, j = 1..k, alpha D's degree, on
    endpoint rows (m, n) at positions (m, L): values (k, m, L), estimates
    (k, m) if bounded (else None) and the evaluation count. w is
    _level_zero's (1 - u) + u R(t)/P at u = 1, R(t)/P bitwise; a coordinate
    with q_i = p_i has w = 1 all along and adds +0.0, and so does every
    coordinate at t = 0, which is never formed. R(t)/P is linear in t, so
    every v = log w of a path lies between 0 and its value at the path's
    largest position: the kernel's pieces cover the range of those. The
    positions are taken in _blocks of k n cells, each formed, evaluated and
    summed in its turn, so no temporary outgrows a block.
    """
    values = np.zeros((k,) + t.shape)
    estimates = np.zeros((k, len(p))) if bounded else None
    ends = np.log(_mix(p, q, t.max(axis=-1)) / p)[p != q]
    if not ends.any():
        return values, estimates, 0
    levels, evals = _level_pieces(D.generator, ends.min(), ends.max(), rel_tol, abs_tol, k)
    weights = p**D.degree

    def add(i, j):  # a function, so no block's arrays outlive its turn
        live = t[i, j] > 0.0
        rows = np.nonzero(live)[0]
        pl, ql = p[i][rows], q[i][rows]
        v = np.log(_mix(pl, ql, t[i, j][live]) / pl)
        moving = (v != 0.0) & (pl != ql)
        at, errors = levels(v[moving], bounded)
        terms = _scattered(moving, at)
        terms *= weights[i][rows]
        values[:, i, j][:, live] = terms.sum(axis=-1)
        if bounded:
            # A rounding floor: a few ulps of each term, in the kernel and the sum.
            bounds = _scattered(moving, errors) * weights[i][rows] + 4.0 * _EPS * np.abs(terms)
            np.add.at(estimates[:, i], (slice(None), rows), bounds.sum(axis=-1))

    for i, cols in _blocks(t.shape, k * p.shape[-1]):
        for j in cols:
            add(i, j)
    return values, estimates, evals


def _scattered(moving: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Rows parts (k, count) placed where moving is set, zeros elsewhere:
    (k,) + moving.shape."""
    out = np.zeros(parts.shape[:1] + moving.shape)
    for level, part in zip(out, parts):  # a mask alone indexes ten times faster than [:, mask]
        level[moving] = part
    return out


def _psi_quadrature(D: DivergenceFunctional, p: np.ndarray, q: np.ndarray, t: np.ndarray, cfg):
    """psi of a D without a generator, as _psi_kernel returns it:
    D(P | R(T u)) / u on each path's truncation P -> R(T), u = s / T,
    integrated over the segments between its sorted positions, each on
    panels of its own."""
    top = np.maximum(t.max(axis=-1, keepdims=True), 5e-324)
    r = _mix(p, q, top[:, 0])
    same = np.all(p == q, axis=-1) | np.all(p == r, axis=-1)
    t = np.where(same[:, None], 0.0, t)
    # Sorted, so neither the order of t nor its duplicates (empty segments)
    # change a value; a path with no position above 0 has only empty ones.
    order = np.argsort(t, axis=-1)
    sample = _level_zero(D, p, r)

    def f(u: np.ndarray, rows: np.ndarray, rest: np.ndarray) -> np.ndarray:
        d = sample(u, rows, rest)
        # D(start | R(0)) / 0 has the limit 0: u = 0 is only reached on
        # segments of subnormal width.
        return np.divide(d, u, out=np.zeros_like(d), where=u > 0.0)

    edges = np.concatenate(
        [np.zeros((len(t), 1)), np.take_along_axis(t, order, axis=-1) / top], axis=1
    )
    running, err, evals = cumulative_integral(f, edges, cfg)
    values = np.empty(t.shape)
    np.put_along_axis(values, order, running[:, 1:], axis=-1)
    return values, err, evals


def psi_inverse(D: DivergenceFunctional, path: MixturePath, t):
    """Differential operator: t * d/dt D(start | R(t)) at a position t or
    along a 1-d grid (a float or an array of the grid's length), or on a
    stack of m paths at t of shape (m,) or (m, k) (an array of t's shape,
    row i equal to the call on path i). The complex steps are taken in
    _blocks, each position alone, so a value is path_derivative's times t.

    Exactly 0.0 at t = 0 and on a constant path, never -0.0: there t or the
    path direction is 0, and adding +0.0 turns a signed zero into 0.0
    without changing any other value.
    """
    _require_right_convex(D)
    p, q, s, shape = _lift_path(path, t)
    slope = np.empty(s.shape)
    for i, cols in _blocks(s.shape, 2 * p.shape[-1]):  # a complex cell is two floats
        for j in cols:
            slope[i, j] = _slope(D, p[i], q[i], s[i, j])
    return _caller_form(s * slope + 0.0, shape)


def psi_iter(
    D: DivergenceFunctional,
    k,
    path: MixturePath,
    t_grid,
    tol: float = 1e-12,
) -> np.ndarray:
    """Iterated integral operator: levels 0..k along a leading axis, in
    front of the grid's shape.

    On a single path t_grid is a 1-d grid and the result is (k + 1, len);
    on a stack of m paths it has shape (m,) or (m, k') and the result
    (k + 1, m) or (k + 1, m, k'). Level 0 is D itself evaluated along the
    path. Above it one integrator serves the whole call, the one predicted
    to cost less before any sampling (_KERNEL_CELL_COST); a D without a
    generator, or with a column predicted at the node cap, takes the fit.

    The kernel gives level j as Sum p^alpha Phi_j(log w), w = R(t)/P,
    alpha D's degree (_psi_kernel), at each position alone. The fit uses that
    ds/s is scale-free: the levels at t on P -> Q are those at u = t / T on
    P -> R(T), T the path's largest grid position (R(1) = Q bitwise), so
    level 0 is fitted only where the grid reaches: one Chebyshev
    interpolant of it on P -> R(T) of every path is integrated over u
    exactly, level after level, in its coefficients, and all levels are
    evaluated on the grid in one call. D sums per-coordinate terms, so
    level 0 is fitted by groups of them (_column_groups on P and R(T)) in
    one doubling loop, each group sampled by _level_zero until its
    residual at fresh nodes meets its share of tol on every path
    (fit_adaptive with the easier groups); the groups' interpolants are
    added in Chebyshev coefficients and lifted from the sum. With a
    generator, a column with R(T) = P on every path adds phi(1) = 0 and
    joins no group and no cost. The fit's nodes are the exact Chebyshev
    points, 1 - u taken from the mirrored node. Rows are nonincreasing in
    the level at every grid point; a constant path gives zeros, and so
    does a constant truncation (R(T) = P) above level 0.

    On the kernel route each piece of v = log w meets
    max(tol, tol h max|integrand|) at every level, h its half-width, and a
    level's error at v is at most those bounds summed from 0 to v, plus the
    level below's through the integral. On the fit route no level is
    refitted or integrated numerically, so every level's error is the
    level-0 residual r (summed over groups) carried through psi: at most
    about |r| log(1/u_1) at level 1, where u_1 ~ (pi / 2n)^2 is the first
    node above 0 for n intervals, that is, about log(n) times the
    residual, and about that factor again at each further level. Either
    route raises ToleranceError if it misses tol.
    """
    _require_right_convex(D)
    tol = require_positive(tol, "tol")
    k = require_index(k, "iteration depth")
    if np.ndim(t_grid) == 0:
        raise DomainError("t_grid must be a nonempty 1-d array, not a scalar")
    p, q, t, shape = _lift_path(path, t_grid)
    levels = np.zeros((k + 1,) + t.shape)
    levels[0] = _along(D, p, q, t, np.arange(len(p)))
    constant = np.all(p == q, axis=-1)
    # ds/s is scale-free: above level 0, P -> Q at t is P -> R(T) at t / T.
    top = np.maximum(t.max(axis=-1, keepdims=True), 5e-324)
    r = _mix(p, q, top[:, 0])
    # phi(1) = 0: with a generator, a column with R(T) = P on every row adds
    # +0.0, so the costs and the fit leave it out.
    moved = np.any(p != r, axis=0) | (D.generator is None)
    if k > 0 and moved.any():
        p_fit, r_fit = (p, r) if moved.all() else (p[:, moved], r[:, moved])
        columns, cells, nodes = _column_groups(p_fit, r_fit)
        kernel_cells = _KERNEL_CELL_COST * k * t.size * p_fit.shape[-1] * (_KERNEL_NODES + 1)
        fit_cells = len(p) * cells + (k + 1) * t.size * nodes
        if D.generator is not None and nodes < _MAX_INTERVALS and kernel_cells < fit_cells:
            levels[1:] = _psi_kernel(D, p, q, t, k, tol, tol)[0]
        else:
            def group(cols):  # the group's level 0, every path at the nodes s and 1 - s
                sample, rows = _level_zero(D, p_fit[:, cols], r_fit[:, cols]), np.arange(len(p))
                grid = lambda s: np.broadcast_to(s, (len(p), s.size))
                return lambda s: sample(at := grid(s), rows, at[:, ::-1])

            *easier, hardest = (group(cols) for cols in columns)
            fit, _, _ = ChebyshevInterpolant.fit_adaptive(hardest, tol, easier)
            levels[1:] = fit.lifts(k)(t / top)
            levels[1:, np.all(p == r, axis=-1)] = 0.0
    levels[:, constant] = 0.0
    return levels.reshape((k + 1,) + shape)
