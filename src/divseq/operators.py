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
log w at each path's end and read by distributions._along in one pass
over blocks of positions, t = 0 left out. Without one the same kernel
integrates each path's level 0 itself: f(u) = D(P | R(T u)) on the
truncation P -> R(T), T the path's largest position, is the generator
phi(w) = f((w - 1) / lambda) of one kernel per path (_path_kernel), read
at v = log(1 + lambda t / T). psi_iter takes a D without a generator
there too; with one it takes Sum p^alpha Phi_j(log w) from the kernel
where that is predicted to cost less, or samples level 0 on P -> R(T),
fits it by one Chebyshev polynomial per group of the coordinates that
move in one doubling loop, all live groups sampled in one pass per
doubling, and integrates the summed polynomial exactly, level after
level, in its Chebyshev coefficients. psi and psi_iter take one target,
tol, which every kernel piece meets (chebyshev._level_pieces), and one
kernel choice (_kernel), so psi is psi_iter's level 1 bitwise wherever
psi_iter takes the kernel.
Every operator requires a right-convex D and rejects any other before it
checks anything else. The check that applies psi and psi_inverse in both
orders and recovers D lives with the tests (tests/operator_oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .chebyshev import _EPS, _KERNEL_NODES, _MAX_INTERVALS, ChebyshevInterpolant, _level_pieces
from .distributions import MixturePath, _along, _blocks, _caller_form, _lift_path, _mix
from .divergences import DivergenceFunctional, Orientation, _slope
from .errors import DomainError, require_index, require_scalar, require_type

__all__ = [
    "OperatorResult",
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
    D = require_type(D, DivergenceFunctional, "divergence")
    if D.orientation is not Orientation.RIGHT_CONVEX:
        raise DomainError(
            f"divergence {D.identifier!r} is not right-convex; wrap it with "
            "swap_orientation first"
        )


def _grouped_level_zero(D: DivergenceFunctional, p: np.ndarray, r: np.ndarray, groups: list):
    """D with a generator phi of degree alpha on the paths p -> r, rows
    (m, n), by groups of columns, index arrays or [slice(None)] as
    _column_groups gives them: a sampler of positions s (R, L), the path of
    each row (R,), rest (R, L), the exact complement 1 - s (1.0 - s would
    lose it near s = 1), and the live groups, ascending indices, giving
    each live group's Sum p^alpha phi(w), w = rest + s r/p (1 at s = 0,
    r/p at s = 1 exactly), on its columns: (live, R, L). The weights and
    ratios are laid out group after group, each group one run in its own
    column order, and one blocked pass forms w, phi(w) and the weighted
    terms on the live groups' columns and sums each group's own slice, so
    a group's values are those of [slice(None)] on its columns alone,
    bitwise.
    """
    phi = D.generator
    order = groups[0] if len(groups) == 1 else np.concatenate(groups)
    weights, ratios = (p**D.degree)[:, order], (r / p)[:, order]
    sizes = [weights.shape[-1]] if len(groups) == 1 else [len(g) for g in groups]
    ends = [0, *accumulate(sizes)]

    def columns(live: list[int]):
        """The live groups' weights and ratios, and each group's slice of them."""
        if all(a + 1 == b for a, b in zip(live, live[1:])):  # one run: views
            take = slice(ends[live[0]], ends[live[-1] + 1])
        else:
            take = np.concatenate([np.arange(ends[g], ends[g + 1]) for g in live])
        at = [0, *accumulate(sizes[g] for g in live)]
        return weights[:, take], ratios[:, take], [slice(a, b) for a, b in zip(at, at[1:])]

    def sample(s: np.ndarray, rows: np.ndarray, rest: np.ndarray, live: list[int]) -> np.ndarray:
        weight, ratio, slices = columns(live)
        out, s, rest = np.empty((len(live),) + s.shape), s[..., None], rest[..., None]
        # phi may overflow at a huge w; its caller rejects what is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, cols in _blocks(out.shape[1:], weight.shape[-1]):
                pb, rb = weight[rows[i], None], ratio[rows[i], None]
                for j in cols:
                    w = s[i, j] * rb
                    w += rest[i, j]
                    terms = phi(w)
                    terms *= pb
                    for group, run in zip(out, slices):  # each slice's sum, as .sum() takes it
                        np.add.reduce(terms[..., run], axis=-1, out=group[i, j])
        return out

    return sample


# A bin of columns fitted apart pays its own residual DCT at each doubling,
# 8 to 23 mass cells' time per row and node (1 to 20 rows, 33 to 4097
# nodes; 2 cores, Python 3.11); it shares the live groups' one sampler pass
# and pays no pass of its own, only its slice's row sum. Over the doublings
# up to a final count of N nodes that is about this many cells per row
# times N (see _column_groups). It was set when each group had a pass of
# its own, and is kept: a new value would regroup columns and move bits.
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
    at its own node count and all live ones sampled in one pass, so a group
    apart costs its own residual DCTs and row sums per doubling, not a fit:
    a bin joins the next harder one unless the cells it saves per row, its
    columns (with any joined to it) times N_harder - N_j, exceed
    _DCT_CELLS * N_j. No fixed cost per group is counted, as octave groups
    also carry less rounding into the lifts: each group's coefficients
    come from a float64 DCT whose error, about eps * max|values|, is
    amplified by every division by s, and a group of easy columns adds its
    error to its few low-order coefficients only. On 40 regular 877-point
    pairs the worst level 1-3 error against pl/sl had a median of 1.1e-13
    from one group and 5.9e-14 from octave groups. The bins at the cap form one group, which
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
    D: DivergenceFunctional, path: MixturePath, t, tol: float = 1e-12,
) -> OperatorResult | np.ndarray:
    """Integral operator: Integral_0^t D(start | R(s)) / s ds.

    A position t on a single path gives an OperatorResult; a 1-d grid, or
    t of shape (m,) or (m, k) on a stack of m paths, gives an array of t's
    shape. Every value is psi_iter's level 1 at the same tol wherever
    psi_iter takes the level kernel, bitwise (_kernel): each of its pieces
    meets max(tol, tol h max|integrand|), h its half-width. Where D has a
    generator, each value is Sum p^alpha Phi(log w), alpha D's degree, at
    its own position alone, so a grid or stack value is the single call's
    bitwise. A D without one takes one kernel per path on its truncation
    at its largest position, whose grid values agree with the single calls
    to within the pieces' targets. The estimate is the kernel's bound at
    the position. Either way psi at t on P -> Q is psi at 1 on P -> R(t)
    bitwise, and t = 0 and a constant path give exact zeros at no cost.
    """
    _require_right_convex(D)
    tol = require_scalar(tol, "tol", 0.0, np.inf, "()")
    p, q, t, shape = _lift_path(path, t)
    (values,), err, evals = _kernel(D, p, q, t, 1, tol, shape == ())
    if shape == ():
        return OperatorResult(float(values[0, 0]), float(err[0, 0, 0]), evals)
    return values.reshape(shape)


def _kernel(D: DivergenceFunctional, p, q, t, k: int, tol: float, bounded=False):
    """Levels 1..k on endpoint rows (m, n) at positions (m, L), from
    _psi_kernel where D has a generator and _path_kernel where it has none:
    values (k, m, L), estimates (k, m, L) if bounded (else None) and the
    evaluation count."""
    return (_psi_kernel if D.generator is not None else _path_kernel)(D, p, q, t, k, tol, bounded)


def _psi_kernel(D: DivergenceFunctional, p, q, t, k: int, tol: float, bounded=False):
    """Sum p^alpha Phi_j(log w), w = R(t)/P, j = 1..k, alpha D's degree, as
    _kernel returns them, a position's estimate the p^alpha-weighted sum of
    the kernel's bounds. w is the fit sampler's (1 - u) + u R(t)/P at
    u = 1, R(t)/P bitwise; a coordinate with q_i = p_i has w = 1 all along
    and adds +0.0, and so does every coordinate at t = 0, which is never
    formed. R(t)/P is linear in t, so every v = log w of a path lies
    between 0 and its value at the path's largest position: the kernel's
    pieces cover the range of those. The positions above 0 are read one a
    row by distributions._along, in blocks of k n cells, each formed, read
    and summed in its turn, so no temporary outgrows a block.
    """
    out, evals = np.zeros((1 + bounded, k) + t.shape), 0
    ends = np.log(_mix(p, q, t.max(axis=-1)) / p)[p != q]
    if ends.any():
        levels, evals = _level_pieces(D.generator, ends.min(), ends.max(), tol, k)

        def read(p, q, r):  # the levels, and their bounds if asked, of each position
            v = np.log(r / p)
            moving = (v != 0.0) & (p != q)
            at, errors = levels(v[moving], bounded)
            weights = p**D.degree
            terms = _scattered(moving, at) * weights
            sums = [terms.sum(axis=-1)]
            if bounded:
                # A rounding floor: a few ulps of each term, in the kernel and the sum.
                bounds = _scattered(moving, errors) * weights + 4.0 * _EPS * np.abs(terms)
                sums.append(bounds.sum(axis=-1))
            return np.stack(sums)

        rows, cols = np.nonzero(t)  # the positions above 0
        found = _along(read, p, q, t[rows, cols, None], rows, k * p.shape[-1])
        out[:, :, rows, cols] = found[..., 0]
    return out[0], (out[1] if bounded else None), evals


def _scattered(moving: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Rows parts (k, count) placed where moving is set, zeros elsewhere:
    (k,) + moving.shape."""
    out = np.zeros(parts.shape[:1] + moving.shape)
    for level, part in zip(out, parts):  # a mask alone indexes ten times faster than [:, mask]
        level[moving] = part
    return out


# _path_kernel's end in v = log w: a whole number of the level kernel's
# cells, so that no piece reaches past the path's end at u = 1.
_PATH_END = 0.5


def _path_kernel(D: DivergenceFunctional, p, q, t, k: int, tol: float, bounded=False):
    """Levels 1..k of a D without a generator, as _kernel returns them,
    a position's estimate the kernel's bound. ds/s is scale-free, so
    each path's levels at t are those at u = t / T on its truncation
    P -> R(T), T its largest position, and with w = 1 + lambda u, v = log w,
    du / u = dv / (1 - e^-v): level 0 there, f(u) = D(P | R(T u)), is the
    level kernel's generator phi(w) = f((w - 1) / lambda), sampled by
    distributions._along, and level j at t is Phi_j(log1p(lambda t / T)).
    lambda = expm1(_PATH_END), so the kernel's pieces end on the path's
    end. Each path builds its own kernel, with its own halving budget, and
    a path with R(T) = P bitwise, or a position at 0, adds +0.0 at no cost.
    """
    out, top = np.zeros((1 + bounded, k) + t.shape), t.max(axis=-1)
    r, scale, evals = _mix(p, q, top), np.expm1(_PATH_END), 0
    for i in np.flatnonzero(np.any(p != r, axis=-1)):
        def phi(w):
            # The kernel samples v below _PATH_END, but w's rounding could
            # carry u an ulp past the path's end.
            u = np.minimum((w - 1.0) / scale, 1.0)
            f = _along(lambda p, q, r: D.evaluator(p, r), p, r, u.reshape(1, -1), [i], p.shape[-1])
            return f.reshape(w.shape)

        levels, count = _level_pieces(phi, 0.0, _PATH_END, tol, k)
        live = t[i] > 0.0
        found = levels(np.log1p(scale * (t[i][live] / top[i])), bounded)
        out[:, :, i, live] = found[: 1 + bounded]
        evals += count
    return out[0], (out[1] if bounded else None), evals


def psi_inverse(D: DivergenceFunctional, path: MixturePath, t):
    """Differential operator: t * d/dt D(start | R(t)) at a position t or
    along a 1-d grid (a float or an array of the grid's length), or on a
    stack of m paths at t of shape (m,) or (m, k) (an array of t's shape,
    row i equal to the call on path i): path_derivative's slope times t.

    Exactly 0.0 at t = 0 and on a constant path, never -0.0: there t or the
    path direction is 0, and adding +0.0 turns a signed zero into 0.0
    without changing any other value.
    """
    _require_right_convex(D)
    p, q, s, shape = _lift_path(path, t)
    return _caller_form(s * _slope(D, p, q, s) + 0.0, shape)


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
    path. Above it a D without a generator takes one level kernel per path
    on its truncation at its largest position (_path_kernel). With a
    generator one integrator serves the whole call, the one predicted to
    cost less before any sampling (_KERNEL_CELL_COST); a column predicted
    at the node cap takes the fit.

    The kernel gives level j as Sum p^alpha Phi_j(log w), w = R(t)/P,
    alpha D's degree (_psi_kernel), at each position alone. The fit uses that
    ds/s is scale-free: the levels at t on P -> Q are those at u = t / T on
    P -> R(T), T the path's largest grid position (R(1) = Q bitwise), so
    level 0 is fitted only where the grid reaches: one Chebyshev
    interpolant of it on P -> R(T) of every path is integrated over u
    exactly, level after level, in its coefficients, and all levels are
    evaluated on the grid in one call. D sums per-coordinate terms, so
    level 0 is fitted by groups of them (_column_groups on P and R(T)) in
    one doubling loop, each group sampled until its residual at fresh
    nodes meets its share of tol on every path (fit_adaptive with the list
    of live groups). One sampler (_grouped_level_zero) takes the live
    groups in one blocked pass per doubling, its columns of P and R(T)
    laid out group after group, and reads each group's row sums off its
    own slice, so every group's values are its columns' alone, bitwise;
    the groups' interpolants are added in Chebyshev coefficients and
    lifted from the sum. A column with R(T) = P on every path adds
    phi(1) = 0 and joins no group and no cost.
    The fit's nodes are the exact Chebyshev points, 1 - u taken from the
    mirrored node. Rows are nonincreasing in the level at every grid point;
    a constant path gives zeros, and so does a constant truncation
    (R(T) = P) above level 0.

    On either kernel route each piece of v = log w meets
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
    tol = require_scalar(tol, "tol", 0.0, np.inf, "()")
    k = require_index(k, "iteration depth")
    p, q, t, shape = _lift_path(path, t_grid)
    if shape == ():
        raise DomainError("t_grid must be a nonempty 1-d array, not a scalar")
    levels = np.zeros((k + 1,) + t.shape)
    levels[0] = _along(lambda p, q, r: D.evaluator(p, r), p, q, t, np.arange(len(p)), p.shape[-1])
    constant = np.all(p == q, axis=-1)
    # ds/s is scale-free: above level 0, P -> Q at t is P -> R(T) at t / T.
    top = np.maximum(t.max(axis=-1, keepdims=True), 5e-324)
    r = _mix(p, q, top[:, 0])
    # phi(1) = 0: a column with R(T) = P on every row adds +0.0, so the
    # costs and the fit leave it out; where no column moves, every level
    # above 0 is 0.
    moved = np.any(p != r, axis=0)
    if k > 0 and moved.any():
        on_kernel = D.generator is None
        if not on_kernel:
            p_fit, r_fit = (p, r) if moved.all() else (p[:, moved], r[:, moved])
            columns, cells, nodes = _column_groups(p_fit, r_fit)
            kernel_cells = _KERNEL_CELL_COST * k * t.size * p_fit.shape[-1] * (_KERNEL_NODES + 1)
            fit_cells = len(p) * cells + (k + 1) * t.size * nodes
            on_kernel = nodes < _MAX_INTERVALS and kernel_cells < fit_cells
        if on_kernel:
            levels[1:] = _kernel(D, p, q, t, k, tol)[0]
        else:
            sample, rows = _grouped_level_zero(D, p_fit, r_fit, columns), np.arange(len(p))
            live = list(range(len(columns)))

            def level_zero(s):  # the live groups' level 0, every path at the nodes s and 1 - s
                at = np.broadcast_to(s, (len(p), s.size))
                return sample(at, rows, at[:, ::-1], live)

            fit, _, _ = ChebyshevInterpolant.fit_adaptive(level_zero, tol, live)
            levels[1:] = fit.lifts(k)(t / top)
            levels[1:, np.all(p == r, axis=-1)] = 0.0
    levels[:, constant] = 0.0
    return levels.reshape((k + 1,) + shape)
