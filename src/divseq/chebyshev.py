"""Chebyshev-Lobatto interpolation on [0, 1] with adaptive degree doubling.

An interpolant is its values at the Lobatto nodes: n + 1 values fix the
nodes lobatto_nodes(n) and the barycentric weights. Values of shape
(..., n + 1) are a stack of interpolants on the same nodes, such as
(m, n + 1) for m paths or (k, m, n + 1) for k levels of them; every
operation works along the last axis, so each interpolant of a stack
behaves exactly as the interpolant of its own values. A call evaluates
the whole stack at once and forms the barycentric weights of its points
only once. fit_adaptive doubles the node count from _INITIAL_INTERVALS up
to _MAX_INTERVALS, until every row meets the target at the fresh nodes,
tested by one inverse DCT per doubling. It can fit a sum of functions by
groups in that one loop, one sampler call per doubling giving every live
group's values: each group leaves the caller's live list once its own
residual meets its share of the target, and the groups' interpolants are
added in Chebyshev coefficients, zero-padded to the largest node count.
lifts(k) integrates over s exactly in Chebyshev coefficients, k times in a
row, and takes every level's values from one inverse DCT. The level kernel
(_level_pieces) gives psi's iterates 1..k in v = log w, of a generator
or of one path's level 0 in w = 1 + lambda u (how operators integrate a
divergence without a generator), on one set of short pieces of v at fixed
places (cells of width _CELL, and +-4^e pieces next to 0), each point
finding its piece by arithmetic (_piece_places). Its panel rule, the
interpolant at first-kind points integrated exactly with a tail bound
from its last two coefficients (_kernel_matrices), is shared only with
the tests' reference quadrature.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

import numpy as np

from .distributions import _blocks
from .errors import DomainError, NonFiniteError, ToleranceError
from .errors import require_floats, require_index, require_scalar, require_type


# fit_adaptive starts at this many intervals and doubles up to the cap.
_INITIAL_INTERVALS = 16
_MAX_INTERVALS = 2**14
# The level kernel samples each piece at this many first-kind points and
# halves pieces at most this many times a call past each piece's first
# halving, which a generator growing like w^2 takes on every cell at a target
# of 1e-12, however far its range reaches. Its finest cut is 2^-30, or
# 2^-12 with levels above 1, which carry a generator's rounding at w = 1
# (swap(kl)'s w log(1/w) rounds 1/w) on about log(1/cut) times each. Past
# 2^_CELL_EXPONENT from 0 its pieces are cells of that width, on which 8
# points meet a relative 1e-12 for the named generators without a halving.
_KERNEL_NODES = 8
_MAX_HALVINGS = 1000
_FINEST_CUT = -30
_ITERATED_CUT = -12
_CELL_EXPONENT = -4
_CELL = 2.0**_CELL_EXPONENT
_EPS = np.finfo(float).eps


def lobatto_nodes(n: int) -> np.ndarray:
    """The n+1 Chebyshev extreme points mapped to [0, 1], ascending.

    Computed as sin^2(j*pi/(2n)) so that the node set for 2n contains the
    node set for n bitwise, which lets the adaptive fit reuse every previous
    function evaluation.
    """
    n = require_index(n, "node count parameter", minimum=1)
    angles = np.arange(n + 1) * (np.pi / (2 * n))
    return np.sin(angles) ** 2


def _bary_weights(n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# On [0, 1] the node sin^2(j*pi/(2n)) is x_j = -cos(j*pi/n) in x = 2s - 1,
# so the values read backwards sit at the Chebyshev extreme points
# cos(m*pi/n), and values and coefficients are a DCT-I apart: one real FFT
# of the even extension. These helpers work along the last axis, row by row.
def _dct1(v: np.ndarray) -> np.ndarray:
    return np.fft.rfft(np.concatenate([v, v[..., -2:0:-1]], axis=-1)).real


def _tail_sums(v: np.ndarray) -> np.ndarray:
    return np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]


def _coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients in x = 2s - 1 of the values at lobatto_nodes."""
    n = values.shape[-1] - 1
    a = _dct1(values[..., ::-1]) / n
    a[..., 0] *= 0.5
    a[..., n] *= 0.5
    return a


def _values(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of _coefficients: the series' values at lobatto_nodes."""
    c = coefficients.copy()
    c[..., 0] *= 2.0
    c[..., -1] *= 2.0
    return 0.5 * _dct1(c)[..., ::-1]


def _padded(a: np.ndarray, n: int) -> np.ndarray:
    """Coefficients a of degree at most n, zero-padded to degree n."""
    padded = np.zeros(a.shape[:-1] + (n + 1,))
    padded[..., : a.shape[-1]] = a
    return padded


def _fresh_values(values: np.ndarray) -> np.ndarray:
    """The interpolant of values at lobatto_nodes(n) at lobatto_nodes(2n)[1::2]:
    its coefficients zero-padded to degree 2n and one inverse DCT, as
    _values takes it, with only the fresh nodes scaled (the padding's last
    coefficient is 0, which _values' doubling leaves as it is)."""
    n = values.shape[-1] - 1
    c = np.zeros(values.shape[:-1] + (2 * n + 1,))
    c[..., : n + 1] = _coefficients(values)
    c[..., 0] *= 2.0
    return 0.5 * _dct1(c)[..., -2::-2]


@dataclass(frozen=True)
class ChebyshevInterpolant:
    """Barycentric interpolant through n + 1 values at lobatto_nodes(n), or
    a stack of them through (..., n + 1) values; the nodes and weights are
    derived from the values."""

    values: np.ndarray
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = require_floats(self.values, "interpolant values", -np.inf, np.inf, "()")
        if values.ndim < 1 or values.shape[-1] < 2 or values.size == 0:
            raise DomainError(
                "values must be a 1-d array of at least 2 entries, or an "
                "(..., n + 1) stack of them"
            )
        n = values.shape[-1] - 1
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "nodes", lobatto_nodes(n))
        object.__setattr__(self, "weights", _bary_weights(n))

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Chebyshev coefficients in x = 2s - 1, along the last axis."""
        return _coefficients(self.values)

    @classmethod
    def _of_coefficients(cls, a: np.ndarray) -> "ChebyshevInterpolant":
        """The interpolant with Chebyshev coefficients a. It keeps a, so lifts
        takes no round trip through values: one would add rounding of about
        eps * max|values| to every coefficient, where the exact node values
        are small near s = 0, and each lift's division by s amplifies it."""
        interp = cls(_values(a))
        interp.__dict__["coefficients"] = a
        return interp

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """The interpolant at x: a float for a scalar x, else x's shape.

        A stack of interpolants (..., m, n + 1) evaluates every one at a
        scalar or an array x, giving (..., m) + x.shape, or the ones in row
        i at x[i] for x of shape (m, L), giving (..., m, L). Raises
        DomainError for a non-finite point.
        """
        x_arr = require_floats(x, "interpolation points", -np.inf, np.inf, "()")
        stack = self.values.shape[:-1]
        if stack and x_arr.ndim == 2:
            if x_arr.shape[0] != stack[-1]:
                raise DomainError(
                    f"a stack of {stack[-1]} rows of interpolants takes points "
                    f"of shape ({stack[-1]}, L), got {x_arr.shape}"
                )
            pts, shape = x_arr, stack + x_arr.shape[1:]
        else:
            pts, shape = x_arr.reshape(-1), stack + x_arr.shape
        out = np.empty(stack + pts.shape[-1:])
        # Each point, of the whole stack's cells, reduces on its own.
        for _, cols in _blocks((1, pts.shape[-1]), self.values.size):
            for j in cols:
                out[..., j] = self._evaluate(pts[..., j])
        if shape == ():
            return float(out[0])
        return out.reshape(shape)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        # x is (L,), shared by every interpolant, or (m, L), row i for the
        # interpolants in row i; the weights over x serve every level.
        diff = x[..., None] - self.nodes
        with np.errstate(all="ignore"):
            inv = self.weights / diff
            # Row-wise reductions rather than a matvec so that scalar and
            # batched calls reduce in the same order and agree bitwise.
            out = (inv * self.values[..., None, :]).sum(axis=-1) / inv.sum(axis=-1)
        # A point on a node divides by zero, and a point within about 1e-308
        # of one overflows: both leave a non-finite value, and there the
        # nearest node's value is the interpolant's value.
        bad = np.nonzero(~np.isfinite(out))
        if bad[0].size:
            at = np.broadcast_to(x, out.shape)[bad]
            nearest = np.abs(at[:, None] - self.nodes).argmin(axis=-1)
            out[bad] = self.values[bad[:-1] + (nearest,)]
        return out

    def lifts(self, k: int) -> "ChebyshevInterpolant":
        """Levels 1..k on the same nodes, stacked along a new leading axis of
        the values: level j is s -> Integral_0^s L(u) / u du for L the level
        below it, level 0 being self.

        Each integral is exact for the interpolating polynomial less its
        value at s = 0, which a divergence along a path from P has as
        D(P, P) = 0. In x = 2s - 1 the integrand is L / (1 + x), integrated
        from x = -1. self's coefficients are taken once, each level is
        lifted from the coefficients of the level below, and every level's
        values come from one inverse DCT; each value at s = 0 is 0.
        """
        k = require_index(k, "lift count", minimum=1)
        a = self.coefficients
        n = a.shape[-1] - 1
        # alt[i] = (-1)^i, which is (-1)^(k-1) for coefficient k = i + 1.
        alt = np.ones(n)
        alt[1::2] = -1.0
        steps = 2.0 * np.arange(1, n + 1)
        levels = np.empty((k,) + a.shape)
        b = np.zeros(a.shape[:-1] + (n + 2,))
        for c in levels:
            # Divide by 1 + x: the quotient's coefficients follow
            # b_{k-1} = 2(a_k - b_k) - b_{k+1} down from b_n = b_{n+1} = 0,
            # with b_0 left doubled, the form the integration below takes.
            # The remainder, the value at s = 0, is dropped. With
            # d_k = (-1)^k b_k the recurrence reads
            # d_{k-1} - d_k = d_k - d_{k+1} + 2(-1)^(k-1) a_k, so d is two
            # sums over the tail.
            b[..., :n] = alt * _tail_sums(_tail_sums(2.0 * alt * a[..., 1:]))
            # Integrate: c_k = (b_{k-1} - b_{k+1}) / (2k), and c_0 makes the
            # value at x = -1 zero.
            c[..., 1:] = (b[..., :n] - b[..., 2:]) / steps
            c[..., 0] = np.sum(alt * c[..., 1:], axis=-1)
            a = c
        values = _values(levels)
        values[..., 0] = 0.0
        return ChebyshevInterpolant(values)

    @classmethod
    def fit_adaptive(
        cls,
        f: Callable[[np.ndarray], np.ndarray],
        target: float,
        live: list[int] | None = None,
    ) -> tuple["ChebyshevInterpolant", float, int]:
        """Fit f on [0, 1], doubling the node count from _INITIAL_INTERVALS
        until the residual at the newly introduced nodes drops to ``target``.

        f maps N nodes to N values, or to (m, N) values for a stack of m
        functions; a stack is fitted on shared nodes, doubled until every
        row meets the target. f sees only sorted node sets symmetric about
        1/2, lobatto_nodes(n) and the fresh lobatto_nodes(2n)[1::2], so
        s[::-1] is 1 - s to relative precision, where 1.0 - s loses digits
        near s = 1. The coarse polynomial at the fresh nodes is one inverse
        DCT of its coefficients, exact only for values at the exact
        Chebyshev points: an f mixing along s takes 1 - s from s[::-1].

        With ``live``, f fits a sum of groups of terms: ``live`` lists the
        groups, easiest first, f maps the nodes to a (len(live), m, N) stack
        of the listed groups' values, and the fit is of their sum, in one
        doubling loop. A group that stops is removed from ``live`` before f
        is called again, so it is never sampled again, and f reads the list
        at each call. Row by row (one row per path), the residuals of all
        groups sum to at most ``target``: the live groups stop together once
        their summed error at the fresh nodes meets the target less what the
        stopped groups spent, and a group stops alone once its own residual
        meets its share, the groups before the last sharing equally what is
        left of target / 16 and the last the rest. The groups' interpolants
        are added in Chebyshev coefficients, each zero-padded to the largest
        node count.

        Returns (interpolant, achieved_residual, function_evaluations),
        the residual being the worst over the rows (summed over groups) and
        the evaluations counting nodes. With one group the returned
        interpolant is the fine one, so its own nodes carry exact function
        values. Raises DomainError on an f that is not callable or a live
        that is not a nonempty list, NonFiniteError as soon as f returns NaN
        or infinity, and ToleranceError if the residual still exceeds the
        target at _MAX_INTERVALS intervals.
        """
        require_type(f, Callable, "f")
        target = require_scalar(target, "residual target", 0.0, np.inf, "()")
        grouped = live is not None
        live = require_type(live, list, "live") if grouped else [0]
        if not live:
            raise DomainError("live must list at least one group")
        groups = list(live)

        # The live groups share their node count, so their values stack
        # along a leading axis and each doubling takes one DCT for them all.
        def sample(nodes: np.ndarray) -> np.ndarray:
            values = np.asarray(f(nodes), dtype=float)
            if not np.isfinite(values).all():
                raise NonFiniteError("function returned a non-finite value")
            return values if grouped else values[None]

        n = _INITIAL_INTERVALS
        values = sample(lobatto_nodes(n))
        neval = n + 1
        fits = {}
        # Per row: what stopped groups spent, and the easier groups' part of it.
        spent = easy_spent = 0.0
        easy_pool, easy_left = target / 16, len(groups) - 1
        while live:
            fresh = sample(lobatto_nodes(2 * n)[1::2])
            neval += n
            errors = _fresh_values(values) - fresh
            merged = np.empty(values.shape[:-1] + (2 * n + 1,))
            merged[..., ::2] = values
            merged[..., 1::2] = fresh
            n *= 2
            error = errors[0] if len(live) == 1 else errors.sum(axis=0)
            joint = np.max(np.abs(error), axis=-1)
            if (joint <= target - spent).all():
                fits.update(zip(live, merged))
                spent = spent + joint
                live.clear()
                break
            if n >= _MAX_INTERVALS:
                raise ToleranceError(
                    f"interpolation residual {float(np.max(joint)):.3e} still "
                    f"above {float(np.min(target - spent)):.3e} at {n} intervals"
                )
            if len(live) > 1:  # one group's own residual is the joint one
                keep = np.ones(len(live), dtype=bool)
                residuals = np.max(np.abs(errors), axis=-1)
                for i, (g, residual) in enumerate(zip(live, residuals)):
                    easy = g != groups[-1]
                    if easy:
                        share = (easy_pool - easy_spent) / easy_left
                    else:
                        share = target - easy_pool
                    if (residual <= share).all():
                        fits[g], spent, keep[i] = merged[i], spent + residual, False
                        if easy:
                            easy_spent, easy_left = easy_spent + residual, easy_left - 1
                if not keep.all():
                    live[:], merged = [g for g, k in zip(live, keep) if k], merged[keep]
            values = merged
        residual = float(np.max(spent))
        if len(groups) == 1:
            return cls(fits[groups[0]]), residual, neval
        size = max(v.shape[-1] for v in fits.values()) - 1
        summed = reduce(np.add, (_padded(_coefficients(fits[g]), size) for g in groups))
        return cls._of_coefficients(summed), residual, neval


@cache
def _kernel_matrices(n: int = _KERNEL_NODES) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first-kind points x_j = cos(pi (j + 1/2) / N), N = n; a map from
    values there to the interpolant's antiderivative from x = -1 (rows
    0..N), its constant term from x = 1 (row N + 1), the interpolant's last
    two coefficients and its integral over [-1, 1] (Fejer's first rule);
    and T_k(x_j), k <= N."""
    x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    chebyshev = np.cos(np.outer(np.arange(n + 2), np.arccos(x)))
    c = 2.0 / n * chebyshev  # c_0 not halved
    c[n:] = 0.0
    # Integral of Sum' c_k T_k: C_k = (c_{k-1} - c_{k+1}) / (2k), then C_0.
    maps, k = np.zeros((n + 5, n)), np.arange(1, n + 1)[:, None]
    maps[1 : n + 1] = (c[:n] - c[2:]) / (2.0 * k)
    maps[0] = -np.sum((-1.0) ** k * maps[1 : n + 1], axis=0)
    maps[n + 1] = -np.sum(maps[1 : n + 1], axis=0)
    maps[n + 2 : n + 4], maps[n + 4] = c[n - 2 : n], maps[0] - maps[n + 1]
    return x, maps, chebyshev[: n + 1]


def _piece_places(v: np.ndarray, cut: int) -> np.ndarray:
    """The place of the level kernel's piece holding each v, counted from
    0: the i-th piece outward from 0 (i = 0, 1, ...) is at i above 0 and at
    -1 - i below it, as floats. Outward the pieces are (0, 2^cut], then
    (4^e, 4^(e+1)] up to _CELL, then the cells (m _CELL, (m + 1) _CELL],
    m >= 1, and below 0 their mirror images; each holds its outer end. A
    +-4^e piece is found from the binary exponent e' of |v| (1 - 2^-53),
    2^(e'-1) < |v| <= 2^e', a cell from floor(|v| (1 - 2^-53) / _CELL) =
    ceil(|v| / _CELL) - 1, so that a point on an edge takes the piece the
    edge closes.
    """
    shrink = 1.0 - _EPS / 2.0
    cells = np.abs(v) * shrink
    _, exponent = np.frexp(np.maximum(cells, 2.0**cut * shrink))
    cells *= 1.0 / _CELL
    np.floor(cells, out=cells)
    near = (_CELL_EXPONENT - cut) // 2 + 1  # pieces up to _CELL
    outward = np.where(cells > 0.0, cells + (near - 1), (exponent - (cut + 1)) // 2 + 1)
    place = np.copysign(outward + 0.5, v)
    place -= 0.5
    return place


def _level_pieces(phi: Callable, lo: float, hi: float, tol: float, k: int):
    """Levels 1..k of phi on pieces covering [lo, hi]: Phi_j(v) =
    Integral_0^v Phi_{j-1}(u) / (1 - e^-u) du from Phi_0(v) = phi(e^v), for
    any phi with phi(1) = 0: a generator, so that for D = Sum p phi(r/p),
    psi^j[D] is Sum p Phi_j(log w), w = r/p at its end, or one path's level
    0 in w = 1 + lambda u (operators._path_kernel), which lives on w >= 1
    alone; the pieces below 0 are built only where lo < 0. Returns a
    function of points v in that range giving the levels (k, len(v)) and,
    unless told not to, bounds on their errors (tail bounds and the level
    below's bound through the integral, carried out to v, and v's
    rounding), and phi's evaluation count.

    The pieces lie at fixed places (_piece_places): next to 0 the +-4^e
    pieces down to 2^cut, so that the levels keep their relative precision
    there (cut is _FINEST_CUT, or _ITERATED_CUT for k > 1), and past _CELL
    the cells of that width over the range; a point finds its piece by
    arithmetic. On each piece level j's integrand is sampled at the
    first-kind points: phi(w) w / (w - 1) at w = e^u for level 1 (so that
    phi and w / (w - 1) see one w), and above it level j - 1's series plus
    its carried constant, over 1 - e^-u. It is integrated exactly in its
    Chebyshev coefficients from the piece's end nearer 0, and its outer
    end's value carried outward from 0 by a cumulative sum. A piece whose
    tail bound 2h (|c_N-2| + |c_N-1|) at any level, h its half-width,
    exceeds max(tol, tol h max|values|) is halved where it misses,
    each piece once and _MAX_HALVINGS times more in all before
    ToleranceError, so the budget grows with the pieces. A point in a
    halved piece searches the parts' edges. A piece's levels depend on it
    and the pieces inside it alone, never on the range.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):  # w = r/p overflowed or underflowed
        raise NonFiniteError("level kernel points must be finite")
    (x, maps, chebyshev), n, counted = _kernel_matrices(), _KERNEL_NODES, [0]
    cut = _FINEST_CUT if k == 1 else _ITERATED_CUT
    near = np.ldexp(1.0, np.arange(cut, _CELL_EXPONENT + 1, 2))

    def outer_ends(bound: float) -> np.ndarray:
        """The outer ends of one side's pieces, outward, up to bound >= 0."""
        return np.concatenate([near, np.arange(2.0, np.ceil(bound / _CELL) + 1.0) * _CELL])

    # The pieces in the order of their places, those below 0 first, which
    # only a range reaching below 0 has.
    below_ends = outer_ends(-lo) if lo < 0.0 else np.empty(0)
    edges = np.concatenate([-below_ends[::-1], [0.0], outer_ends(max(hi, 0.0))])
    zero, pieces = len(below_ends), len(edges) - 1

    def sample(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x
        w = np.exp(u)
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            g = phi(w) * (w / (w - 1.0))
        counted[0] += g.size
        if not np.isfinite(g).all():
            raise NonFiniteError("generator returned a non-finite value")
        return u, g

    # The parts of the pieces, in the order of their places, and each
    # part's piece; every piece is one part until it is halved.
    a, b, owner = edges[:-1], edges[1:], np.arange(pieces)
    (u, g1), halvings = sample(a, b), 0
    while True:
        half, below = 0.5 * (b - a), b <= 0.0
        inner, shift = np.count_nonzero(below), np.arange(len(b)) + below

        def carried(x: np.ndarray) -> np.ndarray:
            """Sums of x over the parts between 0 and each part."""
            sums = [np.cumsum(x[:inner][::-1])[::-1], [0.0], np.cumsum(x[inner:])]
            return np.concatenate(sums)[shift]

        spread, bound, fits, g = 0.0, 0.0, True, g1
        if k > 1:
            # Level j - 1's error reaches level j times |Integral of du /
            # (1 - e^-u)| over each part; 2 on a part at 0, as it grows like u.
            with np.errstate(divide="ignore"):
                spread = np.abs(np.log(np.abs(np.expm1(b) / np.expm1(a))))
            spread[np.isinf(spread)] = 2.0
        columns, (bounds, scales) = np.empty((n + 1, k, len(b))), np.empty((2, k, len(b)))
        for level in range(k):
            if level:
                g = np.einsum("pk,kj->pj", c[:, : n + 1], chebyshev) / -np.expm1(-u)
            # einsum sums each row in one order, where a BLAS product's order
            # would change with the count of rows, and a value with the call.
            c = half[:, None] * np.einsum("pj,kj->pk", g, maps)
            # The series from the end nearer 0, and the value at the other end.
            c[:, 0], c[:, n + 1] = np.where(below, c[:, n + 1], c[:, 0]), (1 - 2 * below) * c[:, -1]
            own, scale = 2.0 * np.abs(c[:, n + 2 : n + 4]).sum(axis=1), np.abs(g).max(axis=1)
            fits = fits & (own <= np.maximum(tol, tol * half * scale))
            bound = own + spread * bound
            c[:, 0] += carried(c[:, n + 1])
            bound = bound + carried(bound)
            columns[:, level], bounds[level], scales[level] = c[:, : n + 1].T, bound, scale
        if fits.all():
            break
        missed = ~fits
        # A piece's first halving is free: a part that is a whole piece costs nothing.
        halved = np.bincount(owner, minlength=pieces) > 1
        halvings += np.count_nonzero(missed & halved[owner])
        if halvings > _MAX_HALVINGS:
            raise ToleranceError(f"level kernel missed its target after {halvings} halvings")
        # Each missed part becomes its two halves in its place.
        times = 1 + missed
        ends, mid = np.cumsum(times)[missed], 0.5 * (a + b)[missed]
        at = np.repeat(np.arange(len(b)), times)
        a, b, owner, fresh = a[at], b[at], owner[at], missed[at]
        a[ends - 1], b[ends - 2] = mid, mid
        u, g1 = u[at], g1[at]
        u[fresh], g1[fresh] = sample(a[fresh], b[fresh])
    centres, whole = 0.5 * (a + b), len(b) == pieces
    if not whole:
        parts = np.bincount(owner, minlength=pieces)
        first, halved, edges = np.cumsum(parts) - parts, parts > 1, np.append(a, b[-1])

    def levels(v: np.ndarray, bounded: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        # A point rounded just past the range takes the piece at its end.
        j = np.clip(_piece_places(v, cut) + zero, 0, pieces - 1).astype(np.intp)
        if not whole:
            # A point in a halved piece searches its parts' edges for the
            # part holding it, each part holding its outer end.
            searched = halved[j]
            j = first[j]
            at = v[searched]
            found = np.searchsorted(edges, at, "right") - 1
            found -= (at > 0.0) & (edges[found] == at)
            j[searched] = found
        t = (v - centres.take(j, mode="clip")) / half.take(j, mode="clip")
        # Clenshaw's recurrence for all levels at once, one coefficient column
        # (k, parts) gathered at a time; each step's (c + 2t b1) - b2 is taken
        # in place in four buffers, and t is doubled and halved back exactly.
        b1, b2 = np.zeros((2, k, len(v)))
        c, product = np.empty((2, k, len(v)))
        t *= 2.0
        for i in range(n, -1, -1):
            if i == 0:
                t *= 0.5
            columns[i].take(j, axis=1, out=c, mode="clip")
            np.multiply(t, b1, out=product)
            c += product
            c -= b2
            b1, b2, c = c, b1, b2
        if not bounded:
            return b1, None
        # v is rounded by eps |v| in t, and by about 2 eps in the w it came from.
        rounding = scales.take(j, axis=1, mode="clip") * ((np.abs(v) + 2.0) * _EPS)
        return b1, bounds.take(j, axis=1, mode="clip") + rounding

    return levels, counted[0]
