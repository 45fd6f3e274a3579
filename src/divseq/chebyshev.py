"""Chebyshev-Lobatto interpolation on [0, 1] with adaptive degree doubling.

An interpolant is its values at the Lobatto nodes: n + 1 values fix the
nodes lobatto_nodes(n) and the barycentric weights. Values of shape
(m, n + 1) are a stack of m interpolants on the same nodes; every
operation works along the last axis, so row i of a stack behaves exactly
as the interpolant of its own values. fit_adaptive doubles the node count
from _INITIAL_INTERVALS up to _MAX_INTERVALS, until every row meets the
target, and lifted() integrates each row over s exactly in its Chebyshev
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NonFiniteError, ToleranceError, require_positive


# Cells per block of an evaluation over many points: rows x points x nodes
# here, positions x support for a divergence along paths (operators). At
# 2^14 cells (128 KiB per temporary) the blocks stay in cache: evaluating
# 8192 points against 8193 nodes took half the time it took at 2^20 cells.
_BLOCK_CELLS = 1 << 14
# fit_adaptive starts at this many intervals and doubles up to the cap.
_INITIAL_INTERVALS = 16
_MAX_INTERVALS = 2**14


def lobatto_nodes(n: int) -> np.ndarray:
    """The n+1 Chebyshev extreme points mapped to [0, 1], ascending.

    Computed as sin^2(j*pi/(2n)) so that the node set for 2n contains the
    node set for n bitwise, which lets the adaptive fit reuse every previous
    function evaluation.
    """
    if n < 1:
        raise DomainError(f"node count parameter must be >= 1, got {n}")
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


@dataclass(frozen=True)
class ChebyshevInterpolant:
    """Barycentric interpolant through n + 1 values at lobatto_nodes(n), or
    a stack of m of them through (m, n + 1) values; the nodes and weights
    are derived from the values."""

    values: np.ndarray
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] < 2 or values.size == 0:
            raise DomainError(
                "values must be a 1-d array of at least 2 entries, or an "
                "(m, n + 1) stack of them"
            )
        n = values.shape[-1] - 1
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "nodes", lobatto_nodes(n))
        object.__setattr__(self, "weights", _bary_weights(n))

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """The interpolant at x: a float for a scalar x, else x's shape.

        A stack of m interpolants evaluates every row at a scalar or an
        array x, giving (m,) + x.shape, or row i at x[i] for x of shape
        (m, k), giving (m, k).
        """
        x_arr = np.asarray(x, dtype=float)
        stack = self.values.shape[:-1]
        if stack and x_arr.ndim == 2:
            if x_arr.shape[0] != stack[0]:
                raise DomainError(
                    f"a stack of {stack[0]} interpolants takes points of shape "
                    f"({stack[0]}, k), got {x_arr.shape}"
                )
            pts, shape = x_arr, x_arr.shape
        else:
            pts = np.broadcast_to(x_arr.reshape(-1), stack + (x_arr.size,))
            shape = stack + x_arr.shape
        out = np.empty(pts.shape)
        # Blocks of at most _BLOCK_CELLS cells bound the temporaries; each
        # row reduces on its own, so blocking changes no value.
        step = max(1, _BLOCK_CELLS // self.values.size)
        for lo in range(0, pts.shape[-1], step):
            out[..., lo : lo + step] = self._evaluate(pts[..., lo : lo + step])
        if shape == ():
            return float(out[0])
        return out.reshape(shape)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        # x is (k,) for one interpolant and (m, k) for a stack of m.
        diff = x[..., None] - self.nodes
        with np.errstate(all="ignore"):
            inv = self.weights / diff
            # Row-wise reductions rather than a matvec so that scalar and
            # batched calls reduce in the same order and agree bitwise.
            out = (inv * self.values[..., None, :]).sum(axis=-1) / inv.sum(axis=-1)
        # A point on a node divides by zero, and a point within about 1e-308
        # of one overflows: both leave a non-finite value, and there the
        # nearest node's value is the interpolant's value.
        bad = np.nonzero(~np.isfinite(out) & np.isfinite(x))
        if bad[0].size:
            nearest = np.abs(x[bad][:, None] - self.nodes).argmin(axis=-1)
            out[bad] = self.values[bad[:-1] + (nearest,)]
        return out

    def lifted(self) -> "ChebyshevInterpolant":
        """The interpolant of s -> Integral_0^s self(u) / u du on the same nodes.

        The integral is exact for the interpolating polynomial less its
        value at s = 0, which a divergence along a path from P has as
        D(P, P) = 0. In x = 2s - 1 the integrand is self / (1 + x),
        integrated from x = -1.
        """
        a = _coefficients(self.values)
        n = a.shape[-1] - 1
        # alt[i] = (-1)^i, which is (-1)^(k-1) for coefficient k = i + 1.
        alt = np.ones(n)
        alt[1::2] = -1.0
        # Divide by 1 + x: the quotient's coefficients follow
        # b_{k-1} = 2(a_k - b_k) - b_{k+1} down from b_n = b_{n+1} = 0, with
        # b_0 left doubled, the form the integration below takes. The
        # remainder, self at s = 0, is dropped. With d_k = (-1)^k b_k the
        # recurrence reads d_{k-1} - d_k = d_k - d_{k+1} + 2(-1)^(k-1) a_k,
        # so d is two sums over the tail.
        b = np.zeros(a.shape[:-1] + (n + 2,))
        b[..., :n] = alt * _tail_sums(_tail_sums(2.0 * alt * a[..., 1:]))
        # Integrate: c_k = (b_{k-1} - b_{k+1}) / (2k), and c_0 makes the
        # value at x = -1 zero.
        c = np.empty(a.shape)
        c[..., 1:] = (b[..., :n] - b[..., 2:]) / (2.0 * np.arange(1, n + 1))
        c[..., 0] = np.sum(alt * c[..., 1:], axis=-1)
        values = _values(c)
        values[..., 0] = 0.0
        return ChebyshevInterpolant(values)

    @classmethod
    def fit_adaptive(
        cls, f: Callable[[np.ndarray], np.ndarray], target: float
    ) -> tuple["ChebyshevInterpolant", float, int]:
        """Fit f on [0, 1], doubling the node count from _INITIAL_INTERVALS
        until the residual at the newly introduced nodes drops to ``target``.

        f maps N nodes to N values, or to (m, N) values for a stack of m
        functions; a stack is fitted on shared nodes, doubled until every
        row meets the target. Returns (interpolant, achieved_residual,
        function_evaluations), the residual being the worst over the rows
        and the evaluations counting nodes. The returned interpolant is the
        fine one, so its own nodes carry exact function values. Raises
        NonFiniteError if f returns NaN or infinity, and ToleranceError if
        the residual still exceeds the target at _MAX_INTERVALS intervals.
        """
        require_positive(target, "residual target")
        n = _INITIAL_INTERVALS
        coarse = cls(np.asarray(f(lobatto_nodes(n)), dtype=float))
        neval = n + 1
        while True:
            new_nodes = lobatto_nodes(2 * n)[1::2]
            new_vals = np.asarray(f(new_nodes), dtype=float)
            neval += n
            residual = float(np.max(np.abs(coarse(new_nodes) - new_vals)))
            merged = np.empty(coarse.values.shape[:-1] + (2 * n + 1,))
            merged[..., ::2] = coarse.values
            merged[..., 1::2] = new_vals
            n *= 2
            if not np.all(np.isfinite(merged)):
                raise NonFiniteError("function returned a non-finite value")
            fine = cls(merged)
            if residual <= target:
                return fine, residual, neval
            if n >= _MAX_INTERVALS:
                raise ToleranceError(
                    f"interpolation residual {residual:.3e} still above "
                    f"{target:.3e} at {n} intervals"
                )
            coarse = fine
