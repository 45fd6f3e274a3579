"""Adaptive Gauss-Kronrod quadrature with batched integrand evaluation.

The work list holds segments, each owned by one row of edges. On 1-d
edges, one row, the integrand gets a 1-d array of n abscissae and returns
n values. On 2-d edges, one running integral per row, it is called as
f(x, rows) and evaluates each panel for its own row only, so a row's
panels, splits and budget are its own. Each refinement round gathers the
worst panel of every unconverged segment and evaluates all of their
children in one call, which keeps the number of Python-level round trips
small even when the integrand itself is expensive (for example a
divergence evaluated along a mixture path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    NonFiniteError,
    ToleranceError,
    require_index,
    require_positive,
)

_EPS = np.finfo(float).eps

# 15-point Kronrod extension of 7-point Gauss, abscissae in (0, 1).
_XK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
    ]
)
_WK_CENTER = 0.209482141084728
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
    ]
)
_WG_CENTER = 0.417959183673469

_XK = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF, [_WK_CENTER], _WK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:7:2] = _WG_HALF
_WG[7] = _WG_CENTER
_WG[9:15:2] = _WG_HALF[::-1]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        require_positive(self.rel_tol, "rel_tol")
        require_positive(self.abs_tol, "abs_tol")
        require_index(self.max_subdivisions, "max_subdivisions", minimum=10)


def _weighted_rows(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # vals @ weights, row by row in one fixed order. A BLAS matrix-vector
    # product picks its summation order from the row count, so a row's sum
    # would change in the last bit with the rows that share the call.
    return np.einsum("ij,j->i", vals, weights)


def _apply_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate the K15 rule on each [a_i, b_i] with one integrand call.

    f(x (panels, 15), rows) gives one value per abscissa. Returns the
    Kronrod estimate and the error estimate of each panel and the abscissa
    count. Beyond f's output, one more array of its size is held.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * _XK[None, :]
    vals = np.asarray(f(pts, rows), dtype=float)
    if vals.shape != (pts.size,):
        raise DomainError(
            f"integrand returned shape {vals.shape} for {pts.size} abscissae"
        )
    vals = vals.reshape(pts.shape)
    if not np.isfinite(vals).all():
        raise NonFiniteError("integrand returned a non-finite value")
    kron = _weighted_rows(vals, _WK) * half
    gauss = _weighted_rows(vals, _WG) * half
    work = np.abs(vals)
    resabs = _weighted_rows(work, _WK) * half
    mean = kron / (b - a)
    np.subtract(vals, mean[:, None], out=work)
    resasc = _weighted_rows(np.abs(work, out=work), _WK) * half
    delta = np.abs(kron - gauss)
    # QUADPACK-style scaled estimate, floored at the roundoff level of the
    # panel so that impossible tolerances surface as non-convergence.
    pos = resasc > 0.0
    scale = np.minimum(1.0, (200.0 * delta / np.where(pos, resasc, 1.0)) ** 1.5)
    err = np.where(pos, resasc * scale, delta)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return kron, err, pts.size


def _integrate_segments(
    f: Callable,
    edges: np.ndarray,
    config: QuadratureConfig,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate f over each [edges[..., j], edges[..., j+1]] to tolerance.

    On 1-d edges f(x) returns x.size values; on 2-d edges f(x, rows)
    returns x's shape. A segment is refined while its error estimate
    exceeds max(abs_tol, rel_tol * |I|), by splitting its panel of largest
    error. Each row of edges has its own subdivision budget; an empty
    segment is 0.0, not evaluated. Returns values and error estimates
    shaped edges[..., 1:].shape and the evaluation count.
    """
    grid = np.atleast_2d(edges)
    live = grid[:, 1:] > grid[:, :-1]
    owner = np.nonzero(live)[0]

    def g(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return f(x.ravel()) if edges.ndim == 1 else np.reshape(f(x, rows), -1)

    n_seg = owner.size
    pa, pb, pseg = grid[:, :-1][live], grid[:, 1:][live], np.arange(n_seg)
    pi, pe, neval = _apply_panels(g, pa, pb, owner)
    while True:
        # Panels are added in panel order for each segment.
        seg_val = np.bincount(pseg, weights=pi, minlength=n_seg)
        seg_err = np.bincount(pseg, weights=pe, minlength=n_seg)
        target = np.maximum(config.abs_tol, config.rel_tol * np.abs(seg_val))
        bad = np.flatnonzero(seg_err > target)
        if bad.size == 0:
            out = np.zeros((2,) + live.shape)
            out[0][live], out[1][live] = seg_val, seg_err
            return *out.reshape((2,) + edges[..., 1:].shape), neval
        # One split per unconverged segment per round: its worst panel, the
        # first of the panels tied for it.
        order = np.lexsort((-pe, pseg))
        split_idx = order[np.searchsorted(pseg[order], bad)]
        if len(pa) - n_seg + bad.size > config.max_subdivisions:
            # The rows' splits together may pass one row's budget, so count
            # each row's own: every split added one panel to its row.
            bad_rows, rows = owner[bad], len(grid)
            used = np.bincount(owner[pseg], minlength=rows)
            used -= np.bincount(owner, minlength=rows)
            room = config.max_subdivisions - used[bad_rows]
            if (room <= 0).any():
                raise ToleranceError(
                    "quadrature failed to converge within "
                    f"{config.max_subdivisions} subdivisions "
                    f"(worst segment error {seg_err.max():.3e})"
                )
            # Each row splits its first unconverged segments, up to its room.
            rank = np.arange(bad.size) - np.searchsorted(bad_rows, bad_rows)
            split_idx = split_idx[rank < room]
        lo, hi = pa[split_idx], pb[split_idx]
        # max(|lo|, |hi|, 1e-300), as lo < hi.
        reach = np.maximum(np.maximum(hi, -lo), 1e-300)
        if (hi - lo <= 4.0 * _EPS * reach).any():
            raise ToleranceError(
                "quadrature interval shrank to roundoff width without "
                "meeting the requested tolerance"
            )
        mids = 0.5 * (lo + hi)
        child_a = np.concatenate([lo, mids])
        child_b = np.concatenate([mids, hi])
        child_seg = np.concatenate([pseg[split_idx], pseg[split_idx]])
        ci, ce, ne = _apply_panels(g, child_a, child_b, owner[child_seg])
        neval += ne
        keep = np.ones(len(pa), dtype=bool)
        keep[split_idx] = False
        pa = np.concatenate([pa[keep], child_a])
        pb = np.concatenate([pb[keep], child_b])
        pseg = np.concatenate([pseg[keep], child_seg])
        pi = np.concatenate([pi[keep], ci])
        pe = np.concatenate([pe[keep], ce])


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    config: QuadratureConfig,
) -> tuple[float, float, int]:
    """Return (value, error_estimate, evaluations) for the integral over [a, b]:
    the last value of ``cumulative_integral(f, [a, b], config)``."""
    values, err, neval = cumulative_integral(f, [a, b], config)
    return float(values[-1]), err, neval


def cumulative_integral(
    f: Callable,
    edges: Sequence[float] | np.ndarray,
    config: QuadratureConfig,
) -> tuple[np.ndarray, float | np.ndarray, int]:
    """Integrals from edges[..., 0] to every edge, row by row.

    On 1-d edges f(x) gets a 1-d array of abscissae and returns one value
    for each. On (rows, k) edges f(x, rows) gets abscissae x (panels, 15)
    and each panel's row and returns x's shape; each row is refined as it
    would be alone. Edges are nondecreasing, and an empty segment adds
    exactly 0.0. Returns an array aligned with ``edges`` (first entries
    exactly 0.0), the summed error estimate (one per row on 2-d edges,
    else a float) and the evaluation count.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim not in (1, 2) or edges.shape[-1] < 2:
        raise DomainError("cumulative_integral needs at least two edges per row")
    if not np.all(np.isfinite(edges)):
        raise DomainError("integration edges must be finite")
    if np.any(np.diff(edges) < 0.0):
        raise DomainError("integration edges must be nondecreasing")
    seg_vals, seg_errs, neval = _integrate_segments(f, edges, config)
    start = np.zeros(seg_vals.shape[:-1] + (1,))
    out = np.concatenate([start, np.cumsum(seg_vals, axis=-1)], axis=-1)
    if seg_vals.ndim == 2:
        return out, seg_errs.sum(axis=-1), neval
    return out, float(seg_errs.sum()), neval
