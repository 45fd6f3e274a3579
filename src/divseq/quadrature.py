"""Adaptive Gauss-Kronrod quadrature with batched integrand evaluation.

Edges come in rows, one running integral per row, and the work list holds
segments, each owned by one row. The integrand is called as
f(x, rows, rest), with rest = 1 - x kept to its relative precision near
x = 1, and evaluates each panel for its own row only, so a row's panels,
splits and budget are its own. Its one caller in the package is psi's
route for a divergence without a generator. A segment starts as one
panel. Each refinement round gathers the worst panel of every unconverged
segment and evaluates all of their children in one call per block of
_BLOCK_CELLS abscissae, which keeps the number of Python-level round trips
small even when the integrand itself is expensive (for example a
divergence evaluated along a mixture path), and its temporaries bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chebyshev import _BLOCK_CELLS
from .errors import DomainError, NonFiniteError, ToleranceError, require_positive

_EPS = np.finfo(float).eps
# Panel splits each row of edges may make before the call fails.
_MAX_SUBDIVISIONS = 2000

# 15-point Kronrod extension of 7-point Gauss, abscissae in (0, 1), to the
# 33 digits of QUADPACK's dqk15.
_XK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
    ]
)
_WK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
    ]
)
_WG_CENTER = 0.417959183673469387755102040816327

_XK = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF, [_WK_CENTER], _WK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:7:2] = _WG_HALF
_WG[7] = _WG_CENTER
_WG[9:15:2] = _WG_HALF[::-1]
# Each abscissa's offset from its panel's right end, in half-widths.
_XK_TO_B = 1.0 - _XK


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        require_positive(self.rel_tol, "rel_tol")
        require_positive(self.abs_tol, "abs_tol")


def _weighted_rows(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # vals @ weights, row by row in one fixed order. A BLAS matrix-vector
    # product picks its summation order from the row count, so a row's sum
    # would change in the last bit with the rows that share the call.
    return np.einsum("ij,j->i", vals, weights)


def _apply_panels(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate the K15 rule on each [a_i, b_i], one integrand call per
    block of at most _BLOCK_CELLS abscissae, which bounds the temporaries;
    each panel reduces alone, so blocking changes no value.

    f(x (panels, 15), rows, rest) gives one value per abscissa; rest is
    1 - x formed from each abscissa's offset from its panel's right end,
    so it keeps its relative precision where x rounds near 1. Returns the
    Kronrod estimate and the error estimate of each panel and the abscissa
    count.
    """
    step = max(1, _BLOCK_CELLS // len(_XK))
    blocks = [
        _kronrod(f, a[i : i + step], b[i : i + step], rows[i : i + step])
        for i in range(0, len(a), step)
    ]
    if not blocks:
        return np.zeros(0), np.zeros(0), 0
    kron, err = (np.concatenate(parts) for parts in zip(*blocks))
    return kron, err, len(a) * len(_XK)


def _kronrod(f, a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The K15 estimates and error estimates of the panels [a_i, b_i]
    from one integrand call; beyond f's output, one more array of its
    size is held."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * _XK[None, :]
    rest = (1.0 - b)[:, None] + half[:, None] * _XK_TO_B
    vals = np.asarray(f(pts, rows, rest), dtype=float)
    if vals.shape != pts.shape:
        raise DomainError(f"integrand gave shape {vals.shape}, not {pts.shape}")
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
    return kron, err


def _integrate_segments(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    edges: np.ndarray,
    config: QuadratureConfig,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate f over each [edges[i, j], edges[i, j+1]] to tolerance.

    f is called as _apply_panels calls it. A segment starts as one panel
    and is refined while its error estimate, summed over its panels,
    exceeds max(abs_tol, rel_tol * |I|), by splitting its panel of largest
    error.
    Each row of edges has its own budget of _MAX_SUBDIVISIONS splits; an
    empty segment is 0.0, not evaluated. Returns values and error estimates
    shaped edges[:, 1:].shape and the evaluation count.
    """
    live = edges[:, 1:] > edges[:, :-1]
    owner = np.nonzero(live)[0]
    n_seg, used = owner.size, np.zeros(len(edges), dtype=int)  # splits per row
    pa, pb, pseg = edges[:, :-1][live], edges[:, 1:][live], np.arange(n_seg)
    pi, pe, neval = _apply_panels(f, pa, pb, owner[pseg])
    while True:
        # Panels are added in panel order for each segment.
        seg_val = np.bincount(pseg, weights=pi, minlength=n_seg)
        seg_err = np.bincount(pseg, weights=pe, minlength=n_seg)
        target = np.maximum(config.abs_tol, config.rel_tol * np.abs(seg_val))
        bad = np.flatnonzero(seg_err > target)
        if bad.size == 0:
            if n_seg == live.size:
                return seg_val.reshape(live.shape), seg_err.reshape(live.shape), neval
            out = np.zeros((2,) + live.shape)
            out[0][live], out[1][live] = seg_val, seg_err
            return out[0], out[1], neval
        # One split per unconverged segment per round: its worst panel, the
        # first of the panels tied for it.
        order = np.lexsort((-pe, pseg))
        split_idx = order[np.searchsorted(pseg[order], bad)]
        bad_rows = owner[bad]
        room = _MAX_SUBDIVISIONS - used[bad_rows]
        if (room <= 0).any():
            raise ToleranceError(
                f"quadrature failed to converge within {_MAX_SUBDIVISIONS} "
                f"subdivisions (worst segment error {seg_err.max():.3e})"
            )
        # Each row splits its first unconverged segments, up to its room.
        rank = np.arange(bad.size) - np.searchsorted(bad_rows, bad_rows)
        split_idx = split_idx[rank < room]
        used += np.bincount(owner[pseg[split_idx]], minlength=len(used))
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
        ci, ce, ne = _apply_panels(f, child_a, child_b, owner[child_seg])
        neval += ne
        keep = np.ones(len(pa), dtype=bool)
        keep[split_idx] = False
        pa = np.concatenate([pa[keep], child_a])
        pb = np.concatenate([pb[keep], child_b])
        pseg = np.concatenate([pseg[keep], child_seg])
        pi = np.concatenate([pi[keep], ci])
        pe = np.concatenate([pe[keep], ce])


def cumulative_integral(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    edges: Sequence[Sequence[float]] | np.ndarray,
    config: QuadratureConfig,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrals from edges[:, 0] to every edge, one running integral per row.

    Edges have shape (rows, k), k >= 2, nondecreasing along each row.
    f(x, rows, rest) gets abscissae x (panels, 15), each panel's row and
    rest, 1 - x to its own relative precision, which 1.0 - x loses where
    x rounds near 1, and returns x's shape. Each row is refined as it
    would be alone, and an empty segment adds exactly 0.0. Returns an
    array shaped like ``edges`` (first column exactly 0.0), each row's
    summed error estimate and the evaluation count.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 2 or edges.shape[1] < 2:
        raise DomainError("cumulative_integral needs edges of shape (rows, k), k >= 2")
    if not np.all(np.isfinite(edges)):
        raise DomainError("integration edges must be finite")
    if np.any(np.diff(edges) < 0.0):
        raise DomainError("integration edges must be nondecreasing")
    seg_vals, seg_errs, neval = _integrate_segments(f, edges, config)
    running = np.concatenate([np.zeros((len(edges), 1)), np.cumsum(seg_vals, axis=1)], 1)
    return running, seg_errs.sum(axis=1), neval
