"""Test-only reference: adaptive quadrature on the level kernel's panel
rule, with batched integrand evaluation.

A panel is the interpolant at _PANEL_NODES first-kind Chebyshev points,
integrated exactly, with the level kernel's tail bound as its error
(chebyshev._kernel_matrices). Edges come in rows, one running integral per
row, and the work list holds segments, each owned by one row. The
integrand is called as f(x, rows, rest), with rest = 1 - x kept to its
relative precision near x = 1, and evaluates each panel for its own row
only, so a row's panels, splits and budget are its own. The library makes
no quadrature call: this is the reference that polylog_oracles and
operator_oracles integrate with, independent of the level kernel's fixed
pieces in v = log w. A segment starts as one panel. Each refinement round
gathers the worst panel of every unconverged segment and evaluates all of
their children in one call per block of _BLOCK_CELLS abscissae, which
keeps the Python-level round trips few even when the integrand is
expensive (a divergence along a mixture path), and its temporaries
bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from divseq.chebyshev import _kernel_matrices
from divseq.distributions import _BLOCK_CELLS
from divseq.errors import DomainError, NonFiniteError, ToleranceError, require_scalar

_EPS = np.finfo(float).eps
# Panel splits each row of edges may make before the call fails.
_MAX_SUBDIVISIONS = 2000

# Points per panel. On the tests' 456 tiny-mass and 7-point calls of psi
# without a generator (kl, chi2, swapped x log x), 12 points take 11% more
# evaluations than the 15-point Gauss-Kronrod rule they replaced, x log x
# erring by 6.3e-13 against sl(2); 10 take 35% more, and at 14 it errs 1.8e-12.
_PANEL_NODES = 12


@dataclass(frozen=True)
class QuadratureConfig:
    """The reference's targets: each segment's error estimate meets
    max(abs_tol, rel_tol |I|), I its integral."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        require_scalar(self.rel_tol, "rel_tol", 0.0, np.inf, "()")
        require_scalar(self.abs_tol, "abs_tol", 0.0, np.inf, "()")


def _apply_panels(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate the panel rule on each [a_i, b_i], one integrand call per
    block of at most _BLOCK_CELLS abscissae, which bounds the temporaries;
    each panel reduces alone, so blocking changes no value.

    f(x (panels, _PANEL_NODES), rows, rest) gives one value per abscissa;
    rest is 1 - x formed from each abscissa's offset from its panel's right
    end, so it keeps its relative precision where x rounds near 1. Returns
    the estimate and the error estimate of each panel and the abscissa
    count.
    """
    step = max(1, _BLOCK_CELLS // _PANEL_NODES)
    blocks = [
        _panels(f, a[i : i + step], b[i : i + step], rows[i : i + step])
        for i in range(0, len(a), step)
    ]
    if not blocks:
        return np.zeros(0), np.zeros(0), 0
    value, err = (np.concatenate(parts) for parts in zip(*blocks))
    return value, err, len(a) * _PANEL_NODES


def _panels(f, a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The level kernel's rule on the panels [a_i, b_i] from one integrand
    call: the interpolant at _PANEL_NODES first-kind points integrated
    exactly, and its tail bound 2h (|c_N-2| + |c_N-1|), h the half-width,
    floored at the roundoff level of the panel so that impossible
    tolerances surface as non-convergence."""
    (x, maps, _), n = _kernel_matrices(_PANEL_NODES), _PANEL_NODES
    half = 0.5 * (b - a)
    pts = (0.5 * (a + b))[:, None] + half[:, None] * x
    rest = (1.0 - b)[:, None] + half[:, None] * (1.0 - x)
    vals = np.asarray(f(pts, rows, rest), dtype=float)
    if vals.shape != pts.shape:
        raise DomainError(f"integrand gave shape {vals.shape}, not {pts.shape}")
    if not np.isfinite(vals).all():
        raise NonFiniteError("integrand returned a non-finite value")
    # The last two coefficients and the integral, rows n + 2 to n + 4. einsum
    # sums each row in one order, where a BLAS product's order would change
    # with the count of rows, and a panel's sums with the call.
    c = half[:, None] * np.einsum("pj,kj->pk", vals, maps[n + 2 :])
    # The integral's weights are positive: this is the integral of |f|.
    resabs = half * np.einsum("pj,j->p", np.abs(vals), maps[n + 4])
    tail = 2.0 * np.abs(c[:, :2]).sum(axis=1)
    return c[:, 2], np.maximum(tail, 50.0 * _EPS * resabs)


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
    f(x, rows, rest) gets abscissae x (panels, _PANEL_NODES), each
    panel's row and rest, 1 - x to its own relative precision, which
    1.0 - x loses where x rounds near 1, and returns x's shape. Each row
    is refined as it would be alone, and an empty segment adds exactly
    0.0. Returns an array shaped like ``edges`` (first column exactly
    0.0), each row's summed error estimate and the evaluation count.
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
