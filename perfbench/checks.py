"""Check every operation a worker ran against the independent references.

An operation fails if it raised out of the library, exited the CLI with a
non-zero code, or returned a value that misses its reference. Each failure
is tagged with the class of its input and its reason, so a known defect
(see KNOWN_DEFECTS and README.md) is told apart from any new failure, even
one on the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import inputs
import reference

# Tolerances the library states: 1e-12 relative for polylog and pl, and the
# verify harness's 1e-6 chain tolerance for psi_iter levels.
PL_REL_TOL = 1e-12
LEVEL_ABS_TOL = 1e-6
# Largest gap allowed between the float64 references and mpmath.
REFERENCE_REL_TOL = 1e-13
# The failures the library is known to have, as "class:reason". Any other
# failure, a new reason on a tiny-mass input included, makes a run incorrect.
KNOWN_DEFECTS = frozenset({
    # psi_iter raises ToleranceError at the Chebyshev node cap (CLI exit 3).
    "tiny_mass:exit3",
    # The same fits run into the address-space cap; cli.main does not map it.
    "tiny_mass:uncaught_MemoryError",
    # pl(1) loses digits as q_i/p_i -> 0, that is at t = 1; sl(k) subtracts
    # pl(1), and sl(2) is the order that misses with it.
    "tiny_mass:miss_pl1_at_t1",
    "tiny_mass:miss_sl2_at_t1",
})
_SPOT_CHECK_OPS = 4
_SPOT_CHECK_COORDS = 3


@dataclass
class Outcome:
    attempted: int = 0
    ok: int = 0
    latencies: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # "class:reason" -> count
    unexpected: int = 0  # failures that are not KNOWN_DEFECTS
    spot_samples: list = field(default_factory=list)  # (order, w) for mpmath

    def record(self, latency: float, kind: str, reason: str | None) -> None:
        self.attempted += 1
        self.latencies.append(latency)
        if reason is None:
            self.ok += 1
            return
        key = f"{kind}:{reason}"
        self.failures[key] = self.failures.get(key, 0) + 1
        if key not in KNOWN_DEFECTS:
            self.unexpected += 1


def check_verify(records) -> Outcome:
    out = Outcome()
    for rec in records:
        out.record(rec["s"], "regular", None if rec["passed"] else "check_failed")
    return out


def _parse_table(text: str, grid: np.ndarray) -> np.ndarray | str:
    """Levels as an array (depth+1, len(grid)), or the reason it is malformed."""
    lines = text.splitlines()
    depth = inputs.SWEEP_DEPTH
    if not lines or lines[0] != "t,k,value" or len(lines) != 1 + grid.size * (depth + 1):
        return "malformed_table"
    levels = np.empty((depth + 1, grid.size))
    for row, line in enumerate(lines[1:]):
        j, k = divmod(row, depth + 1)
        t_text, k_text, value_text = line.split(",")
        if t_text != "%.15g" % grid[j] or int(k_text) != k:
            return "malformed_table"
        levels[k, j] = float(value_text)
    if not np.all(np.isfinite(levels)):
        return "non_finite"
    return levels


def _sweep_reason(rec, op, seed: int, out: Outcome) -> str | None:
    if rec["error"] is not None:
        return f"uncaught_{rec['error']}"
    if rec["rc"] != 0:
        return f"exit{rec['rc']}"
    grid = inputs.parse_grid(op.grid)
    levels = _parse_table(rec["out"], grid)
    if isinstance(levels, str):
        return levels
    rng = np.random.default_rng([seed, 99, rec["i"]])
    picks = (int(rng.integers(1, grid.size - 1)), grid.size - 1)
    p = op.p
    for j in picks:
        r = reference.mixture_row(p, op.q, float(grid[j]))
        expected = reference.sweep_levels(op.div, inputs.SWEEP_DEPTH, p, r)
        for k, value in enumerate(expected):
            if value is not None and not abs(levels[k, j] - value) <= LEVEL_ABS_TOL:
                return f"miss_level{k}"
        if len(out.spot_samples) < _SPOT_CHECK_OPS * _SPOT_CHECK_COORDS * 3 and j == picks[0]:
            for c in rng.choice(p.size, min(_SPOT_CHECK_COORDS, p.size), replace=False):
                out.spot_samples += [(s, r[c] / p[c]) for s in (2, 3, 4)]
    if np.any(levels < -LEVEL_ABS_TOL):
        return "negative_level"
    if np.any(np.diff(levels, axis=0) > LEVEL_ABS_TOL):
        return "increasing_in_level"
    return None


def check_sweep(records, seed: int, make_input) -> Outcome:
    out = Outcome()
    for rec in records:
        op = make_input(seed, rec["i"])
        out.record(rec["s"], op.kind, _sweep_reason(rec, op, seed, out))
    return out


def check_closed_forms(records, seed: int) -> Outcome:
    out = Outcome()
    pool = {}
    for rec in records:
        op = inputs.closed_forms_input(seed, rec["i"])
        if op.pair not in pool:
            pool[op.pair] = inputs.closed_forms_pair(seed, op.pair)
        p, q, kind = pool[op.pair]
        if rec["error"] is not None:
            out.record(rec["s"], kind, f"raised_{rec['error']}")
            continue
        r = reference.mixture_row(p, q, op.t)
        value = float(rec["value"])
        if op.family == "pl":
            expected = reference.pl(op.k, p, r)
            scale = abs(expected)
        else:
            expected = reference.sl(op.k, p, r)
            scale = reference.sl_scale(op.k, p, r)
        ok = math.isfinite(value) and abs(value - expected) <= PL_REL_TOL * scale
        edge = "_at_t1" if op.t == 1.0 else ""
        out.record(rec["s"], kind, None if ok else f"miss_{op.family}{op.k}{edge}")
        if len(out.spot_samples) < _SPOT_CHECK_OPS * _SPOT_CHECK_COORDS and op.k >= 2:
            c = int(np.argmin(r / p))  # the coordinate nearest the z -> 1 edge
            out.spot_samples.append((op.k, r[c] / p[c]))
    return out


def spot_check_references(out: Outcome) -> float:
    """Largest relative gap of the float64 references from mpmath on this
    run's own coordinates; 0 when the run used no polylog reference."""
    if not out.spot_samples:
        return 0.0
    return reference.mpmath_spot_check(out.spot_samples)
