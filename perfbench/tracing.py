"""Span tracing of divseq's public functions, installed from outside.

The tracer rebinds each traced function in every divseq module that holds
it, so a call is caught where its caller looks the name up (for example
``divseq.operators.integrate`` as well as ``divseq.quadrature.integrate``).
Nothing in ``src/`` changes. Each call becomes a span (name, start, end,
parent span, operation id) kept in memory until the run ends; the per-layer
metrics are then aggregated from the spans and from exact counters taken at
the same boundaries. A target the library no longer has is skipped and its
metrics read 0, so the tracer keeps working as layers are removed.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

import numpy as np

# (layer metric prefix, what is counted) in report order; "s" is inclusive
# seconds, "self_s" is duration minus the time covered by child spans.
LAYER_METRICS = (
    ("cli.main", ("calls", "self_s", "exit_nonzero", "uncaught")),
    ("verify.check_integral_contraction", ("s",)),
    ("verify.check_iterated_chain", ("s",)),
    ("verify.check_derivative_dominates", ("s",)),
    ("verify.check_path_invariance", ("s",)),
    ("operators.psi", ("calls", "s", "self_s", "fail")),
    ("operators.psi_profile", ("calls", "s", "self_s", "fail")),
    ("operators.psi_iter", ("calls", "s", "self_s", "fail")),
    ("operators.psi_inverse", ("calls", "s", "self_s", "fail")),
    ("chebyshev.fit_adaptive", ("calls", "s", "evals", "nodes_max", "fail")),
    ("chebyshev.interp_call", ("calls", "points", "s")),
    ("quadrature.integrate", ("calls", "s", "evals", "fail")),
    ("quadrature.cumulative_integral", ("calls", "s", "evals", "fail")),
    ("polylog.polylog", ("calls", "s")),
    ("polylog.series", ("calls", "s")),
    ("polylog.integral", ("calls", "s", "self_s")),
    ("sequences.pl", ("calls", "s", "coords")),
    ("sequences.sl", ("calls", "s")),
    ("divergences.evaluator", ("calls", "rows", "s")),
    ("divergences.path_derivative", ("calls", "s")),
    ("distributions.masses_at", ("calls", "rows", "computed_bytes", "s")),
    ("distributions.new_distribution", ("calls", "s")),
)

UNITS = {
    "calls": "count", "fail": "count", "evals": "count", "nodes_max": "count",
    "points": "count", "coords": "count", "rows": "count", "exit_nonzero": "count",
    "uncaught": "count", "computed_bytes": "B", "s": "s", "self_s": "s",
}

# Library exception types a public entry point may raise by contract.
TYPED_ERRORS = ("DomainError", "SpecError", "ToleranceError")


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None, before=None):
        """Return fn wrapped in a span named ``name``.

        ``before(args)`` returns the positional arguments to call fn with;
        ``after(result, args)`` records counts from a successful call.
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[name + ".fail"] += 1
                if type(exc).__name__ not in TYPED_ERRORS:
                    counts[name + ".uncaught"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics in LAYER_METRICS order, every one present."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[i]
            if not self._has_ancestor_named(i, name):
                inclusive[name] += end - start
        out = {}
        for prefix, whats in LAYER_METRICS:
            for what in whats:
                if what == "s":
                    value = inclusive[prefix]
                elif what == "self_s":
                    value = self_time[prefix]
                else:
                    value = self.counts[f"{prefix}.{what}"]
                    value = int(value) if float(value).is_integer() else value
                out[f"{prefix}.{what}"] = {"value": value, "unit": UNITS[what]}
        return out

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _rebind(original, replacement) -> None:
    """Point every divseq module attribute bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "divseq" or mod_name.startswith("divseq.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _rows(args) -> int:
    rows = 1
    for arg in args[:2]:
        shape = np.shape(getattr(arg, "masses", arg))
        rows = max(rows, int(np.prod(shape[:-1])) if len(shape) > 1 else 1)
    return rows


def install(tracer: Tracer, divseq) -> None:
    """Wrap divseq's public functions in spans. Call once per process."""
    counts = tracer.counts
    modules = {name: sys.modules.get(f"divseq.{name}") for name in (
        "cli", "verify", "operators", "chebyshev", "quadrature", "polylog",
        "sequences", "divergences", "distributions",
    )}

    def plain(module, attr, name, after=None, before=None):
        mod = modules[module]
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is None:
            return
        _rebind(fn, tracer.wrap(name, fn, after=after, before=before))

    def count_exit(result, _args):
        if result != 0:
            counts["cli.main.exit_nonzero"] += 1

    plain("cli", "main", "cli.main", after=count_exit)
    for check in ("integral_contraction", "iterated_chain", "derivative_dominates",
                  "path_invariance"):
        plain("verify", f"check_{check}", f"verify.check_{check}")
    for op in ("psi", "psi_profile", "psi_iter", "psi_inverse"):
        plain("operators", op, f"operators.{op}")

    def evals_from(name):
        def after(result, _args):
            counts[name + ".evals"] += result[2]
        return after

    plain("quadrature", "integrate", "quadrature.integrate",
          after=evals_from("quadrature.integrate"))
    plain("quadrature", "cumulative_integral", "quadrature.cumulative_integral",
          after=evals_from("quadrature.cumulative_integral"))
    plain("polylog", "polylog", "polylog.polylog")
    plain("polylog", "polylog_series", "polylog.series")
    plain("polylog", "polylog_integral", "polylog.integral")

    def count_coords(_result, args):
        counts["sequences.pl.coords"] += np.size(getattr(args[1], "masses", args[1]))

    plain("sequences", "pl", "sequences.pl", after=count_coords)
    plain("sequences", "sl", "sequences.sl")
    plain("divergences", "path_derivative", "divergences.path_derivative")
    plain("distributions", "new_distribution", "distributions.new_distribution")
    _install_methods(tracer, modules)
    _install_evaluators(tracer, modules)


def _install_methods(tracer: Tracer, modules) -> None:
    counts = tracer.counts
    dist = modules["distributions"]
    if dist is not None and hasattr(dist, "MixturePath"):
        cls = dist.MixturePath

        def count_rows(result, _args):
            counts["distributions.masses_at.rows"] += result.shape[0]
            counts["distributions.masses_at.computed_bytes"] += result.nbytes

        cls.masses_at = tracer.wrap("distributions.masses_at", cls.masses_at,
                                    after=count_rows)

    cheb = modules["chebyshev"]
    if cheb is None or not hasattr(cheb, "ChebyshevInterpolant"):
        return
    cls = cheb.ChebyshevInterpolant

    def count_points(_result, args):
        self, x = args[0], args[1]
        counts["chebyshev.interp_call.points"] += np.size(x) * len(self.nodes)

    cls.__call__ = tracer.wrap("chebyshev.interp_call", cls.__call__, after=count_points)

    fit = cls.fit_adaptive.__func__
    per_call = {"evals": 0}

    def counted_f(args):
        klass, f, *rest = args
        per_call["evals"] = 0

        def f_counted(x):
            per_call["evals"] += np.size(x)
            counts["chebyshev.fit_adaptive.evals"] += np.size(x)
            counts["chebyshev.fit_adaptive.nodes_max"] = max(
                counts["chebyshev.fit_adaptive.nodes_max"], per_call["evals"])
            return f(x)

        return (klass, f_counted, *rest)

    cls.fit_adaptive = classmethod(
        tracer.wrap("chebyshev.fit_adaptive", fit, before=counted_f))


def _install_evaluators(tracer: Tracer, modules) -> None:
    """Give every divergence functional a traced evaluator.

    Named functionals are replaced wherever a module holds them; the two
    factories return functionals with traced evaluators. swap_orientation
    is left alone: its evaluator calls a traced base exactly once.
    """
    counts = tracer.counts
    div = modules["divergences"]
    if div is None or not hasattr(div, "DivergenceFunctional"):
        return

    def count_rows(_result, args):
        counts["divergences.evaluator.rows"] += _rows(args)

    def traced_functional(D):
        return dataclasses.replace(
            D, evaluator=tracer.wrap("divergences.evaluator", D.evaluator, after=count_rows))

    for identifier, D in list(getattr(div, "_NAMED", {}).items()):
        traced = traced_functional(D)
        _rebind(D, traced)
        div._NAMED[identifier] = traced
    for factory in ("make_f_divergence", "make_bregman"):
        fn = getattr(div, factory, None)
        if fn is None:
            continue

        def traced_factory(spec, _fn=fn):
            return traced_functional(_fn(spec))

        _rebind(fn, traced_factory)
