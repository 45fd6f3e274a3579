"""Command-line front end for divergence evaluation, sweeps, and verification.

Exit codes are a stable contract: 0 for success, 1 when the verification
suite reports a failing check, 2 for argument or domain errors, 3 when a
numerical tolerance could not be met. The parser is built once per
process, at import, and every main call parses with it; sweep formats its
whole table first, a CSV table with one % over a row template repeated
for each grid row, and writes it to stdout in one write.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .distributions import Distribution, MixturePath, _blocks, mixture
from .distributions import new_distribution
from .divergences import NAMED_IDENTIFIERS, named_divergence
from .errors import DomainError, SpecError, ToleranceError
from .errors import require_floats, require_index, require_scalar
from .operators import psi_iter
from .polylog import polylog
from .sequences import _chain, pl, sl
from .verify import run_suite

_VALUE_FORMAT = "%.15g"
# Names, resolved at call time so that a rebound pl or sl is the one called.
_SEQUENCES = ("pl", "sl")


def _load_pair(args) -> tuple[Distribution, Distribution]:
    if (args.pair is None) == (args.file is None):
        raise DomainError("exactly one of --pair and --file is required")
    if args.pair is not None:
        text = args.pair
    else:
        path = Path(args.file)
        if not path.is_file():
            raise DomainError(f"no such file: {args.file}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"pair file is not UTF-8 text: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"pair input is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "p" not in payload or "q" not in payload:
        raise DomainError('pair input must be an object with "p" and "q" arrays')
    start, end = new_distribution(payload["p"]), new_distribution(payload["q"])
    if start.stack_size is not None or end.stack_size is not None:
        raise DomainError('pair input "p" and "q" must be 1-d mass arrays')
    return start, end


def _check_mode(args) -> None:
    """Exactly one of --div and --seq, and no flag that mode would ignore."""
    if (args.div is None) == (args.seq is None):
        raise DomainError("exactly one of --div and --seq is required")
    if args.seq is not None and args.tol is not None:
        raise DomainError("--tol applies to --div only")
    if args.div is not None and getattr(args, "k", None) is not None:
        raise DomainError("--k applies to --seq only")
    # sweep --seq prints pl/sl orders 0..depth; eval --seq takes its one order from --k.
    if args.seq is not None and args.command == "eval" and args.depth is not None:
        raise DomainError("--depth applies to --div only; --k orders a sequence")


def _operator_levels(args, depth: int, path: MixturePath, grid: np.ndarray) -> np.ndarray:
    """psi_iter levels 0..depth of --div on the grid, at --tol if given."""
    tol = () if args.tol is None else (args.tol,)
    return psi_iter(named_divergence(args.div), depth, path, grid, *tol)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"t-grid must look like start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise DomainError(f"t-grid must look like start:stop:count, got {text!r}") from None
    require_floats([start, stop], "t-grid start and stop", 0, 1)
    if not start < stop:
        raise DomainError(f"t-grid must satisfy start < stop, got {start}:{stop}")
    return np.linspace(start, stop, require_index(count, "t-grid count", minimum=2))


def _cmd_eval(args) -> int:
    start, end = _load_pair(args)
    _check_mode(args)
    depth = require_index(0 if args.depth is None else args.depth, "depth")
    t = require_scalar(args.t, "path position", 0, 1)
    path = MixturePath(start, end)
    if args.div is not None:
        value = float(_operator_levels(args, depth, path, np.array([t]))[-1, 0])
    else:
        if args.k is None:
            raise DomainError("--k is required with --seq")
        family = pl if args.seq == "pl" else sl
        value = family(args.k, start, mixture(path, t))
    print(_VALUE_FORMAT % value)
    return 0


def _cmd_sweep(args) -> int:
    start, end = _load_pair(args)
    _check_mode(args)
    require_index(args.depth, "depth")
    grid = _parse_grid(args.t)
    path = MixturePath(start, end)
    if args.div is not None:
        columns = _operator_levels(args, args.depth, path, grid).T.tolist()
    else:
        # Stacked rows equal single calls bitwise, so blocks of grid rows change no value.
        columns = []
        for _, cols in _blocks((1, len(grid)), start.support_size):
            for j in cols:
                R = Distribution(path.masses_at(grid[j]))
                P = np.broadcast_to(start.masses, R.masses.shape)
                columns += np.transpose(_chain(args.seq, 0, args.depth, P, R)).tolist()
    if args.format == "csv":
        # One row template per grid row, t formatted once per row, and one
        # % over the whole table.
        row = "".join(f"%s,{k},{_VALUE_FORMAT}\n" for k in range(args.depth + 1))
        cells = []
        for t, column in zip(grid.tolist(), columns):
            head = _VALUE_FORMAT % t
            for value in column:
                cells += (head, value)
        text = "t,k,value\n" + row * len(grid) % tuple(cells)
    else:
        lines = [
            json.dumps({"t": t, "k": k, "value": value})
            for t, column in zip(grid.tolist(), columns)
            for k, value in enumerate(column)
        ]
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(seed=args.seed, instances=args.instances)
    print(report.to_json())
    return 0 if report.all_passed else 1


def _cmd_polylog(args) -> int:
    print(_VALUE_FORMAT % polylog(args.k, args.z))
    return 0


def _add_pair_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pair", help='inline JSON pair {"p": [..], "q": [..]}'
    )
    parser.add_argument("--file", help="path to a JSON file with the same shape")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divseq",
        description="Evaluate divergences, operator sweeps, and property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol_help = "target of psi_iter's level-0 fit residual, or of each level-kernel piece"

    ev = sub.add_parser("eval", help="print a single value")
    _add_pair_flags(ev)
    ev.add_argument("--div", choices=NAMED_IDENTIFIERS)
    ev.add_argument("--seq", choices=_SEQUENCES)
    ev.add_argument("--k", type=int, help="sequence order (with --seq)")
    ev.add_argument("--t", type=float, default=1.0, help="path position in [0, 1]")
    ev.add_argument(
        "--depth", type=int, help="operator applications (with --div, default 0)"
    )
    ev.add_argument("--tol", type=float, help=tol_help)
    ev.set_defaults(handler=_cmd_eval)

    sw = sub.add_parser("sweep", help="print a (t, k, value) table")
    _add_pair_flags(sw)
    sw.add_argument("--div", choices=NAMED_IDENTIFIERS)
    sw.add_argument("--seq", choices=_SEQUENCES)
    sw.add_argument(
        "--t", required=True, help="inclusive grid start:stop:count, count >= 2"
    )
    sw.add_argument("--depth", type=int, default=0, help="levels 0..depth per t")
    sw.add_argument("--tol", type=float, help=tol_help)
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.set_defaults(handler=_cmd_sweep)

    ve = sub.add_parser("verify", help="run the property-check suite")
    ve.add_argument("--seed", type=int, default=42)
    ve.add_argument("--instances", type=int, default=200)
    ve.set_defaults(handler=_cmd_verify)

    po = sub.add_parser("polylog", help="evaluate the polylogarithm")
    po.add_argument("--k", type=int, required=True, help="nonnegative integer order")
    po.add_argument("--z", type=float, required=True, help="real argument below 1")
    # argparse before Python 3.13 takes "-1e6" for an option, not a value;
    # its later rule reads any token that starts "-<digit>" or "-.<digit>" as
    # a number.
    po._negative_number_matcher = re.compile(r"-\.?\d")
    po.set_defaults(handler=_cmd_polylog)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (DomainError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
