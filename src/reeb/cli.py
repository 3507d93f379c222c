"""Command line front end.

Exit codes: 0 for success (and for positive answers), 1 for usage,
parse or validation failures and definitive negative answers, 2 when a
search gave up on its node budget.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from pathlib import Path

from .cosheaf import EMPTY_INTERVAL, Interval, evaluate, interval, reeb_cosheaf
from .core import validate
from .errors import BudgetExceeded, InternalError, ParseError, ReebError
from .fileio import (emit_morphism, emit_rgraph, export_dot, parse_field,
                     parse_rgraph, reeb_of_complex)
from .interleave import distance_bracket, search_certificate
from .rationals import format_rational, parse_rational
from .smoothing import smooth


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _graph(path: str):
    return parse_rgraph(_read(path))


def _interval(lo: str, hi: str) -> Interval:
    """The open interval between two bounds. `*`, and the infinity on a
    bound's own side, leave that end unbounded; `inf` as the lower bound
    or `-inf` as the upper leaves nothing between them."""
    lo_v, hi_v = (None if t in ("inf", "-inf", "*") else parse_rational(t) for t in (lo, hi))
    if lo == "inf" or hi == "-inf":
        return EMPTY_INTERVAL
    return interval(lo_v, hi_v)


class _UsageError(Exception):
    """A command line that does not match the usage; carries the text to print."""


class _Parser(argparse.ArgumentParser):
    """argparse with this program's exit codes and bounds: a usage error
    is bad input (exit 1, as 2 means an exhausted budget), and negative
    rationals such as -1/2 and the bound -inf read as values, not options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own test for "a negative number, hence a positional"
        self._negative_number_matcher = re.compile(r"^-(\d*\.?\d+(/\d+)?|inf)$")

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@cache         # built on the first call and reused
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reeb",
        description="Graphs over the real line: validation, smoothing, "
                    "cosheaf evaluation, interleaving search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file")
    p.add_argument("file")

    p = sub.add_parser("reeb", help="Reeb graph of a simplicial field")
    p.add_argument("file")

    p = sub.add_parser("smooth", help="epsilon-smoothing of a graph")
    p.add_argument("file")
    p.add_argument("epsilon")
    p.add_argument("--zeta", action="store_true",
                   help="print the canonical map instead of the graph")

    p = sub.add_parser("cosheaf-eval",
                       help="components of the preimage of an open interval")
    p.add_argument("file")
    p.add_argument("lo", help="lower bound, or -inf")
    p.add_argument("hi", help="upper bound, or inf")

    p = sub.add_parser("check-interleave",
                       help="search for an interleaving at a given radius")
    p.add_argument("file_f")
    p.add_argument("file_g")
    p.add_argument("epsilon")
    p.add_argument("--budget", type=int, default=200_000)

    p = sub.add_parser("distance",
                       help="bracket the interleaving distance")
    p.add_argument("file_f")
    p.add_argument("file_g")
    p.add_argument("--tol", default="1/4")
    p.add_argument("--budget", type=int, default=200_000)

    p = sub.add_parser("export-dot", help="write the graph in DOT form")
    p.add_argument("file")
    p.add_argument("--no-rank", action="store_true",
                   help="skip rank=same groups")
    return parser


def _run(args, out) -> int:
    if args.command == "validate":
        report = validate(_graph(args.file))
        if report.ok:
            print("ok", file=out)
            return 0
        for v in report.violations:
            print(v, file=out)
        return 1

    if args.command == "reeb":
        result = reeb_of_complex(parse_field(_read(args.file)))
        out.write(emit_rgraph(result.graph))
        return 0

    if args.command == "smooth":
        sm = smooth(_graph(args.file), parse_rational(args.epsilon))
        out.write(emit_morphism(sm.zeta) if args.zeta else emit_rgraph(sm.smoothed))
        return 0

    if args.command == "cosheaf-eval":
        g = _graph(args.file)
        F = reeb_cosheaf(g)
        for elt in evaluate(F, _interval(args.lo, args.hi)):
            cells: set[str] = set()
            for kind, i, x in elt:
                if kind == "v":
                    cells.update(F.node_contents[i][x])
                else:
                    cells.add(x)
            print(" ".join(sorted(cells)), file=out)
        return 0

    if args.command == "check-interleave":
        eps = parse_rational(args.epsilon)
        outcome = search_certificate(_graph(args.file_f), _graph(args.file_g),
                                     eps, budget=args.budget)
        if outcome.status == "found":
            print(f"interleaved at epsilon = {format_rational(eps)}", file=out)
            return 0
        if outcome.status == "exhausted":
            print(f"no interleaving at epsilon = {format_rational(eps)}", file=out)
            return 1
        print("search budget exhausted", file=out)
        return 2

    if args.command == "distance":
        bracket = distance_bracket(_graph(args.file_f), _graph(args.file_g),
                                   parse_rational(args.tol), budget=args.budget)
        if bracket.infinite:
            print("infinite", file=out)
            return 0
        print(f"lower {format_rational(bracket.lower)}", file=out)
        print("upper ?" if bracket.upper is None
              else f"upper {format_rational(bracket.upper)}", file=out)
        return 2 if bracket.unknown_gaps else 0

    if args.command == "export-dot":
        out.write(export_dot(_graph(args.file), ranked=not args.no_rank))
        return 0

    raise InternalError(f"unhandled command {args.command!r}")


def main(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=err)
        return 1
    try:
        return _run(args, out)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=err)
        return 2
    except ReebError as exc:
        print(f"error: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
