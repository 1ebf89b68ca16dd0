"""Command-line interface.

Subcommands:

* ``normal-order EXPR``    normally order an expression, print canonical text
* ``commutator S K``       expand [a^S, ad^K] into normally ordered terms
* ``compose R S K L``      enumerate compositions of two one-vertex graphs
* ``project-check``        verify projection against the closed form on a sweep
* ``oracle-check``         run the full cross-validation suite
* ``render CHAIN``         build a graph step by step and write Graphviz DOT

``--json`` switches the printable result to a JSON document; ``--dot DIR``
writes DOT files into DIR.  Output is deterministic: same arguments and seed,
same bytes.  Exit status 0 on success, 1 on any error or failed check, 130
on Ctrl-C; every failure ends in one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from itertools import chain

from .exprs import ParseError, evaluate, format_polynomial, parse
from .graphs import (
    _composition_buckets,
    build_iteratively,
    enumerate_compositions,
    graph_to_dot,
    make_vertex,
    project,
)
from .ladder import NormalPolynomial, commutator_powers
from .oracles import run_oracle_checks

DEFAULT_BOUNDS = (4, 4, 4, 4)


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text!r}")
    return value


def _bounds(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("bounds must be given as r,s,k,l")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bounds must be integers: {text!r}")
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("bounds must be nonnegative")
    return values  # type: ignore[return-value]


def _print_json(obj: object) -> None:
    print(json.dumps(obj, indent=2))


def _print_polynomial(poly: NormalPolynomial, as_json: bool) -> int:
    if as_json:
        _print_json(poly.to_json())
    else:
        print(format_polynomial(poly))
    return 0


def _cmd_normal_order(args: argparse.Namespace) -> int:
    return _print_polynomial(evaluate(parse(args.expr)), args.json)


def _cmd_commutator(args: argparse.Namespace) -> int:
    return _print_polynomial(commutator_powers(args.s, args.k), args.json)


def _cmd_compose(args: argparse.Namespace) -> int:
    left = make_vertex(args.r, args.s)
    right = make_vertex(args.k, args.l)
    if args.json or args.dot is not None:
        compositions = enumerate_compositions(left, right)
    else:  # only counts are printed, so one matching size is held at a time
        compositions = chain.from_iterable(_composition_buckets(left, right))
    counts = Counter(map(project, compositions))
    n = sum(counts.values())
    projection = NormalPolynomial(counts.items())
    # The compositions with i joined lines are those that project to (r+k-i, s+l-i).
    classes = sorted((args.r + args.k - mono.r, count, mono) for mono, count in counts.items())
    if args.json:
        _print_json({
            "left": {"r": args.r, "s": args.s},
            "right": {"r": args.k, "s": args.l},
            "count": n,
            "classes": [
                {"i": i, "count": count, "r": mono.r, "s": mono.s} for i, count, mono in classes
            ],
            "graphs": [str(g) for g in compositions],
            "projection": projection.to_json(),
        })
    else:
        print(f"({args.r},{args.s}) o ({args.k},{args.l}): {n} composition{'' if n == 1 else 's'}")
        for i, count, mono in classes:
            print(f"i={i}: {count} -> ({mono.r},{mono.s})")
        print(f"projection: {format_polynomial(projection)}")
    if args.dot is not None:
        os.makedirs(args.dot, exist_ok=True)
        width = max(len(str(n - 1)), 1)
        for index, g in enumerate(compositions):
            path = os.path.join(args.dot, f"composition_{index:0{width}d}.dot")
            with open(path, "w", encoding="ascii") as handle:
                handle.write(graph_to_dot(g, name=f"composition_{index}"))
        print(f"wrote {n} dot files to {args.dot}")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    report = run_oracle_checks(*args.bounds, words=args.words, graph_pairs=args.pairs,
                               seed=args.seed)
    print("\n".join(report.lines()))
    return 0 if report.passed else 1


def _parse_chain(text: str) -> list[tuple[int, int, int]]:
    """Chain syntax: semicolon-separated steps ``r,s`` or ``r,s@index``."""
    steps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        head, at, index_s = chunk.partition("@")
        r_s, comma, s_s = head.partition(",")
        try:
            r, s = int(r_s), int(s_s)
            index = int(index_s) if at else 0
            valid = bool(comma) and r >= 0 and s >= 0 and index >= 0
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(
                f"bad chain step {chunk!r}: expected 'r,s' or 'r,s@index' "
                "with nonnegative integers"
            )
        steps.append((r, s, index))
    return steps


def _cmd_render(args: argparse.Namespace) -> int:
    graph = build_iteratively(_parse_chain(args.chain))
    os.makedirs(args.dot, exist_ok=True)
    path = os.path.join(args.dot, "render.dot")
    with open(path, "w", encoding="ascii") as handle:
        handle.write(graph_to_dot(graph, name="render"))
    mono = project(graph)
    print(f"graph: {graph}")
    print(f"projection: ({mono.r}, {mono.s})")
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laddergraphs",
        description="Exact normal ordering of ladder-operator expressions, "
        "and the equivalent graph-composition calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normal-order", help="normally order an expression")
    p.add_argument("expr", help="expression, e.g. '(ad a)^2 + 1/2 a'")
    p.add_argument("--json", action="store_true", help="print the polynomial as JSON")
    p.set_defaults(func=_cmd_normal_order)

    p = sub.add_parser("commutator", help="expand [a^S, ad^K]")
    p.add_argument("s", type=_nonneg_int, help="power of the lowering operator")
    p.add_argument("k", type=_nonneg_int, help="power of the raising operator")
    p.add_argument("--json", action="store_true", help="print the polynomial as JSON")
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("compose", help="enumerate compositions of two one-vertex graphs")
    p.add_argument("r", type=_nonneg_int, help="out-lines of the first vertex")
    p.add_argument("s", type=_nonneg_int, help="in-lines of the first vertex")
    p.add_argument("k", type=_nonneg_int, help="out-lines of the second vertex")
    p.add_argument("l", type=_nonneg_int, help="in-lines of the second vertex")
    p.add_argument("--json", action="store_true", help="print the enumeration as JSON")
    p.add_argument("--dot", metavar="DIR", help="write one DOT file per composition")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("project-check", help="projection vs closed form on an exhaustive sweep")
    p.add_argument("--bounds", type=_bounds, default=DEFAULT_BOUNDS, metavar="r,s,k,l",
                   help="sweep bounds (default 4,4,4,4)")
    p.set_defaults(func=_cmd_oracle_check, words=0, pairs=0, seed=42)

    p = sub.add_parser("oracle-check", help="run the full cross-validation suite")
    p.add_argument("--bounds", type=_bounds, default=DEFAULT_BOUNDS, metavar="r,s,k,l",
                   help="product sweep bounds (default 4,4,4,4)")
    p.add_argument("--words", type=_nonneg_int, default=200,
                   help="number of random words (default 200)")
    p.add_argument("--pairs", type=_nonneg_int, default=50,
                   help="number of random graph pairs (default 50)")
    p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("render", help="build a graph from a chain and write DOT")
    p.add_argument("chain", help="semicolon-separated steps 'r,s' or 'r,s@index'")
    p.add_argument("--dot", metavar="DIR", required=True,
                   help="directory for the DOT file (required)")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`); point it at devnull
        # so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # e.g. a --dot directory that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:  # work the interpreter could not hold
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a process ended by Ctrl-C


if __name__ == "__main__":
    sys.exit(main())
