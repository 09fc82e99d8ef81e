"""Command-line frontend for the solvers, verifier and generators.

Exit codes: 0 when the question was answered, 1 for input or usage
errors, 2 when a search budget or the recursion depth limit was
exhausted, 3 when a solver's witness failed its own re-verification (an
internal error).  With --machine every output line is a single
key=value pair.  `--budget` caps the oracle's search nodes only: the
coordinate-descent sweeps that set up its Lagrangian bound, reported
as `stats["lp_iterations"]` of the result, are not charged to it.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .cliquewidth import parse_cexpr, solve_cliquewidth
from .core import (
    FormatError,
    ReconstructionError,
    as_vertex_set,
    parse_instance,
    slack,
)
from .nd import nd_partition, solve_nd
from .oracle import (
    DEFAULT_NODE_BUDGET,
    OracleLimitError,
    max_harmless_bruteforce,
    parse_mmo,
    parse_mrss,
)
from .planar import solve_planar
from .reductions import reduce_mmo, reduce_mrss, render_mmo, render_mrss
from .twincover import find_twin_cover, solve_twincover


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    exhausted budgets, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _id_list(tokens) -> list[int]:
    ids = []
    for token in tokens:
        for part in token.split(","):
            if part:
                ids.append(int(part))
    return ids


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmless", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="maximum harmless set / decision")
    solve.add_argument("input", help="instance file (hs format)")
    solve.add_argument(
        "--algo",
        choices=("auto", "brute", "nd", "twincover", "cliquewidth", "planar"),
        default="auto",
    )
    solve.add_argument("--k", type=int, help="decision target; required for planar")
    solve.add_argument("--cover", nargs="+", help="twin cover vertex ids")
    solve.add_argument("--cexpr", help="c-expression file for cliquewidth")
    solve.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    solve.add_argument("--nd-limit", type=int, default=8, help="auto: max nd classes")
    solve.add_argument("--cover-limit", type=int, default=8, help="auto: max cover size")
    solve.add_argument("--machine", action="store_true")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a vertex set against an instance")
    verify.add_argument("input")
    verify.add_argument("--set", nargs="+", required=True, help="vertex ids")
    verify.add_argument("--machine", action="store_true")
    verify.set_defaults(func=cmd_verify)

    analyze = sub.add_parser("analyze", help="structural parameters of an instance")
    analyze.add_argument("input")
    analyze.add_argument("--cover-limit", type=int, default=8)
    analyze.add_argument("--machine", action="store_true")
    analyze.set_defaults(func=cmd_analyze)

    generate = sub.add_parser("generate", help="build an instance from a reduction")
    generate.add_argument("kind", choices=("mmo", "mrss"))
    generate.add_argument("input", help="source problem file")
    generate.add_argument("--out", help="write here instead of stdout")
    generate.set_defaults(func=cmd_generate)
    return parser


def _emit(rows, machine: bool):
    """rows are (KEY, value) pairs; text joins with spaces, machine mode
    prints key=value with multi-id values comma-separated.  All rows go
    out in one write."""
    if machine:
        rows = [(k.lower().replace(" ", "_"), str(v).replace(" ", ",")) for k, v in rows]
    sep = "=" if machine else " "
    sys.stdout.write("".join(f"{key}{sep}{value}\n" for key, value in rows))


def cmd_solve(args) -> int:
    instance = parse_instance(_read(args.input))
    algo = args.algo
    if algo == "cliquewidth" and not args.cexpr:
        raise ValueError("--algo cliquewidth requires --cexpr")
    if algo == "planar" and args.k is None:
        raise ValueError("--algo planar requires --k")
    cover = None
    if algo == "auto":
        partition = nd_partition(instance.graph)
        if partition.width <= args.nd_limit:
            algo = "nd"
        else:
            cover = find_twin_cover(instance.graph, args.cover_limit, partition)
            algo = "twincover" if cover is not None else "brute"

    rule = None
    if algo == "planar":
        decision = solve_planar(instance, args.k, args.budget)
        size, witness = decision.kernel_stats.get("kernel_size"), decision.witness
        answer, solver = decision.answer, "planar"
        rule = "kernel" if decision.path_used is None else "diameter"
    else:
        if algo == "brute":
            result = max_harmless_bruteforce(instance, args.budget)
        elif algo == "nd":
            result = solve_nd(instance)
        elif algo == "twincover":
            if args.cover is not None:
                cover = as_vertex_set(_id_list(args.cover), instance.graph.n)
            elif cover is None:
                cover = find_twin_cover(instance.graph, args.cover_limit)
                if cover is None:
                    raise ValueError(
                        f"no twin cover of size <= {args.cover_limit}; pass --cover"
                    )
            result = solve_twincover(instance, cover)
        else:
            result = solve_cliquewidth(instance, parse_cexpr(_read(args.cexpr)))
        size, witness, solver = result.size, result.witness, result.solver
        answer = args.k is not None and size >= args.k

    rows = [] if size is None else [("SIZE", size)]
    if witness:
        rows.append(("SET", " ".join(str(v) for v in witness)))
    if args.k is not None:
        rows.append(("ANSWER", "yes" if answer else "no"))
    rows.append(("SOLVER", solver))
    if rule is not None:
        rows.append(("RULE", rule))
    _emit(rows, args.machine)
    return 0


def cmd_verify(args) -> int:
    instance = parse_instance(_read(args.input))
    chosen = as_vertex_set(_id_list(args.set), instance.graph.n)
    values = slack(instance, chosen)
    rows = [(f"SLACK {v}", values[v - 1]) for v in instance.graph.vertices()]
    rows.append(("VALID", "yes" if all(x > 0 for x in values) else "no"))
    _emit(rows, args.machine)
    return 0


def cmd_analyze(args) -> int:
    instance = parse_instance(_read(args.input))
    graph = instance.graph
    partition = nd_partition(graph)
    cover = find_twin_cover(graph, args.cover_limit, partition)
    rows = [
        ("VERTICES", graph.n),
        ("EDGES", len(graph.edges)),
        ("TMIN", min(instance.thresholds, default=0)),
        ("TMAX", max(instance.thresholds, default=0)),
        ("CLASSES", partition.width),
        ("COVER", "none" if cover is None else len(cover)),
    ]
    _emit(rows, args.machine)
    return 0


def cmd_generate(args) -> int:
    if args.kind == "mmo":
        text = render_mmo(reduce_mmo(parse_mmo(_read(args.input))))
    else:
        text = render_mrss(reduce_mrss(parse_mrss(_read(args.input))))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: recursion depth limit {sys.getrecursionlimit()} exceeded", file=sys.stderr)
        return 2
    except (FormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ReconstructionError as e:
        print(f"error: internal: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
