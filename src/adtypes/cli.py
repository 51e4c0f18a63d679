"""Command-line front end: solve, price, gen, bench, verify.

Thin adapters over the library; all interchange happens through the JSON
instance/solution/priced-outcome schemas and the bench CSV.  Exit codes:
0 success, 1 validation failure, 2 size-guard refusal, 64 usage error.

Each handler imports the modules it runs, so a call loads only what its
command needs; only ``gen`` and ``bench`` load numpy, for their seeded
draws.  Likewise a call that names its command builds only that command's
parser: ``build_parser()``, the top-level parser with all five
subparsers, runs only for top-level help, an empty argv or an unknown
command.  Both parsers come from one table of commands, so each
command's help and parse are the same either way.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import hungarian
from .core import (
    AdRef,
    GuardError,
    Instance,
    ValidationError,
    has_gap_rules,
    as_integer,
    as_number,
    instance_to_dict,
    load_instance,
    matching_from_list,
    matching_to_list,
    read_json,
    real_pairs,
    tol_for,
    welfare,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_GUARD = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _get_formatter(self):
        # argparse's width when there is no terminal: asking the terminal
        # for its size at each add_argument was most of a parser's build time
        return self.formatter_class(prog=self.prog, width=78)


def _write_text(text: str, path) -> None:
    """Write ``text`` to the file ``path``, or to stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(obj, path) -> None:
    """Write ``obj`` as strict JSON on one line: a NaN or infinity raises
    ValueError before anything is written.  No ``indent``, so ``json``
    encodes in C rather than in Python."""
    _write_text(json.dumps(obj, allow_nan=False) + "\n", path)


def _solution_dict(algo: str, inst: Instance, out) -> dict:
    """The solution document of ``out``, a matching or an optimal solution
    with duals.  Its assignment lists real ads only: a slot a solver filled
    with a zero-value padding ad is written as empty, which changes neither
    the welfare nor, since such an edge is tight at zero, what the duals
    certify."""
    solved = isinstance(out, hungarian.OptimalSolution)
    matching = real_pairs(inst, out.matching if solved else out)
    doc = {
        "algo": algo,
        "welfare": welfare(inst, matching),
        "assignment": matching_to_list(matching),
        "duals": None,
    }
    if solved:
        doc["duals"] = {"u": [list(row) for row in out.duals.u],
                        "p": list(out.duals.p)}
    return doc


def _cmd_solve(args) -> int:
    algo = args.algo
    if args.trace and algo != "adtypes":
        raise _UsageError(f"--trace traces --algo adtypes only, not {algo}")
    inst = load_instance(args.infile)
    # solvers are looked up at call time: perfbench wraps module attributes
    if algo == "adtypes":
        out = hungarian.solve_adtypes(inst)
        if args.trace:
            print(*out.stats.trace_lines(), sep="\n", file=sys.stderr)
    elif algo in ("gapdp", "two-type"):
        from . import gapdp  # here, so the other solvers never load it
        dp = gapdp.solve_gap_dp if algo == "gapdp" else gapdp.solve_two_type_dp
        out = dp(inst)
    else:
        from . import baseline  # here, so the other solvers never load it
        if algo == "generic":
            out = baseline.solve_generic_hungarian(inst)
        elif algo == "greedy":
            out = baseline.solve_greedy(inst)
        else:
            out = baseline.solve_bruteforce(inst)
    _write_json(_solution_dict(algo, inst, out), args.out)
    return EXIT_OK


def _load_reserves(path) -> dict[AdRef, float]:
    if path is None:
        return {}
    entries = read_json(path)
    bad = '{"type": int, "rank": int, "reserve": number}'
    if not isinstance(entries, list):
        raise ValidationError(f"reserves must be a list of {bad}")
    try:
        pairs = [(AdRef(as_integer(e["type"], "type"),
                        as_integer(e["rank"], "rank")),
                  as_number(e["reserve"], "reserve")) for e in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"reserves must be a list of {bad} ({exc!r})") \
            from exc
    reserves = dict(pairs)
    if len(reserves) < len(pairs):
        raise ValidationError("reserves list an ad more than once")
    return reserves


def _cmd_price(args) -> int:
    from . import pricing  # here, so other commands never load it

    if args.reserves is not None and args.mechanism == "vcg":
        raise _UsageError("--mechanism vcg charges no reserves; "
                          "use --mechanism reserve to price with them")
    inst = load_instance(args.infile)
    reserves = _load_reserves(args.reserves)
    if args.mechanism == "vcg":
        outcome = pricing.vcg_outcome(inst)
    else:
        outcome = pricing.price_with_reserves(inst, reserves)
    _write_json(pricing.priced_outcome_to_dict(outcome), args.out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    from . import bench  # here, so other commands never load numpy

    if args.family in ("random", "assignment") and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, not {args.seed}")
    if args.family == "random":
        inst = bench.gen_random(bench.GenConfig(
            args.n, args.k, args.seed, args.values, args.discounts))
    elif args.family == "greedy-tight":
        inst = bench.gen_greedy_tight(args.epsilon)
    elif args.family == "mis":
        if not args.graph:
            raise _UsageError("--graph is required for the mis family")
        from . import gapdp  # here, so the other families never load it
        with open(args.graph) as fh:
            g = gapdp.parse_graph_text(fh.read())
        inst = gapdp.mis_to_adtypes(g)
    else:
        if args.n < 1:
            raise ValueError(f"n must be >= 1, not {args.n}")
        import numpy as np
        rng = np.random.default_rng(args.seed)
        weights = rng.integers(1, 100, size=(args.n, args.n)).astype(float)
        inst, offset = bench.assignment_to_adtypes(weights)
        print(f"offset={offset!r}", file=sys.stderr)
    _write_json(instance_to_dict(inst), args.out)
    return EXIT_OK


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for part in text.split(","):
        n, _, k = part.strip().partition(":")
        try:
            sizes.append((int(n), int(k)))
        except ValueError:
            raise _UsageError(f"size {part!r} must look like n:k") from None
    return sizes


def _cmd_bench(args) -> int:
    from . import bench  # here, so other commands never load numpy

    if args.reps < 1:
        raise _UsageError(f"--reps must be at least 1, not {args.reps}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be at least 0, not {args.seed}")
    report = bench.bench_scaling(_parse_sizes(args.sizes), args.reps,
                                 seed=args.seed)
    _write_text(report.to_csv(), args.out)
    return EXIT_OK


def _load_solution(path) -> tuple[list, float | None,
                                  hungarian.DualSolution | None]:
    """The assignment entries, stated welfare and duals of a solution file
    (``None`` for an absent welfare or duals).  A document of another shape
    raises :class:`ValidationError`."""
    data = read_json(path)
    if not (isinstance(data, dict) and isinstance(data.get("assignment"), list)):
        raise ValidationError("solution must be an object with an "
                              "'assignment' list")
    stated = data.get("welfare")
    if stated is not None:
        stated = as_number(stated, "solution welfare")
        if not math.isfinite(stated):
            raise ValidationError(f"solution welfare {stated!r} is not finite")
    duals = data.get("duals")
    if duals:
        bad = 'solution duals must be {"u": [[number]], "p": [number]}'
        if not (isinstance(duals, dict) and isinstance(duals.get("u"), list)
                and all(isinstance(row, list) for row in duals["u"])
                and isinstance(duals.get("p"), list)):
            raise ValidationError(bad)
        duals = hungarian.DualSolution(
            tuple(tuple(as_number(x, bad) for x in row) for row in duals["u"]),
            tuple(as_number(x, bad) for x in duals["p"]))
    return data["assignment"], stated, duals or None


def _cmd_verify(args) -> int:
    inst = load_instance(args.infile)
    entries, stated, duals = _load_solution(args.sol)
    failures = []
    try:
        matching = matching_from_list(entries)
    except ValueError as exc:
        print(f"violation: assignment invalid: {exc}")
        return EXIT_INVALID
    try:
        w = welfare(inst, matching)
    except IndexError as exc:
        print(f"violation: assignment out of range: {exc}")
        return EXIT_INVALID
    if stated is None:
        stated = w
    if not abs(stated - w) <= tol_for(w):
        failures.append(f"stated welfare {stated!r} != recomputed {w!r}")
    if has_gap_rules(inst):
        from . import gapdp  # here, so gap-free instances never load it
        if not gapdp.check_gap_feasible(inst, matching):
            failures.append("assignment violates gap rules")
    if duals is not None:
        sol = hungarian.OptimalSolution(matching, duals, stated)
        cert = hungarian.certify(inst, sol)
        if not cert.passed:
            failures.append("certificate failed: " + "; ".join(cert.messages)
                            + f" (worst violation {cert.worst_violation:g})")
    for f in failures:
        print(f"violation: {f}")
    if failures:
        return EXIT_INVALID
    print(f"ok: welfare {w!r}, {len(real_pairs(inst, matching))} slots assigned")
    return EXIT_OK


def _solve_arguments(p: _Parser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--algo", default="adtypes",
                   choices=["adtypes", "generic", "greedy", "gapdp",
                            "brute", "two-type"])
    p.add_argument("--out", default=None)
    p.add_argument("--trace", action="store_true",
                   help="per-phase trace on stderr, after the solve "
                        "(--algo adtypes only)")


def _price_arguments(p: _Parser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mechanism", required=True,
                   choices=["vcg", "reserve"])
    p.add_argument("--reserves", default=None,
                   help='JSON file: [{"type": t, "rank": r, "reserve": x}] '
                        '(reserve only)')
    p.add_argument("--out", default=None)


def _gen_arguments(p: _Parser) -> None:
    p.add_argument("--family", required=True,
                   choices=["random", "greedy-tight", "mis", "assignment"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--values", default="uniform-int",
                   choices=["uniform-int", "uniform-real", "pareto"])
    p.add_argument("--discounts", default="geometric",
                   choices=["geometric", "linear", "step"])
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--graph", default=None,
                   help='edge-list file: "n m" header then "u v" lines')
    p.add_argument("--out", default=None)


def _bench_arguments(p: _Parser) -> None:
    p.add_argument("--sizes", required=True, help='e.g. "100:4,200:4,400:4"')
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


def _verify_arguments(p: _Parser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sol", required=True)


# name -> (one-line help, handler, argument adder), in help order
_COMMANDS = {
    "solve": ("solve an instance", _cmd_solve, _solve_arguments),
    "price": ("compute incentive-compatible payments", _cmd_price,
              _price_arguments),
    "gen": ("generate an instance", _cmd_gen, _gen_arguments),
    "bench": ("timing comparison of the two solvers", _cmd_bench,
              _bench_arguments),
    "verify": ("check a solution file", _cmd_verify, _verify_arguments),
}


def _add_command(p: _Parser, name: str) -> _Parser:
    """Give ``p`` the arguments of command ``name``; a parse by ``p`` then
    names the command and its handler."""
    _, handler, add_arguments = _COMMANDS[name]
    add_arguments(p)
    p.set_defaults(command=name, func=handler)
    return p


def _command_parser(name: str) -> _Parser:
    """The parser of command ``name`` alone, with the help, usage and
    namespace of ``build_parser()``'s subparser of that name."""
    return _add_command(_Parser(prog=f"adtypes {name}"), name)


def build_parser() -> _Parser:
    """The top-level parser, with a subparser for every command."""
    parser = _Parser(prog="adtypes",
                     description="Typed ad-to-slot allocation: solvers, "
                                 "pricing, generators, benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def run(argv) -> int:
    # a call that names its command builds that command's parser alone; the
    # top-level parser is built only for help, no command or an unknown one
    named = bool(argv) and argv[0] in _COMMANDS
    parser = _command_parser(argv[0]) if named else build_parser()
    try:
        args = parser.parse_args(argv[1:] if named else argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeyError, OSError) as exc:  # OSError: a bad path
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
