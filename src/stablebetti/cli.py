"""Command line front end.

Every subcommand reads JSON (from --input, "-" for stdin), writes one
deterministic JSON document to stdout (census writes one compact JSON
line per ideal, diagram writes plain text), and reports failures as a
single JSON object on stderr. Exit codes sort failures by kind; each error
class carries its code as exit_code (errors.py), other failures exit 1:

    0  success (including check-stable reporting an unstable input)
    1  any other error: bad input or usage, I/O trouble, an exhausted budget
    2  InfeasibleSpec (infeasible spec), NotStable (stability required)
    3  UncoveredByCharacterization (positions outside the decided cases)
    4  VerificationFailed (a witness failed its own verification)
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .betti import (
    corner_sequence,
    ek_betti,
    module_corner_report,
    render_diagram,
)
from .errors import StableBettiError, json_document
from .ideals import parse_module_or_ideal
from .monomials import format_monomial
from .oracle import enumerate_strongly_stable, koszul_betti
from .realize_ideal import (
    MODE_COUPLED,
    MODES,
    CornerSpec,
    _check_mode,
    construct_ideal,
)
from .realize_module import realize_module


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="stablebetti",
        description="Betti tables and corner realization for strongly "
        "stable monomial ideals and their direct sums.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def with_input(name, func, help):
        p = command(name, func, help)
        p.add_argument(
            "-i",
            "--input",
            default="-",
            help="path to a JSON document, or - for stdin (default)",
        )
        return p

    def with_mode(name, func, help):
        p = with_input(name, func, help)
        p.add_argument(
            "--mode",
            choices=sorted(MODES),
            default=None,
            help='value-bound regime; overrides the document "mode" key',
        )
        return p

    with_input("betti", _cmd_betti, "Betti table of a stable input")
    with_input("corners", _cmd_corners, "corner report for an ideal or module")
    with_input("check-stable", _cmd_check_stable, "stability check, never errors")
    with_input("diagram", _cmd_diagram, "plain-text Betti diagram")

    with_input("oracle-betti", _cmd_oracle_betti, "Betti table from Koszul homology")

    with_mode("realize-ideal", _cmd_realize_ideal, "construct an ideal from a spec")

    p = with_mode(
        "realize-module", _cmd_realize_module, "construct a direct sum from a spec"
    )
    p.add_argument(
        "--m",
        type=int,
        default=None,
        help='component count; overrides the document "m" key',
    )

    p = command(
        "census", _cmd_census, "enumerate strongly stable ideals, one JSON line each"
    )
    p.add_argument("-n", type=int, required=True, help="number of variables")
    p.add_argument(
        "-d", "--max-degree", type=int, required=True, help="largest generator degree"
    )
    p.add_argument(
        "--max-gens", type=int, default=None, help="cap on the generator count"
    )
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="lift the n <= 5, max_degree <= 6 guard rails and the census "
        "decision budget",
    )
    return parser


def _read_input(path: str, stdin) -> str:
    try:
        if path == "-":
            return stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # reported as malformed JSON, at the first character that fails
        good = exc.object[: exc.start].decode(exc.encoding, "replace")
        raise json.JSONDecodeError(
            f"input is not valid {exc.encoding}", good, len(good)
        ) from None


def _dump(obj: dict, stdout) -> None:
    # one write: json.dump writes once per chunk
    stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _stars(table):
    return {c for c, _v in corner_sequence(table)}


def _table_doc(table) -> dict:
    """The table with its starred diagram, as the table-printing commands emit it."""
    return {"table": table.to_obj(), "diagram": render_diagram(table, _stars(table))}


def _cmd_betti(args, stdout, stdin) -> int:
    module = parse_module_or_ideal(_read_input(args.input, stdin))
    _dump(_table_doc(ek_betti(module)), stdout)
    return 0


def _cmd_corners(args, stdout, stdin) -> int:
    module = parse_module_or_ideal(_read_input(args.input, stdin))
    _dump(module_corner_report(module), stdout)
    return 0


def _cmd_check_stable(args, stdout, stdin) -> int:
    module = parse_module_or_ideal(_read_input(args.input, stdin))
    violation = None
    for h, ideal in enumerate(module.components):
        hit = ideal.stability_violation(strong=True)
        if hit is not None:
            g, i, j, moved = hit
            violation = {
                "component": h + 1,
                "generator": format_monomial(g) if g is not None else None,
                "variable": i,
                "target": j,
                "moved": format_monomial(moved) if moved else None,
            }
            break
    stable = all(c.is_stable() for c in module.components)
    _dump(
        {
            "stable": stable,
            "strongly_stable": violation is None,
            "violation": violation,
        },
        stdout,
    )
    return 0


def _cmd_diagram(args, stdout, stdin) -> int:
    module = parse_module_or_ideal(_read_input(args.input, stdin))
    table = ek_betti(module)
    stdout.write(render_diagram(table, _stars(table)) + "\n")
    return 0


def _cmd_oracle_betti(args, stdout, stdin) -> int:
    module = parse_module_or_ideal(_read_input(args.input, stdin))
    table = koszul_betti(module)
    out = _table_doc(table)
    if all(
        not c.is_zero and c.is_stable() for c in module.components
    ):
        out["matches_generator_formula"] = ek_betti(module) == table
    _dump(out, stdout)
    return 0


def _spec_and_mode(args, stdin) -> tuple[CornerSpec, str, dict]:
    obj = json_document(_read_input(args.input, stdin))
    spec = CornerSpec.from_obj(obj)
    # only an absent "mode" key means coupled; a present one must name a mode
    mode = args.mode or obj.get("mode", MODE_COUPLED)
    return spec, _check_mode(mode), obj


def _cmd_realize_ideal(args, stdout, stdin) -> int:
    spec, mode, _obj = _spec_and_mode(args, stdin)
    realization = construct_ideal(spec, mode)
    _dump(realization.to_obj() | _table_doc(realization.table), stdout)
    return 0


def _cmd_realize_module(args, stdout, stdin) -> int:
    spec, mode, obj = _spec_and_mode(args, stdin)
    if args.m is None and "m" not in obj:
        raise _UsageError(
            'realize-module needs a component count: pass --m or an "m" key'
        )
    m = obj["m"] if args.m is None else args.m
    realization = realize_module(spec, m, mode)
    _dump(realization.to_obj() | _table_doc(realization.table), stdout)
    return 0


def _cmd_census(args, stdout, stdin) -> int:
    for ideal in enumerate_strongly_stable(
        args.n,
        args.max_degree,
        args.max_gens,
        allow_large=args.allow_large,
    ):
        stdout.write(ideal.to_json() + "\n")
    return 0


def run(argv=None, stdout=None, stderr=None, stdin=None) -> int:
    """Run one command line and return its exit code. It may be called
    repeatedly in one process: all calls share one parser, never mutated."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    stdin = sys.stdin if stdin is None else stdin
    if argv and argv[0] in ("--version", "-V"):
        stdout.write(f"stablebetti {__version__}\n")
        return 0
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("stablebetti: a COMMAND is required (see --help)")
        return args.func(args, stdout, stdin)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (
        StableBettiError,
        json.JSONDecodeError,
        OSError,
        _UsageError,
    ) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            stderr,
            sort_keys=True,
        )
        stderr.write("\n")
        return getattr(exc, "exit_code", 1)


def main() -> None:
    sys.exit(run())
