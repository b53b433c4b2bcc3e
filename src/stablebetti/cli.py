"""Command line front end.

Each subcommand is a reader and a command, named by its parser's
set_defaults. The reader parses the JSON document (from --input, "-" for
stdin) as an ideal or module, or as a corner spec with its mode; census
reads its arguments alone. The command computes, touching no stream, and
returns one deterministic JSON document, the diagram's plain text, or
census lines (one compact JSON line per ideal) yielded as they are found.
run is the one writer: it writes that to stdout, a document as the bytes
of json.dumps(indent=2, sort_keys=True), and a failure as one JSON object
on stderr. Exit codes sort failures by kind; each error class carries its
code as exit_code (errors.py), other failures exit 1:

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
from itertools import chain, repeat

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
        # census reads its arguments alone; the helpers below set readers
        p.set_defaults(func=func, read=lambda args, _stdin: args)
        return p

    def with_input(name, func, help):
        p = command(name, func, help)
        p.set_defaults(read=_read_module)
        p.add_argument(
            "-i",
            "--input",
            default="-",
            help="path to a JSON document, or - for stdin (default)",
        )
        return p

    def with_mode(name, func, help):
        p = with_input(name, func, help)
        p.set_defaults(read=_read_spec)
        p.add_argument(
            "--mode",
            choices=sorted(MODES),
            default=None,
            help='value-bound regime; overrides the document "mode" key',
        )
        return p

    with_input("betti", _betti, "Betti table of a stable input")
    with_input("corners", module_corner_report, "corner report for an ideal or module")
    with_input("check-stable", _check_stable, "stability check, never errors")
    with_input("diagram", _diagram, "plain-text Betti diagram")

    with_input("oracle-betti", _oracle_betti, "Betti table from Koszul homology")

    with_mode("realize-ideal", _realize_ideal, "construct an ideal from a spec")

    p = with_mode(
        "realize-module", _realize_module, "construct a direct sum from a spec"
    )
    p.add_argument(
        "--m",
        type=int,
        default=None,
        help='component count; overrides the document "m" key',
    )

    p = command(
        "census", _census, "enumerate strongly stable ideals, one JSON line each"
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


def _read_module(args, stdin):
    return parse_module_or_ideal(_read_input(args.input, stdin))


def _read_spec(args, stdin) -> tuple[CornerSpec, str, dict]:
    doc = json_document(_read_input(args.input, stdin))
    spec = CornerSpec.from_obj(doc)
    # --mode and --m override their document keys; only an absent "mode"
    # key means coupled, a present one must name a mode
    given = {k: v for k, v in vars(args).items() if v is not None}
    doc |= {k: given[k] for k in ("mode", "m") if k in given}
    return spec, _check_mode(doc.get("mode", MODE_COUPLED)), doc


def _flat(values) -> bool:
    return not any(map(isinstance, values, repeat((dict, list, tuple))))


@functools.cache
def _flat_encoder(pad: str):
    return json.JSONEncoder(sort_keys=True, separators=("," + pad, ": ")).encode


def _text(obj, pad: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), str keys only, of a value
    on a line that starts with pad (a newline, the indent): a C encoder call
    per container of scalars or list of those of one type, none per int."""
    if not obj or not isinstance(obj, (dict, list, tuple)):  # a scalar, [] or {}
        return int.__repr__(obj) if type(obj) is int else _flat_encoder(pad)(obj)
    inner, sep, deep = pad + "  ", "," + pad + "  ", pad + "    "
    row = None if isinstance(obj, dict) else type(obj[0])
    if _flat(obj if row else obj.values()):
        body = _flat_encoder(inner)(obj)[1:-1]
    elif row is None:
        key = _flat_encoder(pad)
        body = sep.join([f"{key(k)}: {_text(obj[k], inner)}" for k in sorted(obj)])
    elif all(obj) and all(map(isinstance, obj, repeat(row))) and _flat(
        chain.from_iterable(map(dict.values, obj) if issubclass(row, dict) else obj)
    ):  # "]," or "}," and a newline end a row: strings hold no raw newline
        a, b = "{}" if issubclass(row, dict) else "[]"
        rows = _flat_encoder(deep)(obj)[2:-2].split(b + "," + deep + a)
        body = a + deep + (inner + b + sep + a + deep).join(rows) + inner + b
    else:
        body = sep.join([_text(v, inner) for v in obj])
    return ("[" if row else "{") + inner + body + pad + ("]" if row else "}")


def _dump(obj: dict, stdout) -> None:
    # json.dumps(obj, indent=2, sort_keys=True) and a newline, in one write
    stdout.write(_text(obj, "\n") + "\n")


def _stars(table):
    return {c for c, _v in corner_sequence(table)}


def _table_doc(table, stars) -> dict:
    """The table with its diagram, the given corners starred."""
    return {"table": table.to_obj(), "diagram": render_diagram(table, stars)}


def _betti(module) -> dict:
    table = ek_betti(module)
    return _table_doc(table, _stars(table))


def _check_stable(module) -> dict:
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
    strong = violation is None
    return {"stable": stable, "strongly_stable": strong, "violation": violation}


def _diagram(module) -> str:
    table = ek_betti(module)
    return render_diagram(table, _stars(table))


def _oracle_betti(module) -> dict:
    table = koszul_betti(module)
    out = _table_doc(table, _stars(table))
    if all(c.is_stable() for c in module.components):
        out["matches_generator_formula"] = ek_betti(module) == table
    return out


def _realized(realization) -> dict:
    # its verification matched the table's corners to the spec's: star those
    stars = set(realization.spec.corners)
    return realization.to_obj() | _table_doc(realization.table, stars)


def _realize_ideal(source) -> dict:
    spec, mode, _doc = source
    return _realized(construct_ideal(spec, mode))


def _realize_module(source) -> dict:
    spec, mode, doc = source
    if "m" not in doc:
        raise _UsageError(
            'realize-module needs a component count: pass --m or an "m" key'
        )
    return _realized(realize_module(spec, doc["m"], mode))


def _census(args):
    for ideal in enumerate_strongly_stable(
        args.n, args.max_degree, args.max_gens, allow_large=args.allow_large
    ):
        yield ideal.to_json()


def run(argv=None, stdout=None, stderr=None, stdin=None) -> int:
    """Run one command line and return its exit code. It may be called
    repeatedly in one process: all calls share one parser, never mutated."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    stdin = sys.stdin if stdin is None else stdin
    try:
        if argv and argv[0] in ("--version", "-V"):
            out = f"stablebetti {__version__}"
        else:
            args = _build_parser().parse_args(argv)
            if args.command is None:
                raise _UsageError("stablebetti: a COMMAND is required (see --help)")
            out = args.func(args.read(args, stdin))
        if isinstance(out, dict):
            _dump(out, stdout)
        else:  # text, or census lines written as the command yields them
            for line in [out] if isinstance(out, str) else out:
                stdout.write(line + "\n")
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (StableBettiError, json.JSONDecodeError, OSError, _UsageError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            stderr,
            sort_keys=True,
        )
        stderr.write("\n")
        return getattr(exc, "exit_code", 1)
    return 0


def main() -> None:
    sys.exit(run())
