"""Command line interface: one subcommand per operation, JSON in and out.

All output is a single JSON document on stdout with a top-level schema tag;
rationals are "p/q" strings.  Exit codes: 0 success, 1 domain error, 2 usage
error.  Identical argv on the same build produces byte-identical output.

``COMMANDS`` is the one list of the subcommands, with each one's help,
handler and flags; ``build_parser``, ``run`` and the CLI tests all read it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from functools import lru_cache
from typing import Any, NamedTuple

from . import __version__
from .errors import GlidekitError, MalformedInputError
from .glides import GLIDE_METHODS, glide_polynomial
from .jsonio import (
    comp_map_from_json,
    comp_map_to_json,
    decimal_int,
    parse_composition,
    parse_partition_tuple,
    poly_to_json,
    read_json,
    string_key,
)
from .ktheory import chern_substitute, knutson_class
from .poset import build_poset
from .qsym import QSymElement, glide_expand, glide_structure_constants, m_multiply, overlapping_shuffle
from .schur import buk_structure_constant, lr_coefficient
from .verify import run_all

SCHEMA = "glidekit/1"

# per kind, the keywords argparse gets and the parser ``run`` then passes
# the flag's text through (None: argparse's value is the value).  A kind
# only parses, never validates: a size argparse cannot read is a usage
# error, and every other check is the library call's own
_KINDS: dict[str, tuple[dict[str, Any], Callable[[str], Any] | None]] = {
    "composition": ({"required": True}, parse_composition),
    "partition tuple": ({"required": True}, parse_partition_tuple),
    "file": ({"required": True}, None),
    "size": ({"type": decimal_int, "required": True}, None),
    "switch": ({"action": "store_true"}, None),
    "method": ({"choices": GLIDE_METHODS, "default": "closed"}, None),
}


class Flag(NamedTuple):
    name: str
    kind: str  # a key of ``_KINDS``
    dest: str | None = None
    help: str | None = None

    @property
    def key(self) -> str:
        """The flag's keyword in its handler's call and its key in ``inputs``."""
        return self.dest or self.name[2:]


class Command(NamedTuple):
    help: str
    handler: Callable[..., dict[str, Any]]
    flags: tuple[Flag, ...] = ()


def _poset(alpha: tuple[int, ...], n: int, hasse: bool, mobius: bool) -> dict[str, Any]:
    p = build_poset(alpha, n)
    out: dict[str, Any] = {"elements": [list(e) for e in p.elements]}
    if hasse:
        out["covers"] = [list(pair) for pair in p.covers()]
    if mobius:
        mu = p.mobius()
        out["mobius"] = {string_key(e): mu[e] for e in p.elements}
    return out


def _glide_expand(input: str, degree: int) -> dict[str, Any]:
    payload = read_json(input)
    if isinstance(payload, dict) and "coords" not in payload:
        raise MalformedInputError(f"{input} has no \"coords\" key")
    items = payload["coords"] if isinstance(payload, dict) else payload
    element = QSymElement(comp_map_from_json(items), degree)
    return {"coords": comp_map_to_json(glide_expand(element, degree))}


def _kclass(alpha: tuple[int, ...], n: int, m: int, chern: bool) -> dict[str, Any]:
    element = knutson_class(alpha, n, m)
    out: dict[str, Any] = {"kclass": poly_to_json(element.poly)}
    if chern:
        out["chern"] = poly_to_json(chern_substitute(element))
    return out


def _verify_paper() -> dict[str, Any]:
    rows = run_all()
    return {
        "rows": [row.as_json() for row in rows],
        "total": len(rows),
        "failed": sum(1 for row in rows if not row.passed),
        "all_pass": all(row.passed for row in rows),
    }


# A row lists its flags in ``--help`` order, and its handler takes their
# parsed values as keywords, by key.  A handler names the library functions
# as this module's globals, read at call time, so that a patched name (a
# tracer's wrapper, a test's stub) is the one called.
COMMANDS: dict[str, Command] = {
    "poset": Command(
        "string poset of a composition's zero-paddings",
        _poset,
        (Flag("--alpha", "composition"), Flag("--n", "size"),
         Flag("--hasse", "switch", help="include cover relations"),
         Flag("--mobius", "switch", help="include the Mobius table")),
    ),
    "glide": Command(
        "glide polynomial of a composition",
        lambda alpha, n, method: {"polynomial": poly_to_json(glide_polynomial(alpha, n, method))},
        (Flag("--alpha", "composition"), Flag("--n", "size"), Flag("--method", "method")),
    ),
    "shuffle": Command(
        "overlapping shuffle product of two compositions",
        lambda a, b: {"product": comp_map_to_json(overlapping_shuffle(a, b))},
        (Flag("--a", "composition"), Flag("--b", "composition")),
    ),
    "mprod": Command(
        "monomial-basis product of two compositions",
        lambda a, b: {"product": comp_map_to_json(
            m_multiply(QSymElement.monomial(a), QSymElement.monomial(b)).coords)},
        (Flag("--a", "composition"), Flag("--b", "composition")),
    ),
    "glide-expand": Command(
        "expand monomial coordinates over the glide basis",
        _glide_expand,
        (Flag("--input", "file", help="JSON file with monomial coordinates"),
         Flag("--degree", "size")),
    ),
    "glide-struct": Command(
        "glide-basis structure constants of two glides",
        lambda a, b, degree: {"coords": comp_map_to_json(glide_structure_constants(a, b, degree))},
        (Flag("--a", "composition"), Flag("--b", "composition"), Flag("--degree", "size")),
    ),
    "kclass": Command(
        "structure-sheaf class of the dual Schubert union",
        _kclass,
        (Flag("--alpha", "composition"), Flag("--n", "size"), Flag("--m", "size"),
         Flag("--chern", "switch", help="include the Chern character image")),
    ),
    "lr": Command(
        "Littlewood-Richardson coefficient by ballot tableaux",
        lambda lam, mu, nu: {"coefficient": lr_coefficient(lam, mu, nu)},
        (Flag("--lambda", "composition", "lam"),
         Flag("--mu", "composition"), Flag("--nu", "composition")),
    ),
    "buk": Command(
        "structure constant for tuples of length-k partitions",
        lambda k, lam, mu, nu: {"coefficient": buk_structure_constant(lam, mu, nu, k)},
        (Flag("--k", "size"), Flag("--lambda", "partition tuple", "lam"),
         Flag("--m", "partition tuple", "mu"), Flag("--n", "partition tuple", "nu")),
    ),
    "verify-paper": Command("replay the built-in reference fixtures", _verify_paper),
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from ``COMMANDS`` on first use and shared
    by every later call.

    Parsing leaves it unchanged: each call gets a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="glidekit",
        allow_abbrev=False,
        description=(
            "Exact computations with monomial quasisymmetric functions, string-poset "
            "Mobius data, glide polynomials, truncated K-ring classes, and tableau "
            "structure constants.  Compositions are comma lists ('1,3'; empty string "
            "for the empty composition); partition tuples are semicolon-separated."
        ),
    )
    parser.add_argument("--version", action="version", version=f"glidekit {__version__}")
    pretty = "indent the JSON output"
    parser.add_argument("--pretty", action="store_true", help=pretty)

    # the same flag is accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS, help=pretty)

    # no flag may be abbreviated, so a new flag never turns an argv that
    # works into a usage error by sharing its prefix
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, parents=[common], allow_abbrev=False)
        for flag in command.flags:
            p.add_argument(flag.name, dest=flag.key, help=flag.help, **_KINDS[flag.kind][0])
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        values = {}
        for flag in command.flags:
            value, parse = getattr(args, flag.key), _KINDS[flag.kind][1]
            values[flag.key] = value if parse is None else parse(value)
        output = command.handler(**values)
    except GlidekitError as exc:
        error = {
            "schema": SCHEMA,
            "command": args.command,
            "error": {"code": exc.code, "message": str(exc)},
        }
        print(json.dumps(error), file=sys.stderr)
        return 1
    result: dict[str, Any] = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": {key: getattr(args, key) for key in sorted(f.key for f in command.flags)},
        "exact": True,
        "output": output,
    }
    indent = 2 if args.pretty else None
    print(json.dumps(result, indent=indent))
    if args.command == "verify-paper" and not output["all_pass"]:
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
