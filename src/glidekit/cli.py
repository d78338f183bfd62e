"""Command line interface: one subcommand per operation, JSON in and out.

All output is a single JSON document on stdout with a top-level schema tag;
rationals are "p/q" strings.  Exit codes: 0 success, 1 domain error, 2 usage
error.  Identical argv on the same build produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache, partial
from typing import Any

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


def _cmd_poset(args: argparse.Namespace) -> dict[str, Any]:
    alpha = parse_composition(args.alpha)
    p = build_poset(alpha, args.n)
    out: dict[str, Any] = {"elements": [list(e) for e in p.elements]}
    if args.hasse:
        out["covers"] = [list(pair) for pair in p.covers()]
    if args.mobius:
        mu = p.mobius()
        out["mobius"] = {string_key(e): mu[e] for e in p.elements}
    return out


def _cmd_glide(args: argparse.Namespace) -> dict[str, Any]:
    alpha = parse_composition(args.alpha)
    return {"polynomial": poly_to_json(glide_polynomial(alpha, args.n, args.method))}


def _cmd_shuffle(args: argparse.Namespace) -> dict[str, Any]:
    product = overlapping_shuffle(parse_composition(args.a), parse_composition(args.b))
    return {"product": comp_map_to_json(product)}


def _cmd_mprod(args: argparse.Namespace) -> dict[str, Any]:
    f = QSymElement.monomial(parse_composition(args.a))
    g = QSymElement.monomial(parse_composition(args.b))
    return {"product": comp_map_to_json(m_multiply(f, g).coords)}


def _cmd_glide_expand(args: argparse.Namespace) -> dict[str, Any]:
    payload = read_json(args.input)
    if isinstance(payload, dict) and "coords" not in payload:
        raise MalformedInputError(f"{args.input} has no \"coords\" key")
    items = payload["coords"] if isinstance(payload, dict) else payload
    element = QSymElement(comp_map_from_json(items), args.degree)
    return {"coords": comp_map_to_json(glide_expand(element, args.degree))}


def _cmd_glide_struct(args: argparse.Namespace) -> dict[str, Any]:
    coords = glide_structure_constants(
        parse_composition(args.a), parse_composition(args.b), args.degree
    )
    return {"coords": comp_map_to_json(coords)}


def _cmd_kclass(args: argparse.Namespace) -> dict[str, Any]:
    alpha = parse_composition(args.alpha)
    element = knutson_class(alpha, args.n, args.m)
    out: dict[str, Any] = {"kclass": poly_to_json(element.poly)}
    if args.chern:
        out["chern"] = poly_to_json(chern_substitute(element))
    return out


def _cmd_lr(args: argparse.Namespace) -> dict[str, Any]:
    coeff = lr_coefficient(
        parse_composition(args.lam), parse_composition(args.mu), parse_composition(args.nu)
    )
    return {"coefficient": coeff}


def _cmd_buk(args: argparse.Namespace) -> dict[str, Any]:
    coeff = buk_structure_constant(
        parse_partition_tuple(args.lam),
        parse_partition_tuple(args.mu),
        parse_partition_tuple(args.nu),
        args.k,
    )
    return {"coefficient": coeff}


def _cmd_verify(args: argparse.Namespace) -> dict[str, Any]:
    rows = run_all()
    return {
        "rows": [row.as_json() for row in rows],
        "total": len(rows),
        "failed": sum(1 for row in rows if not row.passed),
        "all_pass": all(row.passed for row in rows),
    }


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

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
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")

    # the same flag is accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)

    # no flag may be abbreviated, so a new flag never turns an argv that
    # works into a usage error by sharing its prefix
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, parents=[common], allow_abbrev=False)

    p = add("poset", help="string poset of a composition's zero-paddings")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=decimal_int, required=True)
    p.add_argument("--hasse", action="store_true", help="include cover relations")
    p.add_argument("--mobius", action="store_true", help="include the Mobius table")
    p.set_defaults(func=_cmd_poset)

    p = add("glide", help="glide polynomial of a composition")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=decimal_int, required=True)
    p.add_argument("--method", choices=GLIDE_METHODS, default="closed")
    p.set_defaults(func=_cmd_glide)

    p = add("shuffle", help="overlapping shuffle product of two compositions")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_shuffle)

    p = add("mprod", help="monomial-basis product of two compositions")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_mprod)

    p = add("glide-expand", help="expand monomial coordinates over the glide basis")
    p.add_argument("--input", required=True, help="JSON file with monomial coordinates")
    p.add_argument("--degree", type=decimal_int, required=True)
    p.set_defaults(func=_cmd_glide_expand)

    p = add("glide-struct", help="glide-basis structure constants of two glides")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--degree", type=decimal_int, required=True)
    p.set_defaults(func=_cmd_glide_struct)

    p = add("kclass", help="structure-sheaf class of the dual Schubert union")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=decimal_int, required=True)
    p.add_argument("--m", type=decimal_int, required=True)
    p.add_argument("--chern", action="store_true", help="include the Chern character image")
    p.set_defaults(func=_cmd_kclass)

    p = add("lr", help="Littlewood-Richardson coefficient by ballot tableaux")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=_cmd_lr)

    p = add("buk", help="structure constant for tuples of length-k partitions")
    p.add_argument("--k", type=decimal_int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--m", dest="mu", required=True)
    p.add_argument("--n", dest="nu", required=True)
    p.set_defaults(func=_cmd_buk)

    p = add("verify-paper", help="replay the built-in reference fixtures")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
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
        "inputs": _echo_inputs(args),
        "exact": True,
        "output": output,
    }
    indent = 2 if args.pretty else None
    print(json.dumps(result, indent=indent))
    if args.command == "verify-paper" and not output["all_pass"]:
        return 1
    return 0


def _echo_inputs(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"func", "command", "pretty"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
