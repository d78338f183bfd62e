"""JSON encoding and flag parsing shared by the CLI and the fixture replayer.

Rationals are serialized as strings ("3", "-1/2") so nothing is ever forced
through floating point.  Compositions serialize as arrays of integers, the
empty composition as [].
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from .compositions import _exact, canonical_key
from .errors import InputFileError, InvalidCompositionError, MalformedInputError
from .poly import SparsePoly


def frac_str(value: Fraction | int) -> str:
    """A coefficient as "p/q" text, or "p" for an integer, by the
    coefficient rule; a Fraction is written as it is, not wrapped again."""
    return str(_exact(value, "coefficient"))


def parse_frac(text: str | int) -> Fraction:
    """A rational from "p/q" text, or from a JSON number by the coefficient rule.

    In text, p and the optional q are each read by ``decimal_int``, and q
    must be at least 1, so "0.1", "1e3", "1_0", "+3" and non-ASCII digits
    are malformed input, as they are for an integer flag.  A JSON value that
    is neither a string nor an integer (a float, a bool, null, an array or
    an object) is malformed input; the message names the two forms a JSON
    file can use.
    """
    if type(text) is not str:
        try:
            return _exact(text, "coefficient")
        except MalformedInputError:
            shown = json.dumps(text, default=repr)
            raise MalformedInputError(
                f'a coefficient must be a JSON integer or a "p/q" string, got {shown}'
            ) from None
    p, slash, q = text.partition("/")
    try:
        numerator, denominator = decimal_int(p), decimal_int(q) if slash else 1
    except ValueError as exc:
        raise MalformedInputError(f"cannot parse a rational from {text!r}") from exc
    if denominator < 1:
        raise MalformedInputError(f"cannot parse a rational from {text!r}: q must be at least 1")
    return Fraction(numerator, denominator)


def read_json(path: str | os.PathLike) -> Any:
    """Parse a JSON input file, with typed errors for unreadable or invalid files.

    The path must be a ``str`` or an ``os.PathLike``: ``open`` would read an
    int as a file descriptor, and close it.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise MalformedInputError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


def decimal_int(text: str) -> int:
    """An int from ASCII decimal text: an optional '-' and the digits 0-9,
    with the surrounding whitespace ``int()`` allows.  ``int()`` alone also
    takes '+', underscores ('1_0') and non-ASCII digits; a ValueError here
    is argparse's usage error for an integer flag, and ``parse_frac`` reads
    p and q with it."""
    digits = text.strip()
    body = digits[1:] if digits.startswith("-") else digits
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(digits)


def parse_composition(text: str) -> tuple[int, ...]:
    """Comma-separated parts, each by ``decimal_int``; the empty string is
    the empty composition."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(decimal_int(p) for p in text.split(","))
    except ValueError as exc:
        raise InvalidCompositionError(f"cannot parse composition from {text!r}") from exc


def parse_partition_tuple(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated partitions, each a comma list."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_composition(chunk) for chunk in text.split(";"))


def string_key(exps: Sequence[int]) -> str:
    return ",".join(str(x) for x in exps)


def poly_to_json(f: SparsePoly) -> list[dict[str, Any]]:
    return [
        {"exp": list(exps), "coeff": frac_str(coeff)}
        for exps, coeff in f.sorted_terms()
    ]


def comp_map_to_json(coords: Mapping[tuple[int, ...], Fraction | int]) -> list[dict[str, Any]]:
    return [
        {"comp": list(comp), "coeff": frac_str(coords[comp])}
        for comp in sorted(coords, key=canonical_key)
        if coords[comp]
    ]


def comp_map_from_json(items: Iterable[Mapping[str, Any]]) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    try:
        for entry in items:
            comp = tuple(entry["comp"])
            if comp in out:
                raise MalformedInputError(f"composition {list(comp)} is listed twice")
            out[comp] = parse_frac(entry["coeff"])
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(
            "coordinates must be a list of {\"comp\": [...], \"coeff\": \"p/q\"} objects"
        ) from exc
    return out
