"""Replay of the built-in reference fixtures as an executable regression suite.

Each fixture names a computation and its frozen expected value; a run
recomputes everything and compares exactly.  Fixture data lives in the
fixtures/ directory next to this module, so the recorded values can be
audited without reading any code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable

from . import glides, ktheory, poset, qsym, schur
from .jsonio import comp_map_to_json, poly_to_json, string_key


@dataclass(frozen=True)
class FixtureRow:
    name: str
    kind: str
    passed: bool
    expected: Any
    actual: Any

    def as_json(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "status": "PASS" if self.passed else "FAIL",
        }
        if not self.passed:
            row["expected"] = self.expected
            row["actual"] = self.actual
        return row


def _sorted_strings(strings) -> list[list[int]]:
    return [list(s) for s in sorted(strings)]


def _check_poset_elements(args):
    p = poset.build_poset(tuple(args["alpha"]), args["n"])
    return _sorted_strings(p.elements)


def _check_poset_covers(args):
    p = poset.build_poset(tuple(args["alpha"]), args["n"])
    pairs = [
        [list(p.elements[i]), list(p.elements[j])] for i, j in p.covers()
    ]
    return sorted(pairs)


def _check_join(args):
    return list(poset.join(tuple(args["p"]), tuple(args["q"])))


def _check_meet(args):
    p = poset.build_poset(tuple(args["alpha"]), args["n"])
    m = p.meet(tuple(args["p"]), tuple(args["q"]))
    return "BOTTOM" if m is poset.BOTTOM else list(m)


def _check_atoms(args):
    return _sorted_strings(poset.atoms(tuple(args["alpha"]), args["n"]))


def _check_mobius_table(args):
    p = poset.build_poset(tuple(args["alpha"]), args["n"])
    return {string_key(s): v for s, v in p.mobius().items()}


def _check_mobius_table_crosscut(args):
    p = poset.build_poset(tuple(args["alpha"]), args["n"])
    return {string_key(s): p.mobius_crosscut(s) for s in p.elements}


def _check_mobius_value(args):
    p = poset.build_poset(tuple(args["alpha"]), args["n"])
    return p.mobius()[tuple(args["sigma"])]


def _check_mobius_value_crosscut(args):
    p = poset.build_poset(tuple(args["alpha"]), args["n"])
    return p.mobius_crosscut(tuple(args["sigma"]))


def _check_c_set(args):
    return _sorted_strings(glides.enumerate_C(tuple(args["alpha"]), args["n"]))


def _check_c_tilde_set(args):
    return _sorted_strings(glides.enumerate_C_tilde(tuple(args["alpha"]), args["n"]))


def _check_glide_poly(args):
    f = glides.glide_polynomial(
        tuple(args["alpha"]), args["n"], args.get("method", "closed")
    )
    return poly_to_json(f)


def _check_glide_methods_agree(args):
    alpha, n = tuple(args["alpha"]), args["n"]
    polys = [glides.glide_polynomial(alpha, n, m) for m in glides.GLIDE_METHODS]
    return polys[0] == polys[1] == polys[2]


def _check_shuffle(args):
    return comp_map_to_json(qsym.overlapping_shuffle(tuple(args["a"]), tuple(args["b"])))


def _check_mprod(args):
    prod = qsym.m_multiply(
        qsym.QSymElement.monomial(tuple(args["a"])),
        qsym.QSymElement.monomial(tuple(args["b"])),
    )
    return comp_map_to_json(prod.coords)


def _check_lr(args):
    return schur.lr_coefficient(tuple(args["lam"]), tuple(args["mu"]), tuple(args["nu"]))


def _check_ssyt_count(args):
    shape = schur.SkewShape(outer=tuple(args["outer"]), inner=tuple(args["inner"]))
    tableaux = schur.ssyt_enumerate(shape, tuple(args["content"]))
    return {
        "count": len(tableaux),
        "ballot": sum(1 for t in tableaux if schur.is_ballot(t)),
    }


def _check_buk(args):
    return schur.buk_structure_constant(
        [tuple(p) for p in args["lam"]],
        [tuple(p) for p in args["mu"]],
        [tuple(p) for p in args["nu"]],
        args["k"],
    )


def _check_grassmannian(args):
    return list(schur.grassmannian_to_partition(tuple(args["w"]), args["k"]))


def _check_kclass(args):
    k = ktheory.knutson_class(tuple(args["alpha"]), args["n"], args["m"])
    return poly_to_json(k.poly)


def _check_kclass_equals_glide(args):
    alpha, n, m = tuple(args["alpha"]), args["n"], args["m"]
    k = ktheory.knutson_class(alpha, n, m)
    g = glides.glide_polynomial(alpha, n)
    reduced = ktheory.KRingElement(g, m)
    return k.poly == reduced.poly


def _check_binomial(args):
    return glides.check_binomial_identity(args["N"], args["l"])


_CHECKS: dict[str, Callable[[dict], Any]] = {
    "poset-elements": _check_poset_elements,
    "poset-covers": _check_poset_covers,
    "join": _check_join,
    "meet": _check_meet,
    "atoms": _check_atoms,
    "mobius-table": _check_mobius_table,
    "mobius-table-crosscut": _check_mobius_table_crosscut,
    "mobius-value": _check_mobius_value,
    "mobius-value-crosscut": _check_mobius_value_crosscut,
    "c-set": _check_c_set,
    "c-tilde-set": _check_c_tilde_set,
    "glide-poly": _check_glide_poly,
    "glide-methods-agree": _check_glide_methods_agree,
    "shuffle": _check_shuffle,
    "mprod": _check_mprod,
    "lr": _check_lr,
    "ssyt-count": _check_ssyt_count,
    "buk": _check_buk,
    "grassmannian": _check_grassmannian,
    "kclass": _check_kclass,
    "kclass-equals-glide": _check_kclass_equals_glide,
    "binomial": _check_binomial,
}


def load_fixtures() -> list[dict[str, Any]]:
    out = []
    root = resources.files("glidekit").joinpath("fixtures")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            data = json.loads(entry.read_text(encoding="utf-8"))
            out.extend(data["fixtures"])
    return out


def _normalize(value: Any) -> Any:
    """Canonicalize lists whose order is immaterial (sets of strings, pairs)."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        return sorted(value)
    return value


def run_fixture(fixture: dict[str, Any]) -> FixtureRow:
    check = _CHECKS[fixture["kind"]]
    actual = check(fixture["args"])
    expected = fixture["expected"]
    if fixture["kind"] in {"shuffle", "mprod", "glide-poly", "kclass"}:
        passed = actual == expected  # canonical order is part of the contract
    else:
        passed = _normalize(actual) == _normalize(expected)
    return FixtureRow(
        name=fixture["name"],
        kind=fixture["kind"],
        passed=passed,
        expected=expected,
        actual=actual,
    )


def run_all() -> list[FixtureRow]:
    """Recompute every fixture; rows come back in fixture order."""
    return [run_fixture(f) for f in load_fixtures()]
