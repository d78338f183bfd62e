"""Sparse multivariate polynomials with exact rational coefficients.

The universal polynomial container of the package: a finitely supported
mapping exponent-vector -> Fraction, with a fixed number of variables.
Zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import LengthMismatchError

ExponentVector = tuple[int, ...]

_ZERO = Fraction(0)


class SparsePoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[ExponentVector, Fraction | int] | None = None):
        self.nvars = nvars
        clean: dict[ExponentVector, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise LengthMismatchError(
                        f"exponent vector {exps} does not have {nvars} entries"
                    )
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: Fraction(1)})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: Fraction | int = 1) -> "SparsePoly":
        e = tuple(exps)
        return cls(len(e), {e: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = out.get(exps, Fraction(0)) + coeff
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return SparsePoly(self.nvars, out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        out: dict[ExponentVector, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(e, Fraction(0)) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        return SparsePoly(self.nvars, out)

    def scale(self, factor: Fraction | int) -> "SparsePoly":
        f = Fraction(factor)
        if not f:
            return SparsePoly.zero(self.nvars)
        return SparsePoly(self.nvars, {e: c * f for e, c in self.terms.items()})

    def restrict(self, nvars: int) -> "SparsePoly":
        """Set the variables beyond index ``nvars`` to zero."""
        if nvars > self.nvars:
            raise LengthMismatchError(f"cannot restrict {self.nvars} variables to {nvars}")
        out = {
            e[:nvars]: c for e, c in self.terms.items() if all(x == 0 for x in e[nvars:])
        }
        return SparsePoly(nvars, out)

    def sorted_terms(self) -> list[tuple[ExponentVector, Fraction]]:
        """Terms in canonical order: by total degree, then exponent vector."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise LengthMismatchError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(exps)
                if p
            )
            bits.append(f"{coeff}" if not mono else f"{coeff}*{mono}")
        return " + ".join(bits)
