"""Sparse multivariate polynomials with exact rational coefficients.

The universal polynomial container of the package: a finitely supported
mapping exponent-vector -> Fraction, with a fixed number of variables.
Zero coefficients are never stored.  The terms are read-only: every
constructor holds them behind a view that refuses writes, and a polynomial
is a frozen dataclass, equal by ``(nvars, terms)``, so its value and hash
never change.  Pickle and copy rebuild it through the checked constructor.

Products run on integers: each factor is scaled to integer numerators over
the lcm of its denominators, the numerators are multiplied and summed as
plain ints, and the Fractions are built at the end, one per distinct
numerator, each from one gcd with its two slots written directly
(``_FractionTable``).  The product also keys its sums by ints: each
exponent vector is packed into one int, a byte-aligned field per variable,
so adding two keys adds the vectors.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, product, repeat
from math import gcd, lcm
from operator import methodcaller
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .compositions import _container, _exact, _instance, _int_parts, _size, _string
from .errors import LengthMismatchError

ExponentVector = tuple[int, ...]

_ZERO = Fraction(0)


def _integer_numerators(
    terms: Mapping[Hashable, Fraction], denominator: int | None = None
) -> tuple[list[tuple[Hashable, int]], int]:
    """The terms as integer numerators over ``denominator``, which must be a
    multiple of each of their denominators; by default the lcm of them."""
    d = lcm(*{c.denominator for c in terms.values()}) if denominator is None else denominator
    return [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()], d


def _packed(rows: list[tuple[ExponentVector, int]], width: int) -> list[tuple[int, int]]:
    """The rows with each exponent vector packed into one int: entry i
    fills bytes [i * width, (i + 1) * width), little-endian."""
    exps, numerators = (e for e, _ in rows), (c for _, c in rows)
    if width == 1:
        keys = map(int.from_bytes, map(bytes, exps), repeat("little"))
    else:
        keys = (
            int.from_bytes(b"".join([x.to_bytes(width, "little") for x in e]), "little")
            for e in exps
        )
    return list(zip(keys, numerators))


def _unpacked(keys: Iterable[int], nvars: int, width: int) -> Iterator[ExponentVector]:
    """The exponent vectors of packed keys, one ``to_bytes`` call each."""
    size = nvars * width
    raw = map(methodcaller("to_bytes", size, "little"), keys)
    if width == 1:
        return map(tuple, raw)
    fields = range(0, size, width)
    return (tuple([int.from_bytes(b[i : i + width], "little") for i in fields]) for b in raw)


class _FractionTable(dict):
    """numerator -> the Fraction numerator / ``denominator``, built on the
    first lookup of the numerator and shared from then on (Fractions are
    immutable); ``denominator`` must be positive.

    The build is one ``gcd`` and the two slots of a bare ``Fraction``
    written directly: the value ``Fraction(c, d)`` returns, without its
    argument parsing and checks.  ``Fraction`` has
    ``__slots__ = ("_numerator", "_denominator")`` and no ``__dict__``, so
    on a Python that renamed a slot the write raises ``AttributeError``
    and never builds a wrong value; ``tests/test_poly.py`` pins the layout.
    """

    __slots__ = ("denominator",)

    def __init__(self, denominator: int):
        self.denominator = denominator

    def __missing__(self, c: int) -> Fraction:
        d = self.denominator
        g = gcd(c, d)
        q = self[c] = object.__new__(Fraction)
        q._numerator = c // g
        q._denominator = d // g
        return q


def _fractions(numerators: Iterable[int], denominator: int) -> Iterator[Fraction]:
    """The nonzero numerators over one positive denominator, in order, with
    one Fraction per distinct numerator, built by a ``_FractionTable`` the
    first time the numerator comes."""
    return map(_FractionTable(denominator).__getitem__, filter(None, numerators))


class _BoxTerms(Mapping):
    """Read-only terms of a polynomial in ``nvars`` variables held as a
    dense box: the entries of ``numerators`` are integer numerators over
    ``denominator``, entry i sitting at the exponent vector whose entries
    are the values at the base-|V| digits of i in V = ``exponents``.  The
    terms are the nonzero entries, in index order, which is lexicographic
    order.  A Chern image's terms are such a view, the one place its box is
    kept.  The denominator is held as ``_over``, a name apart from
    ``Fraction``'s ``_denominator`` slot, which ``_FractionTable`` writes,
    so the source guard on the box's fields sees only the box's readers.

    ``numerators`` is a list of ints or, when ``chern_substitute`` has shown
    every entry fits one, an ``array("q")`` of signed 64-bit words; the view
    and its readers take either through the sequence API (``len``,
    ``count``, iteration, slices), so the terms do not depend on the form.

    ``len`` counts the nonzero entries: ``count(0)`` on a list, and on
    words the zero bytes of the OR of the box's eight byte planes, taken
    as ints, so no word becomes an int of its own.  Every other read
    builds the dict of terms the first time, through one
    ``_FractionTable``, so each distinct numerator's Fraction is built
    once, and goes to it from then on; a reader that only counts builds
    nothing and one that walks the terms makes no Python call per term.

    ``_quasisymmetric`` keeps the slice check's verdict: None until
    ``qsym._checked_box`` first runs on the view, then a bool, never
    coordinates, which a later ``is_quasisymmetric`` or ``polynomial_to_m``
    on the image reuses.  The box is never written after
    ``chern_substitute`` returns, so the verdict cannot go stale.
    """

    __slots__ = (
        "_nvars", "_numerators", "_exponents", "_over", "_terms", "_quasisymmetric"
    )

    def __init__(
        self, nvars: int, numerators: Sequence[int], exponents: tuple[int, ...], denominator: int
    ):
        self._nvars = nvars
        self._numerators = numerators
        self._exponents = exponents
        self._over = denominator
        self._terms: dict[ExponentVector, Fraction] | None = None
        self._quasisymmetric: bool | None = None

    def _built(self) -> dict[ExponentVector, Fraction]:
        terms = self._terms
        if terms is None:
            box = self._numerators
            keys = compress(product(self._exponents, repeat=self._nvars), box)
            terms = self._terms = dict(zip(keys, _fractions(box, self._over)))
        return terms

    def __len__(self) -> int:
        box = self._numerators
        if not isinstance(box, array):
            return len(box) - box.count(0)
        # a word is 0 exactly when each of its bytes is, so one OR of the
        # strided byte planes has a zero byte at each zero word
        raw, width = box.tobytes(), box.itemsize
        nonzero = 0
        for i in range(width):
            nonzero |= int.from_bytes(raw[i::width], "little")
        return len(box) - nonzero.to_bytes(len(box), "little").count(0)

    def __getitem__(self, key: ExponentVector) -> Fraction:
        return self._built()[key]

    def __iter__(self) -> Iterator[ExponentVector]:
        return iter(self._built())

    def __contains__(self, key: object) -> bool:
        return key in self._built()

    def __eq__(self, other: object) -> bool:
        return self._built() == other

    def get(self, key, default=None):
        return self._built().get(key, default)

    def copy(self) -> dict[ExponentVector, Fraction]:
        return self._built().copy()

    def keys(self):
        return self._built().keys()

    def values(self):
        return self._built().values()

    def items(self):
        return self._built().items()


@dataclass(frozen=True, init=False, repr=False)
class SparsePoly:
    # slots by hand: with ``slots=True``, 3.10 and 3.11 raise TypeError on other names
    __slots__ = ("nvars", "terms")
    nvars: int
    terms: Mapping[ExponentVector, Fraction]

    def __init__(self, nvars: int, terms: Mapping[ExponentVector, Fraction | int] | None = None):
        object.__setattr__(self, "nvars", _size(nvars, 0, "nvars"))
        clean: dict[ExponentVector, Fraction] = {}
        # one Fraction per distinct int coefficient, as in ``_from_numerators``
        shared: dict[int, Fraction] = {}
        for exps, coeff in _container({} if terms is None else terms, "terms", items=True):
            e = _string(exps, nvars, "exponent vector")
            c = shared.get(coeff) if type(coeff) is int else _exact(coeff, "coefficient")
            if c is None:
                c = shared[coeff] = _exact(coeff, "coefficient")
            if c:
                clean[e] = c
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, nvars: int, terms: Mapping[ExponentVector, Fraction]) -> "SparsePoly":
        """Wrap terms built inside the package without checking them again.

        The caller guarantees what ``__init__`` enforces: every key is a
        tuple of ``nvars`` nonnegative ints and every value a nonzero
        ``Fraction`` (``__init__`` also takes int coefficients).  A dict is
        held behind a read-only view, which no one else may change; any
        other mapping is held as it is, so it must already be read-only,
        as the closed-glide cache's view and a Chern image's ``_BoxTerms``
        are.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        if isinstance(terms, dict):
            terms = MappingProxyType(terms)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def _from_numerators(
        cls, nvars: int, numerators: Mapping[ExponentVector, int], denominator: int
    ) -> "SparsePoly":
        """Terms given as integer numerators over one positive denominator.

        The keys must be as ``_trusted`` requires.  Zero numerators are
        dropped, and equal numerators share one Fraction (Fractions are
        immutable), so a polynomial with few distinct coefficients builds few.
        """
        shared: dict[int, Fraction] = {}
        terms: dict[ExponentVector, Fraction] = {}
        for e, c in numerators.items():
            if c:
                q = shared.get(c)
                if q is None:
                    q = shared[c] = Fraction(c, denominator)
                terms[e] = q
        return cls._trusted(nvars, terms)

    # pickle and copy rebuild through the checked constructor, as the
    # read-only view over the terms cannot be pickled
    def __reduce__(self):
        return SparsePoly, (self.nvars, self.terms.copy())

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "SparsePoly":
        return cls(nvars, {(0,) * _size(nvars, 0, "nvars"): Fraction(1)})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: Fraction | int = 1) -> "SparsePoly":
        e = _int_parts(exps, 0, "exponent vector")
        return cls(len(e), {e: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(_string(exps, self.nvars, "exponent vector"), _ZERO)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        # ``dict(view)`` copies key by key; ``copy`` copies the table whole
        out = self.terms.copy()
        for exps, coeff in other.terms.items():
            c = out.get(exps)
            if c is None:
                out[exps] = coeff
                continue
            c += coeff
            if c:
                out[exps] = c
            else:
                del out[exps]
        return SparsePoly._trusted(self.nvars, out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-_instance(other, SparsePoly, "other"))

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        left, d1 = _integer_numerators(self.terms)
        right, d2 = _integer_numerators(other.terms)
        # a field wide enough for the largest sum of two exponents never
        # carries into the next, so adding two packed keys adds the vectors
        top = sum(
            max(chain.from_iterable(e for e, _ in rows), default=0) for rows in (left, right)
        )
        width = (top.bit_length() + 7) // 8 or 1
        right = _packed(right, width)
        # both scalings are positive, so a running sum is zero exactly when
        # the rational one is, and keys come and go in the same order
        out: dict[int, int] = {}
        get = out.get
        for k1, a in _packed(left, width):
            for k2, b in right:
                k = k1 + k2
                c = get(k, 0) + a * b
                if c:
                    out[k] = c
                else:
                    del out[k]
        exps = _unpacked(out, self.nvars, width)
        terms = dict(zip(exps, _fractions(out.values(), d1 * d2)))
        return SparsePoly._trusted(self.nvars, terms)

    def scale(self, factor: Fraction | int) -> "SparsePoly":
        f = _exact(factor, "factor")
        numerators, d = _integer_numerators(self.terms)
        scaled = {e: a * f.numerator for e, a in numerators}
        return SparsePoly._from_numerators(self.nvars, scaled, d * f.denominator)

    def restrict(self, nvars: int) -> "SparsePoly":
        """Set the variables beyond index ``nvars`` to zero."""
        if _size(nvars, 0, "nvars") > self.nvars:
            raise LengthMismatchError(f"cannot restrict {self.nvars} variables to {nvars}")
        out = {
            e[:nvars]: c for e, c in self.terms.items() if all(x == 0 for x in e[nvars:])
        }
        return SparsePoly._trusted(nvars, out)

    def sorted_terms(self) -> list[tuple[ExponentVector, Fraction]]:
        """Terms in canonical order: by total degree, then exponent vector."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.nvars != _instance(other, SparsePoly, "other").nvars:
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
