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

``_FractionTable`` is the one place in the package where an integer
numerator becomes a Fraction.  Two helpers read it: ``_exact_terms`` turns
a mapping of numerators into terms, and ``_fractions`` turns a stream of
numerators whose keys the caller picks apart with ``compress``, as the box
view's terms and placement reader and the product do.

``_BoxTerms`` holds a Chern image's terms as a dense box of numerators; it
is the one code that knows the box's layout, and its docstring describes it.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, product, repeat
from math import gcd, lcm, prod
from operator import add, methodcaller, mul
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


def _exact_terms(
    numerators: Mapping[Hashable, int], denominator: int
) -> dict[Hashable, Fraction]:
    """The keys with a nonzero numerator, in order, each mapped to its
    numerator over one positive denominator, with one Fraction per distinct
    numerator, built by a ``_FractionTable`` the first time it comes."""
    table = _FractionTable(denominator)
    return {k: table[c] for k, c in numerators.items() if c}


def _fractions(numerators: Iterable[int], denominator: int) -> Iterator[Fraction]:
    """The nonzero numerators over one positive denominator, in order, as
    ``_exact_terms`` builds them, for a stream whose keys the caller picks
    apart with ``compress``."""
    return map(_FractionTable(denominator).__getitem__, filter(None, numerators))


class _BoxTerms(Mapping):
    """Read-only terms of a polynomial in ``nvars`` variables held as a
    dense box: the one code that knows the box, which it builds
    (``_substituted``), counts, checks (``_slice_check``) and reads.

    Entry i of the box ``_numerators`` is an integer numerator over ``_over``
    (a name apart from ``Fraction``'s ``_denominator`` slot, which
    ``_FractionTable`` writes) at the exponent vector whose entries are the
    values at the base-|V| digits of i in V = ``_exponents``, and V[0] = 0.
    The terms are the nonzero entries, in index order, which is
    lexicographic order.  The box is a list of ints or, when
    ``_substituted`` has shown every entry fits one (``_bound``), an
    ``array("q")`` of signed 64-bit words; every read takes either through
    the sequence API (``len``, ``count``, iteration, slices), so nothing
    read depends on the form.

    ``len`` counts the nonzero entries: ``count(0)`` on a list, and on
    words the zero bytes of the OR of the box's eight byte planes, taken
    as ints, so no word becomes an int of its own.  The slice check and the
    placement reader read the box alone.  Every other read builds the dict
    of terms the first time, through one ``_FractionTable``, so each
    distinct numerator's Fraction is built once, and goes to it from then
    on.  ``_quasisymmetric`` is the slice check's verdict, a bool, set by
    its first run and read by every later one, and by no other code; the
    box is never written after it is built, so the verdict cannot go stale.
    """

    __slots__ = (
        "_nvars", "_numerators", "_exponents", "_over", "_terms", "_quasisymmetric"
    )

    # a box of fewer entries runs its passes on a list.  Timed on the
    # kclass_sweep rows, the words' fixed cost per pass and the int a reader
    # makes of each word it takes outweigh what they save on every box of up
    # to 9^3 entries, and on boxes of up to 6^4 read for all their terms; from
    # 5^5 entries on the words are faster read for the coordinates, and within
    # a few per cent either way read for all the terms
    _WORD_BOX = 2048
    _WORD_LIMIT = 1 << 63
    # a 64-bit word with only its top bit set, in the order ``array("q")`` keeps
    _HALF = (1 << 63).to_bytes(8, sys.byteorder)

    def __init__(
        self, nvars: int, numerators: Sequence[int], exponents: tuple[int, ...], denominator: int
    ):
        self._nvars = nvars
        self._numerators = numerators
        self._exponents = exponents
        self._over = denominator
        self._terms: dict[ExponentVector, Fraction] | None = None

    @classmethod
    def _substituted(
        cls,
        nvars: int,
        terms: Mapping[ExponentVector, Fraction],
        rows: Sequence[Sequence[int]],
        scale: int,
    ) -> "_BoxTerms":
        """The box of ``terms`` with each y_i^g replaced by
        sum_d rows[g][d] x_i^d / ``scale``, ``rows`` being ``scale`` times
        a table of rationals, so that the substitution runs on ints.

        V is 0 and every d at which the row of an exponent of the terms is
        nonzero.  The terms are scattered into the box as they are, with
        digits over their exponents E; each of n equal passes then
        substitutes the leading axis, writing output column d with
        ``out[d::|V|] = ...``, which moves that axis to the back, so n moves
        restore the order.  A box of at least ``_WORD_BOX`` entries whose
        ``_bound`` is below 2^63 runs its passes on words
        (``_word_passes``), every other one on a list of ints, here.
        """
        numerators, lcm_coeff = _integer_numerators(terms)
        # E, every exponent of the terms
        present = sorted(set(chain.from_iterable(terms))) or [0]
        values = tuple(sorted({0}.union(*(compress(count(), rows[g]) for g in present))))
        width, b = len(present), len(values)
        # row g's nonzero entries at V, as (digit of d in V, entry), for g in E
        images = [
            [(d, a) for d, a in enumerate(map(rows[g].__getitem__, values)) if a] for g in present
        ]
        digit = dict(zip(present, range(width)))
        words = b**nvars >= cls._WORD_BOX and cls._bound(numerators, rows) < cls._WORD_LIMIT
        box = array("q", bytes(8)) * width**nvars if words else [0] * width**nvars
        for e, c in numerators:
            i = 0
            for x in e:
                i = i * width + digit[x]
            box[i] = c
        if words:
            box = cls._word_passes(box, nvars, width, images, b)
        else:
            # the list passes, inline: a call would cost a box of a few entries
            # about 2 %
            for _ in range(nvars):
                # output column d sums the scaled blocks g; zero blocks are skipped
                stride = len(box) // width
                columns = [None] * b
                for g, targets in enumerate(images):
                    block = box[g * stride : (g + 1) * stride]
                    if any(block):
                        for d, a in targets:
                            scaled = map(mul, block, repeat(a))
                            column = columns[d]
                            columns[d] = scaled if column is None else map(add, column, scaled)
                box = [0] * (stride * b)
                for d, column in enumerate(columns):
                    if column is not None:
                        box[d::b] = column
        return cls(nvars, box, values, scale**nvars * lcm_coeff)

    @staticmethod
    def _bound(numerators: list[tuple[ExponentVector, int]], rows: Sequence[Sequence[int]]) -> int:
        """A bound on |entry| over every box the passes make from the terms
        c * y^e given as ``numerators``: the sum of |c| times the product
        over i of the largest |entry| of row e_i of ``rows``.  A row of the
        terms' exponents is nonzero (the Chern table's row g holds its scale
        at d = g), so each such largest entry is at least 1 and the bound
        also covers the boxes made part way through the passes."""
        peaks = [max(map(abs, row)) for row in rows]
        return sum(abs(c) * prod(map(peaks.__getitem__, e)) for e, c in numerators)

    @classmethod
    def _word_passes(cls, box: array, n: int, width: int, images, b: int) -> array:
        """The n passes on words.  Each block is read as one int, a 64-bit
        field an entry, so output column d, the sum of the blocks g scaled
        by their table entries, takes one exact multiply-add a block, not
        one an entry; it is written back with one strided assignment."""
        # column d's blocks, as (g, table entry)
        sources = [[] for _ in range(b)]
        for g, targets in enumerate(images):
            for d, a in targets:
                sources[d].append((g, a))
        for _ in range(n):
            stride = len(box) // width
            size = 8 * stride
            # 2^63 in each field: a field read unsigned is its value plus 2^63
            # once its top bit is flipped, and a column plus 2^63 in each field
            # has every field in [0, 2^64), whose top bit flipped back is the word
            half = int.from_bytes(cls._HALF * stride, sys.byteorder)
            view = memoryview(box)
            blocks = [
                (int.from_bytes(view[g * stride : (g + 1) * stride], sys.byteorder) ^ half) - half
                for g in range(width)
            ]
            view.release()
            # the old box goes before the new one is made
            box = None
            box = array("q", bytes(8)) * (stride * b)
            out = memoryview(box)
            for d, pairs in enumerate(sources):
                column = 0
                for g, a in pairs:
                    column += a * blocks[g]
                if column:
                    # rebound at each step, so one column-sized int at a time
                    # is let go
                    column += half
                    column ^= half
                    out[d::b] = memoryview(column.to_bytes(size, sys.byteorder)).cast("q")
        return box

    def _built(self) -> dict[ExponentVector, Fraction]:
        terms = self._terms
        if terms is None:
            box = self._numerators
            keys = compress(product(self._exponents, repeat=self._nvars), box)
            terms = self._terms = dict(zip(keys, _fractions(box, self._over)))
        return terms

    def _slice_check(self) -> bool:
        """Whether the polynomial is quasisymmetric, read off the box once.

        Moving a 0 past a part keeps the positive part, and such moves join
        any two placements of a composition, so it is exactly when
        A[..., 0, v, ...] = A[..., v, 0, ...] on each adjacent pair of axes.
        For the pair (i, i + 1) the two sides are blocks of |V|^(n - i - 2)
        entries after each of the |V|^i prefixes, compared block by block,
        or as strided slices when the prefixes are the more numerous.
        """
        verdict = getattr(self, "_quasisymmetric", None)
        if verdict is not None:
            return verdict
        box, n, b = self._numerators, self._nvars, len(self._exponents)
        for i in range(n - 1):
            outer = b ** (n - i)
            inner = outer // b // b
            for v in range(1, b):
                # the blocks (0, v) and (v, 0) start here after a prefix
                left, right = v * inner, v * b * inner
                if b**i <= inner:
                    for p in range(0, len(box), outer):
                        if box[p + left : p + left + inner] != box[p + right : p + right + inner]:
                            self._quasisymmetric = False
                            return False
                else:
                    for t in range(inner):
                        if box[left + t :: outer] != box[right + t :: outer]:
                            self._quasisymmetric = False
                            return False
        self._quasisymmetric = True
        return True

    def _read_placements(self) -> dict[ExponentVector, Fraction]:
        """The placement reader, for a box that passes the slice check:
        each composition gamma with the coefficient its placements share,
        read at (0, ..., 0, gamma), the index whose digits are some 0s then
        no 0, by length, then in lexicographic order.  The terms are not
        read."""
        n, values = self._nvars, self._exponents
        b = len(values)
        # over k digits, tails[i] is 1 when i's digits are 0s then no 0, and
        # full[i] when no digit of i is 0; bytes, one byte an entry where a
        # list holds a pointer, as ``compress`` takes any selector
        tails = full = b"\x01"
        for _ in range(n):
            tails, full = tails + full * (b - 1), bytes(len(full)) + full * (b - 1)
        # the entries at the placements: the nonzero ones pick the compositions
        # and give the coefficients
        placed = list(compress(self._numerators, tails))
        gammas = chain.from_iterable(product(values[1:], repeat=k) for k in range(n + 1))
        return dict(zip(compress(gammas, placed), _fractions(placed, self._over)))

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

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._built()!r})"

    def __reversed__(self) -> Iterator[ExponentVector]:
        return reversed(self._built())

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
        # one Fraction per distinct int coefficient
        ints = _FractionTable(1)
        for exps, coeff in _container({} if terms is None else terms, "terms", items=True):
            e = _string(exps, nvars, "exponent vector")
            c = ints[coeff] if type(coeff) is int else _exact(coeff, "coefficient")
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
        return SparsePoly._trusted(self.nvars, _exact_terms(scaled, d * f.denominator))

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
