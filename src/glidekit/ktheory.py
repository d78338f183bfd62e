"""Truncated K-ring pipeline for products of projective spaces.

Everything happens in Q[y_1..y_n]/(y_i^(m+1)): structure classes of products
of projective subspaces are monomials in the y_i, unions of such products get
their class from an inclusion-exclusion weighted by a Mobius function on the
poset of components (computed here by its own downward recurrence, never
borrowed from the string-poset engine), and the Chern character substitutes
the truncated exponential series for each variable.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, repeat
from math import comb, factorial, prod
from operator import add, and_, getitem, mul, or_
from typing import Iterable, Sequence

from .compositions import _container, _exact, _instance, _size, as_composition, closure, paddings
from .errors import LengthMismatchError, OutOfRangeError
from .poly import SparsePoly, _BoxTerms, _exact_terms, _integer_numerators
from .qsym import _checked_box, _group_by_positive_part


@dataclass(frozen=True)
class KRingElement:
    """Polynomial in y_1..y_n with every exponent capped at m.

    Reduction (dropping monomials with an exponent above the cap) is applied
    eagerly at construction and after every product.
    """

    poly: SparsePoly
    m: int

    def __post_init__(self):
        poly = _instance(self.poly, SparsePoly, "poly")
        _size(self.m, 0, "truncation degree m")
        reduced = {e: c for e, c in poly.terms.items() if all(x <= self.m for x in e)}
        # a subset of a polynomial's terms needs no second check
        object.__setattr__(self, "poly", SparsePoly._trusted(poly.nvars, reduced))

    @property
    def nvars(self) -> int:
        return self.poly.nvars

    def __add__(self, other: "KRingElement") -> "KRingElement":
        self._check(other)
        return KRingElement(self.poly + other.poly, self.m)

    def __mul__(self, other: "KRingElement") -> "KRingElement":
        self._check(other)
        return KRingElement(self.poly * other.poly, self.m)

    def restrict(self, n: int, m: int) -> "KRingElement":
        """Map to fewer variables (killing the tail) and a lower cap."""
        if _size(m, 0, "m") > self.m:
            raise OutOfRangeError(f"cannot raise truncation degree {self.m} to {m}")
        return KRingElement(self.poly.restrict(n), m)

    def _check(self, other: "KRingElement") -> None:
        if self.m != _instance(other, KRingElement, "other").m:
            raise LengthMismatchError(f"truncation degrees differ: {self.m} vs {other.m}")


def projective_structure_class(r: int, m: int) -> KRingElement:
    """Class of an r-dimensional linear subspace in one variable: y^(m-r)."""
    _size(m, _size(r, 0, "r"), "m")
    return KRingElement(SparsePoly.monomial((m - r,)), m)


def _twist(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Apply the matrix (-1)^j C(i, j), from index i to index j: the
    expansion of (1 - y)^i over powers of y, and its own inverse."""
    out = [Fraction(0)] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * (-1) ** j * comb(i, j)
    return out


def line_bundle_to_y(coeffs: Sequence[Fraction | int], m: int) -> KRingElement:
    """Change of basis from twisting-sheaf classes to powers of y.

    ``coeffs[i]`` is the coefficient of the class twisted by -i; that class
    equals (1 - y)^i.
    """
    exact = [_exact(c, "coefficient") for c in _container(coeffs, "coeffs")]
    if len(exact) != _size(m, 0, "m") + 1:
        raise OutOfRangeError(f"expected {m + 1} coefficients, got {len(exact)}")
    out = _twist(exact)
    return KRingElement(SparsePoly(1, {(j,): c for j, c in enumerate(out) if c}), m)


def y_to_line_bundle(element: KRingElement) -> tuple[Fraction, ...]:
    """Inverse change of basis: expand powers of y over twisting-sheaf classes."""
    if _instance(element, KRingElement, "element").nvars != 1:
        raise LengthMismatchError("line bundle expansion needs a one-variable element")
    return tuple(_twist([element.poly.coefficient((j,)) for j in range(element.m + 1)]))


def z_locus(alpha: Iterable[int], n: int, m: int) -> frozenset[tuple[int, ...]]:
    """Components of the union of products of projective subspaces dual to a
    padded cell.

    One component per order-preserving placement of alpha into n slots; the
    component records codimension data r_i = m - (padded alpha)_i.
    """
    a = as_composition(alpha)
    _size(m, max(a, default=0), "m")
    return frozenset(paddings(tuple(m - x for x in a), _size(n, len(a), "n"), m))


def knutson_class(alpha: Iterable[int], n: int, m: int) -> KRingElement:
    """Structure-sheaf class of the dual union, by Mobius inclusion-exclusion.

    The poset is the intersection closure of the components, ordered by
    inclusion (componentwise comparison of dimension tuples); its Mobius
    function is pinned by requiring the values above any element to sum to 1
    and is computed top-down here, independently of the string-poset engine.

    The recurrence runs on upset bitsets over the elements in the order
    (-sum, lex), which puts everything above an element before it.
    ``at_least[i][v]`` holds the elements whose coordinate i is at least v,
    so the AND of ``at_least[i][w_i]`` over the coordinates is the upset of
    w; masked by the elements already done with a nonzero value it is the
    strict upset minus its zeros, and mu(w) is 1 minus the sum over it.
    Each table is keyed by the values coordinate i takes, not by 0..m, so
    it has at most one entry per element however large m is.
    """
    order = sorted(closure(z_locus(alpha, n, m), min), key=lambda e: (-sum(e), e))
    at_least = []
    for i in range(n):
        exact: defaultdict[int, int] = defaultdict(int)
        for k, e in enumerate(order):
            exact[e[i]] |= 1 << k
        present = sorted(exact, reverse=True)
        at_least.append(dict(zip(present, accumulate(map(exact.__getitem__, present), or_))))
    values = [0] * len(order)
    nonzero = 0
    terms: dict[tuple[int, ...], int] = {}
    for k, w in enumerate(order):
        above = 0
        bits = reduce(and_, map(getitem, at_least, w), nonzero)
        while bits:
            low = bits & -bits
            above += values[low.bit_length() - 1]
            bits ^= low
        values[k] = c = 1 - above
        if c:
            nonzero |= 1 << k
            terms[tuple(m - r for r in w)] = c
    return KRingElement(SparsePoly._trusted(n, _exact_terms(terms, 1)), m)


def chern_series_coeffs(m: int) -> tuple[Fraction, ...]:
    """Degree-m truncation of 1 - exp(-x): coefficient of x^j is (-1)^(j+1)/j!."""
    return tuple(
        Fraction(0) if j == 0 else Fraction((-1) ** (j + 1), factorial(j))
        for j in range(_size(m, 0, "m") + 1)
    )


def _chern_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row g holds m! * [x^d] phi^g for d = 0..m, for g = 0..m, where
    phi = 1 - exp(-x); it is zero below d = g.  Since phi' = 1 - phi,
    (phi^g)' = g * (phi^(g-1) - phi^g), so each entry follows from two
    already known: (d + 1) * [x^(d+1)] phi^g = g * ([x^d] phi^(g-1) - [x^d] phi^g).
    Scaled by m! every entry is an int, so the division by d + 1 is exact."""
    rows = [[factorial(m)] + [0] * m]
    for g in range(1, m + 1):
        prev, row = rows[-1], [0] * (m + 1)
        for d in range(g - 1, m):
            row[d + 1] = g * (prev[d] - row[d]) // (d + 1)
        rows.append(row)
    return tuple(map(tuple, rows))


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


def chern_substitute(element: KRingElement) -> SparsePoly:
    """Substitute the truncated exponential series for each variable.

    Replaces y_i by x_i - x_i^2/2 + x_i^3/6 - ... (up to the element's cap m)
    and reduces modulo x_i^(m+1); coefficients stay exact rationals.

    The image is computed on a dense box of integer numerators over one
    denominator.  Entry e sits at the index whose digits are the positions
    of e_1, ..., e_n in V = {0} | [p, m], p the least positive exponent of
    the element: row g of the table is zero below d = g, and only row 0
    reaches d = 0, so no image exponent falls outside V.  The terms are
    scattered into the box as they are, with digits over the exponents E of
    the element; each of n equal passes then substitutes the leading axis,
    writing output column d with ``out[d::|V|] = ...``, which moves that
    axis to the back, so n moves restore the order.  An axis not yet
    substituted keeps its |E| digits until its pass.

    The box takes one of two forms, chosen from the element alone.  A box
    of at least ``_WORD_BOX`` entries whose bound (``_chern_bound``) is
    below 2^63 is an ``array("q")`` of signed 64-bit words, run through
    ``_word_passes``; every other box is a list of ints, which hold entries
    of any size, run through the list passes here.  Both give the same
    entries, so the terms do not depend on the form.

    The terms are the nonzero entries over the common denominator, in index
    order, which is lexicographic order.  They are a read-only view over
    the box that builds its dict and Fractions on its first read and never
    before, so a caller that only counts the terms or reads coordinates
    builds neither.  The view is the box's one home: the slice check of
    ``qsym.polynomial_to_m`` and ``is_quasisymmetric`` reads the box from
    it, and an image's terms cannot be rebound, so the two cannot part.
    """
    m = _instance(element, KRingElement, "element").m
    n = element.nvars
    numerators, lcm_coeff = _integer_numerators(element.poly.terms)
    # E, every exponent of the element
    present = sorted(set(chain.from_iterable(element.poly.terms))) or [0]
    values = (0, *range(min(filter(None, present), default=m + 1), m + 1))
    width, b = len(present), len(values)
    # the rows are scaled by m!: the substitution runs on integers.  Row g's
    # nonzero entries at V, as (digit of d in V, entry), for g in E
    rows = _chern_rows(m)
    images = [
        [(d, a) for d, a in enumerate(map(rows[g].__getitem__, values)) if a] for g in present
    ]
    digit = dict(zip(present, range(width)))
    words = b**n >= _WORD_BOX and _chern_bound(numerators, rows) < _WORD_LIMIT
    box = array("q", bytes(8)) * width**n if words else [0] * width**n
    for e, c in numerators:
        i = 0
        for x in e:
            i = i * width + digit[x]
        box[i] = c
    if words:
        box = _word_passes(box, n, width, images, b)
    else:
        # the list passes, inline: a call would cost a box of a few entries
        # about 2 %
        for _ in range(n):
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
    denominator = factorial(m) ** n * lcm_coeff
    return SparsePoly._trusted(n, _BoxTerms(n, box, values, denominator))


def _chern_bound(
    numerators: list[tuple[tuple[int, ...], int]], rows: tuple[tuple[int, ...], ...]
) -> int:
    """A bound on |entry| over every box the passes make from the terms
    c * y^e given as ``numerators``: the sum of |c| times the product over
    i of the largest |entry| of row e_i of the table ``rows``.  Each such
    largest entry is at least 1 (row g holds m! at d = g), so the bound
    also covers the boxes made part way through the passes."""
    peaks = [max(map(abs, row)) for row in rows]
    return sum(abs(c) * prod(map(peaks.__getitem__, e)) for e, c in numerators)


def _word_passes(box: array, n: int, width: int, images, b: int) -> array:
    """The n passes on signed 64-bit words, for a box whose entries fit one
    before, during and after the passes (``_chern_bound``).  Each block is
    read as one int, a 64-bit field an entry, so output column d, the sum
    of the blocks g scaled by their table entries, takes one exact
    multiply-add a block, not one an entry; it is written back with one
    strided assignment."""
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
        half = int.from_bytes(_HALF * stride, sys.byteorder)
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


def is_quasisymmetric(f: SparsePoly, n: int) -> bool:
    """Whether all placements of each composition carry equal coefficients.

    A Chern image is answered by the slice check of ``qsym._checked_box``
    alone, which keeps its verdict in the image's box view: calling this
    and then ``polynomial_to_m`` on one image runs the check once.  Any
    other polynomial, or an image whose box fails the check, goes to the
    grouping reader.
    """
    return _checked_box(f, n) is not None or _group_by_positive_part(f, n)[1] is None
