"""Truncated K-ring pipeline for products of projective spaces.

Everything happens in Q[y_1..y_n]/(y_i^(m+1)): structure classes of products
of projective subspaces are monomials in the y_i, unions of such products get
their class from an inclusion-exclusion weighted by a Mobius function on the
poset of components (computed here by its own downward recurrence, never
borrowed from the string-poset engine), and the Chern character substitutes
the truncated exponential series for each variable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, factorial
from operator import and_, getitem, or_
from typing import Iterable, Sequence

from .compositions import _container, _exact, _instance, _size, as_composition, closure, paddings
from .errors import LengthMismatchError, OutOfRangeError
from .poly import SparsePoly, _BoxTerms, _exact_terms
from .qsym import _box_passes, _group_by_positive_part


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


def chern_substitute(element: KRingElement) -> SparsePoly:
    """Substitute the truncated exponential series for each variable.

    Replaces y_i by x_i - x_i^2/2 + x_i^3/6 - ... (up to the element's cap m)
    and reduces modulo x_i^(m+1); coefficients stay exact rationals.

    The image is computed on integers, with the table ``_chern_rows(m)``
    scaled by m!, on a dense box that its terms hold: a read-only view,
    ``poly._BoxTerms``, whose docstring describes the box.  The view builds
    its dict and Fractions on its first read and never before, so a caller
    that only counts the terms or reads coordinates builds neither.
    """
    m = _instance(element, KRingElement, "element").m
    terms = _BoxTerms._substituted(element.nvars, element.poly.terms, _chern_rows(m), factorial(m))
    return SparsePoly._trusted(element.nvars, terms)


def is_quasisymmetric(f: SparsePoly, n: int) -> bool:
    """Whether all placements of each composition carry equal coefficients.

    A Chern image is answered by its box's slice check alone
    (``qsym._box_passes``), which keeps its verdict: calling this and then
    ``polynomial_to_m`` on one image runs the check once.  Any other
    polynomial, or an image whose box fails the check, goes to the
    grouping reader.
    """
    return _box_passes(f, n) or _group_by_positive_part(f, n)[1] is None
