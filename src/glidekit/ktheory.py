"""Truncated K-ring pipeline for products of projective spaces.

Everything happens in Q[y_1..y_n]/(y_i^(m+1)): structure classes of products
of projective subspaces are monomials in the y_i, unions of such products get
their class from an inclusion-exclusion weighted by a Mobius function on the
poset of components (computed here by its own downward recurrence, never
borrowed from the string-poset engine), and the Chern character substitutes
the truncated exponential series for each variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb, factorial
from operator import and_, getitem, or_
from typing import Iterable, Sequence

from .compositions import _container, _exact, _instance, _size, as_composition, closure, paddings
from .errors import LengthMismatchError, OutOfRangeError
from .poly import SparsePoly, _integer_numerators
from .qsym import read_m_coords


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

    @classmethod
    def _trusted(cls, poly: SparsePoly, m: int) -> "KRingElement":
        """Wrap a polynomial built inside the package without checking it again.

        The caller guarantees what ``__post_init__`` enforces: ``m`` is an int
        >= 0 and no exponent of ``poly`` is above it.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "m", m)
        return self

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
    """
    order = sorted(closure(z_locus(alpha, n, m), min), key=lambda e: (-sum(e), e))
    at_least = []
    for i in range(n):
        exact = [0] * (m + 1)
        for k, e in enumerate(order):
            exact[e[i]] |= 1 << k
        at_least.append(list(accumulate(reversed(exact), or_))[::-1])
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
    # every exponent is m - r with 0 <= r <= m, so the cap holds by construction
    return KRingElement._trusted(SparsePoly._from_numerators(n, terms, 1), m)


def chern_series_coeffs(m: int) -> tuple[Fraction, ...]:
    """Degree-m truncation of 1 - exp(-x): coefficient of x^j is (-1)^(j+1)/j!."""
    return tuple(
        Fraction(0) if j == 0 else Fraction((-1) ** (j + 1), factorial(j))
        for j in range(m + 1)
    )


# one entry per truncation degree m; a few dozen cover every m a
# desk-scale K-class reaches
@lru_cache(maxsize=32)
def _chern_rows(m: int) -> tuple[tuple[tuple[tuple[int], int], ...], ...]:
    """Row g holds ((d,), m! * [x^d] (1 - exp(-x))^g) for each nonzero
    term, d <= m, for g = 0..m.  The m!-scaled series has integer terms
    m!/j!; a scaled power times it is the next power scaled by (m!)^2."""
    scale = factorial(m)
    series = [0] + [(-1) ** (j + 1) * (scale // factorial(j)) for j in range(1, m + 1)]
    power = [scale] + [0] * m
    rows = []
    for _ in range(m + 1):
        rows.append(tuple(((d,), c) for d, c in enumerate(power) if c))
        nxt = [0] * (m + 1)
        for i, a in enumerate(power):
            if a:
                for j in range(1, m + 1 - i):
                    nxt[i + j] += a * series[j]
        power = [c // scale for c in nxt]
    return tuple(rows)


def chern_substitute(element: KRingElement) -> SparsePoly:
    """Substitute the truncated exponential series for each variable.

    Replaces y_i by x_i - x_i^2/2 + x_i^3/6 - ... (up to the element's cap m)
    and reduces modulo x_i^(m+1); coefficients stay exact rationals.
    """
    m = _instance(element, KRingElement, "element").m
    # the rows are scaled by m!: the substitution runs on integers
    table = _chern_rows(m)
    n = element.nvars
    numerators, lcm_coeff = _integer_numerators(element.poly.terms)
    current = dict(numerators)
    # one pass per variable: the exponent g in front becomes each d at the
    # back, weighted by the scaled coefficient of x^d in the g-th power, so
    # after n passes every key is back in its own order; equal keys merge
    # after each pass
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for key, c in current.items():
            rest = key[1:]
            for d, a in table[key[0]]:
                k = rest + d
                nxt[k] = nxt.get(k, 0) + c * a
        current = nxt
    return SparsePoly._from_numerators(n, current, factorial(m) ** n * lcm_coeff)


def is_quasisymmetric(f: SparsePoly, n: int) -> bool:
    """Whether all placements of each composition carry equal coefficients."""
    return read_m_coords(f, n)[1] is None
