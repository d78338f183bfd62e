"""String posets: zero-paddings of a composition, closed under componentwise max.

The poset P(alpha, n) lives inside length-n weak compositions, ordered
componentwise.  Adjoining a formal bottom element makes it a lattice; meets
that only exist through the bottom are reported as the BOTTOM sentinel.

The Mobius function here uses the convention that the values below any
element sum to 1 (so every minimal element gets 1); it is the negative of
the traditional bottom-augmented Mobius function.

Order queries run on bitsets over the element indices: bit k of a downset
is set when element k lies below.  Per-coordinate tables give every
downset as an AND of n integers, so the Mobius recurrence, the cover
relations and meets cost bit operations instead of loops over pairs.
The tables are read off one byte matrix of the n columns, one
``bytes.translate`` and one ``int(..., 2)`` per entry value; a poset with an
entry of 256 or more, which no byte holds, fills them one element at a time.
The elements are stored in lex order, which extends the componentwise
order, so everything below an element has a smaller index.  The Mobius
values found so far are kept as bit-planes, one bitset per binary digit
of |mu| and sign, and the sum over a downset is a popcount per plane.
The covers of an element are found greatest index first, each time
dropping the cover's whole downset from the candidates, one AND-NOT per
cover pair.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations
from operator import and_, getitem, le, or_
from typing import Iterable, Sequence

from .compositions import (
    WeakComposition,
    _container,
    _size,
    _string,
    as_composition,
    as_weak_composition,
    closure,
    paddings,
)
from .errors import InvalidCompositionError, LengthMismatchError, OutOfRangeError


class _Bottom:
    """Sentinel for the adjoined minimum element; never a string value."""

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = _Bottom()

# _AT_MOST[v] translates a byte to "1" when it is at most v and to "0" otherwise
_AT_MOST = [b"1" * (v + 1) + b"0" * (255 - v) for v in range(256)]


def join(p: Sequence[int], q: Sequence[int]) -> WeakComposition:
    """Componentwise maximum of two strings of one length."""
    a = as_weak_composition(p)
    return tuple(map(max, a, _string(q, len(a), "string")))


def leq(p: Sequence[int], q: Sequence[int]) -> bool:
    """Whether p is at most q in every coordinate, for strings of one length."""
    a = as_weak_composition(p)
    return all(map(le, a, _string(q, len(a), "string")))


def atoms(alpha: Iterable[int], n: int) -> frozenset[WeakComposition]:
    """All length-n strings obtained from alpha by inserting zeros."""
    a = as_composition(alpha)
    return frozenset(paddings(a, _size(n, len(a), "n")))


@dataclass(frozen=True, init=False, repr=False)
class GlidePoset:
    """Length-n strings ordered componentwise (for ``build_poset``, the
    closure of the zero-paddings of alpha under componentwise max).

    The class takes its elements only and works out its atoms, the minimal
    elements, when ``atom_set`` is first read.  Every element must be a weak
    composition of length n; repeated elements count once.  Elements are
    stored lexicographically sorted, so iteration order, linear extensions,
    and serialized output are deterministic.  A poset is a frozen dataclass
    that compares and hashes by ``(n, elements)``; the element index, the
    order tables and the atoms are cached properties, each built on its
    first read.
    """

    n: int
    elements: tuple[WeakComposition, ...]

    def __init__(self, n: int, elements: Iterable[WeakComposition]):
        n = _size(n, 0, "n")
        strings = {_string(e, n, "poset element") for e in _container(elements, "elements")}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", tuple(sorted(strings)))

    @classmethod
    def _trusted(cls, n: int, elements: set[WeakComposition]) -> "GlidePoset":
        """Wrap strings built inside the package without checking them again.

        The caller guarantees what ``__init__`` enforces: ``n`` is an int
        >= 0 and every element is a tuple of n nonnegative ints.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", tuple(sorted(elements)))
        return self

    @cached_property
    def _index(self) -> dict[WeakComposition, int]:
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def atom_set(self) -> frozenset[WeakComposition]:
        """The minimal elements, found with the componentwise order alone.

        The elements are scanned by increasing entry sum.  Anything strictly
        below an element has a smaller sum, and so has a minimal element
        below it that the scan has already kept; an element is kept when no
        kept one lies below it.  The bitset downsets are never read, so
        ``mobius_crosscut`` shares no order query with ``mobius``.
        """
        minimal: list[WeakComposition] = []
        for e in sorted(self.elements, key=sum):
            if not any(all(map(le, a, e)) for a in minimal):
                minimal.append(e)
        return frozenset(minimal)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, p: object) -> bool:
        """Whether p is an element: a string by the string rule, of length n,
        in the poset.  A value the rule refuses is not a member."""
        try:
            return _string(p, self.n, "string") in self._index
        except (InvalidCompositionError, LengthMismatchError):
            return False

    def _element(self, p: Sequence[int]) -> WeakComposition:
        """A string of length n that is an element of this poset."""
        s = _string(p, self.n, "string")
        if s not in self._index:
            raise OutOfRangeError(f"{s} is not an element of this poset")
        return s

    @cached_property
    def _downsets(self) -> list[int]:
        """Bitset of the downset of every element, by index.

        ``tables[i][v]`` holds the elements whose coordinate i is at most v;
        a downset is the AND of ``tables[i][p_i]`` over the coordinates.
        When every entry is below 256 the columns, joined and reversed, make
        one byte matrix in which bit i*N + k is coordinate i of element k.
        For each entry value v, one ``translate`` writes "1" where a byte is
        at most v and "0" elsewhere, and one ``int(..., 2)`` reads that as the
        tables of every coordinate at v; a shift and a mask take out each
        one.  Larger entries do not fit in a byte, and their tables are
        filled one element at a time, keyed by the values coordinate i takes.
        """
        elements = self.elements
        size = len(elements)
        full = (1 << size) - 1
        if max(chain.from_iterable(elements), default=0) < 256:
            matrix = bytes(chain.from_iterable(zip(*elements)))[::-1]
            planes = {v: int(matrix.translate(_AT_MOST[v]), 2) for v in set(matrix)}
            tables = [
                {v: (plane >> i * size) & full for v, plane in planes.items()}
                for i in range(self.n)
            ]
        else:
            tables = []
            for column in zip(*elements):
                exact: defaultdict[int, int] = defaultdict(int)
                for k, v in enumerate(column):
                    exact[v] |= 1 << k
                present = sorted(exact)
                tables.append(dict(zip(present, accumulate(map(exact.__getitem__, present), or_))))
        return [reduce(and_, map(getitem, tables, e), full) for e in elements]

    def mobius(self) -> dict[WeakComposition, int]:
        """Unique table with sum over {q <= p} of mu(q) equal to 1, for all p.

        Computed along the stored lex order, which extends the componentwise
        order.  ``planes[b]`` holds two bitsets of the elements done so far
        whose |mu| has bit b set, those with mu > 0 and those with mu < 0,
        so the sum over the downset d of p is the sum over b of 2**b *
        (popcount(d & plus) - popcount(d & minus)).  The planes grow with
        the largest |mu|, so the sum is exact.  Keys come by increasing
        entry sum, then lexicographically.
        """
        planes: list[list[int]] = []
        values = []
        bit = 1
        for d in self._downsets:
            below = 0
            b = 0
            for plus, minus in planes:
                below += ((d & plus).bit_count() - (d & minus).bit_count()) << b
                b += 1
            value = 1 - below
            values.append(value)
            if value:
                negative = value < 0  # indexes minus in [plus, minus]
                size, b = abs(value), 0
                while size:
                    if b == len(planes):
                        planes.append([0, 0])
                    if size & 1:
                        planes[b][negative] |= bit
                    size >>= 1
                    b += 1
            bit <<= 1
        # a stable sort by entry sum keeps the stored lex order within a sum
        return dict(sorted(zip(self.elements, values), key=lambda item: sum(item[0])))

    def mobius_crosscut(self, sigma: Sequence[int]) -> int:
        """Independent Mobius oracle via subsets of atoms joining to sigma.

        By the crosscut theorem it equals ``mobius()[sigma]`` on a
        join-closed set, that is, when ``is_lattice_with_bottom()`` holds;
        elsewhere it may differ.  Exponential in the number of atoms below
        sigma; intended for cross-validation at small sizes (at most ~20
        atoms).
        """
        s = self._element(sigma)
        # the atoms and s are checked strings: join and compare them unchecked
        below = [a for a in sorted(self.atom_set) if all(map(le, a, s))]
        total = 0
        for r in range(1, len(below) + 1):
            for subset in combinations(below, r):
                acc = subset[0]
                for a in subset[1:]:
                    acc = tuple(map(max, acc, a))
                if acc == s:
                    total += (-1) ** r
        return -total

    def meet(self, p: Sequence[int], q: Sequence[int]):
        """Greatest common lower bound within the poset, or BOTTOM if none.

        The candidate is the common lower bound of greatest index, which no
        common lower bound lies above.  It is the meet when every common
        lower bound lies below it; otherwise p and q have two incomparable
        maximal common lower bounds and no meet, which is out of range.  A
        join-closed set always passes: the join of the common lower bounds
        is one of them.
        """
        a, b = self._element(p), self._element(q)
        down = self._downsets
        common = down[self._index[a]] & down[self._index[b]]
        if not common:
            return BOTTOM
        g = common.bit_length() - 1
        if common & ~down[g]:
            raise OutOfRangeError(f"{a} and {b} have no meet in this poset")
        return self.elements[g]

    def covers(self) -> list[tuple[int, int]]:
        """Cover relations as index pairs (i, j) with element i covered by j.

        The covers of j are the maximal elements of its strict downset.  The
        greatest index left among the candidates is maximal, since anything
        above it has a larger index; it is a cover, and it and its whole
        downset leave the candidates, until none is left.
        """
        down = self._downsets
        out = []
        for j, d in enumerate(down):
            candidates = d ^ (1 << j)
            while candidates:
                i = candidates.bit_length() - 1
                out.append((i, j))
                candidates &= ~down[i]
        return sorted(out)

    def is_lattice_with_bottom(self) -> bool:
        """Whether every pair has a join in the poset and, once BOTTOM is
        adjoined, a meet.

        Joins are tested through the join-irreducibles: J holds the elements
        that are not the componentwise max of their lower covers, so every
        minimal element is in J.  Going up the stored order, each element
        outside J is the join of its lower covers, each of which is by
        induction a join of members of J below it; so the poset lies inside
        the join-closure of J, and it is join-closed exactly when that
        closure lies inside it.  The closure is drawn lazily and stops at the
        first string outside the poset, after at most |P| + 1 strings.

        Meets need no test: in a finite join-closed set, the common lower
        bounds of p and q, if there are any, have their join among them, and
        that join is the meet; if there are none, the meet is BOTTOM.

        On a ``build_poset`` poset J is the atom set, so the check re-runs
        the closure that built the poset and answers True by construction.
        It tells something only about a poset built from given elements.
        """
        lower: list[list[WeakComposition]] = [[] for _ in self.elements]
        for i, j in self.covers():
            lower[j].append(self.elements[i])
        irreducible = [
            p
            for p, below in zip(self.elements, lower)
            if not below or tuple(max(column) for column in zip(*below)) != p
        ]
        return all(s in self._index for s in closure(irreducible, max))


def build_poset(alpha: Iterable[int], n: int) -> GlidePoset:
    """Join-closure of the zero-paddings of alpha inside length-n strings."""
    # atoms checked n and alpha, and the closure of its strings is made of them
    return GlidePoset._trusted(n, closure(atoms(alpha, n), max))
