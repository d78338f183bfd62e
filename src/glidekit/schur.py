"""Partitions, skew semistandard tableaux, ballotness, and structure constants.

Partitions carry explicit trailing zeros to a fixed length k, and equality is
length-sensitive: bases here are indexed by length-k partitions, with the
all-zeros partition playing the role of the empty shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from operator import ge, gt
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .compositions import (
    _container, _exact, _instance, _int_parts, _kernel, _size, _string, overlapping_paddings,
)
from .errors import (
    InvalidCompositionError,
    LengthMismatchError,
    NotGrassmannianError,
    SizeMismatchError,
)
from .poly import SparsePoly
from .qsym import GradedRingData

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int], k: int | None = None) -> Partition:
    """Validate a weakly decreasing tuple of nonnegative integers, of length
    k when k is given."""
    if k is None:
        p = _int_parts(parts, 0, "partition")
    else:
        p = _string(parts, _size(k, 0, "k"), "partition")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise InvalidCompositionError(f"partition parts must weakly decrease: {p}")
    return p


def contains(outer: Partition, inner: Partition) -> bool:
    return all(o >= i for o, i in zip(outer, inner))


@dataclass(frozen=True)
class SkewShape:
    outer: Partition
    inner: Partition

    def __post_init__(self):
        outer = as_partition(self.outer)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", as_partition(self.inner, len(outer)))
        if not contains(self.outer, self.inner):
            raise InvalidCompositionError(
                f"inner shape {self.inner} is not contained in outer {self.outer}"
            )

    def cell_count(self) -> int:
        return sum(self.outer) - sum(self.inner)


@dataclass(frozen=True)
class Tableau:
    """Semistandard filling of a skew shape; row i holds values for columns
    inner_i..outer_i-1.  Entries are ints >= 1 by the part rule, rows weakly
    increase and columns strictly increase; anything else is refused."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = _instance(self.shape, SkewShape, "shape")
        rows = tuple(_int_parts(r, 1, "tableau row") for r in _container(self.rows, "rows"))
        expected = tuple(o - i for o, i in zip(shape.outer, shape.inner))
        if tuple(map(len, rows)) != expected:
            raise SizeMismatchError(f"row lengths {self.rows} do not fill {self.shape}")
        for row in rows:
            if any(map(gt, row, row[1:])):
                raise InvalidCompositionError(f"tableau row {row} must weakly increase")
        for above, row, start, lo in zip(rows, rows[1:], shape.inner, shape.inner[1:]):
            # the row above starts at column start >= lo: line the shared columns up
            if any(map(ge, above, row[start - lo:])):
                raise InvalidCompositionError(f"tableau columns must strictly increase: {rows}")
        object.__setattr__(self, "rows", rows)


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Rows right-to-left, top-to-bottom."""
    word: list[int] = []
    for row in _instance(t, Tableau, "t").rows:
        word.extend(reversed(row))
    return tuple(word)


def content(t: Tableau) -> tuple[int, ...]:
    """Value multiplicities (c_1, c_2, ...) up to the largest entry."""
    counts: dict[int, int] = {}
    for row in _instance(t, Tableau, "t").rows:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
    top = max(counts) if counts else 0
    return tuple(counts.get(i, 0) for i in range(1, top + 1))


def is_ballot(t: Tableau) -> bool:
    """Every prefix of the reading word has at least as many i's as (i+1)'s."""
    seen: dict[int, int] = {}
    for v in reading_word(t):
        seen[v] = seen.get(v, 0) + 1
        if v > 1 and seen.get(v - 1, 0) < seen[v]:
            return False
    return True


def _fillings(shape: SkewShape, weight: Sequence[int], ballot: bool) -> Iterator[tuple[int, ...]]:
    """Reading words, in lexicographic order, of the semistandard fillings of
    the shape with at most weight[v - 1] entries v.

    Cells fill in reading order, so a cell's right neighbour and the cell
    above are filled first: the first gives its largest value, the second
    one less than its least.  With ``ballot`` a value v > 1 goes in only
    while v - 1 has been placed more often than v.

    The word is walked depth first in place, with no deeper Python stack
    for a larger shape: cell i tries its values v in increasing order, a
    value that fits moves on to cell i + 1 (or yields the word at the last
    cell), and a cell with no value left steps back to try the next value
    of cell i - 1.
    """
    outer, inner = shape.outer, shape.inner
    # (right, above) of each cell: word positions, or None outside the shape
    neighbours: list[tuple[int | None, int | None]] = []
    start = 0
    for r in range(len(outer)):
        above_start, start = start, len(neighbours)
        for c in range(outer[r] - 1, inner[r] - 1, -1):
            right = len(neighbours) - 1 if c + 1 < outer[r] else None
            above = above_start + outer[r - 1] - 1 - c if r and c >= inner[r - 1] else None
            neighbours.append((right, above))
    cap = (0, *weight)
    placed = [0] * len(cap)
    word = [0] * len(neighbours)
    last = len(word) - 1
    if last < 0:
        yield ()
        return

    def least(i: int) -> int:
        above = neighbours[i][1]
        return 1 if above is None else word[above] + 1

    i, v = 0, least(0)
    while True:
        right = neighbours[i][0]
        most = len(weight) if right is None else word[right]
        while v <= most and (
            placed[v] == cap[v] or ballot and v > 1 and placed[v - 1] <= placed[v]
        ):
            v += 1
        if v > most:
            if i == 0:
                return
            i -= 1
            v = word[i]
            placed[v] -= 1
            v += 1
        elif i == last:
            word[i] = v
            yield tuple(word)
            v += 1
        else:
            word[i] = v
            placed[v] += 1
            i += 1
            v = least(i)


def ssyt_enumerate(shape: SkewShape, weight: Sequence[int]) -> list[Tableau]:
    """All semistandard fillings of the shape with the given content.

    Rows weakly increase, columns strictly increase.  The fillings come in
    lexicographic order of their reading words.
    """
    _instance(shape, SkewShape, "shape")
    weight = _int_parts(weight, 0, "content")
    if shape.cell_count() != sum(weight):
        raise SizeMismatchError(f"content {weight} does not fill {shape.cell_count()} cells")
    ends = list(accumulate(o - i for o, i in zip(shape.outer, shape.inner)))
    return [
        Tableau(shape, tuple(word[s:e][::-1] for s, e in zip([0, *ends], ends)))
        for word in _fillings(shape, weight, ballot=False)
    ]


def lr_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Number of ballot semistandard fillings of nu/lam with content mu."""
    l = as_partition(lam)
    return _lr(l, as_partition(mu, len(l)), as_partition(nu, len(l)))


@_kernel(4096, None)
def _lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    """``lr_coefficient`` on partitions already validated to share one length.

    Cached: the tableau rings and ``buk`` ask for the same triples again and
    again, and each miss walks only the ballot fillings of the skew shape.
    """
    if not contains(nu, lam) or sum(lam) + sum(mu) != sum(nu):
        return 0
    return sum(1 for _ in _fillings(SkewShape(outer=nu, inner=lam), mu, ballot=True))


def schur_polynomial(lam: Iterable[int], k: int) -> SparsePoly:
    """Generating polynomial of semistandard fillings with entries at most k.

    The coefficient of y^w is the Kostka number: the count of the fillings
    with content w, all counted in one walk that allows |lam| of each value.
    """
    l = as_partition(lam, _size(k, 0, "k"))
    words = _fillings(SkewShape(l, (0,) * k), (sum(l),) * k, ballot=False)
    return SparsePoly(k, Counter(tuple(map(w.count, range(1, k + 1))) for w in words))


def coxeter_length(w: Sequence[int]) -> int:
    """Inversion count of a permutation in one-line notation; its entries
    are ints >= 1 by the part rule."""
    w = _int_parts(w, 1, "permutation")
    return sum(
        1
        for i, j in combinations(range(len(w)), 2)
        if w[i] > w[j]
    )


def is_grassmannian(w: Sequence[int], k: int) -> bool:
    """Identity, or descent exactly at position k.  The entries of w are
    ints >= 1 by the part rule, and k is a size."""
    w = _int_parts(w, 1, "permutation")
    _size(k, 0, "k")
    descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
    return descents == [] or descents == [k]


def grassmannian_to_partition(w: Sequence[int], k: int) -> Partition:
    """Translate a permutation with lone descent k into a length-k partition."""
    word = _int_parts(w, 1, "permutation")
    if sorted(word) != list(range(1, len(word) + 1)):
        raise NotGrassmannianError(f"{word} is not a permutation in one-line notation")
    if _size(k, 0, "k") > len(word) or not is_grassmannian(word, k):
        raise NotGrassmannianError(f"{word} has descents away from position {k}")
    return tuple(word[k - j - 1] - (k - j) for j in range(k))


def partition_to_grassmannian(lam: Iterable[int], k: int, n: int | None = None) -> tuple[int, ...]:
    """Inverse translation; the result lives in the symmetric group on n letters."""
    l = as_partition(lam, _size(k, 0, "k"))
    least = k + (l[0] if l else 0)
    n = least if n is None else _size(n, 0, "n")
    if n < least:
        raise NotGrassmannianError(f"need n >= {least} letters for {l}")
    head = tuple(l[k - i] + i for i in range(1, k + 1))
    tail = tuple(sorted(set(range(1, n + 1)) - set(head)))
    return head + tail


PartitionTuple = tuple[Partition, ...]


def as_partition_tuple(partitions: Iterable[Iterable[int]], k: int) -> PartitionTuple:
    out = tuple(as_partition(p, k) for p in _container(partitions, "partition tuple"))
    if any(sum(p) == 0 for p in out):
        raise InvalidCompositionError("partition tuples must not contain the zero partition")
    return out


def buk_structure_constant(
    lam_tuple: Iterable[Iterable[int]],
    mu_tuple: Iterable[Iterable[int]],
    nu_tuple: Iterable[Iterable[int]],
    k: int,
) -> int:
    """Cellular structure coefficient for tuples of length-k partitions.

    Sums over pairs of order-preserving placements of the two factor tuples
    into the slots of the target tuple that leave no slot unhit; each slot
    contributes a ballot tableau count, with a factor missing from a slot
    read as the zero partition.
    """
    _size(k, 0, "k")
    lams = as_partition_tuple(lam_tuple, k)
    mus = as_partition_tuple(mu_tuple, k)
    nus = as_partition_tuple(nu_tuple, k)
    total = 0
    # a placement pair that leaves a slot unhit on both sides contributes 0
    # there: nus holds no zero partition, and lr(0, 0, nu) = 0 for |nu| > 0
    for lam_at, mu_at in overlapping_paddings(lams, mus, len(nus), (0,) * k):
        prod = 1
        for lam, mu, nu in zip(lam_at, mu_at, nus):
            prod *= _lr(lam, mu, nu)
            if prod == 0:
                break
        total += prod
    return total


def schur_ring(k: int) -> GradedRingData:
    """Graded ring data on length-k partitions with tableau constants.

    Labels are tuples of k ints forming a partition, the zero partition being
    the unit.  Products are exact, generated on demand and kept in one
    bounded cache that every such ring shares; each is a read-only view, so
    no caller can change a cached one.  The ring's functions are module
    level, so it pickles.  Every call with the same k returns one shared
    ring, so the tensor engine's cache, keyed by the ring, serves it again.
    """
    return _schur_ring(_size(k, 0, "k"))


@_kernel(64, None)
def _schur_ring(k: int) -> GradedRingData:
    return GradedRingData(
        unit=(0,) * k,
        degree=sum,
        multiply=_schur_product,
        contains=_PartitionLabel(k),
    )


@_kernel(4096, 256)
def _schur_product(lam: Partition, mu: Partition) -> Mapping[Partition, Fraction]:
    """The product of two labels of ``schur_ring(len(lam))``."""
    total = sum(lam) + sum(mu)
    out = {}
    for nu in _partitions_of(total, len(lam), lam[0] + sum(mu) if lam else sum(mu)):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = _exact(c, "coefficient")
    return MappingProxyType(out)


@dataclass(frozen=True)
class _PartitionLabel:
    """``schur_ring(k)``'s ``contains``: whether a label is a length-k
    partition, a tuple of ints by the partition rule.  It compares and
    hashes by k, so a pickled ring equals the ring it was pickled from and
    the tensor engine's cache, keyed by the ring, serves both."""

    k: int

    def __call__(self, label: object) -> bool:
        try:
            return type(label) is tuple and as_partition(label, self.k) == label
        except (InvalidCompositionError, LengthMismatchError):
            return False


def _partitions_of(total: int, k: int, bound: int) -> Iterator[Partition]:
    """Length-k partitions of ``total`` with parts at most ``bound``, in
    decreasing lexicographic order; ``total`` and ``bound`` are at least 0.

    The prefixes are walked depth first on an explicit stack, so a large k
    needs no deeper Python stack: each prefix pushes its next parts from
    the least that can still reach ``total`` up to the largest allowed, and
    the largest comes off first.  A prefix that reaches ``total`` ends in
    zeros.
    """
    stack = [((), total, bound)]
    while stack:
        prefix, remaining, high = stack.pop()
        parts_left = k - len(prefix)
        if remaining == 0:
            yield prefix + (0,) * parts_left
        elif parts_left:
            least = -(-remaining // parts_left)
            stack.extend(
                (prefix + (first,), remaining - first, first)
                for first in range(least, min(remaining, high) + 1)
            )
