"""Partitions, skew semistandard tableaux, ballotness, and structure constants.

Partitions carry explicit trailing zeros to a fixed length k, and equality is
length-sensitive: bases here are indexed by length-k partitions, with the
all-zeros partition playing the role of the empty shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .compositions import overlapping_paddings
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
    """Validate a weakly decreasing tuple of nonnegative integers."""
    p = tuple(int(x) for x in parts)
    if any(x < 0 for x in p):
        raise InvalidCompositionError(f"partition parts must be >= 0: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise InvalidCompositionError(f"partition parts must weakly decrease: {p}")
    if k is not None and len(p) != k:
        raise LengthMismatchError(f"partition {p} does not have length {k}")
    return p


def contains(outer: Partition, inner: Partition) -> bool:
    return all(o >= i for o, i in zip(outer, inner))


@dataclass(frozen=True)
class SkewShape:
    outer: Partition
    inner: Partition

    def __post_init__(self):
        if len(self.outer) != len(self.inner):
            raise LengthMismatchError(
                f"outer {self.outer} and inner {self.inner} have different lengths"
            )
        if not contains(self.outer, self.inner):
            raise InvalidCompositionError(
                f"inner shape {self.inner} is not contained in outer {self.outer}"
            )

    def cell_count(self) -> int:
        return sum(self.outer) - sum(self.inner)


@dataclass(frozen=True)
class Tableau:
    """Filling of a skew shape; row i holds values for columns inner_i..outer_i-1."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        expected = tuple(o - i for o, i in zip(self.shape.outer, self.shape.inner))
        if tuple(len(r) for r in self.rows) != expected:
            raise SizeMismatchError(f"row lengths {self.rows} do not fill {self.shape}")


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Rows right-to-left, top-to-bottom."""
    word: list[int] = []
    for row in t.rows:
        word.extend(reversed(row))
    return tuple(word)


def content(t: Tableau) -> tuple[int, ...]:
    """Value multiplicities (c_1, c_2, ...) up to the largest entry."""
    counts: dict[int, int] = {}
    for row in t.rows:
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


def ssyt_enumerate(shape: SkewShape, weight: Sequence[int]) -> list[Tableau]:
    """All semistandard fillings of the shape with the given content.

    Rows weakly increase, columns strictly increase.  Enumeration backtracks
    cell by cell with a per-value budget; results are sorted by reading word,
    so the order is deterministic.
    """
    if shape.cell_count() != sum(weight):
        raise SizeMismatchError(
            f"content {tuple(weight)} does not fill {shape.cell_count()} cells"
        )
    outer, inner = shape.outer, shape.inner
    nrows = len(outer)
    cells = [
        (r, c) for r in range(nrows) for c in range(inner[r], outer[r])
    ]
    budget = list(weight)
    nvalues = len(budget)
    filling: dict[tuple[int, int], int] = {}
    out: list[Tableau] = []

    def admissible(r: int, c: int, v: int) -> bool:
        left = filling.get((r, c - 1))
        if left is not None and v < left:
            return False
        if r > 0 and inner[r - 1] <= c < outer[r - 1]:
            above = filling.get((r - 1, c))
            if above is None or v <= above:
                return False
        return True

    def backtrack(i: int) -> None:
        if i == len(cells):
            rows = tuple(
                tuple(filling[(r, c)] for c in range(inner[r], outer[r]))
                for r in range(nrows)
            )
            out.append(Tableau(shape=shape, rows=rows))
            return
        r, c = cells[i]
        for v in range(1, nvalues + 1):
            if budget[v - 1] == 0 or not admissible(r, c, v):
                continue
            filling[(r, c)] = v
            budget[v - 1] -= 1
            backtrack(i + 1)
            budget[v - 1] += 1
            del filling[(r, c)]

    backtrack(0)
    out.sort(key=reading_word)
    return out


def lr_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Number of ballot semistandard fillings of nu/lam with content mu."""
    l, m_, n_ = tuple(lam), tuple(mu), tuple(nu)
    if not (len(l) == len(m_) == len(n_)):
        raise LengthMismatchError(f"partitions {l}, {m_}, {n_} must share one length")
    return _lr(as_partition(l), as_partition(m_), as_partition(n_))


def _lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    """``lr_coefficient`` on partitions already validated to share one length."""
    if not contains(nu, lam) or sum(lam) + sum(mu) != sum(nu):
        return 0
    shape = SkewShape(outer=nu, inner=lam)
    return sum(1 for t in ssyt_enumerate(shape, mu) if is_ballot(t))


def schur_polynomial(lam: Iterable[int], k: int) -> SparsePoly:
    """Generating polynomial of semistandard fillings with entries at most k."""
    l = as_partition(lam, k)
    outer, inner = l, (0,) * k
    cells = [(r, c) for r in range(k) for c in range(outer[r])]
    terms: dict[tuple[int, ...], int] = {}
    filling: dict[tuple[int, int], int] = {}

    def backtrack(i: int, weight: list[int]) -> None:
        if i == len(cells):
            w = tuple(weight)
            terms[w] = terms.get(w, 0) + 1
            return
        r, c = cells[i]
        lo = filling.get((r, c - 1), 1)
        above = filling.get((r - 1, c), 0)
        for v in range(max(lo, above + 1), k + 1):
            filling[(r, c)] = v
            weight[v - 1] += 1
            backtrack(i + 1, weight)
            weight[v - 1] -= 1
            del filling[(r, c)]

    backtrack(0, [0] * k)
    return SparsePoly(k, terms)


def coxeter_length(w: Sequence[int]) -> int:
    """Inversion count of a permutation in one-line notation."""
    return sum(
        1
        for i, j in combinations(range(len(w)), 2)
        if w[i] > w[j]
    )


def is_grassmannian(w: Sequence[int], k: int) -> bool:
    """Identity, or descent exactly at position k."""
    descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
    return descents == [] or descents == [k]


def grassmannian_to_partition(w: Sequence[int], k: int) -> Partition:
    """Translate a permutation with lone descent k into a length-k partition."""
    word = tuple(int(x) for x in w)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise NotGrassmannianError(f"{word} is not a permutation in one-line notation")
    if k > len(word) or not is_grassmannian(word, k):
        raise NotGrassmannianError(f"{word} has descents away from position {k}")
    return tuple(word[k - j - 1] - (k - j) for j in range(k))


def partition_to_grassmannian(lam: Iterable[int], k: int, n: int | None = None) -> tuple[int, ...]:
    """Inverse translation; the result lives in the symmetric group on n letters."""
    l = as_partition(lam, k)
    least = k + (l[0] if l else 0)
    if n is None:
        n = least
    if n < least:
        raise NotGrassmannianError(f"need n >= {least} letters for {l}")
    head = tuple(l[k - i] + i for i in range(1, k + 1))
    tail = tuple(sorted(set(range(1, n + 1)) - set(head)))
    return head + tail


PartitionTuple = tuple[Partition, ...]


def as_partition_tuple(partitions: Iterable[Iterable[int]], k: int) -> PartitionTuple:
    out = tuple(as_partition(p, k) for p in partitions)
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
    the unit.  Products are exact, generated on demand and kept in a bounded cache.
    """

    @lru_cache(maxsize=4096)
    def multiply(lam: Partition, mu: Partition) -> dict[Partition, Fraction]:
        total = sum(lam) + sum(mu)
        out = {}
        for nu in _partitions_of(total, k, lam[0] + sum(mu) if lam else sum(mu)):
            c = lr_coefficient(lam, mu, nu)
            if c:
                out[nu] = Fraction(c)
        return out

    def is_label(label: object) -> bool:
        return (
            type(label) is tuple
            and len(label) == k
            and all(type(x) is int and x >= 0 for x in label)
            and all(a >= b for a, b in zip(label, label[1:]))
        )

    return GradedRingData(
        unit=(0,) * k,
        degree=lambda l: sum(l),
        multiply=multiply,
        contains=is_label,
    )


def _partitions_of(total: int, k: int, bound: int) -> Iterator[Partition]:
    """Length-k partitions of ``total`` with parts at most ``bound``."""

    def rec(remaining: int, parts_left: int, high: int) -> Iterator[tuple[int, ...]]:
        if parts_left == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(min(remaining, high), -1, -1):
            if first * parts_left < remaining:
                break
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    yield from rec(total, k, bound)
