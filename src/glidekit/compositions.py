"""Compositions, weak compositions, run encodings, and (semi)standardization.

A composition is a tuple of strictly positive integers, a weak composition a
tuple of nonnegative integers.  Both are represented as plain tuples; the
empty composition ``()`` is a first-class value (it indexes the unit class).

Closures under componentwise max or min run on packed tuples: one int per
tuple, a field per coordinate holding s value bits and a guard bit above
them, coordinate 0 highest.  One guard-bit expression joins two tuples in
every field at once, since no borrow of its subtraction leaves a field.
Once the lattice holds ``_JOIN_WORDS`` elements, each generator is joined
with all of it in one step: the lattice is one int of 64-bit words, one
per element, the generator is repeated into every word by one multiply,
and the same expression runs once over all the words.  Tuples whose top
guard lies past bit 63 keep the step per element.

The same fields (``_fields``, ``_width``, ``_pack``, ``_unpack_all``) also
key ``SparsePoly``'s product, which packs each exponent vector into fields
wide enough for the largest sum of two exponents, so adding two keys adds
the vectors.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import chain, combinations, filterfalse, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import (
    InvalidCompositionError, LengthMismatchError, MalformedInputError, OutOfRangeError,
    SizeMismatchError,
)

Composition = tuple[int, ...]
WeakComposition = tuple[int, ...]
T = TypeVar("T")
R = TypeVar("R")


def _int_parts(parts: Iterable[int], least: int, kind: str) -> tuple[int, ...]:
    """The parts as a tuple, each a Python int (not a bool) and at least ``least``.

    This is the one rule for what counts as a part.  Nothing is coerced: a
    float, a string, a bool or a Fraction is refused, so a bad part never
    passes as a nearby integer.
    """
    try:
        out = tuple(parts)
    except TypeError as exc:
        raise InvalidCompositionError(f"{kind} parts must be integers: {parts!r}") from exc
    for p in out:
        if type(p) is not int:
            raise InvalidCompositionError(f"{kind} parts must be integers: {parts!r}")
        if p < least:
            raise InvalidCompositionError(f"{kind} parts must be >= {least}: {out}")
    return out


def _string(parts: Iterable[int], n: int, kind: str) -> WeakComposition:
    """The one rule for a string: the parts, each an int >= 0 by the part
    rule, exactly n of them.  Any other length is a length mismatch."""
    s = _int_parts(parts, 0, kind)
    if len(s) != n:
        raise LengthMismatchError(f"{kind} {s} does not have {n} entries")
    return s


def _size(value: int, least: int, name: str) -> int:
    """The one rule for a size (a count of slots, variables or partition parts,
    a truncation degree, a degree bound): a Python int, not a bool, at least
    ``least``.  Returns it; anything else is out of range."""
    if type(value) is not int or value < least:
        raise OutOfRangeError(f"{name} must be an int >= {least}, got {value!r}")
    return value


def _exact(value: Fraction | int, name: str) -> Fraction:
    """The one rule for a coefficient: a Python int (not a bool) or a
    Fraction, returned as a Fraction.  Anything else, a float included, is
    malformed input, so no coefficient passes as a nearby rational."""
    if type(value) is Fraction:
        return value
    if type(value) is not int:
        raise MalformedInputError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def _instance(value: object, cls: type[T], name: str) -> T:
    """The one rule for a library object (a polynomial, a K-class, a
    monomial-basis element, a ring, a shape, a tableau, sorting data): an
    instance of ``cls``, returned as it is.  Anything else is malformed
    input, so a wrong container never fails deep inside."""
    if isinstance(value, cls):
        return value
    raise MalformedInputError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _container(value: Iterable[T], name: str, items: bool = False) -> Iterator[T]:
    """The one rule for a container argument (elements, atoms, rows, runs,
    labels, partitions, coefficients; with ``items``, a mapping of terms):
    an iterator over ``value``, or over ``value.items()`` with ``items``.
    Only the read a caller makes anyway is guarded, so a valid call pays no
    extra pass; anything that cannot be read so is malformed input, not a
    bare TypeError or AttributeError."""
    try:
        return iter(value.items() if items else value)
    except (AttributeError, TypeError):
        kind = "mapping" if items else "container"
        raise MalformedInputError(f"{name} must be a {kind}, got {type(value).__name__}") from None


class _Oversized(Exception):
    """Carries a result over a kernel's size cap out of the cached call."""

    def __init__(self, value: object):
        super().__init__()
        self.value = value


# every result cache of the package, by module and name, with its size cap
_KERNELS: dict[str, tuple[Callable[..., object], int | None]] = {}


def _kernel(
    maxsize: int, cap: int | None, size: Callable[[R], int] = len
) -> Callable[[Callable[..., R]], Callable[..., R]]:
    """The one rule for a result cache: an ``lru_cache`` of ``maxsize``
    entries, registered in ``_KERNELS``.

    A kernel's caller checks every argument by its rule first: True == 1 ==
    1.0 and their hashes agree, so an unchecked bool or float would be
    served an int entry.  The caller hands out a read-only value as it is
    or a fresh container built from it.  With a ``cap``, no result of more
    than ``cap`` items (by ``size``) is kept: it is returned all the same,
    counts as a miss and adds no entry, so one large value cannot pin its
    memory until ``maxsize`` newer keys evict it; ``cache_info`` and
    ``cache_clear`` reach the ``lru_cache`` underneath.  With no cap (a
    value that does not grow) the kernel is the ``lru_cache`` itself, so a
    hit stays in C.
    """

    def decorate(function: Callable[..., R]) -> Callable[..., R]:
        if cap is None:
            cached = lru_cache(maxsize)(function)
        else:

            @lru_cache(maxsize)
            def kept(*args):
                value = function(*args)
                if size(value) > cap:
                    # ``lru_cache`` keeps nothing for a call that raises
                    raise _Oversized(value)
                return value

            @wraps(function)
            def cached(*args):
                try:
                    return kept(*args)
                except _Oversized as over:
                    return over.value

            cached.cache_info = kept.cache_info
            cached.cache_clear = kept.cache_clear
        _KERNELS[f"{function.__module__}.{function.__name__}"] = (cached, cap)
        return cached

    return decorate


def as_composition(parts: Iterable[int]) -> Composition:
    """Validate a composition (every part an int >= 1)."""
    return _int_parts(parts, 1, "composition")


def as_weak_composition(parts: Iterable[int]) -> WeakComposition:
    """Validate a weak composition (every part an int >= 0)."""
    return _int_parts(parts, 0, "weak composition")


def positive_part(w: Sequence[int]) -> Composition:
    """Delete all zero entries, preserving the order of the rest."""
    return tuple(filter(None, as_weak_composition(w)))


def paddings(parts: Sequence, n: int, blank=0) -> Iterator[tuple]:
    """Every length-n tuple holding ``parts`` in order and ``blank`` elsewhere.

    The tuples come in lexicographic order of the occupied positions; there
    are C(n, len(parts)) of them, and none when n < len(parts).
    """
    for positions in combinations(range(n), len(parts)):
        yield _place(parts, positions, n, blank)


def overlapping_paddings(
    left: Sequence, right: Sequence, k: int, blank=0
) -> Iterator[tuple[tuple, tuple]]:
    """Every pair of length-k paddings of ``left`` and ``right`` that leaves
    no slot blank on both sides.

    The pairs come with the left positions outermost and each side in the
    order of ``paddings``.  The right side must hit every slot the left one
    leaves free, and shares its other slots with the left one, so there are
    C(k, m) * C(m, m + n - k) pairs for m = len(left), n = len(right).
    """
    m, n = len(left), len(right)
    if k > m + n:
        return
    for lpos in combinations(range(k), m):
        free = set(range(k)).difference(lpos)
        placed = _place(left, lpos, k, blank)
        # every right side holds the free slots, so two right sides compare
        # as their shared slots do: the right side keeps paddings order
        for shared in combinations(lpos, m + n - k):
            yield placed, _place(right, sorted(free.union(shared)), k, blank)


def _place(parts: Sequence, positions: Iterable[int], n: int, blank) -> tuple:
    s = [blank] * n
    for i, part in zip(positions, parts):
        s[i] = part
    return tuple(s)


def canonical_key(alpha: Sequence[int]) -> tuple[int, int, tuple[int, ...]]:
    """Sort key for compositions: by size, then length, then lexicographic.

    Used wherever composition-keyed mappings are serialized, so output is
    reproducible.
    """
    return (sum(alpha), len(alpha), tuple(alpha))


def _fields(count: int, width: int) -> range:
    """The shifts of ``count`` fields of ``width`` bits in one int, coordinate 0
    in the highest field.  Tuples of one length packed into the same fields
    compare as ints as they compare as tuples, lexicographically, so sorting
    the ints sorts the tuples."""
    return range(width * (count - 1), -1, -width)


def _width(bits: int) -> int:
    """The width of a field of ``bits`` bits: ``bits``, but 3 for 2, so that
    every field of at most 4 bits is one digit in base 2, 8 or 16."""
    return 3 if bits == 2 else bits


def _pack(parts: Iterable[int], shifts: range) -> int:
    """The parts packed into the fields at ``shifts``; each must fit its field."""
    return sum(v << k for v, k in zip(parts, shifts))


def _unpack(p: int, shifts: range, ones: int) -> tuple[int, ...]:
    """The tuple packed into ``p``: the bits ``ones`` of each field."""
    return tuple([p >> k & ones for k in shifts])


# the format code that writes a field of each width as one digit
_DIGIT_FORMATS = {1: "b", 3: "o", 4: "x"}
_DIGIT_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _unpack_all(packed: Iterable[int], shifts: range, ones: int) -> Iterator[tuple[int, ...]]:
    """The tuples packed into ``packed`` at ``shifts`` (as ``_fields`` makes
    them), in order; every bit of a field outside ``ones`` must be clear.

    A field of 1, 3 or 4 bits is one digit of the int in base 2, 8 or 16,
    so one ``format`` per int and one ``translate`` over them all write the
    entries as bytes, which ``zip`` cuts into tuples.  Other widths take
    each field out by a shift and a mask.
    """
    count, width = len(shifts), -shifts.step
    if not count or width not in _DIGIT_FORMATS:
        return (_unpack(p, shifts, ones) for p in packed)
    spec = f"0{count}{_DIGIT_FORMATS[width]}"
    digits = "".join(map(format, packed, repeat(spec))).encode().translate(_DIGIT_VALUES)
    return zip(*[iter(digits)] * count)


# a 64-bit word holding 1
_ONE_WORD = (1).to_bytes(8, sys.byteorder)
# the lattice size from which ``_joins`` joins a generator with the whole
# lattice in one step.  Timed as one generator's step on lattices drawn
# from (2,1,3) at n = 7 (medians of 200), the word step took 3.3 against
# 2.5 us for the step per element at 8 elements and 4.8 against 4.5 us at
# 16, and won from 24 on: 6.7 against 7.1 us, 9.6 against 12.3 us at 48.
# Over the closures of all 320 glide_sweep rows and the min-closures of
# all 515 kclass_sweep rows, every cut-off from 24 to 48 was within 2 % of
# the best (39.1-39.4 ms and 28.7-29.6 ms, against 50.9 and 31.2 ms with
# no word step)
_JOIN_WORDS = 32


def closure(
    generators: Iterable[WeakComposition], pick: Callable[[int, int], int]
) -> Iterator[WeakComposition]:
    """Close equal-length tuples under the componentwise ``pick``, lazily.

    Precondition: the generators are tuples of one length whose entries are
    nonnegative ints, and ``pick`` is ``max`` or ``min``.  Every caller meets
    it by construction.

    Yields each element once: the distinct generators first, in their given
    order, then each other one as soon as ``_joins`` finds it, one
    generator's step at a time, so a caller that stops early never builds
    the rest.  The elements are joined packed, as ``_packed_closure`` lays
    them out, a generator with the whole lattice at once from
    ``_JOIN_WORDS`` elements on, and each is unpacked into a tuple when
    yielded.
    """
    s, shifts, flip, found = _packed_closure(generators, pick)
    ones = (1 << s) - 1
    for p in found:
        yield _unpack(p ^ flip, shifts, ones)


def _packed_closure(
    generators: Iterable[WeakComposition], pick: Callable[[int, int], int]
) -> tuple[int, range, int, Iterator[int]]:
    """The closure that ``closure`` yields, packed: (s, shifts, flip, elements).

    Each tuple is packed into one int, a field of ``_width(s + 1)`` bits per
    coordinate at ``shifts``, s the bit length of the largest entry.  The
    min-closure is the max-closure of the complements 2**s - 1 - v, so both
    run the same join, and an element XORed with ``flip`` is its tuple
    packed.  The elements are the distinct generators, in their given order,
    then the other elements, lazily, in the order ``_joins`` finds them.
    """
    gens = tuple(generators)
    s = max(chain.from_iterable(gens), default=0).bit_length()
    shifts = _fields(len(gens[0]), _width(s + 1)) if gens else range(0)
    flip = sum(((1 << s) - 1) << k for k in shifts) if pick is min else 0
    packed = tuple(dict.fromkeys(_pack(g, shifts) ^ flip for g in gens))
    return s, shifts, flip, chain(packed, _joins(packed, shifts, s))


def _joins(packed: Sequence[int], shifts: range, s: int) -> Iterator[int]:
    """The join-closure of distinct packed tuples under componentwise max,
    less the tuples themselves, lazily, in the order it is found.

    A field at each of ``shifts`` holds s value bits and one guard bit
    above them; the guard, and any bit above it, is clear in every packed
    tuple.  Generators g join the closure L in increasing packed order, L
    growing by g and each x v g for x in L (none if g is in L already); a
    join of a set holding g is g v (the join of the rest), and
    (x v g) v (y v g) = (x v y) v g, so L stays closed.
    ``((p | guards) - g) & guards`` keeps the guard of each field where
    p_i >= g_i (no borrow crosses a field, since every entry is below
    2**s); subtracting that shifted down by s turns each kept guard into s
    ones, a mask of the fields where p holds the maximum, and
    ``g ^ ((p ^ g) & mask)`` is the componentwise max.

    Once L holds ``_JOIN_WORDS`` elements, and when a tuple's top guard
    lies within 64 bits, each generator is joined with all of L in one
    step of ``_word_joins``; the new elements are then taken in L's order,
    each once, so the yields and their order are those of the step per
    element, which smaller lattices keep.
    """
    guards = sum(1 << (k + s) for k in shifts)
    lattice, members, given = [], set(), set(packed)
    # L as 64-bit words, one per element, for the whole-lattice step
    words = array("Q") if guards.bit_length() <= 64 else None
    for g in sorted(packed):
        if g in members:
            continue
        members.add(g)
        if words is not None and len(lattice) >= _JOIN_WORDS:
            words.extend(lattice[len(words) :])
            joined = dict.fromkeys(_word_joins(words, g, guards, s))
            fresh = list(filterfalse(members.__contains__, joined))
            members.update(fresh)
            lattice.append(g)
            lattice += fresh
            yield from filterfalse(given.__contains__, fresh)
            continue
        fresh = [g]
        for p in lattice:
            t = ((p | guards) - g) & guards
            x = g ^ ((p ^ g) & (t - (t >> s)))
            if x not in members:
                members.add(x)
                fresh.append(x)
                if x not in given:
                    yield x
        lattice += fresh


def _word_joins(words: array, g: int, guards: int, s: int) -> array:
    """x v g for every x in ``words``, in their order, by one join over one
    int that holds the words side by side.

    ``ones`` holds 1 in every word, so ``g * ones`` and ``guards * ones``
    repeat g and the guards in each word, and the join of ``_joins`` runs
    once over all the fields.  Each field's guard is set in ``p | guards``
    and every word's bits above its top guard are clear, so no borrow of
    the subtraction leaves its field, let alone its word, and ``t >> s``
    moves each kept guard within its field.  The ints are read and written
    in ``sys.byteorder``, the order ``array("Q")`` keeps its words in.
    """
    order = sys.byteorder
    ones = int.from_bytes(_ONE_WORD * len(words), order)
    lattice, spread, mask = int.from_bytes(words, order), g * ones, guards * ones
    t = ((lattice | mask) - spread) & mask
    joined = spread ^ ((lattice ^ spread) & (t - (t >> s)))
    return array("Q", joined.to_bytes(8 * len(words), order))


def run_encode(alpha: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Group equal adjacent parts into (value, multiplicity) runs."""
    runs: list[tuple[int, int]] = []
    for p in as_composition(alpha):
        if runs and runs[-1][0] == p:
            runs[-1] = (p, runs[-1][1] + 1)
        else:
            runs.append((p, 1))
    return tuple(runs)


def run_decode(runs: Iterable[tuple[int, int]]) -> Composition:
    """Expand (value, multiplicity) runs back into a composition.

    Each run is a pair: its value a part by the composition rule, its
    multiplicity a size at least 1.
    """
    pairs = [tuple(_container(run, "run")) for run in _container(runs, "runs")]
    out: list[int] = []
    for run in pairs:
        if len(run) != 2:
            raise MalformedInputError(f"a run must be a (value, multiplicity) pair: {run!r}")
        out.extend(as_composition(run[:1]) * _size(run[1], 1, "multiplicity"))
    return tuple(out)


class SortingData(NamedTuple):
    """The shortest sorting permutation of a composition and its companion.

    ``omega`` is in one-line notation: omega[i-1] is the index (1-based) of
    the part placed i-th when the parts are sorted ascending, ties broken by
    original position.  ``beta`` has beta_i = omega^{-1}(i), a composition
    with pairwise distinct parts {1, ..., N}.
    """

    omega: tuple[int, ...]
    beta: Composition


def sorting_data(alpha: Sequence[int]) -> SortingData:
    a = as_composition(alpha)
    n = len(a)
    omega = tuple(sorted(range(1, n + 1), key=lambda i: (a[i - 1], i)))
    inverse = [0] * n
    for i, w in enumerate(omega, start=1):
        inverse[w - 1] = i
    return SortingData(omega=omega, beta=tuple(inverse))


def _replace_nonzero(tau: WeakComposition, values: Sequence[int]) -> WeakComposition:
    nonzero = [i for i, p in enumerate(tau) if p != 0]
    if len(nonzero) != len(values):
        raise SizeMismatchError(
            f"expected {len(values)} nonzero entries, found {len(nonzero)} in {tau}"
        )
    out = list(tau)
    for i, v in zip(nonzero, values):
        out[i] = v
    return tuple(out)


def standardize(tau: Sequence[int], data: SortingData) -> WeakComposition:
    """Rewrite the i-th nonzero entry of ``tau`` as beta_i."""
    return _replace_nonzero(as_weak_composition(tau), _instance(data, SortingData, "data").beta)


def semistandardize(tau: Sequence[int], alpha: Sequence[int]) -> WeakComposition:
    """Rewrite the i-th nonzero entry of ``tau`` as alpha_i."""
    return _replace_nonzero(as_weak_composition(tau), as_composition(alpha))
