"""Glide polynomials via local string moves, barred strings, and Mobius data.

Strings live in the alphabet of nonnegative integers plus barred positive
symbols; a barred p is stored as -p (zero is never barred).  The local moves
rewrite a zero followed by an unbarred positive p:

    (M.1)  0 p  ->  p 0
    (M.2)  0 p  ->  p p-bar
    (M.2') 0 p  ->  p p          (the unbarred shadow of M.2)

Starting from the zero-paddings of a composition, the M.1/M.2 closure gives
the barred support, its bar-forgetting projection gives the unbarred support,
and the signed count of barred preimages gives the coefficients of the glide
polynomial.  Each barred string carries its sign (-1)^(number of bars) from
the move that made it: M.1 keeps its parent's sign and M.2 flips it, so the
projection only sums signs.  The barred route runs on packed strings, one int
each (see ``_barred_fields``), where both moves are int additions.  The same
polynomial arises from the poset Mobius function and from a closed product
of binomials; all three routes are implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .compositions import (
    Composition,
    WeakComposition,
    _fields,
    _pack,
    _size,
    _string,
    _unpack_all,
    _width,
    as_composition,
    as_weak_composition,
    paddings,
    positive_part,
    run_encode,
)
from .errors import NotInCSetError, OutOfRangeError
from .poly import SparsePoly
from .poset import build_poset

GLIDE_METHODS = ("poset", "barred", "closed")


def _barred_fields(largest: int, n: int) -> tuple[int, range]:
    """The value bits s and the field shifts of packed barred strings of n
    entries, none above ``largest``.

    A field holds s value bits, then a bar bit, then a guard bit; the guard,
    and any bit above it, is clear in every packed string.  Coordinate 0 is
    in the highest field, so masking off the bars leaves the unbarred string
    packed in lexicographic order.
    """
    s = largest.bit_length()
    return s, _fields(n, _width(s + 2))


def _barred_strings(packed: Iterable[int], s: int, shifts: range) -> list[tuple[int, ...]]:
    """The barred strings packed into ``packed``, in order, a barred p as -p:
    each field's value and bar bits index a table of its entry."""
    bar = 1 << s
    entries = [bar - f if f & bar else f for f in range(2 * bar)]
    mask = 2 * bar - 1
    return [tuple([entries[x >> k & mask] for k in shifts]) for x in packed]


def _signed_projection(signed: Mapping[int, int], s: int, shifts: range) -> dict[int, int]:
    """Sum of the packed strings' signs under each bar-forgetting projection,
    keyed by the packed unbarred string; the signs come with the strings."""
    values = sum(((1 << s) - 1) << k for k in shifts)
    terms: dict[int, int] = {}
    for x, sign in signed.items():
        y = x & values
        terms[y] = terms.get(y, 0) + sign
    return terms


def _ascending_terms(
    signed: Mapping[int, int], s: int, shifts: range
) -> dict[WeakComposition, int]:
    """The nonzero signed projection, each string unpacked once, in ascending
    order: the packed ints sort as the strings do."""
    terms = _signed_projection(signed, s, shifts)
    kept = [y for y in sorted(terms) if terms[y]]
    return dict(zip(_unpack_all(kept, shifts, (1 << s) - 1), map(terms.__getitem__, kept)))


def _move_closure(seed: Iterable[int], s: int, shifts: range) -> dict[int, int]:
    """Closure of packed unbarred seed strings under the barred moves (M.1)
    and (M.2), each packed string mapped to its sign (-1)^(number of bars).

    The sign rides with the string: a seed has no bar, M.1 keeps its
    parent's sign and M.2, which adds one bar, flips it.  With ``low`` the
    lowest bit of each field, ``((x & values) | guards) - low`` keeps the
    guard of each field whose value is nonzero; clearing those of barred
    fields (the bar bit shifted up one) and moving each down one field's
    width onto the coordinate before it, an AND with the guards of the zero
    fields flags every coordinate i holding 0 with an unbarred positive p
    at i + 1.  Both moves add p to field i; M.1 subtracts it from field
    i + 1 and M.2 sets that field's bar bit.
    """
    width = -shifts.step
    ones = (1 << s) - 1
    low = sum(1 << k for k in shifts)
    values, guards = low * ones, low << (s + 1)
    # from a flagged guard bit down to the lowest bit of the next field
    drop = s + 1 + width
    signs = dict.fromkeys(seed, 1)
    frontier = list(signs.items())
    found = frontier.append
    while frontier:
        x, sign = frontier.pop()
        nonzero = (((x & values) | guards) - low) & guards
        pairs = (guards ^ nonzero) & ((nonzero & ~(x << 1)) << width)
        while pairs:
            g = pairs.bit_length() - 1
            pairs ^= 1 << g
            k = g - drop
            p = x >> k & ones
            up = x + (p << k + width)
            t = up - (p << k)
            if t not in signs:
                signs[t] = sign
                found((t, sign))
            t = up + (1 << k + s)
            if t not in signs:
                signs[t] = -sign
                found((t, -sign))
    return signs


@dataclass(frozen=True, eq=False)
class _BarredClosure:
    """A signed barred move closure, as ``_c_tilde`` caches it: ``signs``, a
    read-only view mapping each string, packed by ``_barred_fields`` into
    the field shifts ``shifts`` with s value bits, to its sign."""

    signs: Mapping[int, int]
    s: int
    shifts: range

    @cached_property
    def strings(self) -> frozenset[tuple[int, ...]]:
        """The barred strings, decoded on the first read and kept."""
        return frozenset(_barred_strings(self.signs, self.s, self.shifts))


def enumerate_C_tilde(alpha: Iterable[int], n: int) -> frozenset[tuple[int, ...]]:
    """Barred strings reachable from the zero-paddings of alpha by M.1/M.2."""
    return _barred(as_composition(alpha), n).strings


def _barred(a: Composition, n: int) -> _BarredClosure:
    # checked before the cache, which would serve n=2.0 from its n=2 entry
    return _c_tilde(a, _size(n, len(a), "n"))


@lru_cache(maxsize=1024)
def _c_tilde(alpha: Composition, n: int) -> _BarredClosure:
    """The signed barred move closure of alpha's paddings into n slots,
    each string packed by ``_barred_fields(max(alpha), n)``.

    The result is cached and shared by every caller, so it is frozen and its
    signs are a read-only view.
    """
    s, shifts = _barred_fields(max(alpha, default=0), n)
    seed = [_pack(p, shifts) for p in paddings(alpha, n)]
    return _BarredClosure(MappingProxyType(_move_closure(seed, s, shifts)), s, shifts)


# the cache is keyed on the normalised arguments; its statistics and its
# reset stay reachable from the public function
enumerate_C_tilde.cache_info = _c_tilde.cache_info
enumerate_C_tilde.cache_clear = _c_tilde.cache_clear


def _run_factor(size: int, mult: int) -> int:
    """(-1)^(size - mult) * C(size - 1, mult - 1): the weight of a run of
    multiplicity ``mult`` inflated to ``size`` entries."""
    return (-1) ** (size - mult) * comb(size - 1, mult - 1)


_INFLATIONS_CACHE_SIZE = 1024


@lru_cache(maxsize=_INFLATIONS_CACHE_SIZE)
def _inflations(
    alpha: Composition, max_length: int, max_degree: int
) -> tuple[tuple[Composition, int], ...]:
    """The run inflations of alpha up to a length and a size, with coefficients.

    Each run of alpha, value v repeated N times, becomes v repeated l >= N
    times; the coefficient is the product of the _run_factor(l, N).  The
    pairs come in lexicographic order of the run-size vectors.  The result
    is cached and shared by every caller, so it is a tuple that none can
    change.

    The run-size vectors are walked depth first on an explicit stack, so
    an alpha of many runs needs no deeper Python stack: each prefix pushes
    its children in reverse, and the smallest comes off first.  The last
    run's children are the pairs themselves, written out in order.  Each
    run's blocks and factors are built once, for its largest inflation.
    """
    runs = run_encode(alpha)
    # length and degree are the slack left once every run keeps its
    # original multiplicity
    length, degree = max_length - len(alpha), max_degree - sum(alpha)
    if length < 0 or degree < 0:
        return ()
    if not runs:
        return (((), 1),)
    # tables[i][extra]: run i inflated by extra entries, and its factor
    tables = [
        [((v,) * (m + e), _run_factor(m + e, m)) for e in range(min(length, degree // v) + 1)]
        for v, m in runs
    ]
    last = len(runs) - 1
    out: list[tuple[Composition, int]] = []
    stack = [(0, (), length, degree, 1)]
    while stack:
        i, prefix, length, degree, coeff = stack.pop()
        v = runs[i][0]
        table = tables[i][: min(length, degree // v) + 1]
        if i == last:
            for block, factor in table:
                out.append((prefix + block, coeff * factor))
        else:
            for extra in range(len(table) - 1, -1, -1):
                block, factor = table[extra]
                stack.append(
                    (i + 1, prefix + block, length - extra, degree - extra * v, coeff * factor)
                )
    return tuple(out)


def _closed(a: Composition, n: int) -> Mapping[WeakComposition, Fraction]:
    # checked before the cache, which would serve n=2.0 from its n=2 entry
    return _closed_terms(a, _size(n, len(a), "n"))


_CLOSED_CACHE_SIZE = 1024


@lru_cache(maxsize=_CLOSED_CACHE_SIZE)
def _closed_terms(a: Composition, n: int) -> Mapping[WeakComposition, Fraction]:
    """Every padding into n slots of every run inflation of a, with the
    inflation's binomial coefficient: the closed glide's terms.

    No coefficient is zero, and one Fraction is shared per inflation.  The
    result is cached and shared by every caller, so it is a read-only view.
    """
    terms: dict[WeakComposition, Fraction] = {}
    # no part exceeds max(a), so n * max(a) bounds no inflation of length n
    for gamma, c in _inflations(a, n, n * max(a, default=0)):
        # an integer numerator over 1, as ``SparsePoly._from_numerators`` builds
        q = Fraction(c, 1)
        for s in paddings(gamma, n):
            terms[s] = q
    return MappingProxyType(terms)


def enumerate_C(alpha: Iterable[int], n: int) -> frozenset[WeakComposition]:
    """Unbarred move closure, by its block characterization.

    A string belongs iff its positive part consists of the runs of alpha in
    order, with the i-th run value repeated at least its original
    multiplicity.  Enumerating run sizes directly is polynomial, versus the
    exponential move closure (kept as enumerate_C_tilde for cross-checks).
    """
    # from the keys view, not the dict: a set presizes its table for a dict,
    # which would change the iteration order
    return frozenset(_closed(as_composition(alpha), n).keys())


def mu_closed(sigma: Sequence[int], alpha: Iterable[int]) -> int:
    """Closed-form coefficient from the block decomposition of sigma.

    With run value a_i appearing l_i >= N_i times, the value is
    (-1)^(sum l_i - sum N_i) * prod C(l_i - 1, N_i - 1).
    Raises if sigma admits no block decomposition over alpha's runs.
    """
    a = as_composition(alpha)
    s = as_weak_composition(sigma)
    runs = run_encode(a)
    sruns = run_encode(positive_part(s))
    if [v for v, _ in sruns] != [v for v, _ in runs]:
        raise NotInCSetError(f"{s} has no block decomposition over {a}")
    blocks = [(sz, m) for (_, sz), (_, m) in zip(sruns, runs)]
    if any(sz < m for sz, m in blocks):
        raise NotInCSetError(f"{s} has too few entries in some block over {a}")
    return prod(_run_factor(sz, m) for sz, m in blocks)


def mu_prime(sigma: Sequence[int], alpha: Iterable[int], n: int) -> int:
    """Signed count of barred preimages of sigma; zero off the move closure."""
    a = as_composition(alpha)
    s = _string(sigma, _size(n, 0, "n"), "string")
    barred = _barred(a, n)
    # no move makes an entry above the largest part, nor would it fit a field
    if max(s, default=0) > max(a, default=0):
        return 0
    terms = _signed_projection(barred.signs, barred.s, barred.shifts)
    return terms.get(_pack(s, barred.shifts), 0)


def glide_polynomial(alpha: Iterable[int], n: int, method: str = "closed") -> SparsePoly:
    """The signed generating polynomial of the move closure of alpha's paddings.

    Three equivalent routes:
      * "poset": Mobius recurrence on the componentwise-max closure;
      * "barred": signs from the barred move closure;
      * "closed": block enumeration with the binomial product formula.
    The lowest-degree homogeneous part is the monomial quasisymmetric
    polynomial of alpha in n variables.
    """
    a = as_composition(alpha)
    if method not in GLIDE_METHODS:
        raise OutOfRangeError(f"unknown method {method!r}, expected one of {GLIDE_METHODS}")
    if method == "closed":
        return SparsePoly._trusted(n, _closed(a, n))
    if method == "poset":
        terms = build_poset(a, n).mobius()
    else:
        barred = _barred(a, n)
        terms = _ascending_terms(barred.signs, barred.s, barred.shifts)
    # every key is a length-n string built here
    return SparsePoly._from_numerators(n, terms, 1)


def monomial_glide_weak(a: Iterable[int]) -> SparsePoly:
    """Signed generating polynomial of the move closure of one weak composition.

    When ``a`` is a composition padded with leading zeros this recovers
    glide_polynomial on that composition; without leading room for moves it
    degenerates to the single monomial y^a.
    """
    start = as_weak_composition(a)
    s, shifts = _barred_fields(max(start, default=0), len(start))
    terms = _ascending_terms(_move_closure([_pack(start, shifts)], s, shifts), s, shifts)
    # every key is a length-n string unpacked here, in ascending order
    return SparsePoly._from_numerators(len(start), terms, 1)


def glide_m_expansion(alpha: Iterable[int], degree_bound: int) -> dict[Composition, int]:
    """Coordinates of the glide of alpha on monomial-basis compositions.

    Keys are the compositions obtained by inflating each run of alpha, with
    values from the closed binomial formula, kept up to the degree bound.
    The coordinate of alpha itself is 1 and every other key has strictly
    larger size.
    """
    # every part is at least 1, so the degree bound also bounds the length
    return dict(_inflations(as_composition(alpha), degree_bound, degree_bound))


def check_binomial_identity(N: int, l: int) -> bool:
    """Alternating binomial sum telescoping to 1; a self-test of exact arithmetic."""
    _size(l, _size(N, 1, "N"), "l")
    total = sum(_run_factor(j, N) * comb(l, j) for j in range(N, l + 1))
    return total == 1
