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
projection only sums signs.  The same polynomial arises from the poset
Mobius function and from a closed product of binomials; all three routes
are implemented.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .compositions import (
    Composition,
    WeakComposition,
    _size,
    _string,
    as_composition,
    as_weak_composition,
    paddings,
    positive_part,
    run_encode,
)
from .errors import NotInCSetError, OutOfRangeError
from .poly import SparsePoly
from .poset import atoms, build_poset

GLIDE_METHODS = ("poset", "barred", "closed")


def barred_count(s: Sequence[int]) -> int:
    return sum(1 for x in s if x < 0)


def _signed_projection(signed: Mapping[tuple[int, ...], int]) -> dict[WeakComposition, int]:
    """Sum of the strings' signs under each bar-forgetting projection, keyed
    in first-seen order; the signs come with the strings."""
    terms: dict[WeakComposition, int] = {}
    for t, sign in signed.items():
        s = tuple(map(abs, t))
        terms[s] = terms.get(s, 0) + sign
    return terms


def _move_closure(seed: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """Closure of the seed strings under the barred moves (M.1) and (M.2),
    each string mapped to its sign (-1)^(number of bars).

    The sign rides with the string: M.1 keeps its parent's sign and M.2,
    which adds one bar, flips it.
    """
    signs = {s: (-1) ** barred_count(s) for s in seed}
    frontier = list(signs.items())
    while frontier:
        s, sign = frontier.pop()
        for i in range(len(s) - 1):
            if s[i] == 0 and s[i + 1] > 0:
                p = s[i + 1]
                head, tail = s[:i], s[i + 2 :]
                for replacement, t_sign in (((p, 0), sign), ((p, -p), -sign)):
                    t = head + replacement + tail
                    if t not in signs:
                        signs[t] = t_sign
                        frontier.append((t, t_sign))
    return signs


def enumerate_C_tilde(alpha: Iterable[int], n: int) -> frozenset[tuple[int, ...]]:
    """Barred strings reachable from the zero-paddings of alpha by M.1/M.2."""
    # from the keys view, as enumerate_C takes its closed terms
    return frozenset(_barred(as_composition(alpha), n).keys())


def _barred(a: Composition, n: int) -> Mapping[tuple[int, ...], int]:
    # checked before the cache, which would serve n=2.0 from its n=2 entry
    return _c_tilde(a, _size(n, len(a), "n"))


@lru_cache(maxsize=1024)
def _c_tilde(alpha: Composition, n: int) -> Mapping[tuple[int, ...], int]:
    """The signed barred move closure of alpha's paddings into n slots.

    The result is cached and shared by every caller, so it is a read-only
    view.
    """
    return MappingProxyType(_move_closure(atoms(alpha, n)))


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
    """
    runs = run_encode(alpha)
    out: list[tuple[Composition, int]] = []

    def extend(i: int, prefix: Composition, length: int, degree: int, coeff: int) -> None:
        # length and degree are the slack left once every run keeps its
        # original multiplicity
        if i == len(runs):
            out.append((prefix, coeff))
            return
        v, m = runs[i]
        for extra in range(min(length, degree // v) + 1):
            extend(
                i + 1,
                prefix + (v,) * (m + extra),
                length - extra,
                degree - extra * v,
                coeff * _run_factor(m + extra, m),
            )

    length, degree = max_length - len(alpha), max_degree - sum(alpha)
    if length >= 0 and degree >= 0:
        extend(0, (), length, degree, 1)
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
    return _signed_projection(_barred(a, n)).get(s, 0)


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
        # sorting fixes the term order, whatever order the closure found
        terms = dict(sorted(_signed_projection(_barred(a, n)).items()))
    # every key is a length-n string built here
    return SparsePoly._from_numerators(n, terms, 1)


def monomial_glide_weak(a: Iterable[int]) -> SparsePoly:
    """Signed generating polynomial of the move closure of one weak composition.

    When ``a`` is a composition padded with leading zeros this recovers
    glide_polynomial on that composition; without leading room for moves it
    degenerates to the single monomial y^a.
    """
    start = as_weak_composition(a)
    return SparsePoly(len(start), _signed_projection(_move_closure([start])))


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
