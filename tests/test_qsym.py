import contextlib
import copy
import json
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from glidekit.compositions import overlapping_paddings, paddings
from glidekit.errors import (
    GlidekitError,
    InputFileError,
    InvalidCompositionError,
    LengthMismatchError,
    MalformedInputError,
    NotQuasisymmetricError,
    OutOfRangeError,
    UnknownLabelError,
)
from glidekit.glides import glide_polynomial
from glidekit.ktheory import KRingElement, chern_substitute, is_quasisymmetric, knutson_class
from glidekit.poly import SparsePoly, _BoxTerms
from glidekit.qsym import (
    GradedRingData,
    QSymElement,
    _checked_box,
    _group_by_positive_part,
    _read_box,
    _slot_products,
    cpinf_ring,
    glide_element,
    glide_expand,
    glide_structure_constants,
    m_multiply,
    m_to_polynomial,
    overlapping_shuffle,
    polynomial_to_m,
    qsym_r_product,
    qsym_r_product_shuffle,
)
from glidekit.schur import buk_structure_constant, schur_ring

from conftest import all_compositions


def test_m_to_polynomial_examples():
    assert m_to_polynomial((1, 3), 3) == SparsePoly(
        3, {(1, 3, 0): 1, (1, 0, 3): 1, (0, 1, 3): 1}
    )
    assert m_to_polynomial((), 2) == SparsePoly.one(2)
    assert m_to_polynomial((1, 1), 2) == SparsePoly(2, {(1, 1): 1})
    # too long for the variable count: the zero polynomial
    assert m_to_polynomial((1, 2, 1), 2).is_zero()


def test_polynomial_to_m_examples():
    f = m_to_polynomial((1, 3), 3)
    assert polynomial_to_m(f, 3).coords == {(1, 3): Fraction(1)}
    with pytest.raises(NotQuasisymmetricError):
        polynomial_to_m(SparsePoly(2, {(1, 0): 1}), 2)
    # every placement present, but a negative exponent is refused by the
    # SparsePoly constructor before polynomial_to_m sees it
    with pytest.raises(InvalidCompositionError):
        polynomial_to_m(SparsePoly(2, {(-1, 0): 1, (0, -1): 1}), 2)

    g = polynomial_to_m(glide_polynomial((1, 3), 4), 4)
    assert g.coords == {
        (1, 3): 1,
        (1, 1, 3): -1,
        (1, 3, 3): -1,
        (1, 1, 1, 3): 1,
        (1, 1, 3, 3): 1,
        (1, 3, 3, 3): 1,
    }


def test_polynomial_to_m_roundtrip():
    for alpha in all_compositions(5):
        for n in range(len(alpha), len(alpha) + 3):
            f = m_to_polynomial(alpha, n)
            coords = polynomial_to_m(f, n).coords
            if len(alpha) <= n and alpha:
                assert coords == {alpha: Fraction(1)}
            rebuilt = SparsePoly.zero(n)
            for g, c in coords.items():
                rebuilt = rebuilt + m_to_polynomial(g, n).scale(c)
            assert rebuilt == f


def _reference_m_coords(f, n):
    """The placement-by-placement reader: every placement of each composition
    must carry the coefficient of its initial placement.  Returns the
    coordinates in first-seen order, or None when f is not quasisymmetric."""
    coords = {}
    for exps in f.terms:
        gamma = tuple(p for p in exps if p)
        if gamma in coords:
            continue
        expected = f.terms.get(gamma + (0,) * (n - len(gamma)), 0)
        for positions in combinations(range(n), len(gamma)):
            e = [0] * n
            for i, part in zip(positions, gamma):
                e[i] = part
            if f.terms.get(tuple(e), 0) != expected:
                return None
        coords[gamma] = expected
    return coords


def _assert_both_reject(f, n):
    assert _reference_m_coords(f, n) is None
    assert not is_quasisymmetric(f, n)
    with pytest.raises(NotQuasisymmetricError) as exc:
        polynomial_to_m(f, n)
    assert exc.value.code == "not-quasisymmetric"


_COEFFS = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 7])
)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(2, 4))
def test_single_pass_reader_matches_placement_reference(data, n):
    gammas = st.lists(st.integers(1, 3), max_size=n).map(tuple)
    coords = data.draw(st.dictionaries(gammas, _COEFFS, min_size=1, max_size=5))
    f = SparsePoly.zero(n)
    for gamma, c in coords.items():
        f = f + m_to_polynomial(gamma, n).scale(c)
    read = polynomial_to_m(f, n).coords
    assert read == coords
    assert is_quasisymmetric(f, n)
    assert list(_reference_m_coords(f, n).items()) == list(read.items())

    # perturb one placement of a composition with at least two placements
    shared = [e for e in f.terms if 0 < sum(1 for p in e if p) < n]
    if shared:
        target = data.draw(st.sampled_from(shared))
        changed = dict(f.terms)
        changed[target] += data.draw(_COEFFS)  # a sum of 0 deletes the placement
        _assert_both_reject(SparsePoly(n, changed), n)
        deleted = dict(f.terms)
        del deleted[target]
        _assert_both_reject(SparsePoly(n, deleted), n)
    # a stray monomial, on a composition that then has 1 of >= 2 placements
    # or one placement out of line with the others
    k = data.draw(st.integers(1, n - 1))
    positions = data.draw(st.sampled_from(list(combinations(range(n), k))))
    stray = [0] * n
    for i in positions:
        stray[i] = data.draw(st.integers(1, 3))
    added = dict(f.terms)
    added[tuple(stray)] = added.get(tuple(stray), 0) + data.draw(_COEFFS)
    _assert_both_reject(SparsePoly(n, added), n)


def _term_loop_m_coords(f, n):
    """The term-by-term reader that the counting pass replaced: coefficients
    and placement counts are checked in one loop, then the counts in
    first-seen order."""
    coords = {}
    placements = {}
    for exps, c in f.terms.items():
        gamma = tuple(p for p in exps if p)
        first = coords.setdefault(gamma, c)
        if first is not c and first != c:
            return coords, gamma
        placements[gamma] = placements.get(gamma, 0) + 1
    for gamma, count in placements.items():
        if count != comb(n, len(gamma)):
            return coords, gamma
    return coords, None


@st.composite
def _quasisymmetric_polys(draw):
    """A sum of scaled monomial quasisymmetric polynomials, or the Chern
    image of a small K-class, with its variable count."""
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(all_compositions(4)))
        n = draw(st.integers(len(alpha), 4))
        m = draw(st.integers(max(alpha, default=0), 4))
        return chern_substitute(knutson_class(alpha, n, m)), n
    n = draw(st.integers(0, 4))
    gammas = st.lists(st.integers(1, 3), max_size=n).map(tuple)
    f = SparsePoly.zero(n)
    for gamma, c in draw(st.dictionaries(gammas, _COEFFS, max_size=5)).items():
        f = f + m_to_polynomial(gamma, n).scale(c)
    return f, n


@settings(max_examples=150, deadline=None)
@given(data=st.data(), start=_quasisymmetric_polys())
def test_counting_reader_matches_term_loop(data, start):
    f, n = start
    terms = dict(f.terms)
    for _ in range(data.draw(st.integers(0, 3))):
        if not terms:
            break
        target = data.draw(st.sampled_from(sorted(terms)))
        kind = data.draw(st.sampled_from(["drop", "change", "copy"]))
        if kind == "drop":
            del terms[target]
        elif kind == "change":
            terms[target] += data.draw(_COEFFS)  # a sum of 0 drops the placement
        else:
            # an equal Fraction that is a different object
            c = terms[target]
            terms[target] = Fraction(c.numerator * 2, c.denominator * 2)
            assert terms[target] is not c
    g = SparsePoly(n, terms)
    got = _group_by_positive_part(g, n)
    expected = _term_loop_m_coords(g, n)
    assert got[1] == expected[1]
    assert list(got[0].items()) == list(expected[0].items())
    assert all(a is b for a, b in zip(got[0].values(), expected[0].values()))


def test_single_pass_reader_compares_values_not_objects():
    c = Fraction(3, 2)
    # (1) and (2) share one coefficient object, but (2) misses a placement
    f = SparsePoly(3, {(1, 0, 0): c, (0, 1, 0): c, (0, 0, 1): c, (2, 0, 0): c, (0, 2, 0): c})
    _assert_both_reject(f, 3)
    # equal values held by distinct objects form one passing group
    g = SparsePoly(3, {(1, 0, 0): c, (0, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(6, 4)})
    assert polynomial_to_m(g, 3).coords == {(1,): c}
    assert _reference_m_coords(g, 3) == {(1,): c}
    assert is_quasisymmetric(g, 3)


def _reference_slot_expansion(slots, scale):
    """The prefix-by-prefix expansion that the tensor engine and the label
    shuffle each used to carry: extend every prefix by every item of the
    next slot, merging equal keys."""
    partial = {(): scale}
    for factor in slots:
        nxt = {}
        for prefix, c in partial.items():
            for l, lc in factor.items():
                key = prefix + (l,)
                nxt[key] = nxt.get(key, Fraction(0)) + c * lc
        partial = nxt
        if not partial:
            break
    return partial


@settings(max_examples=150, deadline=None)
@given(
    slots=st.lists(
        st.dictionaries(st.sampled_from(["e", "a", "b", 2, (1, 0)]), _COEFFS, max_size=3),
        max_size=4,
    ),
    held=st.lists(st.one_of(st.none(), _COEFFS), max_size=8),
    extra=st.integers(0, 2),
)
@example(slots=[{"a": Fraction(1, 2)}, {}, {"b": Fraction(1, 2)}], held=[], extra=0)
@example(slots=[], held=[None], extra=0)
@example(
    slots=[{"a": Fraction(1, 2), "b": Fraction(2)}, {"c": Fraction(1, 2)}],
    held=[None, Fraction(3)],
    extra=0,
)
def test_slot_product_matches_prefix_expansion(slots, held, extra):
    # the rational slots as the routes hand them over, as one pair; n is at
    # least the length of every pair, and the sum comes back as Fractions
    n = max(len(slots), 1) + extra
    expected = _reference_slot_expansion(slots, Fraction(1))
    out = _slot_products([slots], n)
    assert list(out.items()) == list(expected.items())
    assert all(type(c) is Fraction for c in out.values())
    # after earlier pairs that already hold keys: a pair of one item per slot
    # holds one key, and a held coefficient of None cancels its expansion
    # key, which must leave the sum.  The empty key is the empty pair's
    # product, 1, so no earlier pair holds another coefficient there
    earlier = [[{"held": Fraction(5)}]]
    merged = {("held",): Fraction(5)}
    for (key, c), h in zip(expected.items(), held):
        if key:
            merged[key] = -c if h is None else h
            earlier.append([{key[0]: merged[key]}] + [{l: Fraction(1)} for l in key[1:]])
    for key, c in expected.items():
        merged[key] = merged.get(key, 0) + c
    out = _slot_products(earlier + [slots], n)
    assert list(out.items()) == [(key, c) for key, c in merged.items() if c]


def test_overlapping_shuffle_examples():
    assert overlapping_shuffle((3,), (1, 3)) == {
        (3, 1, 3): 1,
        (1, 3, 3): 2,
        (4, 3): 1,
        (1, 6): 1,
    }
    assert overlapping_shuffle((2, 1), ()) == {(2, 1): 1}
    assert overlapping_shuffle((1,), (1,)) == {(1, 1): 2, (2,): 1}


def _listed_overlapping_shuffle(a, b):
    """The overlapping shuffle by listing every surjective placement pair
    into k slots, adding the parts slot by slot."""
    out = {}
    for k in range(max(len(a), len(b)), len(a) + len(b) + 1):
        for l, r in overlapping_paddings(a, b, k):
            gamma = tuple(x + y for x, y in zip(l, r))
            out[gamma] = out.get(gamma, 0) + 1
    return out


_SHORT_COMPOSITIONS = st.lists(st.integers(1, 3), max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(a=_SHORT_COMPOSITIONS, b=_SHORT_COMPOSITIONS)
@example(a=(1, 1, 1, 1), b=(1, 1, 1, 1))
@example(a=(), b=())
def test_overlapping_shuffle_recursion_matches_the_placement_listing(a, b):
    got = overlapping_shuffle(a, b)
    assert got == _listed_overlapping_shuffle(a, b)
    # every placement pair is counted once: the Delannoy number D(m, n)
    m, n = len(a), len(b)
    assert sum(got.values()) == sum(comb(m, k) * comb(n, k) * 2**k for k in range(min(m, n) + 1))


def test_overlapping_shuffle_does_not_recurse_on_the_length():
    assert overlapping_shuffle((1, 2) * 600, ()) == {(1, 2) * 600: 1}
    assert overlapping_shuffle((), (2, 1) * 600) == {(2, 1) * 600: 1}


_SMALL_COMPOSITIONS = st.lists(st.integers(1, 3), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(a=_SMALL_COMPOSITIONS, b=_SMALL_COMPOSITIONS, extra=st.integers(0, 1))
def test_overlapping_shuffle_matches_polynomial_product(a, b, extra):
    # every term of the product has length at most len(a) + len(b)
    n = len(a) + len(b) + extra
    product = m_to_polynomial(a, n) * m_to_polynomial(b, n)
    expected = {g: Fraction(c) for g, c in overlapping_shuffle(a, b).items()}
    assert polynomial_to_m(product, n).coords == expected


@settings(max_examples=60, deadline=None)
@given(a=_SMALL_COMPOSITIONS, b=_SMALL_COMPOSITIONS, extra=st.integers(0, 1))
def test_cpinf_tensor_product_matches_both_shuffles(a, b, extra):
    ring = cpinf_ring()
    tensor = qsym_r_product(a, b, ring, len(a) + len(b) + extra)
    assert tensor == qsym_r_product_shuffle(a, b, ring)
    assert tensor == {g: Fraction(c) for g, c in overlapping_shuffle(a, b).items()}


def test_m_multiply_examples():
    prod = m_multiply(QSymElement.monomial((3,)), QSymElement.monomial((1, 3)))
    assert prod.coords == {
        (3, 1, 3): 1,
        (1, 3, 3): 2,
        (4, 3): 1,
        (1, 6): 1,
    }
    one = QSymElement.monomial(())
    f = QSymElement({(2, 1): Fraction(5, 3), (1,): Fraction(-2)})
    assert m_multiply(one, f).coords == f.coords
    prod11 = m_multiply(QSymElement.monomial((1,)), QSymElement.monomial((1,)))
    assert prod11.coords == {(1, 1): 2, (2,): 1}


def test_m_multiply_matches_polynomial_oracle_small():
    for alpha in all_compositions(3):
        for beta in all_compositions(3):
            n = len(alpha) + len(beta) + 1
            prod = m_multiply(QSymElement.monomial(alpha), QSymElement.monomial(beta))
            lhs = m_to_polynomial(alpha, n) * m_to_polynomial(beta, n)
            rhs = SparsePoly.zero(n)
            for g, c in prod.coords.items():
                rhs = rhs + m_to_polynomial(g, n).scale(c)
            assert lhs == rhs, (alpha, beta)


def test_m_multiply_commutative_associative_random():
    rng = random.Random(11)
    comps = [a for a in all_compositions(4) if a]
    for _ in range(15):
        a, b, c = (QSymElement.monomial(rng.choice(comps)) for _ in range(3))
        assert m_multiply(a, b).coords == m_multiply(b, a).coords
        left = m_multiply(m_multiply(a, b), c)
        right = m_multiply(a, m_multiply(b, c))
        assert left.coords == right.coords


def test_degree_bound_truncation():
    f = QSymElement.monomial((2,), degree_bound=3)
    g = QSymElement.monomial((2,), degree_bound=3)
    assert m_multiply(f, g).coords == {}
    h = m_multiply(QSymElement.monomial((1,), 3), QSymElement.monomial((1,), 3))
    assert h.coords == {(1, 1): 2, (2,): 1}
    assert h.degree_bound == 3
    with pytest.raises(OutOfRangeError):
        QSymElement({(2, 2): Fraction(1)}, degree_bound=3)
    with pytest.raises(OutOfRangeError):
        QSymElement({}, degree_bound=-1)


def test_equal_elements_hash_equal():
    # equal coordinates in another order: one hash, and a set finds either
    q = QSymElement({(1,): 1, (2, 1): Fraction(1, 2)}, 4)
    r = QSymElement({(2, 1): Fraction(1, 2), (1,): 1}, 4)
    assert list(q.coords) != list(r.coords)
    assert q == r and hash(q) == hash(r)
    assert q in {q} and r in {q}
    assert QSymElement({(1,): 1}, 4) not in {QSymElement({(1,): 1})}


def test_returned_coordinates_are_read_only():
    # a write would put a coordinate past the bound check
    f = QSymElement({(1,): 1}, 2)
    with pytest.raises(TypeError):
        f.coords[(7,)] = Fraction(1)
    chern = chern_substitute(knutson_class((1, 2), 3, 2))
    returned = [
        f,
        QSymElement.monomial((1, 2)),
        f + QSymElement.monomial((1,), 3),
        f.scale(Fraction(1, 2)),
        m_multiply(f, f),
        glide_element((1, 2), 4),
        polynomial_to_m(chern, 3),
        polynomial_to_m(glide_polynomial((1, 2), 3), 3),
    ]
    for element in returned:
        before = list(element.coords.items())
        with pytest.raises(TypeError):
            element.coords[(7,)] = Fraction(1)
        with pytest.raises(TypeError):
            del element.coords[before[0][0]]
        assert list(element.coords.items()) == before
    assert f.coords == {(1,): 1}


def test_m_multiply_keeps_the_one_bound_given():
    bounded, unbounded = QSymElement.monomial((1,), 2), QSymElement.monomial((1,))
    for f, g in ((bounded, unbounded), (unbounded, bounded)):
        h = m_multiply(f, g)
        assert h.degree_bound == 2
        assert h.coords == {(1, 1): 2, (2,): 1}


def test_glide_expand_examples():
    # triangularity: a glide expands to itself; the degree bound stays at or
    # below the variable count, where the truncation is coordinate-faithful
    for alpha in [(1, 3), (2,), (1, 1)]:
        n = len(alpha) + 2
        f = polynomial_to_m(glide_polynomial(alpha, n), n)
        assert glide_expand(f, n) == {alpha: Fraction(1)}

    assert glide_expand(QSymElement.monomial((1,)), 2) == {
        (1,): Fraction(1),
        (1, 1): Fraction(1),
    }
    # after two peels the residual passes degree 2: coordinates stop there
    assert glide_expand(QSymElement.monomial((1,)), 3) == {
        (1,): Fraction(1),
        (1, 1): Fraction(1),
        (1, 1, 1): Fraction(1),
    }

    combo = glide_element((1, 3), 4) + glide_element((2,), 4)
    assert glide_expand(combo, 4) == {(2,): Fraction(1), (1, 3): Fraction(1)}


def test_glide_expand_reconstructs_input():
    # the expansion re-assembles to the original coordinates up to the bound
    f = QSymElement({(1,): Fraction(2), (2, 1): Fraction(-1, 3)})
    bound = 5
    coords = glide_expand(f, bound)
    rebuilt = QSymElement({}, bound)
    for alpha, c in coords.items():
        rebuilt = rebuilt + glide_element(alpha, bound).scale(c)
    expected = {a: c for a, c in f.coords.items() if sum(a) <= bound}
    assert rebuilt.coords == expected


def test_glide_expand_refuses_a_bound_above_the_elements_own():
    # G_(1) cut at degree 1 holds only M_(1); its coordinates on (1,1) and
    # (1,1,1) were dropped, and reading them as 0 would return
    # {(1,): 1, (1, 1): 1, (1, 1, 1): 1} instead of G_(1)
    cut = glide_element((1,), 1)
    assert glide_expand(cut, 1) == {(1,): Fraction(1)}
    with pytest.raises(OutOfRangeError):
        glide_expand(cut, 3)
    assert glide_expand(glide_element((1,), 3), 3) == {(1,): Fraction(1)}


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.dictionaries(
        st.sampled_from([a for a in all_compositions(5) if a]),
        st.fractions(-3, 3, max_denominator=4).filter(bool),
        max_size=4,
    ),
    bound=st.integers(0, 6),
)
def test_glide_expand_inverts_glide_element(coeffs, bound):
    expected = {a: c for a, c in coeffs.items() if sum(a) <= bound}
    glides = QSymElement({}, bound)
    for alpha, c in expected.items():
        glides = glides + glide_element(alpha, bound).scale(c)
    assert glide_expand(glides, bound) == expected
    # and the other way round: the same numbers read as monomial coordinates
    # re-assemble from their glide expansion
    monomials = QSymElement(expected, bound)
    rebuilt = QSymElement({}, bound)
    for alpha, c in glide_expand(monomials, bound).items():
        rebuilt = rebuilt + glide_element(alpha, bound).scale(c)
    assert rebuilt.coords == expected


def _reference_m_multiply(f, g):
    """The Fraction loop that m_multiply replaces, term for term: zero sums
    stay in place until the element drops them."""
    bound = min((b for b in (f.degree_bound, g.degree_bound) if b is not None), default=None)
    out = {}
    for a, ca in f.coords.items():
        for b, cb in g.coords.items():
            if bound is not None and sum(a) + sum(b) > bound:
                continue
            for gamma, mult in overlapping_shuffle(a, b).items():
                out[gamma] = out.get(gamma, Fraction(0)) + mult * ca * cb
    return QSymElement(out, bound)


def _reference_glide_expand(f, degree_bound):
    """The Fraction peeling that glide_expand replaces, term for term."""
    coords = {}
    residual = {a: c for a, c in f.coords.items() if sum(a) <= degree_bound}
    while residual:
        d = min(sum(a) for a in residual)
        layer = {a: c for a, c in residual.items() if sum(a) == d}
        for a, c in layer.items():
            coords[a] = c
            for g, gc in glide_element(a, degree_bound).coords.items():
                v = residual.get(g, Fraction(0)) - c * gc
                if v:
                    residual[g] = v
                else:
                    residual.pop(g, None)
    return coords


def _within(coords, bound):
    """The element of the coordinates up to ``bound`` (None: all of them)."""
    return QSymElement({a: c for a, c in coords.items() if bound is None or sum(a) <= bound}, bound)


_RATIONAL_COORDS = st.dictionaries(st.sampled_from(all_compositions(4)), _COEFFS, max_size=4)
_BOUNDS = st.one_of(st.none(), st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(f=_RATIONAL_COORDS, g=_RATIONAL_COORDS, bounds=st.tuples(_BOUNDS, _BOUNDS))
@example(
    # (3), (1, 2) and (2, 1) sum to 0 and are dropped, in place
    f={(1,): Fraction(1, 2), (2,): Fraction(1, 2)},
    g={(1,): Fraction(1, 3), (2,): Fraction(-1, 3)},
    bounds=(None, None),
)
def test_integer_m_multiply_matches_the_fraction_loop(f, g, bounds):
    f, g = _within(f, bounds[0]), _within(g, bounds[1])
    got, expected = m_multiply(f, g), _reference_m_multiply(f, g)
    assert got.degree_bound == expected.degree_bound
    assert list(got.coords.items()) == list(expected.coords.items())
    assert all(type(c) is Fraction and c for c in got.coords.values())


@settings(max_examples=150, deadline=None)
@given(
    coords=st.dictionaries(st.sampled_from(all_compositions(5)), _COEFFS, max_size=5),
    bound=st.integers(0, 5),
    slack=st.one_of(st.none(), st.integers(0, 1)),
)
@example(
    coords={(1,): Fraction(1, 2), (1, 1): Fraction(-1, 2), (2,): Fraction(2, 3)},
    bound=3,
    slack=None,
)
def test_integer_glide_expand_matches_the_fraction_peeling(coords, bound, slack):
    f = _within(coords, None if slack is None else bound + slack)
    got = glide_expand(f, bound)
    assert list(got.items()) == list(_reference_glide_expand(f, bound).items())
    assert all(type(c) is Fraction and c for c in got.values())


def test_glide_structure_constants_examples():
    assert glide_structure_constants((1,), (1,), 2) == {
        (2,): Fraction(1),
        (1, 1): Fraction(2),
    }
    assert glide_structure_constants((), (1, 2), 4) == {(1, 2): Fraction(1)}


def test_glide_element_of_many_runs():
    # the inflation walk keeps no Python frame per run of alpha
    alpha = (1, 2) * 500
    element = glide_element(alpha, 1500)
    assert dict(element.coords) == {alpha: Fraction(1)}
    assert element.degree_bound == 1500


def test_glide_expand_keys_sizes_by_those_present():
    # no table as long as the degree bound is built
    assert glide_expand(QSymElement({}), 10**9) == {}


def test_glide_structure_constants_stable_in_degree():
    for a, b in [((1,), (1,)), ((2,), (1, 1)), ((1, 2), (1,))]:
        lo = glide_structure_constants(a, b, 4)
        hi = glide_structure_constants(a, b, 5)
        assert lo == {g: c for g, c in hi.items() if sum(g) <= 4}


def test_glide_structure_constants_polynomial_oracle():
    # oracle: multiply the glides as honest polynomials in n variables, read
    # off monomial coordinates, and expand; faithful up to degree n
    for a, b in [((1,), (1,)), ((1,), (2,)), ((1, 1), (1,))]:
        n = 4
        product = glide_polynomial(a, n) * glide_polynomial(b, n)
        via_polys = glide_expand(polynomial_to_m(product, n), n)
        direct = glide_structure_constants(a, b, n)
        assert via_polys == direct, (a, b)


def test_qsym_r_product_reproduces_shuffle():
    ring = cpinf_ring()
    for alpha in all_compositions(3):
        for beta in all_compositions(3):
            n = len(alpha) + len(beta) + 1
            got = qsym_r_product(alpha, beta, ring, n)
            expected = {
                g: Fraction(c) for g, c in overlapping_shuffle(alpha, beta).items()
            }
            assert got == expected, (alpha, beta)


def test_qsym_r_product_routes_agree():
    ring = cpinf_ring()
    rng = random.Random(5)
    comps = [a for a in all_compositions(4) if a]
    for _ in range(10):
        a, b = rng.choice(comps), rng.choice(comps)
        n = len(a) + len(b)
        assert qsym_r_product(a, b, ring, n) == qsym_r_product_shuffle(a, b, ring)


def test_qsym_r_product_stable_in_n():
    ring = cpinf_ring()
    for a, b in [((2,), (1, 3)), ((1, 1), (2,))]:
        base = len(a) + len(b)
        assert qsym_r_product(a, b, ring, base) == qsym_r_product(a, b, ring, base + 2)


def _reference_m_tensor(ring, labels, n):
    """The monomial-type sum of a label tuple inside the n-fold tensor power."""
    return dict.fromkeys(paddings(tuple(labels), n, ring.unit), Fraction(1))


def _reference_tensor_multiply(ring, f, g):
    """Every key pair expanded over all n slots, the full tensor product."""
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            slots = [ring.product(a, b) for a, b in zip(k1, k2)]
            for key, c in _reference_slot_expansion(slots, c1 * c2).items():
                v = out.get(key, Fraction(0)) + c
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out


def _reference_r_product(theta, kappa, ring, n):
    """The tensor engine before pairs were filtered: multiply the two
    monomial-type sums in full, then read the initial-segment keys back."""
    prod = _reference_tensor_multiply(
        ring, _reference_m_tensor(ring, theta, n), _reference_m_tensor(ring, kappa, n)
    )
    out = {}
    for key, c in prod.items():
        nonunit = [l for l in key if l != ring.unit]
        length = len(nonunit)
        if tuple(key[:length]) == tuple(nonunit) and all(
            l == ring.unit for l in key[length:]
        ):
            out[tuple(nonunit)] = c
    return out


# x*x = a, x*y = a and y*y = -a: the product (x, x, y) * (x, y, y) has a key
# whose running sum reaches zero before it is added to again
MIXED_SIGN_RING = GradedRingData.from_dict(
    {
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "x", "degree": 1},
            {"label": "y", "degree": 1},
            {"label": "a", "degree": 2},
        ],
        "constants": {"x": {"x": {"a": "1"}, "y": {"a": "1"}}, "y": {"y": {"a": "-1"}}},
    }
)
_ENGINE_RINGS = {
    "cpinf": (cpinf_ring(), st.integers(1, 3)),
    "schur2": (schur_ring(2), st.sampled_from([(1, 0), (2, 0), (1, 1), (2, 1)])),
    "schur3": (schur_ring(3), st.sampled_from([(1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1)])),
    "mixed": (MIXED_SIGN_RING, st.sampled_from(["x", "y", "a"])),
}


_ENGINE_CASES = st.sampled_from(sorted(_ENGINE_RINGS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.lists(_ENGINE_RINGS[name][1], max_size=3).map(tuple),
        st.lists(_ENGINE_RINGS[name][1], max_size=2).map(tuple),
    )
)


@settings(max_examples=120, deadline=None)
@given(case=_ENGINE_CASES, extra=st.integers(0, 1))
@example(case=("mixed", ("x", "x", "y"), ("x", "y", "y")), extra=0)
def test_tensor_engine_matches_full_tensor_product(case, extra):
    name, theta, kappa = case
    ring = _ENGINE_RINGS[name][0]
    n = len(theta) + len(kappa) + extra
    got = qsym_r_product(theta, kappa, ring, n)
    assert list(got.items()) == list(_reference_r_product(theta, kappa, ring, n).items())
    if name.startswith("schur"):
        k = len(ring.unit)
        assert got == qsym_r_product_shuffle(theta, kappa, ring)
        for nu, coeff in got.items():
            assert buk_structure_constant(theta, kappa, nu, k) == coeff


# a ring whose constants have denominators 2, 3, 4 and 6, so the tensor
# routes sum over a common denominator L^n with L = 12; x*x and y*y meet
# with opposite signs on a, so sums cancel
RATIONAL_RING = GradedRingData.from_dict(
    {
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "x", "degree": 1},
            {"label": "y", "degree": 1},
            {"label": "a", "degree": 2},
            {"label": "b", "degree": 2},
            {"label": "c", "degree": 3},
        ],
        "constants": {
            "x": {"x": {"a": "1/2", "b": "-1/3"}, "y": {"a": "2/3"}, "a": {"c": "3/4"}},
            "y": {"y": {"a": "-1/2", "b": "1/2"}, "b": {"c": "-1/6"}},
            "a": {"y": {"c": 2}},
        },
    }
)


def _reference_label_shuffle(theta, kappa, ring):
    """The Fraction accumulation that qsym_r_product_shuffle replaces."""
    out = {}
    for length in range(max(len(theta), len(kappa)), len(theta) + len(kappa) + 1):
        for l, r in overlapping_paddings(theta, kappa, length, ring.unit):
            slots = [ring.product(x, y) for x, y in zip(l, r)]
            for key, c in _reference_slot_expansion(slots, Fraction(1)).items():
                v = out.get(key, Fraction(0)) + c
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out


_RATIONAL_LABELS = st.lists(st.sampled_from(["x", "y", "a", "b"]), max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(theta=_RATIONAL_LABELS, kappa=_RATIONAL_LABELS, extra=st.integers(0, 1))
@example(theta=("x", "x", "y"), kappa=("x", "y", "y"), extra=0)
@example(theta=("x", "y"), kappa=("x", "y"), extra=1)
def test_tensor_routes_on_rational_constants_match_the_fraction_loops(theta, kappa, extra):
    n = len(theta) + len(kappa) + extra
    ring = RATIONAL_RING
    tensor = qsym_r_product(theta, kappa, ring, n)
    assert list(tensor.items()) == list(_reference_r_product(theta, kappa, ring, n).items())
    shuffle = qsym_r_product_shuffle(theta, kappa, ring)
    assert list(shuffle.items()) == list(_reference_label_shuffle(theta, kappa, ring).items())
    assert all(type(c) is Fraction and c for c in [*tensor.values(), *shuffle.values()])
    assert tensor == shuffle


def test_qsym_r_product_errors():
    ring = cpinf_ring()
    with pytest.raises(OutOfRangeError):
        qsym_r_product((1, 2), (1,), ring, 2)
    with pytest.raises(UnknownLabelError):
        qsym_r_product((0,), (1,), ring, 3)  # unit label inside a tuple
    with pytest.raises(UnknownLabelError):
        qsym_r_product((-2,), (1,), ring, 3)
    with pytest.raises(UnknownLabelError):
        qsym_r_product((True,), (1,), ring, 3)  # a bool is not a degree


RING_JSON = {
    "basis": [
        {"label": "1", "degree": 0},
        {"label": "x", "degree": 1},
        {"label": "x2", "degree": 2},
    ],
    "constants": {"x": {"x": {"x2": "1"}}},
    "counit": {"1": "1", "x": "0", "x2": "0"},
}


def _with_basis_entry(label, degree):
    return dict(RING_JSON, basis=RING_JSON["basis"] + [{"label": label, "degree": degree}])


def test_graded_ring_from_dict(tmp_path):
    ring = GradedRingData.from_dict(RING_JSON)
    assert ring.unit == "1"
    assert ring.degree("x2") == 2
    assert ring.product("x", "x") == {"x2": Fraction(1)}
    assert ring.product("x", "x2") == {}
    # file-based loading uses the same schema
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(RING_JSON), encoding="utf-8")
    ring2 = GradedRingData.from_json_file(path)
    out = qsym_r_product(("x",), ("x",), ring2, 2)
    assert out == {("x", "x"): Fraction(2), ("x2",): Fraction(1)}


@pytest.mark.parametrize(
    "ring, theta, kappa, n",
    [
        (schur_ring(3), ((1, 0, 0), (2, 1, 0)), ((2, 1, 0),), 3),
        (cpinf_ring(), (1, 2), (1,), 3),
        (GradedRingData.from_dict(RING_JSON), ("x",), ("x", "x"), 3),
    ],
    ids=["schur", "cpinf", "from_dict"],
)
def test_every_ring_pickles_and_copies(ring, theta, kappa, n):
    expected = list(qsym_r_product(theta, kappa, ring, n).items())
    assert expected
    for copier in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        got = copier(ring)
        assert got.unit == ring.unit
        # a caller cannot change what a copy's later products read
        with contextlib.suppress(TypeError):
            got.multiply(theta[0], kappa[0])[theta[0]] = 1
        assert list(qsym_r_product(theta, kappa, got, n).items()) == expected


def test_graded_ring_validation():
    bad_grading = {
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 1}],
        "constants": {"x": {"x": {"x": "1"}}},
    }
    with pytest.raises(UnknownLabelError):
        GradedRingData.from_dict(bad_grading)
    # the counit names basis labels only, with 1 on the unit and 0 elsewhere
    for counit in ({"1": "1", "x": "2"}, {"1": "2"}, {"1": "0"}, {"zzz": "5"}, {"zzz": "0"}):
        with pytest.raises(UnknownLabelError):
            GradedRingData.from_dict(dict(RING_JSON, counit=counit))
    assert GradedRingData.from_dict(dict(RING_JSON, counit={"x": "0/3"})).unit == "1"
    # a second degree-0 label whose square is the unit: the tensor engine
    # would read (e) * (e) as n times the empty tuple
    square_root_of_unit = {
        "basis": [{"label": "1", "degree": 0}, {"label": "e", "degree": 0}],
        "unit": "1",
        "constants": {"e": {"e": {"1": "1"}}},
    }
    negative_degree = dict(
        RING_JSON, basis=RING_JSON["basis"] + [{"label": "z", "degree": -1}]
    )
    for data in (square_root_of_unit, negative_degree):
        with pytest.raises(UnknownLabelError):
            GradedRingData.from_dict(data)


@pytest.mark.parametrize(
    "data, error",
    [
        ({}, MalformedInputError),
        ({"basis": 5}, MalformedInputError),
        ({"basis": [{"degree": 0}]}, MalformedInputError),
        ({"basis": [{"label": "1", "degree": "a"}]}, MalformedInputError),
        (_with_basis_entry("y", 1.5), MalformedInputError),
        (_with_basis_entry("y", "2"), MalformedInputError),
        (_with_basis_entry("y", True), MalformedInputError),
        (_with_basis_entry(2, 1), MalformedInputError),
        (_with_basis_entry(None, 2), MalformedInputError),
        (dict(RING_JSON, constants={"q": {"1": {"1": "1"}}}), UnknownLabelError),
        (dict(RING_JSON, constants={"x": {"x": {"x2": "1/0"}}}), MalformedInputError),
        (dict(RING_JSON, counit={"1": "abc"}), MalformedInputError),
        (dict(RING_JSON, constants={"x": {"x": {"x2": 0.1}}}), MalformedInputError),
        (dict(RING_JSON, counit={"1": True}), MalformedInputError),
        ([RING_JSON], MalformedInputError),
        (dict(RING_JSON, constants={"x": {"x": {"zzz": "0", "x2": "1"}}}), UnknownLabelError),
        (dict(RING_JSON, constants={"1": {"x": {"x": "2"}}}), UnknownLabelError),
        (dict(RING_JSON, constants={"x": {"x": {"x2": "0.1"}}}), MalformedInputError),
        (dict(RING_JSON, constants={"x": {"x": {"x2": "1e3"}}}), MalformedInputError),
        (dict(RING_JSON, constants={"x": {"x": {"x2": "1_0"}}}), MalformedInputError),
        (dict(RING_JSON, constants={"x": {"x": {"x2": "\u0661"}}}), MalformedInputError),
        (dict(RING_JSON, constants={"x": {"x": {"x2": "+3"}}}), MalformedInputError),
    ],
    ids=[
        "empty",
        "basis-not-a-list",
        "entry-without-label",
        "degree-not-an-integer",
        "degree-a-float",
        "degree-a-numeric-string",
        "degree-a-bool",
        "label-an-integer",
        "label-null",
        "constants-unknown-factor",
        "coefficient-over-zero",
        "counit-not-rational",
        "coefficient-a-float",
        "counit-a-bool",
        "top-level-list",
        "constants-unknown-label-with-zero",
        "constants-unit-product-not-the-other-factor",
        "coefficient-a-decimal-point-string",
        "coefficient-an-exponent-string",
        "coefficient-an-underscore-string",
        "coefficient-a-non-ascii-digit-string",
        "coefficient-a-plus-sign-string",
    ],
)
def test_graded_ring_data_errors_are_typed(data, error):
    with pytest.raises(error) as info:
        GradedRingData.from_dict(data)
    assert isinstance(info.value, GlidekitError)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"basis": [{"label": "x", "degree": 1}]}, "exactly one degree-0"),
        (
            {"basis": [{"label": "1", "degree": 0}, {"label": "e", "degree": 0}]},
            "exactly one degree-0",
        ),
        (dict(RING_JSON, unit="x"), "must have degree 0"),
    ],
    ids=["no-unit-no-degree-0-label", "no-unit-two-degree-0-labels", "unit-of-degree-1"],
)
def test_graded_ring_data_needs_one_degree_0_unit(data, message):
    with pytest.raises(UnknownLabelError, match=message):
        GradedRingData.from_dict(data)


def test_graded_ring_data_drops_a_zero_constant():
    ring = GradedRingData.from_dict(dict(RING_JSON, constants={"x": {"x": {"x2": "0"}}}))
    assert ring.product("x", "x") == {}


@pytest.mark.parametrize("second_degree", [1, 2])
def test_graded_ring_data_rejects_a_repeated_label(second_degree):
    # one entry per label: an agreeing repeat is refused like a conflicting one
    with pytest.raises(MalformedInputError, match="'x'"):
        GradedRingData.from_dict(_with_basis_entry("x", second_degree))


def test_graded_ring_file_errors_are_typed(tmp_path):
    with pytest.raises(InputFileError):
        GradedRingData.from_json_file(tmp_path / "missing.json")
    path = tmp_path / "ring.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedInputError):
        GradedRingData.from_json_file(path)


def test_ring_fields_must_be_callable():
    fields = dict(
        unit=0, degree=lambda a: a, multiply=lambda a, b: {a + b: 1}, contains=lambda a: a >= 0
    )
    GradedRingData(**fields)
    # ``bool`` is callable, but it refuses the unit 0
    with pytest.raises(UnknownLabelError, match="^not a label of the ring: 0$"):
        GradedRingData(**{**fields, "contains": bool})
    for field in ("degree", "multiply", "contains"):
        with pytest.raises(MalformedInputError, match=f"^ring {field} must be callable, got int$"):
            GradedRingData(**{**fields, field: 5})
    with pytest.raises(MalformedInputError):
        qsym_r_product((1,), (1,), GradedRingData(0, 5, 5, 5), 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_engine_rejects_labels_of_degree_at_most_zero(n):
    # a CP^inf-like ring built by hand whose ``contains`` admits negative
    # integers, so labels of negative degree
    negative = GradedRingData(
        unit=0,
        degree=lambda a: a,
        multiply=lambda a, b: {a + b: Fraction(1)},
        contains=lambda a: isinstance(a, int) and a >= -3,
    )
    for theta, kappa in [((1,), (-1,)), ((-1,), (1,)), ((0,), (1,))]:
        with pytest.raises(UnknownLabelError):
            qsym_r_product(theta, kappa, negative, n)
        with pytest.raises(UnknownLabelError):
            qsym_r_product_shuffle(theta, kappa, negative)
    # a degree-0 label that is not the unit
    zero_degree = GradedRingData(
        unit="1",
        degree=lambda l: {"1": 0, "e": 0, "x": 1}[l],
        multiply=lambda a, b: {},
        contains=lambda l: l in ("1", "e", "x"),
    )
    with pytest.raises(UnknownLabelError):
        qsym_r_product(("e",), ("x",), zero_degree, n)
    assert qsym_r_product((1,), (2,), negative, n) == {(3,): 1, (1, 2): 1, (2, 1): 1}


# a label outside the ring once met one of four fates: a wrong product, an
# echo of the label, an empty product or a malformed-input error
@pytest.mark.parametrize(
    "ring, a, b",
    [
        (schur_ring(2), (1, 0, 0), (1, 0, 0)),
        (cpinf_ring(), -3, 1),
        (cpinf_ring(), 0, "junk"),
        (GradedRingData.from_dict(RING_JSON), "zzz", "x"),
        (cpinf_ring(), "x", 1),
    ],
    ids=["wrong-product", "negative-degree", "echo", "empty", "malformed"],
)
def test_a_label_outside_the_ring_is_unknown_label(ring, a, b):
    for x, y in [(a, b), (b, a)]:
        with pytest.raises(UnknownLabelError, match="not a label of the ring"):
            ring.product(x, y)


def test_a_label_that_contains_cannot_test_is_unknown_label():
    # ``l in degrees`` raises TypeError on an unhashable label, and
    # ``l.isalnum()`` AttributeError on a non-string; both once escaped bare
    degrees = {"1": 0, "x": 1}
    ring = GradedRingData("1", degrees.__getitem__, lambda a, b: {}, lambda l: l in degrees)
    strict = replace(ring, contains=lambda l: l.isalnum() and l in degrees)
    calls = [
        lambda: ring.product([None], "x"),
        lambda: ring.product("x", {}),
        lambda: qsym_r_product(([None],), ("x",), ring, 2),
        lambda: strict.product("x", 5),
    ]
    for call in calls:
        with pytest.raises(UnknownLabelError, match="^not a label of the ring: "):
            call()


@pytest.mark.parametrize(
    "ring, unit, message",
    [
        (cpinf_ring(), 5, "^the unit 5 must have degree 0$"),
        (cpinf_ring(), -1, "^not a label of the ring: -1$"),
        (cpinf_ring(), "1", "^not a label of the ring: '1'$"),
        (schur_ring(2), (1, 0), r"^the unit \(1, 0\) must have degree 0$"),
        (schur_ring(2), (0, 0, 0), r"^not a label of the ring: \(0, 0, 0\)$"),
    ],
    ids=["cpinf-degree-5", "cpinf-negative", "cpinf-string", "schur-degree-1", "schur-length-3"],
)
def test_a_unit_that_is_no_degree_0_label_is_refused_when_built(ring, unit, message):
    # the unit 5 of degree 5 once gave 2 on (1,) for (5) * (1)
    with pytest.raises(UnknownLabelError, match=message):
        replace(ring, unit=unit)


def _partitions(k, top=3):
    return [p for p in product(range(top, -1, -1), repeat=k) if list(p) == sorted(p, reverse=True)]


# each ring with a strategy for its own labels
_LABEL_RINGS = {
    "schur2": (schur_ring(2), st.sampled_from(_partitions(2))),
    "schur3": (schur_ring(3), st.sampled_from(_partitions(3))),
    "cpinf": (cpinf_ring(), st.integers(0, 6)),
    "from_dict": (GradedRingData.from_dict(RING_JSON), st.sampled_from(["1", "x", "x2"])),
}
# labels of every ring above, near misses and junk
_ANY_LABEL = st.one_of(
    st.lists(st.integers(-1, 3), min_size=1, max_size=4).map(tuple),
    st.integers(-3, 6),
    st.sampled_from(["1", "x", "x2", "zzz", "", True, None, 1.5, (2.0, 1), [1, 0]]),
)
# each label is the ring's own half the time
_LABEL_CASES = st.sampled_from(sorted(_LABEL_RINGS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        *[st.booleans().flatmap(lambda own: _LABEL_RINGS[name][1] if own else _ANY_LABEL)] * 2,
    )
)


def _reference_product(ring, a, b):
    """``a * b`` from the ring's unit and ``multiply`` alone."""
    if a == ring.unit:
        return {b: 1}
    if b == ring.unit:
        return {a: 1}
    return {label: Fraction(c) for label, c in ring.multiply(a, b).items() if c}


@settings(max_examples=300, deadline=None)
@given(case=_LABEL_CASES)
@example(case=("schur2", (1, 0, 0), (1, 0, 0)))
@example(case=("cpinf", 0, "junk"))
@example(case=("from_dict", "zzz", "x"))
def test_product_refuses_exactly_the_labels_contains_refuses(case):
    name, a, b = case
    ring = _LABEL_RINGS[name][0]
    if ring.contains(a) and ring.contains(b):
        got = ring.product(a, b)
        assert got == _reference_product(ring, a, b)
        assert all(type(c) is Fraction for c in got.values())
    else:
        with pytest.raises(UnknownLabelError):
            ring.product(a, b)


# ``polynomial_to_m`` keeps no coordinates between calls, and
# ``is_quasisymmetric`` answers a Chern image from the box's slice check
# alone, whose verdict the image's box view keeps.  A second read of an
# image already checked or read must give exactly what a first read of an
# equal, never-read polynomial gives.


def _fresh(f):
    """An equal polynomial that has never been read."""
    return SparsePoly(f.nvars, dict(f.terms))


def test_second_read_of_a_chern_image_matches_a_fresh_read():
    for alpha, n, m in [((1, 2, 1), 4, 3), ((2, 1), 3, 2), ((), 2, 1), ((1,), 1, 2), ((), 0, 1)]:
        f = chern_substitute(knutson_class(alpha, n, m))
        assert is_quasisymmetric(f, n)
        assert f.terms._quasisymmetric is True
        kept = polynomial_to_m(f, n).coords
        fresh = polynomial_to_m(_fresh(f), n).coords
        assert list(kept.items()) == list(fresh.items())
        assert list(polynomial_to_m(f, n).coords.items()) == list(fresh.items())
        # a freshly substituted image, whose box has no verdict yet
        again = polynomial_to_m(chern_substitute(knutson_class(alpha, n, m)), n).coords
        assert list(again.items()) == list(fresh.items())


def _broken_image(alpha, n, m):
    """The Chern image of the K-class with 1 added to the coefficient of
    y_n, which criterion 07 refuses (``tests/test_acceptance.py``)."""
    terms = dict(knutson_class(alpha, n, m).poly.terms)
    y_n = (0,) * (n - 1) + (1,)
    terms[y_n] = terms.get(y_n, 0) + 1
    return chern_substitute(KRingElement(SparsePoly(n, terms), m))


@pytest.mark.parametrize("alpha, n, m", [((1, 2), 2, 2), ((1, 2, 1), 4, 3), ((1, 1), 3, 1)])
def test_kept_verdict_refuses_a_broken_image_each_time(alpha, n, m):
    broken = _broken_image(alpha, n, m)
    assert broken.terms._quasisymmetric is None
    assert not is_quasisymmetric(broken, n)
    assert broken.terms._quasisymmetric is False
    assert not is_quasisymmetric(broken, n)
    assert _checked_box(broken, n) is None
    # the grouping reader names the composition it names on a plain copy,
    # which never had a box or a verdict
    with pytest.raises(NotQuasisymmetricError) as kept:
        polynomial_to_m(broken, n)
    with pytest.raises(NotQuasisymmetricError) as fresh:
        polynomial_to_m(_fresh(broken), n)
    assert kept.value.code == "not-quasisymmetric"
    assert str(kept.value) == str(fresh.value)
    assert broken.terms._quasisymmetric is False


class _CountedSlices(list):
    """A box that counts the slices taken of it, as the slice check takes."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("alpha, n, m", [((1, 2), 3, 2), ((1, 2, 1), 4, 3)])
def test_slice_check_runs_once_per_image(alpha, n, m):
    for image in (chern_substitute(knutson_class(alpha, n, m)), _broken_image(alpha, n, m)):
        view = image.terms
        box = _CountedSlices(view._numerators)
        f = SparsePoly._trusted(n, _BoxTerms(n, box, view._exponents, view._denominator))
        verdict = is_quasisymmetric(f, n)
        checked = box.slices
        assert checked > 0
        assert is_quasisymmetric(f, n) is verdict
        with contextlib.suppress(NotQuasisymmetricError):
            polynomial_to_m(f, n)
        assert box.slices == checked


def test_copies_of_an_image_carry_no_box_and_no_verdict():
    f = chern_substitute(knutson_class((1, 2), 3, 2))
    assert is_quasisymmetric(f, 3)
    coords = list(polynomial_to_m(f, 3).coords.items())
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f
        assert type(copied.terms) is not _BoxTerms
        assert not hasattr(copied.terms, "_quasisymmetric")
        # the grouping reader reads the copy
        assert _checked_box(copied, 3) is None
        assert is_quasisymmetric(copied, 3)
        assert list(polynomial_to_m(copied, 3).coords.items()) == coords


def _placements_by_digits(numerators, values, denominator, n):
    """The coordinates at the placements (0, ..., 0, gamma), each placement's
    index worked out from its base-|V| digits, by length, then in
    lexicographic order; zero entries are left out."""
    b = len(values)
    coords = {}
    for k in range(n + 1):
        for gamma in product(values[1:], repeat=k):
            index = 0
            for x in (0,) * (n - k) + gamma:
                index = index * b + values.index(x)
            if numerators[index]:
                coords[gamma] = Fraction(numerators[index], denominator)
    return coords


@pytest.mark.parametrize(
    "values",
    [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 2, 3), (0, 3)],
)
@pytest.mark.parametrize("n", range(5))
def test_box_reader_reads_the_right_justified_placements(values, n):
    # all-distinct nonzero numerators, so reading any other entry than the
    # placement (0, ..., 0, gamma) gives another coefficient; a box that
    # is not quasisymmetric, so no two placements of gamma agree
    size = len(values) ** n
    rng = random.Random(size * 10 + n)
    numerators = rng.sample(range(-3 * size, 3 * size + 1), size + 1)
    numerators = [c for c in numerators if c][:size]
    for box in (numerators, [0 if i % 3 == 1 else c for i, c in enumerate(numerators)]):
        view = _BoxTerms(n, box, values, 7)
        got = _read_box(view)
        assert list(got.items()) == list(_placements_by_digits(box, values, 7, n).items())
        assert all(type(c) is Fraction for c in got.values())


def test_changing_a_read_leaves_the_next_read_unchanged():
    f = chern_substitute(knutson_class((1, 2), 3, 2))
    # the read passes: it returns without NotQuasisymmetricError
    coords = polynomial_to_m(f, 3).coords
    expected = list(coords.items())
    # the coordinates are read-only, so every write raises
    with pytest.raises(AttributeError):
        coords.clear()
    with pytest.raises(TypeError):
        coords[(9,)] = Fraction(5)
    element = polynomial_to_m(f, 3)
    assert list(element.coords.items()) == expected
    with pytest.raises(TypeError):
        element.coords[(7,)] = Fraction(1)
    with pytest.raises(TypeError):
        del element.coords[expected[0][0]]
    assert list(polynomial_to_m(f, 3).coords.items()) == expected


def test_kept_failure_raises_as_a_fresh_read_does():
    f = chern_substitute(knutson_class((1, 2), 3, 2))
    terms = dict(f.terms)
    terms[(0, 1, 2)] += 1
    g = SparsePoly(3, terms)
    coords, failed = _group_by_positive_part(_fresh(g), 3)
    assert failed == (1, 2)
    assert not is_quasisymmetric(g, 3)
    assert _group_by_positive_part(g, 3) == (coords, failed)
    with pytest.raises(NotQuasisymmetricError) as kept:
        polynomial_to_m(g, 3)
    with pytest.raises(NotQuasisymmetricError) as fresh:
        polynomial_to_m(_fresh(g), 3)
    message = "the 3 placements of (1, 2) do not all carry one coefficient"
    assert str(kept.value) == str(fresh.value) == message
    assert not is_quasisymmetric(g, 3)


def test_kept_read_still_checks_the_variable_count():
    f = chern_substitute(knutson_class((1, 1), 3, 1))
    assert is_quasisymmetric(f, 3)
    polynomial_to_m(f, 3)
    for read in (is_quasisymmetric, polynomial_to_m):
        for n in (2, 4):
            with pytest.raises(LengthMismatchError) as exc:
                read(f, n)
            assert exc.value.code == "length-mismatch"
        with pytest.raises(OutOfRangeError):
            read(f, 3.0)
    assert list(polynomial_to_m(f, 3).coords.items()) == list(
        polynomial_to_m(_fresh(f), 3).coords.items()
    )


def _built_from(f):
    """Every constructor and operation that takes a polynomial, applied to f."""
    return [
        SparsePoly(f.nvars, f.terms),
        SparsePoly._trusted(f.nvars, f.terms),
        f + f,
        f * f,
        -f,
        f - f,
        f.scale(3),
        f.restrict(2),
    ]


def test_polynomials_start_unboxed():
    # only ``chern_substitute`` builds terms that are a box view; a polynomial
    # made from a Chern image by any constructor or operation has plain terms,
    # but ``_trusted`` of the image's own view shares that read-only view
    p = SparsePoly(2, {(1, 0): 1, (0, 1): 1})
    chern = chern_substitute(knutson_class((1, 2), 3, 2))
    built = [
        p,
        SparsePoly._trusted(2, {(1, 1): Fraction(1)}),
        SparsePoly._from_numerators(2, {(1, 1): 2, (2, 0): 0}, 3),
        SparsePoly.zero(2),
        SparsePoly.one(2),
        SparsePoly.monomial((1, 2)),
        *_built_from(chern),
        m_to_polynomial((1,), 2),
        knutson_class((1, 2), 3, 2).poly,
        glide_polynomial((1, 2), 3),
    ]
    assert [f.terms is chern.terms for f in built if type(f.terms) is _BoxTerms] == [True]
    assert type(chern.terms) is _BoxTerms
    assert polynomial_to_m(SparsePoly(3, chern.terms), 3) == polynomial_to_m(chern, 3)


def test_chern_image_terms_cannot_part_from_its_box():
    # the readers answer an image from its box, so its terms are read-only
    chern = chern_substitute(knutson_class((1, 2), 3, 2))
    coords = list(polynomial_to_m(chern, 3).coords.items())
    with pytest.raises(TypeError):
        chern.terms[(0, 1, 0)] = Fraction(99)
    with pytest.raises(TypeError):
        del chern.terms[(0, 1, 0)]
    assert is_quasisymmetric(chern, 3)
    assert list(polynomial_to_m(chern, 3).coords.items()) == coords
    # the change made on a copy is refused, as the image would be
    changed = dict(chern.terms)
    changed[(0, 1, 0)] = Fraction(99)
    assert not is_quasisymmetric(SparsePoly(3, changed), 3)
    with pytest.raises(NotQuasisymmetricError):
        polynomial_to_m(SparsePoly(3, changed), 3)
    # every constructor and operation takes the read-only terms, and builds
    # what it builds from a plain copy, term order included
    for got, expected in zip(_built_from(chern), _built_from(_fresh(chern)), strict=True):
        assert got == expected
        assert list(got.terms.items()) == list(expected.terms.items())
    assert hash(chern) == hash(_fresh(chern))


def test_polynomial_attributes_are_set_once():
    # a Chern image's readers answer from the box its terms hold, so
    # neither the terms nor the variable count can be rebound or deleted,
    # and no other name, ``_box`` included, can be set
    chern = chern_substitute(knutson_class((1, 2), 3, 2))
    coords = list(polynomial_to_m(chern, 3).coords.items())
    terms = list(chern.terms.items())
    changed = dict(chern.terms)
    changed[(0, 1, 0)] = Fraction(99)
    for name, value in [("terms", changed), ("nvars", 4), ("_box", None), ("other", 1)]:
        with pytest.raises(AttributeError):
            setattr(chern, name, value)
        with pytest.raises(AttributeError):
            delattr(chern, name)
    assert is_quasisymmetric(chern, 3)
    assert list(polynomial_to_m(chern, 3).coords.items()) == coords
    assert list(chern.terms.items()) == terms
    plain = SparsePoly(2, {(1, 0): 1})
    with pytest.raises(AttributeError):
        plain.terms = {(0, 1): Fraction(1)}
    with pytest.raises(AttributeError):
        plain._box = ([1], (0, 1), 1)
    assert plain == SparsePoly(2, {(1, 0): 1})
