import copy
import pickle
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from glidekit.errors import InvalidCompositionError, LengthMismatchError
from glidekit.glides import glide_polynomial
from glidekit.ktheory import chern_substitute, knutson_class
from glidekit.poly import SparsePoly, _BoxTerms, _fractions, _integer_numerators
from glidekit.qsym import QSymElement, m_to_polynomial, polynomial_to_m
from glidekit.schur import schur_polynomial


def reference_mul(f, g):
    """The Fraction loop that SparsePoly.__mul__ replaces, term for term."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = out.get(e, Fraction(0)) + c1 * c2
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def tuple_key_mul(f, g):
    """The integer loop keyed by exponent tuples that SparsePoly.__mul__
    ran before its keys were packed into ints."""
    left, d1 = _integer_numerators(f.terms)
    right, d2 = _integer_numerators(g.terms)
    out = {}
    for e1, a in left:
        for e2, b in right:
            e = tuple(x + y for x, y in zip(e1, e2))
            c = out.get(e, 0) + a * b
            if c:
                out[e] = c
            else:
                del out[e]
    return {e: Fraction(c, d1 * d2) for e, c in out.items()}


def reference_add(f_terms, g_terms):
    """The Fraction loop that SparsePoly.__add__ replaces, term for term."""
    out = dict(f_terms)
    for exps, coeff in g_terms.items():
        c = out.get(exps, Fraction(0)) + coeff
        if c:
            out[exps] = c
        else:
            out.pop(exps, None)
    return out


def assert_terms(p, expected):
    """Equal terms in the same insertion order, each an exact nonzero Fraction."""
    assert list(p.terms.items()) == list(expected.items())
    assert all(type(c) is Fraction and c for c in p.terms.values())


_COEFFS = st.sampled_from(
    [Fraction(k, d) for k in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3, 4, 6)] + [0]
)


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(0, 3))
    keys = st.tuples(*[st.integers(0, 2)] * n)
    polys = [
        SparsePoly(n, draw(st.dictionaries(keys, _COEFFS, max_size=6))) for _ in range(2)
    ]
    return polys[0], polys[1], draw(_COEFFS), draw(st.integers(0, n))


@settings(max_examples=300, deadline=None)
@given(pair=poly_pairs())
@example(pair=(SparsePoly(2), SparsePoly(2, {(1, 0): Fraction(1, 2)}), Fraction(0), 1))
@example(pair=(SparsePoly(0, {(): Fraction(2, 3)}), SparsePoly(0, {(): Fraction(-3, 4)}), Fraction(5, 6), 0))
def test_arithmetic_matches_the_fraction_loops(pair):
    f, g, factor, k = pair
    assert_terms(f * g, reference_mul(f, g))
    assert_terms(f + g, reference_add(f.terms, g.terms))
    assert_terms(f - g, reference_add(f.terms, {e: -c for e, c in g.terms.items()}))
    assert_terms(-f, {e: -c for e, c in f.terms.items()})
    assert_terms(f.scale(factor), {e: c * factor for e, c in f.terms.items()} if factor else {})
    assert_terms(
        f.restrict(k), {e[:k]: c for e, c in f.terms.items() if not any(e[k:])}
    )


# exponents whose pairwise sums reach 255 (the widest one-byte field), 256
# (two bytes) and past 2^64 (nine bytes and more)
_EXPONENTS = st.one_of(
    st.integers(0, 3), st.sampled_from([127, 128, 254, 255, 256, 2**64 - 1, 2**64, 2**70])
)


@st.composite
def wide_poly_pairs(draw):
    n = draw(st.integers(0, 6))
    keys = st.tuples(*[_EXPONENTS] * n)
    return tuple(
        SparsePoly(n, draw(st.dictionaries(keys, _COEFFS, max_size=6))) for _ in range(2)
    )


def _powers(n, i, exps_coeffs):
    """The polynomial sum of c * x_i^e over the given (e, c) in n variables."""
    unit = [0] * n
    return SparsePoly(n, {(*unit[:i], e, *unit[i + 1 :]): c for e, c in exps_coeffs})


@settings(max_examples=300, deadline=None)
@given(pair=wide_poly_pairs())
@example(pair=(SparsePoly(3), SparsePoly(3, {(255, 0, 1): Fraction(1, 2)})))
@example(pair=(SparsePoly(0, {(): Fraction(-1, 2)}), SparsePoly(0, {(): Fraction(2, 3)})))
@example(pair=(SparsePoly(2, {(128, 127): 1}), SparsePoly(2, {(127, 128): Fraction(2, 3)})))
@example(pair=(SparsePoly(2, {(128, 0): 1}), SparsePoly(2, {(128, 1): Fraction(-3, 4)})))
@example(pair=(SparsePoly(1, {(2**64,): 1}), SparsePoly(1, {(2**64 + 5,): 2})))
@example(
    # x^600 is made, cancelled and made again, in two-byte fields
    pair=(
        _powers(2, 1, [(0, 1), (300, 1), (600, 1)]),
        _powers(2, 1, [(600, 1), (300, -1), (0, 1)]),
    )
)
@example(
    # the same past 2^64, with rational coefficients
    pair=(
        _powers(6, 5, [(0, Fraction(1, 2)), (2**64, 1), (2**65, Fraction(1, 3))]),
        _powers(6, 5, [(2**65, 3), (2**64, Fraction(-3, 2)), (0, 2)]),
    )
)
def test_product_matches_the_tuple_key_loop(pair):
    f, g = pair
    product = f * g
    assert_terms(product, tuple_key_mul(f, g))
    assert all(type(x) is int for e in product.terms for x in e)
    assert all(len(e) == f.nvars for e in product.terms)


def test_mixed_denominators():
    f = SparsePoly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    g = SparsePoly(2, {(1, 0): Fraction(1, 4), (0, 1): Fraction(-1, 6), (0, 0): 5})
    product = f * g
    assert_terms(product, reference_mul(f, g))
    # the two x1*x2 contributions, -1/12 and 1/12, cancel
    assert list(product.terms.items()) == [
        ((2, 0), Fraction(1, 8)),
        ((1, 0), Fraction(5, 2)),
        ((0, 2), Fraction(-1, 18)),
        ((0, 1), Fraction(5, 3)),
    ]


def test_sums_that_cancel_part_way_keep_the_insertion_order():
    # (1 + x + x^2)(1 - x + x^2) = 1 + x^2 + x^4: the x^2 key is made, then
    # cancelled, then made again, so it comes after x^4
    f = SparsePoly(1, {(0,): 1, (1,): 1, (2,): 1})
    g = SparsePoly(1, {(2,): 1, (1,): -1, (0,): 1})
    product = f * g
    assert list(product.terms) == [(0,), (4,), (2,)]
    assert_terms(product, reference_mul(f, g))

    h = SparsePoly(1, {(2,): -1, (3,): 2})
    assert list((product + h).terms) == [(0,), (4,), (3,)]


def test_zero_polynomial_and_no_variables():
    zero = SparsePoly.zero(3)
    f = SparsePoly(3, {(1, 0, 2): Fraction(2, 3)})
    assert (zero * f).is_zero() and (f * zero).is_zero()
    assert_terms(zero + f, f.terms)
    assert (f - f).is_zero()
    assert f.scale(0).is_zero()

    c = SparsePoly(0, {(): Fraction(2, 3)})
    assert_terms(c * c, {(): Fraction(4, 9)})
    assert_terms(c.restrict(0), {(): Fraction(2, 3)})
    assert (SparsePoly.zero(0) * c).is_zero()


def test_equality_and_hash_ignore_the_term_order():
    # a non-polynomial is never equal: __eq__ answers NotImplemented
    assert (SparsePoly(1) == 5) is False
    f = SparsePoly(2, {(1, 0): 1, (0, 1): Fraction(2, 3)})
    g = SparsePoly(2, {(0, 1): Fraction(2, 3), (1, 0): 1})
    assert list(f.terms) != list(g.terms)
    assert f == g and hash(f) == hash(g)


def _returned_values():
    f = SparsePoly(2, {(1, 0): 1, (0, 1): Fraction(2, 3)})
    g = SparsePoly(2, {(1, 1): Fraction(1, 2), (0, 1): 2})
    chern = chern_substitute(knutson_class((1, 2), 3, 2))
    return [
        ("SparsePoly", f),
        ("+", f + g),
        ("-", f - g),
        ("*", f * g),
        ("scale", f.scale(Fraction(3, 2))),
        ("restrict", f.restrict(1)),
        ("knutson_class", knutson_class((1, 2), 3, 2).poly),
        *[(method, glide_polynomial((1, 2), 3, method)) for method in ("poset", "barred", "closed")],
        ("m_to_polynomial", m_to_polynomial((1, 2), 3)),
        ("schur_polynomial", schur_polynomial((2, 1), 2)),
        ("chern image", chern),
        ("polynomial_to_m", polynomial_to_m(chern, 3)),
    ]


_RETURNED = _returned_values()


@pytest.mark.parametrize("name, value", _RETURNED, ids=[name for name, _ in _RETURNED])
def test_returned_values_are_read_only(name, value):
    terms = value.coords if name == "polynomial_to_m" else value.terms
    before = list(terms.items())
    # a write would change the terms, and with them the hash, so a value
    # kept in a set would be lost from it
    kept = {value}
    assert before, name
    key, _ = before[0]
    with pytest.raises(TypeError):
        terms[key] = Fraction(5)
    with pytest.raises(TypeError):
        terms[(9,) * len(key)] = Fraction(5)
    with pytest.raises(TypeError):
        del terms[key]
    with pytest.raises(AttributeError):
        terms.clear()
    assert list(terms.items()) == before
    assert value in kept


_COPIED = [
    *_RETURNED,
    ("KRingElement", knutson_class((1, 2), 3, 2)),
    ("bounded QSymElement", QSymElement({(1, 2): Fraction(1, 3), (2,): 2}, 4)),
]


@pytest.mark.parametrize("name, value", _COPIED, ids=[name for name, _ in _COPIED])
@pytest.mark.parametrize(
    "copier",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_returned_values_pickle_and_copy(name, value, copier):
    # the read-only views cannot be pickled themselves; the values rebuild
    # through their checked constructors
    got = copier(value)
    assert type(got) is type(value), name
    assert got == value and hash(got) == hash(value), name


def test_public_constructor_keeps_its_checks():
    with pytest.raises(LengthMismatchError):
        SparsePoly(2, {(1, 0, 0): 1})
    f = SparsePoly(2, {(1, 0): 0, (0, 1): Fraction(0), (1, 1): 3, (2, 0): Fraction(1, 2)})
    assert_terms(f, {(1, 1): Fraction(3), (2, 0): Fraction(1, 2)})
    with pytest.raises(LengthMismatchError):
        SparsePoly(2, {(1, 0): 1}) * SparsePoly(3, {(1, 0, 0): 1})


def test_monomial_reads_its_exponents_by_the_part_rule():
    # this was a bare TypeError from tuple(5)
    with pytest.raises(InvalidCompositionError):
        SparsePoly.monomial(5)


# ``_fractions`` builds each Fraction from one gcd by writing its two slots,
# so item by item it must hand out what the public constructor returns
_NUMERATORS = st.one_of(st.integers(-60, 60), st.integers(-(2**80), 2**80))


@settings(max_examples=300, deadline=None)
@given(
    numerators=st.lists(_NUMERATORS, max_size=30),
    denominator=st.one_of(st.integers(1, 60), st.integers(1, 2**80)),
)
@example(numerators=[0, 6, -6, 4, 9, -12, 7], denominator=12)
@example(numerators=[-3, 0, 5, 2**70, -(2**70)], denominator=1)
@example(numerators=[3 * 2**65, -9 * 2**64, 2**64 + 1, -(2**64)], denominator=3 * 2**64)
def test_fractions_match_the_public_constructor(numerators, denominator):
    got = list(_fractions(numerators, denominator))
    expected = [Fraction(c, denominator) for c in numerators if c]
    assert len(got) == len(expected)
    for q, r in zip(got, expected):
        assert type(q) is Fraction
        assert (q, q.numerator, q.denominator, hash(q)) == (r, r.numerator, r.denominator, hash(r))
        back = pickle.loads(pickle.dumps(q))
        assert type(back) is Fraction
        assert (back.numerator, back.denominator) == (r.numerator, r.denominator)
        s, t = q * 3 - Fraction(1, 7), r * 3 - Fraction(1, 7)
        assert (s.numerator, s.denominator) == (t.numerator, t.denominator)


def test_equal_numerators_share_one_fraction():
    got = list(_fractions([4, 0, -2, 4, 6, -2, 0, 4], 6))
    assert got[0] is got[2] is got[5]
    assert got[1] is got[4]
    assert len({id(q) for q in got}) == 3


def test_fraction_keeps_the_slots_the_table_writes():
    # the table writes these two slots of a bare Fraction; a Python that
    # changes the layout fails here before any value is built
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    assert not hasattr(object.__new__(Fraction), "__dict__")


# a Chern box's length counts its nonzero entries, on words by one OR of
# the byte planes: a word with only its high byte set, or negative, is
# nonzero in one plane alone
_WORDS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0, 1, -1, 1 << 56, 0x7F << 56, -(1 << 63), (1 << 63) - 1]),
)


@settings(max_examples=200, deadline=None)
@given(words=st.lists(_WORDS, max_size=64))
@example(words=[])
@example(words=[0, 0, 0])
@example(words=[1 << 56, 0, -(1 << 63), 0, -1, 0x7F << 56, 0, 255])
def test_box_length_counts_the_nonzero_entries_of_either_form(words):
    for box in (list(words), array("q", words)):
        view = _BoxTerms(1, box, tuple(range(len(words))), 1)
        assert len(view) == len(words) - words.count(0)
        assert SparsePoly._trusted(1, view).is_zero() == (not any(words))
        assert len(view) == len(view.copy())
