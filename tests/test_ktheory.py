import json
import random
from array import array
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from glidekit.compositions import closure, paddings
from glidekit.errors import LengthMismatchError, MalformedInputError, OutOfRangeError
from glidekit.glides import glide_polynomial
from glidekit.ktheory import (
    KRingElement,
    _chern_rows,
    chern_series_coeffs,
    chern_substitute,
    is_quasisymmetric,
    knutson_class,
    line_bundle_to_y,
    projective_structure_class,
    y_to_line_bundle,
    z_locus,
)
from glidekit.poly import SparsePoly, _BoxTerms, _integer_numerators
from glidekit.poset import build_poset
from glidekit.qsym import (
    QSymElement,
    _group_by_positive_part,
    glide_expand,
    m_to_polynomial,
    polynomial_to_m,
)

from conftest import all_compositions, assert_box_is_image, pairwise_closure


def test_projective_structure_class():
    assert projective_structure_class(3, 3).poly == SparsePoly.one(1)
    assert projective_structure_class(0, 1).poly == SparsePoly.monomial((1,))
    assert projective_structure_class(0, 2).poly == SparsePoly.monomial((2,))
    with pytest.raises(OutOfRangeError):
        projective_structure_class(4, 3)
    with pytest.raises(OutOfRangeError):
        projective_structure_class(-1, 3)


def test_structure_class_by_exact_sequence_recurrence():
    # [O_{P^r}] = [O_{P^{r+1}}] - [O_{P^{r+1}}(-1)] run downward from r = m,
    # in the twisting-sheaf basis, must reproduce the closed monomial form
    m = 4
    classes = {m: [Fraction(i == 0) for i in range(m + 1)]}
    for r in range(m - 1, -1, -1):
        prev = classes[r + 1]
        twisted = [Fraction(0)] * (m + 1)
        for i in range(m):
            twisted[i + 1] = prev[i]  # tensoring by O(-1) shifts the basis
        classes[r] = [a - b for a, b in zip(prev, twisted)]
    for r in range(m + 1):
        assert line_bundle_to_y(classes[r], m) == projective_structure_class(r, m)


def test_line_bundle_basis_examples():
    assert line_bundle_to_y((1, 0, 0), 2).poly == SparsePoly.one(1)
    assert line_bundle_to_y((0, 1, 0), 2).poly == SparsePoly(1, {(0,): 1, (1,): -1})
    assert y_to_line_bundle(projective_structure_class(0, 2)) == (1, -2, 1)


def test_line_bundle_roundtrip_random():
    rng = random.Random(99)
    for m in range(7):
        for _ in range(5):
            coeffs = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m + 1)
            )
            assert y_to_line_bundle(line_bundle_to_y(coeffs, m)) == coeffs
    with pytest.raises(OutOfRangeError):
        line_bundle_to_y((1, 0), 2)


def test_line_bundle_expansion_needs_one_variable():
    with pytest.raises(LengthMismatchError):
        y_to_line_bundle(KRingElement(SparsePoly.one(2), 2))


def test_z_locus_examples():
    assert z_locus((1, 3), 2, 3) == {(2, 0)}
    assert z_locus((1,), 2, 1) == {(0, 1), (1, 0)}
    assert z_locus((), 3, 2) == {(2, 2, 2)}
    z = z_locus((2, 1), 4, 3)
    assert len(z) == 6
    with pytest.raises(OutOfRangeError):
        z_locus((1, 3), 2, 2)
    with pytest.raises(OutOfRangeError):
        z_locus((1, 3), 1, 3)
    with pytest.raises(OutOfRangeError):
        z_locus((), 2, -1)


def test_intersection_closure_mirrors_string_poset():
    # the components are m - (zero-paddings of alpha), so x -> m - x carries
    # their min-closure onto the max-closure of the paddings (criterion-06 space);
    # the tuple reference checks the min side on its own, since a packing
    # fault common to both closures would cancel in the mirror
    for alpha in all_compositions(5):
        lo_m = max(alpha) if alpha else 1
        for n in range(len(alpha), 7):
            strings = build_poset(alpha, n).elements
            for m in range(lo_m, 6):
                components = z_locus(alpha, n, m)
                closed = set(closure(components, min))
                assert closed == pairwise_closure(components, min), (alpha, n, m)
                assert sorted(closed) == sorted(tuple(m - x for x in e) for e in strings)


def test_knutson_class_examples():
    assert knutson_class((1,), 2, 1).poly == SparsePoly(
        2, {(1, 0): 1, (0, 1): 1, (1, 1): -1}
    )
    assert knutson_class((2,), 1, 3).poly == SparsePoly.monomial((2,))
    assert knutson_class((1, 3), 4, 3).poly == glide_polynomial((1, 3), 4)
    assert knutson_class((), 2, 2).poly == SparsePoly.one(2)


def _pairwise_knutson_class(alpha, n, m):
    """The all-pairs top-down recurrence: mu(w) is 1 minus the sum of mu over
    every element strictly above w, found by comparing w with each element."""
    elements = pairwise_closure(z_locus(alpha, n, m), min)
    mu = {}
    for w in sorted(elements, key=lambda e: (-sum(e), e)):
        above = sum(
            mu[v] for v in elements if v != w and all(a >= b for a, b in zip(v, w))
        )
        mu[w] = 1 - above
    terms = {}
    for w, c in mu.items():
        if c:
            terms[tuple(m - r for r in w)] = c
    return KRingElement(SparsePoly(n, terms), m)


def _assert_same_class(alpha, n, m):
    got = knutson_class(alpha, n, m)
    expected = _pairwise_knutson_class(alpha, n, m)
    assert got == expected
    # same terms in the same order, so anything that iterates them agrees
    assert list(got.poly.terms.items()) == list(expected.poly.terms.items())


@pytest.mark.parametrize("alpha", [(1, 2, 1), (1, 3, 1)])
def test_upset_bitsets_match_pairwise_recurrence_on_heavy_tail(alpha):
    _assert_same_class(alpha, 6, 5)


@st.composite
def _criterion_06_instances(draw):
    """(alpha, n, m) with |alpha| <= 5, len(alpha) <= n <= 6 and
    max(alpha) <= m <= 5, m = 0 allowed for the empty composition."""
    alpha = draw(st.sampled_from(all_compositions(5)))
    n = draw(st.integers(len(alpha), 6))
    m = draw(st.integers(max(alpha, default=0), 5))
    return alpha, n, m


@settings(max_examples=120, deadline=None)
@given(_criterion_06_instances())
@example(((), 0, 0))
@example(((), 4, 0))
@example(((), 3, 1))
@example(((2, 1, 2), 5, 2))
@example(((1, 1, 1, 1, 1), 6, 1))
@example(((5,), 6, 5))
def test_upset_bitsets_match_pairwise_recurrence(instance):
    _assert_same_class(*instance)


def test_main_identity_small_sweep():
    for alpha in all_compositions(4):
        lo_m = max(alpha) if alpha else 1
        for n in range(len(alpha), len(alpha) + 2):
            g = glide_polynomial(alpha, n)
            for m in range(lo_m, lo_m + 2):
                reduced = KRingElement(g, m)
                assert knutson_class(alpha, n, m).poly == reduced.poly, (alpha, n, m)


def test_truncation_compatibility():
    for alpha, n, m, N, M in [
        ((1, 3), 4, 3, 6, 5),
        ((2, 1), 3, 2, 5, 4),
        ((1,), 1, 1, 4, 3),
    ]:
        big = knutson_class(alpha, N, M)
        small = knutson_class(alpha, n, m)
        assert big.restrict(n, m).poly == small.poly


def test_kring_element_reduces_eagerly():
    e = KRingElement(SparsePoly(1, {(3,): 1, (1,): 2}), 2)
    assert e.poly == SparsePoly(1, {(1,): 2})
    y = KRingElement(SparsePoly(1, {(1,): 1}), 2)
    assert (y * y * y).poly.is_zero()
    with pytest.raises(LengthMismatchError):
        y * KRingElement(SparsePoly(1, {(1,): 1}), 3)


def test_kring_element_terms_are_read_only():
    # an exponent above the cap cannot be put into a reduced element, where
    # ``chern_substitute`` would index past its last series row
    k = knutson_class((1, 2), 3, 2)
    terms = list(k.poly.terms.items())
    with pytest.raises(TypeError):
        k.poly.terms[(9, 9, 9)] = Fraction(1)
    with pytest.raises(TypeError):
        del k.poly.terms[terms[0][0]]
    with pytest.raises(AttributeError):
        k.poly.terms = {(9, 9, 9): Fraction(1)}
    assert list(k.poly.terms.items()) == terms
    assert chern_substitute(k) == chern_substitute(knutson_class((1, 2), 3, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: KRingElement({(1,): 1}, 2),
        lambda: chern_substitute({(1,): 1}),
        lambda: is_quasisymmetric({(1,): 1}, 1),
        lambda: polynomial_to_m({(1,): 1}, 1),
        lambda: glide_expand({(1,): 1}, 2),
        lambda: chern_substitute(SparsePoly(1, {(1,): 1})),
        lambda: glide_expand(SparsePoly(1, {(1,): 1}), 2),
        lambda: polynomial_to_m(QSymElement({(1,): 1}), 1),
    ],
    ids=[
        "dict as KRingElement poly",
        "dict to chern_substitute",
        "dict to is_quasisymmetric",
        "dict to polynomial_to_m",
        "dict to glide_expand",
        "SparsePoly to chern_substitute",
        "SparsePoly to glide_expand",
        "QSymElement to polynomial_to_m",
    ],
)
def test_wrong_container_is_malformed_input(call):
    with pytest.raises(MalformedInputError) as exc:
        call()
    assert exc.value.code == "malformed-input"


def test_kring_element_rejects_a_negative_truncation_degree():
    # a negative cap would keep no monomial, and factorial(-1) has no value
    for poly in (SparsePoly.one(1), SparsePoly.zero(2)):
        with pytest.raises(OutOfRangeError):
            KRingElement(poly, -1)


def test_chern_series_coefficients_exact():
    for m in range(1, 7):
        coeffs = chern_series_coeffs(m)
        assert coeffs[0] == 0
        for j in range(1, m + 1):
            assert coeffs[j] == Fraction((-1) ** (j + 1), factorial(j))


def test_chern_series_coeffs_takes_only_a_size():
    for m in (-1, True, 2.0):
        with pytest.raises(OutOfRangeError):
            chern_series_coeffs(m)
    assert chern_series_coeffs(0) == (Fraction(0),)


def test_integer_chern_rows_are_the_scaled_fraction_powers():
    # the defining series raised to each power by Fraction convolution,
    # scaled by m!, then every entry, zeros included, as an int
    for m in range(13):
        series = chern_series_coeffs(m)
        power = [Fraction(1)] + [Fraction(0)] * m
        rows = _chern_rows(m)
        assert len(rows) == m + 1
        for row in rows:
            scaled = [c * factorial(m) for c in power]
            assert all(c.denominator == 1 for c in scaled)
            assert row == tuple(map(int, scaled))
            assert all(type(c) is int for c in row)
            power = [sum(power[i] * series[d - i] for i in range(d + 1)) for d in range(m + 1)]


def test_chern_row_supports_give_the_box_values():
    # the box's V is 0 and the supports of the rows the K-class uses; row
    # g >= 1 is nonzero exactly on [g, m], so V is {0} | [p, m], p the least
    # positive exponent of the class
    for m in range(25):
        rows = _chern_rows(m)
        assert [d for d, a in enumerate(rows[0]) if a] == [0]
        for g in range(1, m + 1):
            assert [d for d, a in enumerate(rows[g]) if a] == list(range(g, m + 1)), (m, g)
            image = chern_substitute(KRingElement(SparsePoly(1, {(0,): 1, (g,): 1}), m))
            assert image.terms._exponents == (0, *range(g, m + 1)), (m, g)


def test_chern_substitute_examples():
    f = KRingElement(SparsePoly(1, {(1,): 1}), 3)
    assert chern_substitute(f) == SparsePoly(
        1, {(1,): Fraction(1), (2,): Fraction(-1, 2), (3,): Fraction(1, 6)}
    )
    one = KRingElement(SparsePoly.one(2), 3)
    assert chern_substitute(one) == SparsePoly.one(2)
    g = KRingElement(SparsePoly(2, {(1, 0): 1, (0, 1): 1, (1, 1): -1}), 1)
    assert chern_substitute(g) == SparsePoly(
        2, {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(-1)}
    )


@pytest.mark.parametrize("m", [0, 1, 3])
def test_chern_substitute_without_variables(m):
    # with n = 0 no pass runs: the scattered one-entry box is the image
    constant = chern_substitute(KRingElement(SparsePoly(0, {(): Fraction(-2, 3)}), m))
    assert constant.terms == {(): Fraction(-2, 3)}
    box = constant.terms
    assert (box._numerators, box._exponents, box._over) == ([-2], (0,), 3)
    zero = chern_substitute(KRingElement(SparsePoly.zero(0), m))
    assert zero.terms == {}
    box = zero.terms
    assert (box._numerators, box._exponents, box._over) == ([0], (0,), 1)


def test_chern_substitute_matches_naive_expansion():
    # oracle: plain polynomial composition with Fraction arithmetic
    rng = random.Random(3)
    for m in (2, 3):
        series = SparsePoly(2, {})
        for trial in range(3):
            terms = {}
            for _ in range(4):
                e = (rng.randint(0, m), rng.randint(0, m))
                terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            element = KRingElement(SparsePoly(2, terms), m)
            coeffs = chern_series_coeffs(m)
            sx = [
                SparsePoly(2, {(j, 0): coeffs[j] for j in range(1, m + 1)}),
                SparsePoly(2, {(0, j): coeffs[j] for j in range(1, m + 1)}),
            ]
            expected = SparsePoly.zero(2)
            for (e1, e2), c in element.poly.terms.items():
                term = SparsePoly.one(2).scale(c)
                for _ in range(e1):
                    term = term * sx[0]
                for _ in range(e2):
                    term = term * sx[1]
                expected = expected + term
            expected = SparsePoly(
                2,
                {e: c for e, c in expected.terms.items() if max(e) <= m},
            )
            assert chern_substitute(element) == expected


def _compose_chern(terms, n, m):
    """Plain composition: multiply out each term's factors (1 - exp(-x_i))^e_i
    as dicts of exponent vectors, dropping exponents above m after each product."""
    series = {j: Fraction((-1) ** (j + 1), factorial(j)) for j in range(1, m + 1)}
    out = {}
    for exps, coeff in terms.items():
        product = {(0,) * n: Fraction(coeff)}
        for i, e in enumerate(exps):
            for _ in range(e):
                grown = {}
                for key, c in product.items():
                    for j, s in series.items():
                        if key[i] + j <= m:
                            bumped = key[:i] + (key[i] + j,) + key[i + 1 :]
                            grown[bumped] = grown.get(bumped, 0) + c * s
                product = grown
        for key, c in product.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


@st.composite
def _kring_elements(draw):
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    coeff = st.builds(
        Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10])
    )
    exps = st.tuples(*[st.integers(0, m)] * n)
    return KRingElement(SparsePoly(n, draw(st.dictionaries(exps, coeff, max_size=6))), m)


@settings(max_examples=80, deadline=None)
@given(_kring_elements())
@example(KRingElement(SparsePoly.zero(3), 2))
@example(KRingElement(SparsePoly(0, {(): Fraction(-5, 3)}), 3))
@example(KRingElement(SparsePoly(4, {(0, 0, 0, 0): Fraction(7, 4)}), 4))
@example(KRingElement(SparsePoly(2, {(0, 0): Fraction(1, 2), (4, 4): Fraction(-2, 9)}), 4))
def test_chern_substitute_matches_plain_composition(element):
    expected = _compose_chern(element.poly.terms, element.nvars, element.m)
    assert chern_substitute(element) == SparsePoly(element.nvars, expected)


def _expand_chern(element):
    """Oracle sharing neither the box nor ``_chern_rows``: each term c*y^e
    becomes c * prod_i phi(x_i)^(e_i) by ``SparsePoly`` products, phi read
    off ``chern_series_coeffs``, and ``KRingElement`` reduces mod x^(m+1)."""
    n, m = element.nvars, element.m
    coeffs = chern_series_coeffs(m)
    phis = []
    for i in range(n):
        series = {(0,) * i + (j,) + (0,) * (n - 1 - i): c for j, c in enumerate(coeffs)}
        phis.append(KRingElement(SparsePoly(n, series), m))
    total = KRingElement(SparsePoly.zero(n), m)
    for exps, c in element.poly.terms.items():
        term = KRingElement(SparsePoly.one(n).scale(c), m)
        for phi, e in zip(phis, exps):
            for _ in range(e):
                term = term * phi
        total = total + term
    return total.poly


@st.composite
def _sparse_kring_elements(draw, max_n=4, max_m=4, max_numerator=9):
    """Random elements, most of them not quasisymmetric, whose positive
    exponents start at ``low``, so that V may be smaller than [0, m]."""
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, max_m))
    low = draw(st.integers(1, max(m, 1)))
    part = st.sampled_from((0, *range(low, m + 1)))
    numerator = st.integers(-max_numerator, max_numerator)
    coeff = st.builds(Fraction, numerator, st.sampled_from([1, 2, 3, 7]))
    terms = draw(st.dictionaries(st.tuples(*[part] * n), coeff, max_size=5))
    return KRingElement(SparsePoly(n, terms), m)


@settings(max_examples=120, deadline=None)
@given(_sparse_kring_elements())
@example(KRingElement(SparsePoly(3, {(0, 3, 4): 2, (4, 0, 0): Fraction(-1, 3)}), 4))
@example(KRingElement(SparsePoly(2, {(2, 0): 1, (0, 2): 1, (2, 2): 5}), 4))
@example(KRingElement(SparsePoly(1, {(0,): 3}), 2))
@example(KRingElement(SparsePoly(3, {(0, 0, 1): 1}), 2))
@example(KRingElement(SparsePoly(4, {(0, 0, 2, 0): 1, (0, 2, 0, 0): 1}), 3))
def test_chern_substitute_matches_series_products(element):
    n = element.nvars
    image = chern_substitute(element)
    assert image == _expand_chern(element)
    # the terms come in lexicographic order
    assert list(image.terms) == sorted(image.terms)
    assert_box_is_image(image, n)
    # the box reader and the grouping reader agree, whichever pair of
    # axes breaks quasisymmetry
    coords, failed = _group_by_positive_part(SparsePoly(n, image.terms), n)
    passes = image.terms._slice_check()
    assert passes == (failed is None)
    assert not passes or list(image.terms._read_placements().items()) == list(coords.items())


def _chern_box(element, word_box):
    """(box, V, denominator) of the element's Chern image, with the word
    kernel's size cut-off set to ``word_box``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_BoxTerms, "_WORD_BOX", word_box)
        view = chern_substitute(element).terms
    return view._numerators, view._exponents, view._over


def _bound(element):
    numerators, _ = _integer_numerators(element.poly.terms)
    return _BoxTerms._bound(numerators, _chern_rows(element.m))


@settings(max_examples=150, deadline=None)
@given(_sparse_kring_elements(max_n=5, max_m=6, max_numerator=10**6))
@example(KRingElement(SparsePoly.zero(4), 5))
@example(KRingElement(SparsePoly(0, {(): Fraction(-5, 3)}), 6))
@example(KRingElement(SparsePoly(5, {(1, 1, 1, 1, 1): Fraction(-3, 7), (0,) * 5: 1}), 6))
@example(KRingElement(SparsePoly(5, {(0, 2, 0, 0, 6): Fraction(10**6, 7)}), 6))
def test_word_and_list_passes_give_one_box(element):
    # with no size cut-off every element whose bound is below 2^63 takes the
    # word passes, and with an unreachable one every element takes the
    # list passes: the two boxes must agree entry by entry, with one V and
    # one denominator
    words, values, denominator = _chern_box(element, 0)
    ints, int_values, int_denominator = _chern_box(element, float("inf"))
    assert type(ints) is list
    assert type(words) is (array if _bound(element) < 2**63 else list)
    assert len(words) == len(ints) and list(words) == ints
    assert (values, denominator) == (int_values, int_denominator)
    assert max(map(abs, words), default=0) <= _bound(element)


# the largest c whose c * y_1 at n = 6, m = 5 has a bound below 2^63
_UNDER = (2**63 - 1) // _bound(KRingElement(SparsePoly(6, {(1, 0, 0, 0, 0, 0): 1}), 5))


@pytest.mark.parametrize(
    "terms, n, m, form",
    [
        # a single term's bound is its largest entry: c * y_1 reaches
        # 2^63 - 1 less at most 120^6, of either sign, and one more unit of
        # c crosses 2^63
        ({(1, 0, 0, 0, 0, 0): _UNDER}, 6, 5, array),
        ({(1, 0, 0, 0, 0, 0): -_UNDER}, 6, 5, array),
        ({(1, 0, 0, 0, 0, 0): _UNDER + 1}, 6, 5, list),
        ({(1, 0, 0, 0, 0, 0): -_UNDER - 1}, 6, 5, list),
        # y_1 * y_2 at m = 20: each axis scales by 20!, about 2^61, so the
        # entries reach about 2^184, in a box of 21^3 entries
        ({(1, 1, 0): 1}, 3, 20, list),
    ],
)
def test_chern_words_hold_entries_up_to_two_to_the_63(terms, n, m, form):
    element = KRingElement(SparsePoly(n, terms), m)
    image = chern_substitute(element)
    box = image.terms._numerators
    assert len(box) >= _BoxTerms._WORD_BOX
    assert type(box) is form
    assert (form is array) == (_bound(element) < 2**63)
    assert image == _expand_chern(element)
    assert_box_is_image(image, n)
    if form is array:
        assert max(map(abs, box)) == _bound(element)


KCLASS_ROWS = Path(__file__).resolve().parent.parent / "perfbench/data/kclass_sweep.json"


def test_every_large_benchmark_box_takes_the_words():
    # the bound holds every entry of each benchmark row's box, and is below
    # 2^63 on every row, so each box of at least ``_WORD_BOX`` entries runs
    # on words
    rows = json.loads(KCLASS_ROWS.read_text(encoding="utf-8"))["instances"]
    assert len(rows) == 515
    for row in rows:
        alpha, n, m = tuple(row["alpha"]), row["n"], row["m"]
        element = knutson_class(alpha, n, m)
        box = chern_substitute(element).terms._numerators
        bound = _bound(element)
        assert max(map(abs, box)) <= bound < 2**63, (alpha, n, m)
        assert (type(box) is array) == (len(box) >= _BoxTerms._WORD_BOX), (alpha, n, m)


@pytest.mark.parametrize(
    "alpha, kclass_terms, chern_terms, m_coords",
    [((1, 2, 1), 111, 44450, 19250), ((1,), 63, 46655, 19530)],
)
def test_chern_heavy_tail_sizes(alpha, kclass_terms, chern_terms, m_coords):
    # the two largest Chern images of the criterion-07 sweep, at n = 6, m = 5
    element = knutson_class(alpha, 6, 5)
    chern = chern_substitute(element)
    assert len(element.poly.terms) == kclass_terms
    assert len(chern.terms) == chern_terms
    assert is_quasisymmetric(chern, 6)
    assert len(polynomial_to_m(chern, 6).coords) == m_coords


@pytest.mark.parametrize(
    "alpha, n, m",
    [((1, 2, 1), 6, 5), ((), 0, 1), ((), 2, 1), ((2,), 1, 3), ((1, 1), 3, 1), ((2, 1), 4, 2)],
)
def test_coordinate_path_builds_no_term_dict(alpha, n, m):
    # counting the terms, the slice check and the box reader read the box
    # alone; the first full read of the terms builds them from it
    image = chern_substitute(knutson_class(alpha, n, m))
    terms = image.terms
    count = len(terms)
    assert is_quasisymmetric(image, n)
    coords = polynomial_to_m(image, n).coords
    assert terms._terms is None
    assert_box_is_image(image, n)
    assert terms._terms is not None
    assert len(terms) == count == len(dict(terms.items()))
    # equal numerators share one Fraction
    assert len({id(c) for c in terms.values()}) == len(set(terms.values()))
    plain = SparsePoly._trusted(n, dict(terms.items()))
    assert image == plain and plain == image and hash(image) == hash(plain)
    # each coordinate is the coefficient of every placement of its composition
    for gamma, c in coords.items():
        assert all(terms[p] == c for p in paddings(gamma, n)), gamma
    assert sum(comb(n, len(gamma)) for gamma in coords) == count


def test_quasisymmetry_detection():
    assert is_quasisymmetric(m_to_polynomial((2, 1), 4), 4)
    assert not is_quasisymmetric(SparsePoly(2, {(1, 0): 1}), 2)
    assert is_quasisymmetric(SparsePoly.one(3), 3)
    assert is_quasisymmetric(chern_substitute(knutson_class((1, 3), 4, 3)), 4)


def _rank(rows):
    """Exact rank of a list of Fraction dicts sharing a key space."""
    keys = sorted({k for row in rows for k in row})
    matrix = [[row.get(k, Fraction(0)) for k in keys] for row in rows]
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def test_degree_space_dimension_matches_cell_count():
    # the rank of the degree-d pieces of the Chern images equals the number
    # of monomial-basis compositions of that degree fitting in the truncation
    n, m = 3, 2
    dmax = 4
    cells = [
        gamma
        for gamma in all_compositions(dmax)
        if len(gamma) <= n and all(p <= m for p in gamma)
    ]
    images = {gamma: chern_substitute(knutson_class(gamma, n, m)) for gamma in cells}
    for d in range(1, dmax + 1):
        rows = []
        for gamma, img in images.items():
            if sum(gamma) <= d:
                row = {e: c for e, c in img.terms.items() if sum(e) == d}
                if row:
                    rows.append(row)
        expected = sum(1 for gamma in cells if sum(gamma) == d)
        assert _rank(rows) == expected, d
