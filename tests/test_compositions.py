import inspect
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import glidekit as gk
from glidekit.compositions import (
    as_composition,
    as_weak_composition,
    canonical_key,
    closure,
    overlapping_paddings,
    paddings,
    positive_part,
    run_decode,
    run_encode,
    semistandardize,
    sorting_data,
    standardize,
)
from glidekit.errors import (
    InvalidCompositionError,
    LengthMismatchError,
    MalformedInputError,
    OutOfRangeError,
    SizeMismatchError,
)
from glidekit.glides import glide_polynomial
from glidekit.poset import leq
from glidekit.qsym import glide_element, qsym_r_product_shuffle
from glidekit.schur import (
    as_partition,
    buk_structure_constant,
    content,
    grassmannian_to_partition,
    lr_coefficient,
    reading_word,
)

from conftest import all_compositions, all_paddings, pairwise_closure, public_callables


def test_positive_part_examples():
    assert positive_part((2, 0, 4, 0, 0, 2)) == (2, 4, 2)
    assert positive_part((0, 0, 0)) == ()
    assert positive_part((1, 3, 0, 0)) == (1, 3)


def _brute_paddings(alpha, n):
    """Length-n tuples with positive part alpha, found by trying every tuple
    of values up to max(alpha), ordered by their occupied positions."""
    found = [
        t for t in product(range(max(alpha, default=0) + 1), repeat=n) if positive_part(t) == alpha
    ]
    return sorted(found, key=lambda t: [i for i, x in enumerate(t) if x])


def test_paddings_match_brute_force():
    for alpha in all_compositions(5):
        for n in range(6):
            got = list(paddings(alpha, n))
            assert got == _brute_paddings(alpha, n), (alpha, n)
            assert len(got) == comb(n, len(alpha))
    assert list(paddings((1, 2), 3)) == [(1, 2, 0), (1, 0, 2), (0, 1, 2)]
    # too few slots: no padding at all
    assert list(paddings((1, 2, 3), 2)) == []


def test_paddings_with_other_blanks():
    labels = {1: "a", 2: "b"}
    for n in range(2, 6):
        got = list(paddings(("a", "b"), n, blank="1"))
        assert got == [tuple(labels.get(x, "1") for x in t) for t in _brute_paddings((1, 2), n)]
    # the K-side components: codimensions m - part, and m in the empty slots
    assert list(paddings((3, 1), 3, 4)) == [(3, 1, 4), (3, 4, 1), (4, 3, 1)]


def _filtered_padding_pairs(left, right, k, blank):
    """The loop the shuffle routes used to carry: every pair of position
    sets, left outermost, kept when together they hit every slot."""
    for apos in combinations(range(k), len(left)):
        aset = set(apos)
        for bpos in combinations(range(k), len(right)):
            if len(aset | set(bpos)) != k:
                continue
            l, r = [blank] * k, [blank] * k
            for i, part in zip(apos, left):
                l[i] = part
            for i, part in zip(bpos, right):
                r[i] = part
            yield tuple(l), tuple(r)


def test_overlapping_paddings_match_filtered_pairs():
    for m in range(5):
        for n in range(5):
            left, right = tuple(range(1, m + 1)), tuple(range(10, 10 + n))
            for k in range(m + n + 2):
                got = list(overlapping_paddings(left, right, k))
                assert got == list(_filtered_padding_pairs(left, right, k, 0)), (m, n, k)
                expected = comb(k, m) * comb(m, m + n - k) if k <= m + n else 0
                assert len(got) == expected, (m, n, k)
    assert list(overlapping_paddings((1,), (2,), 2)) == [((1, 0), (0, 2)), ((0, 1), (2, 0))]
    labels = list(overlapping_paddings(("a", "b"), ("c",), 3, blank="e"))
    assert labels == list(_filtered_padding_pairs(("a", "b"), ("c",), 3, "e"))
    assert labels == [
        (("a", "b", "e"), ("e", "e", "c")),
        (("a", "e", "b"), ("e", "c", "e")),
        (("e", "a", "b"), ("c", "e", "e")),
    ]


@st.composite
def _generators_in_two_orders(draw):
    """Up to six tuples of one length n <= 9 with entries 0..9, so the packed
    fields are 0 to 4 value bits wide, and the same tuples reordered."""
    n = draw(st.integers(0, 9))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 9)] * n), max_size=6))
    return gens, draw(st.permutations(gens))


def _both_orders(gens):
    return gens, gens[::-1]


@pytest.mark.parametrize("pick", [max, min], ids=["max", "min"])
@settings(max_examples=150, deadline=None)
@given(_generators_in_two_orders())
@example(_both_orders([]))
@example(_both_orders([()]))
@example(_both_orders([(0, 0, 0)]))
@example(_both_orders([(0, 0), (0, 0)]))
@example(_both_orders([(2, 0), (0, 1), (2, 0), (1, 1), (0, 1)]))
@example(_both_orders([(5, 0, 9, 1)]))
@example(_both_orders([(1, 0), (0, 1)]))
# entries 2**s - 1 and 2**s for s = 1, 2, 3, next to 0 and the top entry
@example(_both_orders([(1, 2, 0), (2, 1, 2), (0, 2, 1)]))
@example(_both_orders([(3, 4, 0, 4), (4, 3, 4, 0), (0, 4, 3, 3)]))
@example(_both_orders([(7, 8, 0, 9, 8), (8, 7, 9, 0, 7), (9, 9, 7, 8, 0), (0, 8, 8, 7, 9)]))
@example(_both_orders([tuple(range(9)), tuple(range(8, -1, -1)), (9,) * 9, (0,) * 9]))
def test_closure_matches_pairwise_fixed_point(pick, instance):
    gens, reordered = instance
    closed = set(closure(gens, pick))
    assert closed == pairwise_closure(gens, pick)
    assert set(closure(reordered, pick)) == closed
    # lazily: each element once, the distinct generators first in their order
    drawn = list(closure(gens, pick))
    assert len(drawn) == len(closed)
    assert drawn[: len(set(gens))] == list(dict.fromkeys(gens))


def test_positive_part_inverts_zero_insertion():
    for alpha in all_compositions(4):
        for n in range(len(alpha), 7):
            for padded in all_paddings(alpha, n):
                assert positive_part(padded) == alpha


@pytest.mark.parametrize(
    "alpha,runs",
    [
        ((1, 3), ((1, 1), (3, 1))),
        ((1, 1), ((1, 2),)),
        ((2, 2, 5, 2), ((2, 2), (5, 1), (2, 1))),
        ((), ()),
    ],
)
def test_run_encode_examples(alpha, runs):
    assert run_encode(alpha) == runs


@pytest.mark.parametrize(
    "runs,error",
    [
        (5, MalformedInputError),
        ((5,), MalformedInputError),
        (((2, 1, 1),), MalformedInputError),
        (((1.5, 2),), InvalidCompositionError),
        (((0, 2),), InvalidCompositionError),
        (((2, 0),), OutOfRangeError),
        (((2, -1),), OutOfRangeError),
        (((2, 1.0),), OutOfRangeError),
    ],
    ids=["not-iterable", "run-not-a-pair", "run-of-three", "float-value", "zero-value",
         "zero-multiplicity", "negative-multiplicity", "float-multiplicity"],
)
def test_run_decode_reads_value_and_multiplicity_pairs(runs, error):
    with pytest.raises(error):
        run_decode(runs)


def test_run_encode_roundtrip():
    for alpha in all_compositions(6):
        runs = run_encode(alpha)
        assert run_decode(runs) == alpha
        assert all(runs[i][0] != runs[i + 1][0] for i in range(len(runs) - 1))


def test_sorting_data_examples():
    omega, beta = sorting_data((2, 1, 3, 1))
    assert omega == (2, 4, 1, 3)
    assert beta == (3, 1, 4, 2)

    omega, beta = sorting_data((1, 2, 3))
    assert omega == (1, 2, 3)
    assert beta == (1, 2, 3)

    # stability on ties forces the identity
    omega, beta = sorting_data((1, 1))
    assert omega == (1, 2)
    assert beta == (1, 2)


def test_sorting_data_beta_is_a_permutation():
    for alpha in all_compositions(6):
        beta = sorting_data(alpha).beta
        assert sorted(beta) == list(range(1, len(alpha) + 1))


def test_standardize_examples():
    alpha = (2, 1, 3, 1)
    data = sorting_data(alpha)
    assert standardize((0, 2, 1, 0, 3, 1), data) == (0, 3, 1, 0, 4, 2)

    data13 = sorting_data((1, 3))
    assert data13.beta == (1, 2)
    assert standardize((1, 0, 3), data13) == (1, 0, 2)


def test_standardization_bijections_exhaustive():
    # st and des are mutually inverse between the paddings of alpha and beta
    for alpha in all_compositions(6):
        data = sorting_data(alpha)
        for n in range(len(alpha), 8):
            s_alpha = set(all_paddings(alpha, n))
            s_beta = set(all_paddings(data.beta, n))
            image = set()
            for tau in s_alpha:
                st = standardize(tau, data)
                assert st in s_beta
                assert semistandardize(st, alpha) == tau
                image.add(st)
            assert image == s_beta
            for tau in s_beta:
                assert standardize(semistandardize(tau, alpha), data) == tau


def test_wrong_nonzero_count_raises():
    with pytest.raises(SizeMismatchError):
        standardize((1, 0, 0), sorting_data((1, 3)))
    with pytest.raises(SizeMismatchError):
        semistandardize((1, 2, 3), (1, 3))


def test_as_composition_rejects_nonpositive():
    with pytest.raises(InvalidCompositionError):
        as_composition((1, 0, 2))
    with pytest.raises(InvalidCompositionError):
        as_composition((-1,))
    assert as_composition(()) == ()


# each call is valid once ``x`` is read as the integer 1, so only refusing
# the part itself can raise
_TAKES_A_PART = {
    "as_composition": lambda x: as_composition((x, 2)),
    "as_weak_composition": lambda x: as_weak_composition((0, x)),
    "as_partition": lambda x: as_partition((2, x)),
    "lr_coefficient": lambda x: lr_coefficient((x,), (1,), (2,)),
    "buk_structure_constant": lambda x: buk_structure_constant(((x,),), ((1,),), ((2,),), 1),
    "glide_polynomial": lambda x: glide_polynomial((x, 2), 2),
    "grassmannian_to_partition": lambda x: grassmannian_to_partition((x, 2), 1),
}


@pytest.mark.parametrize("part", [1.5, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name", sorted(_TAKES_A_PART))
def test_a_part_must_be_an_int(name, part):
    with pytest.raises(InvalidCompositionError):
        _TAKES_A_PART[name](part)


def test_parts_are_never_coerced():
    # int("a") would raise a bare ValueError, and (1.0, 2.0) would pass as
    # the permutation (1, 2)
    with pytest.raises(InvalidCompositionError):
        as_weak_composition(["a"])
    with pytest.raises(InvalidCompositionError):
        grassmannian_to_partition((1.0, 2.0), 1)
    with pytest.raises(InvalidCompositionError):
        as_composition("12")


_SIZE_NAMES = {"n", "m", "k", "nvars", "degree_bound", "N", "l", "r"}
_COEFFICIENT_NAMES = {"terms", "coords", "coeff", "coeffs", "factor", "multiply"}


def _public_parameters(names: set[str]) -> set[tuple[str, str]]:
    """(callable, parameter) for every argument named in ``names`` of the
    callables ``public_callables`` finds."""
    return {
        (name, p)
        for name, f in public_callables().items()
        for p in inspect.signature(f).parameters
        if p in names
    }


_K = gk.KRingElement(gk.SparsePoly.one(2), 2)

# each call is valid with the size 1, and the int beside it is below the
# least value that argument takes
_TAKES_A_SIZE = {
    ("GlidePoset", "n"): (lambda x: gk.GlidePoset(x, ()), -1),
    ("KRingElement", "m"): (lambda x: gk.KRingElement(gk.SparsePoly.one(1), x), -1),
    ("KRingElement.restrict", "m"): (lambda x: _K.restrict(1, x), -1),
    ("KRingElement.restrict", "n"): (lambda x: _K.restrict(x, 1), -1),
    ("QSymElement", "degree_bound"): (lambda x: gk.QSymElement({}, x), -1),
    ("QSymElement.monomial", "degree_bound"): (lambda x: gk.QSymElement.monomial((1,), x), -1),
    ("SparsePoly", "nvars"): (lambda x: gk.SparsePoly(x), -1),
    ("SparsePoly.one", "nvars"): (lambda x: gk.SparsePoly.one(x), -1),
    ("SparsePoly.restrict", "nvars"): (lambda x: gk.SparsePoly.one(2).restrict(x), -1),
    ("SparsePoly.zero", "nvars"): (lambda x: gk.SparsePoly.zero(x), -1),
    ("as_partition", "k"): (lambda x: as_partition((1,), x), -1),
    ("atoms", "n"): (lambda x: gk.atoms((1,), x), 0),
    ("build_poset", "n"): (lambda x: gk.build_poset((1,), x), 0),
    ("buk_structure_constant", "k"): (lambda x: gk.buk_structure_constant((), (), (), x), -1),
    ("check_binomial_identity", "N"): (lambda x: gk.check_binomial_identity(x, 1), 0),
    ("check_binomial_identity", "l"): (lambda x: gk.check_binomial_identity(1, x), 0),
    ("enumerate_C", "n"): (lambda x: gk.enumerate_C((1,), x), 0),
    ("enumerate_C_tilde", "n"): (lambda x: gk.enumerate_C_tilde((1,), x), 0),
    ("glide_element", "degree_bound"): (lambda x: glide_element((1,), x), -1),
    ("glide_expand", "degree_bound"): (
        lambda x: gk.glide_expand(gk.QSymElement.monomial((1,)), x),
        -1,
    ),
    ("glide_polynomial", "n"): (lambda x: gk.glide_polynomial((1,), x), 0),
    ("glide_structure_constants", "degree_bound"): (
        lambda x: gk.glide_structure_constants((1,), (1,), x),
        -1,
    ),
    ("grassmannian_to_partition", "k"): (lambda x: gk.grassmannian_to_partition((1, 2), x), -1),
    ("is_quasisymmetric", "n"): (lambda x: gk.is_quasisymmetric(gk.SparsePoly.one(1), x), -1),
    ("knutson_class", "m"): (lambda x: gk.knutson_class((1,), 1, x), 0),
    ("knutson_class", "n"): (lambda x: gk.knutson_class((1,), x, 1), 0),
    ("line_bundle_to_y", "m"): (lambda x: gk.line_bundle_to_y((1, 0), x), -1),
    ("m_to_polynomial", "n"): (lambda x: gk.m_to_polynomial((1,), x), -1),
    ("mu_prime", "n"): (lambda x: gk.mu_prime((1,), (1,), x), -1),
    ("partition_to_grassmannian", "k"): (lambda x: gk.partition_to_grassmannian((0,), x), -1),
    ("partition_to_grassmannian", "n"): (lambda x: gk.partition_to_grassmannian((), 0, x), -1),
    ("polynomial_to_m", "n"): (lambda x: gk.polynomial_to_m(gk.SparsePoly.one(1), x), -1),
    ("projective_structure_class", "m"): (lambda x: gk.projective_structure_class(1, x), 0),
    ("projective_structure_class", "r"): (lambda x: gk.projective_structure_class(x, 1), -1),
    ("qsym_r_product", "n"): (lambda x: gk.qsym_r_product((1,), (), gk.cpinf_ring(), x), 0),
    ("schur_polynomial", "k"): (lambda x: gk.schur_polynomial((1,), x), -1),
    ("schur_ring", "k"): (lambda x: gk.schur_ring(x), -1),
    ("z_locus", "m"): (lambda x: gk.z_locus((1,), 1, x), 0),
    ("z_locus", "n"): (lambda x: gk.z_locus((1,), x, 1), 0),
}


@pytest.mark.parametrize("entry", sorted(_TAKES_A_SIZE), ids=".".join)
def test_a_size_must_be_an_int_at_least_its_least_value(entry):
    # a new size argument fails every case until it has a row in the table
    assert set(_TAKES_A_SIZE) == _public_parameters(_SIZE_NAMES)
    call, below = _TAKES_A_SIZE[entry]
    call(1)
    for bad in (1.5, True, "2", below):
        with pytest.raises(OutOfRangeError):
            call(bad)


_STRING_NAMES = {"p", "q", "sigma", "tau", "exps", "w", "outer", "inner"}

_P = gk.build_poset((1,), 2)

# (call, a string the call takes, whether the call fixes its length).  Each
# string starts with 1, so 1.0 or True in its place would pass were they
# read as that int.  ``leq`` is a helper outside ``glidekit.__all__``.
_TAKES_A_STRING = {
    ("GlidePoset.meet", "p"): (lambda s: _P.meet(s, (1, 0)), (1, 0), True),
    ("GlidePoset.meet", "q"): (lambda s: _P.meet((1, 0), s), (1, 0), True),
    ("GlidePoset.mobius_crosscut", "sigma"): (_P.mobius_crosscut, (1, 0), True),
    ("SkewShape", "inner"): (lambda s: gk.SkewShape((1, 1), s), (1, 0), True),
    ("SkewShape", "outer"): (lambda s: gk.SkewShape(s, (0, 0)), (1, 0), True),
    ("SparsePoly.coefficient", "exps"): (
        lambda s: gk.SparsePoly(2, {(1, 0): 1}).coefficient(s),
        (1, 0),
        True,
    ),
    ("SparsePoly.monomial", "exps"): (gk.SparsePoly.monomial, (1, 0), False),
    ("grassmannian_to_partition", "w"): (
        lambda s: gk.grassmannian_to_partition(s, 1),
        (1, 2),
        False,
    ),
    ("join", "p"): (lambda s: gk.join(s, (0, 1)), (1, 0), True),
    ("join", "q"): (lambda s: gk.join((0, 1), s), (1, 0), True),
    ("leq", "p"): (lambda s: leq(s, (1, 1)), (1, 0), True),
    ("leq", "q"): (lambda s: leq((0, 0), s), (1, 0), True),
    ("mu_closed", "sigma"): (lambda s: gk.mu_closed(s, (1,)), (1, 0), False),
    ("mu_prime", "sigma"): (lambda s: gk.mu_prime(s, (1,), 2), (1, 0), True),
    ("positive_part", "w"): (positive_part, (1, 0), False),
    ("semistandardize", "tau"): (lambda s: semistandardize(s, (1,)), (1, 0), False),
    ("standardize", "tau"): (lambda s: standardize(s, sorting_data((1,))), (1, 0), False),
}


@pytest.mark.parametrize("entry", sorted(_TAKES_A_STRING), ids=".".join)
def test_a_string_holds_nonnegative_ints_and_has_its_length(entry):
    # a new string argument fails every case until it has a row in the table
    helpers = {("leq", "p"), ("leq", "q")}
    assert set(_TAKES_A_STRING) == _public_parameters(_STRING_NAMES) | helpers
    call, s, fixed = _TAKES_A_STRING[entry]
    call(s)
    for bad in (-1, 1.0, True):
        with pytest.raises(InvalidCompositionError):
            call((bad,) + s[1:])
    if fixed:
        for wrong in (s + (0,), s[:-1]):
            with pytest.raises(LengthMismatchError):
                call(wrong)


# each call is valid with the coefficient 1; a coefficient reaches the
# library as an int or a Fraction, or through a ring's ``multiply``
_TAKES_A_COEFFICIENT = {
    ("GradedRingData", "multiply"): lambda x: gk.GradedRingData(
        0, lambda a: a, lambda a, b: {a + b: x}, lambda a: True
    ).product(1, 1),
    ("QSymElement", "coords"): lambda x: gk.QSymElement({(1,): x}),
    ("QSymElement.scale", "factor"): lambda x: gk.QSymElement.monomial((1,)).scale(x),
    ("SparsePoly", "terms"): lambda x: gk.SparsePoly(1, {(1,): x}),
    ("SparsePoly.monomial", "coeff"): lambda x: gk.SparsePoly.monomial((1,), x),
    ("SparsePoly.scale", "factor"): lambda x: gk.SparsePoly.one(1).scale(x),
    ("line_bundle_to_y", "coeffs"): lambda x: gk.line_bundle_to_y((x,), 0),
}


@pytest.mark.parametrize("entry", sorted(_TAKES_A_COEFFICIENT), ids=".".join)
def test_a_coefficient_must_be_an_int_or_a_fraction(entry):
    # a new coefficient argument fails every case until it has a row
    assert set(_TAKES_A_COEFFICIENT) == _public_parameters(_COEFFICIENT_NAMES)
    call = _TAKES_A_COEFFICIENT[entry]
    call(1)
    call(Fraction(1, 2))
    for bad in (0.1, True, "1"):
        with pytest.raises(MalformedInputError):
            call(bad)


_OBJECT_NAMES = {"element", "f", "g", "poly", "ring", "shape", "t", "data"}

_ONE = gk.SparsePoly.one(2)
_Q = gk.QSymElement.monomial((1,))
_SHAPE = gk.SkewShape((1,), (0,))
_T = gk.Tableau(_SHAPE, ((1,),))
_LINE = gk.KRingElement(gk.SparsePoly.one(1), 1)

# (call, the object the call takes, an object of another library class).
# The operators, ``reading_word``, ``content`` and the shuffle route of the
# tensor product are helpers outside the parameter search.
_TAKES_AN_OBJECT = {
    ("GradedRingData.from_dict", "data"): (
        gk.GradedRingData.from_dict,
        {"basis": [{"label": "1", "degree": 0}]},
        _Q,
    ),
    ("KRingElement", "poly"): (lambda x: gk.KRingElement(x, 1), _ONE, _Q),
    ("KRingElement.__add__", "other"): (lambda x: _K + x, _K, _ONE),
    ("KRingElement.__mul__", "other"): (lambda x: _K * x, _K, _ONE),
    ("QSymElement.__add__", "other"): (lambda x: _Q + x, _Q, _K),
    ("SparsePoly.__add__", "other"): (lambda x: _ONE + x, _ONE, _K),
    ("SparsePoly.__mul__", "other"): (lambda x: _ONE * x, _ONE, _K),
    ("SparsePoly.__sub__", "other"): (lambda x: _ONE - x, _ONE, _K),
    ("Tableau", "shape"): (lambda x: gk.Tableau(x, ((1,),)), _SHAPE, _T),
    ("chern_substitute", "element"): (gk.chern_substitute, _K, _ONE),
    ("content", "t"): (content, _T, _SHAPE),
    ("glide_expand", "f"): (lambda x: gk.glide_expand(x, 1), _Q, _ONE),
    ("is_ballot", "t"): (gk.is_ballot, _T, _SHAPE),
    ("is_quasisymmetric", "f"): (lambda x: gk.is_quasisymmetric(x, 2), _ONE, _K),
    ("m_multiply", "f"): (lambda x: gk.m_multiply(x, _Q), _Q, _ONE),
    ("m_multiply", "g"): (lambda x: gk.m_multiply(_Q, x), _Q, _ONE),
    ("polynomial_to_m", "f"): (lambda x: gk.polynomial_to_m(x, 2), _ONE, _K),
    ("qsym_r_product", "ring"): (
        lambda x: gk.qsym_r_product((1,), (1,), x, 2),
        gk.cpinf_ring(),
        _Q,
    ),
    ("qsym_r_product_shuffle", "ring"): (
        lambda x: qsym_r_product_shuffle((1,), (1,), x),
        gk.cpinf_ring(),
        _Q,
    ),
    ("reading_word", "t"): (reading_word, _T, _SHAPE),
    ("ssyt_enumerate", "shape"): (lambda x: gk.ssyt_enumerate(x, (1,)), _SHAPE, _T),
    ("standardize", "data"): (lambda x: standardize((1, 0), x), sorting_data((1,)), _Q),
    ("y_to_line_bundle", "element"): (gk.y_to_line_bundle, _LINE, gk.SparsePoly.one(1)),
}


@pytest.mark.parametrize("entry", sorted(_TAKES_AN_OBJECT), ids=".".join)
def test_a_library_object_must_be_of_its_class(entry):
    # a new object argument fails every case until it has a row
    helpers = {
        e for e in _TAKES_AN_OBJECT
        if e[1] == "other" or e[0] in {"reading_word", "content", "qsym_r_product_shuffle"}
    }
    assert set(_TAKES_AN_OBJECT) == _public_parameters(_OBJECT_NAMES) | helpers
    call, own, other = _TAKES_AN_OBJECT[entry]
    call(own)
    for bad in ({}, 5, other):
        with pytest.raises(MalformedInputError):
            call(bad)


def test_a_wrong_object_is_named_with_its_parameter_and_class():
    with pytest.raises(MalformedInputError, match="^element must be a KRingElement, got int$"):
        gk.y_to_line_bundle(5)
    with pytest.raises(MalformedInputError, match="^other must be a SparsePoly, got dict$"):
        _ONE - {}


_PART_NAMES = {"alpha", "beta", "lam", "mu", "nu", "weight"}

# (call, the least part it takes).  Each call is valid with the part 1, so
# only refusing the part itself can raise.
_TAKES_PARTS = {
    ("QSymElement.monomial", "alpha"): (lambda x: gk.QSymElement.monomial((x, 2)), 1),
    ("atoms", "alpha"): (lambda x: gk.atoms((x, 2), 2), 1),
    ("build_poset", "alpha"): (lambda x: gk.build_poset((x, 2), 2), 1),
    ("enumerate_C", "alpha"): (lambda x: gk.enumerate_C((x, 2), 2), 1),
    ("enumerate_C_tilde", "alpha"): (lambda x: gk.enumerate_C_tilde((x, 2), 2), 1),
    ("glide_element", "alpha"): (lambda x: glide_element((x, 2), 3), 1),
    ("glide_polynomial", "alpha"): (lambda x: gk.glide_polynomial((x, 2), 2), 1),
    ("glide_structure_constants", "alpha"): (
        lambda x: gk.glide_structure_constants((x,), (1,), 2),
        1,
    ),
    ("glide_structure_constants", "beta"): (
        lambda x: gk.glide_structure_constants((1,), (x,), 2),
        1,
    ),
    ("knutson_class", "alpha"): (lambda x: gk.knutson_class((x, 2), 2, 2), 1),
    ("lr_coefficient", "lam"): (lambda x: lr_coefficient((x, 0), (1, 0), (2, 0)), 0),
    ("lr_coefficient", "mu"): (lambda x: lr_coefficient((1, 0), (x, 0), (2, 0)), 0),
    ("lr_coefficient", "nu"): (lambda x: lr_coefficient((1, 0), (1, 0), (2, x)), 0),
    ("m_to_polynomial", "alpha"): (lambda x: gk.m_to_polynomial((x, 2), 2), 1),
    ("mu_closed", "alpha"): (lambda x: gk.mu_closed((1, 2), (x, 2)), 1),
    ("mu_prime", "alpha"): (lambda x: gk.mu_prime((1, 2), (x, 2), 2), 1),
    ("overlapping_shuffle", "alpha"): (lambda x: gk.overlapping_shuffle((x,), (2,)), 1),
    ("overlapping_shuffle", "beta"): (lambda x: gk.overlapping_shuffle((2,), (x,)), 1),
    ("partition_to_grassmannian", "lam"): (lambda x: gk.partition_to_grassmannian((x,), 1), 0),
    ("run_encode", "alpha"): (lambda x: run_encode((x, 2)), 1),
    ("schur_polynomial", "lam"): (lambda x: gk.schur_polynomial((x,), 1), 0),
    ("semistandardize", "alpha"): (lambda x: semistandardize((1, 0), (x,)), 1),
    ("sorting_data", "alpha"): (lambda x: sorting_data((x, 2)), 1),
    ("ssyt_enumerate", "weight"): (
        lambda x: gk.ssyt_enumerate(gk.SkewShape((2,), (0,)), (x, 1)),
        0,
    ),
    ("z_locus", "alpha"): (lambda x: gk.z_locus((x, 2), 2, 2), 1),
}


@pytest.mark.parametrize("entry", sorted(_TAKES_PARTS), ids=".".join)
def test_parts_are_ints_at_least_their_least_value(entry):
    # a new argument of parts fails every case until it has a row
    assert set(_TAKES_PARTS) == _public_parameters(_PART_NAMES)
    call, least = _TAKES_PARTS[entry]
    call(1)
    for bad in (1.5, True, least - 1):
        with pytest.raises(InvalidCompositionError):
            call(bad)


@pytest.mark.parametrize("exps", [(1.5,), (-1,), (True,)], ids=["float", "negative", "bool"])
def test_an_exponent_vector_holds_nonnegative_ints(exps):
    with pytest.raises(InvalidCompositionError):
        gk.SparsePoly(1, {exps: 1})


def test_canonical_order_is_size_then_length_then_lex():
    comps = [(2,), (1, 1), (1, 2), (3,), (2, 1), (1,), ()]
    assert sorted(comps, key=canonical_key) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (3,),
        (1, 2),
        (2, 1),
    ]
