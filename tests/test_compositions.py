from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import glidekit as gk
from glidekit import compositions
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
from glidekit.schur import grassmannian_to_partition

from conftest import ARGS, all_compositions, all_paddings, pairwise_closure, rows, with_first


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
# generators already in the closure when their turn comes: the max and the
# min of earlier ones, and tuples in decreasing lex order, whose max comes
# first; and a chain, where each generator is its join with any earlier one
@example(_both_orders([(1, 0), (0, 1), (1, 1), (0, 0)]))
@example(_both_orders([(2, 0, 1), (0, 2, 1), (2, 2, 1), (0, 0, 1), (2, 2, 0)]))
@example(_both_orders([(3, 3, 0), (3, 1, 0), (2, 3, 0), (2, 1, 0), (1, 2, 3), (0, 2, 1)]))
@example(_both_orders([(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 1), (3, 2, 1)]))
def test_closure_matches_pairwise_fixed_point(pick, instance):
    gens, reordered = instance
    closed = set(closure(gens, pick))
    assert closed == pairwise_closure(gens, pick)
    assert set(closure(reordered, pick)) == closed
    # lazily: each element once, the distinct generators first in their order
    drawn = list(closure(gens, pick))
    assert len(drawn) == len(closed)
    assert drawn[: len(set(gens))] == list(dict.fromkeys(gens))


def _closure_with_cut(gens, pick, cut):
    """``closure(gens, pick)`` drawn whole, with the lattice size from which
    ``_joins`` takes the whole-lattice word step set to ``cut``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compositions, "_JOIN_WORDS", cut)
        return list(closure(gens, pick))


# 13 coordinates of 4-bit entries make 5-bit fields whose top guard is bit
# 64, and 22 of 1-bit entries 3-bit fields whose top guard is bit 64: one
# past a word, so these take the step per element at any cut-off
_OVER_64 = [
    [tuple((i * 7 + j * 3) % 16 for j in range(13)) for i in range(6)],
    [tuple((i >> j) & 1 for j in range(22)) for i in range(1, 12)],
]


@pytest.mark.parametrize("pick", [max, min], ids=["max", "min"])
@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 15)] * n), max_size=16)
    )
)
@example([])
@example([(2, 0, 1), (0, 1, 1), (2, 0, 1), (0, 1, 1), (2, 0, 1)])
# a generator that is the join (and one that is the meet) of earlier ones
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1), (0, 0, 0)])
@example(_OVER_64[0])
@example(_OVER_64[1])
def test_word_and_element_joins_give_one_closure(pick, gens):
    # with no cut-off every generator's step joins the whole lattice as
    # words, and with an unreachable one none does: the elements and the
    # order they are yielded in must be the same, and the module's own
    # cut-off switches part way
    by_elements = _closure_with_cut(gens, pick, float("inf"))
    assert _closure_with_cut(gens, pick, 0) == by_elements
    assert list(closure(gens, pick)) == by_elements


@pytest.mark.parametrize(
    "gens, words",
    [
        (_OVER_64[0], False),
        (_OVER_64[1], False),
        # one coordinate less: the top guard is bit 59 or 61
        ([g[1:] for g in _OVER_64[0]], True),
        ([g[1:] for g in _OVER_64[1]], True),
    ],
)
def test_only_strings_whose_guards_fit_a_word_take_the_word_step(gens, words):
    calls = []
    join_words = compositions._word_joins

    def counted(*args):
        calls.append(args)
        return join_words(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compositions, "_word_joins", counted)
        _closure_with_cut(gens, max, 0)
    assert bool(calls) is words


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


# a bad part goes first in the argument (``with_first``), so only refusing
# the part itself can raise
@pytest.mark.parametrize("part", [1.5, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name", sorted({name for name, _ in rows("parts", "string")}))
def test_a_part_must_be_an_int(name, part):
    for key in rows("parts", "string"):
        if key[0] == name:
            with pytest.raises(InvalidCompositionError):
                ARGS[key].call(with_first(ARGS[key].valid, part))


def test_parts_are_never_coerced():
    # int("a") would raise a bare ValueError, and (1.0, 2.0) would pass as
    # the permutation (1, 2)
    with pytest.raises(InvalidCompositionError):
        as_weak_composition(["a"])
    with pytest.raises(InvalidCompositionError):
        grassmannian_to_partition((1.0, 2.0), 1)
    with pytest.raises(InvalidCompositionError):
        as_composition("12")


@pytest.mark.parametrize("entry", rows("size"), ids=".".join)
def test_a_size_must_be_an_int_at_least_its_least_value(entry):
    call, valid, _, least = ARGS[entry]
    call(valid)
    for bad in (1.5, True, "2", least - 1):
        with pytest.raises(OutOfRangeError):
            call(bad)


# each string starts with 1, so 1.0 or True in its place would pass were
# they read as that int
@pytest.mark.parametrize("entry", rows("string"), ids=".".join)
def test_a_string_holds_nonnegative_ints_and_has_its_length(entry):
    call, s, _, fixed = ARGS[entry]
    call(s)
    for bad in (-1, 1.0, True):
        with pytest.raises(InvalidCompositionError):
            call(with_first(s, bad))
    if fixed:
        for wrong in (s + (0,), s[:-1]):
            with pytest.raises(LengthMismatchError):
                call(wrong)


# a coefficient reaches the library as an int or a Fraction, or through a
# ring's ``multiply``
@pytest.mark.parametrize("entry", rows("coefficient"), ids=".".join)
def test_a_coefficient_must_be_an_int_or_a_fraction(entry):
    call, valid, _, put = ARGS[entry]
    put = put or partial(with_first, valid)
    call(put(1))
    call(put(Fraction(1, 2)))
    for bad in (0.1, True, "1"):
        with pytest.raises(MalformedInputError):
            call(put(bad))


@pytest.mark.parametrize("entry", rows("object"), ids=".".join)
def test_a_library_object_must_be_of_its_class(entry):
    call, own, _, other = ARGS[entry]
    call(own)
    for bad in ({}, 5, other):
        with pytest.raises(MalformedInputError):
            call(bad)


def test_a_wrong_object_is_named_with_its_parameter_and_class():
    with pytest.raises(MalformedInputError, match="^element must be a KRingElement, got int$"):
        gk.y_to_line_bundle(5)
    with pytest.raises(MalformedInputError, match="^other must be a SparsePoly, got dict$"):
        gk.SparsePoly.one(2) - {}


@pytest.mark.parametrize("entry", rows("parts"), ids=".".join)
def test_parts_are_ints_at_least_their_least_value(entry):
    call, valid, _, least = ARGS[entry]
    call(valid)
    for bad in (1.5, True, least - 1):
        with pytest.raises(InvalidCompositionError):
            call(with_first(valid, bad))


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
