from itertools import combinations, product
from math import comb

import pytest

from glidekit.compositions import (
    as_composition,
    as_weak_composition,
    canonical_key,
    overlapping_paddings,
    paddings,
    positive_part,
    run_decode,
    run_encode,
    semistandardize,
    sorting_data,
    standardize,
)
from glidekit.errors import InvalidCompositionError, SizeMismatchError
from glidekit.glides import glide_polynomial
from glidekit.schur import (
    as_partition,
    buk_structure_constant,
    grassmannian_to_partition,
    lr_coefficient,
)

from conftest import all_compositions, all_paddings


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
