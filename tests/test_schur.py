import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from glidekit.errors import (
    InvalidCompositionError,
    LengthMismatchError,
    NotGrassmannianError,
    SizeMismatchError,
    UnknownLabelError,
)
from glidekit.poly import SparsePoly
from glidekit.qsym import qsym_r_product, qsym_r_product_shuffle
from glidekit.schur import (
    SkewShape,
    Tableau,
    _partitions_of,
    as_partition,
    as_partition_tuple,
    buk_structure_constant,
    content,
    coxeter_length,
    grassmannian_to_partition,
    is_ballot,
    lr_coefficient,
    partition_to_grassmannian,
    reading_word,
    schur_polynomial,
    schur_ring,
    ssyt_enumerate,
)

from conftest import compositions_of


def test_partition_validation():
    assert as_partition((3, 1, 0)) == (3, 1, 0)
    with pytest.raises(InvalidCompositionError):
        as_partition((1, 2))
    with pytest.raises(InvalidCompositionError):
        as_partition((2, -1))
    with pytest.raises(LengthMismatchError):
        as_partition((2, 1), k=3)


def test_skew_shape_validation():
    SkewShape(outer=(3, 2, 1), inner=(2, 1, 0))
    with pytest.raises(InvalidCompositionError):
        SkewShape(outer=(2, 2), inner=(3, 0))
    with pytest.raises(LengthMismatchError):
        SkewShape(outer=(2, 2), inner=(1,))


def test_reading_word_and_ballotness():
    shape = SkewShape(outer=(3, 2, 1), inner=(2, 1, 0))
    ballot1 = Tableau(shape=shape, rows=((1,), (1,), (2,)))
    ballot2 = Tableau(shape=shape, rows=((1,), (2,), (1,)))
    not_ballot = Tableau(shape=shape, rows=((2,), (1,), (1,)))
    assert reading_word(ballot1) == (1, 1, 2)
    assert is_ballot(ballot1) and is_ballot(ballot2)
    assert not is_ballot(not_ballot)
    assert content(ballot1) == (2, 1)

    empty = Tableau(shape=SkewShape(outer=(0,), inner=(0,)), rows=((),))
    assert is_ballot(empty)
    assert content(empty) == ()


def test_ssyt_enumerate_examples():
    shape = SkewShape(outer=(3, 2, 1), inner=(2, 1, 0))
    tableaux = ssyt_enumerate(shape, (2, 1))
    assert len(tableaux) == 3
    assert sum(1 for t in tableaux if is_ballot(t)) == 2
    assert [reading_word(t) for t in tableaux] == sorted(
        reading_word(t) for t in tableaux
    )

    assert len(ssyt_enumerate(SkewShape(outer=(1,), inner=(0,)), (1,))) == 1
    assert len(ssyt_enumerate(SkewShape(outer=(2, 2), inner=(0, 0)), (2, 2))) == 1
    with pytest.raises(SizeMismatchError):
        ssyt_enumerate(shape, (1, 1))


def test_ssyt_are_semistandard():
    shape = SkewShape(outer=(4, 3, 1), inner=(2, 1, 0))
    for t in ssyt_enumerate(shape, (2, 2, 1)):
        assert _is_semistandard(shape, t.rows)


@pytest.mark.parametrize(
    "outer,inner,rows",
    [
        ((1,), (0,), (("a",),)),
        ((1,), (0,), ((0,),)),
        ((1,), (0,), ((1.0,),)),
        ((1,), (0,), ((True,),)),
        ((2,), (0,), ((2, 1),)),
        ((1, 1), (0, 0), ((1,), (1,))),
        ((1, 1), (0, 0), ((2,), (1,))),
        ((3, 2), (1, 0), ((2, 2), (1, 2))),
    ],
    ids=["string", "zero", "float", "bool", "row-decreases", "column-repeats",
         "column-decreases", "skew-column-repeats"],
)
def test_tableau_is_a_semistandard_filling(outer, inner, rows):
    with pytest.raises(InvalidCompositionError):
        Tableau(SkewShape(outer, inner), rows)


def _is_semistandard(shape, rows):
    """Rows weakly increase and each column strictly increases, read cell by
    cell from the row above."""
    for r, row in enumerate(rows):
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return False
        for c, v in enumerate(row, start=shape.inner[r]):
            if r > 0 and shape.inner[r - 1] <= c < shape.outer[r - 1]:
                if v <= rows[r - 1][c - shape.inner[r - 1]]:
                    return False
    return True


def _skew_shapes_inside(outer, most_cells):
    """Every skew shape nu/lam with lam inside nu inside ``outer``, both as
    partitions of len(outer) parts, with at most ``most_cells`` cells."""
    def inside(bound):
        return [p for p in product(*(range(b + 1) for b in bound))
                if all(p[i] >= p[i + 1] for i in range(len(p) - 1))]
    return [
        SkewShape(nu, lam)
        for nu in inside(outer)
        for lam in inside(nu)
        if sum(nu) - sum(lam) <= most_cells
    ]


def test_tableau_takes_exactly_the_semistandard_fillings():
    # every filling with entries 1..3 of every skew shape inside (3, 2, 1)
    # with at most 5 cells
    shapes = _skew_shapes_inside((3, 2, 1), 5)
    assert len(shapes) > 50
    for shape in shapes:
        lengths = [o - i for o, i in zip(shape.outer, shape.inner)]
        accepted = []
        for values in product(range(1, 4), repeat=sum(lengths)):
            it = iter(values)
            rows = tuple(tuple(next(it) for _ in range(k)) for k in lengths)
            try:
                accepted.append(Tableau(shape, rows))
            except InvalidCompositionError:
                assert not _is_semistandard(shape, rows), rows
            else:
                assert _is_semistandard(shape, rows), rows
        # and ssyt_enumerate lists exactly those of each content, in the
        # order of their reading words
        cells = shape.cell_count()
        for weight in product(range(cells + 1), repeat=3):
            if sum(weight) == cells:
                expected = sorted(
                    (t for t in accepted if content(t) + (0,) * (3 - len(content(t))) == weight),
                    key=reading_word,
                )
                assert ssyt_enumerate(shape, weight) == expected


def test_ssyt_enumerate_walks_the_reading_words_in_lexicographic_order():
    # brute force: every word with entries 1..4, in itertools.product's
    # lexicographic order, read back into rows (each row right to left);
    # the reading words of the semistandard fillings, grouped by content,
    # are the order the tableau walk must keep
    for shape in _skew_shapes_inside((3, 3, 2), 6):
        lengths = [o - i for o, i in zip(shape.outer, shape.inner)]
        cells = sum(lengths)
        by_content = {}
        for word in product(range(1, 5), repeat=cells):
            it = iter(word)
            rows = tuple(tuple(next(it) for _ in range(k))[::-1] for k in lengths)
            if _is_semistandard(shape, rows):
                by_content.setdefault(tuple(map(word.count, range(1, 5))), []).append(word)
        for weight in product(range(cells + 1), repeat=4):
            if sum(weight) == cells:
                words = [reading_word(t) for t in ssyt_enumerate(shape, weight)]
                assert words == by_content.get(weight, []), (shape, weight)


def test_a_long_skew_shape_needs_no_deeper_stack():
    # the tableau walk keeps no Python frame per cell
    assert lr_coefficient((1000,), (1000,), (2000,)) == 1
    [t] = ssyt_enumerate(SkewShape((1000, 1000), (0, 0)), (1000, 1000))
    assert t.rows == ((1,) * 1000, (2,) * 1000)


def _ballot_by_filter(lam, mu, nu):
    return sum(map(is_ballot, ssyt_enumerate(SkewShape(nu, lam), mu)))


def test_ballot_prune_equals_the_ballot_filter():
    # lr_coefficient prunes a reading word as soon as it stops being ballot;
    # filtering the full list of fillings with is_ballot must agree, for
    # every triple with 3 parts and |nu| <= 10 whose sizes add up
    partitions = [p for s in range(11) for p in _partitions_of(s, 3, s)]
    checked = 0
    for nu in partitions:
        for lam in partitions:
            if sum(lam) > sum(nu) or any(l > n for l, n in zip(lam, nu)):
                continue
            rest = sum(nu) - sum(lam)
            for mu in _partitions_of(rest, 3, rest):
                assert lr_coefficient(lam, mu, nu) == _ballot_by_filter(lam, mu, nu), (lam, mu, nu)
                checked += 1
    assert checked == 4825


@st.composite
def _skew_shapes_and_contents(draw):
    rows = draw(st.integers(1, 4))
    nu = sorted(draw(st.lists(st.integers(0, 5), min_size=rows, max_size=rows)), reverse=True)
    low = sorted(draw(st.lists(st.integers(0, 5), min_size=rows, max_size=rows)), reverse=True)
    lam = tuple(map(min, nu, low))
    cells = sum(nu) - sum(lam)
    assume(cells <= 8)
    mu = draw(st.sampled_from(list(_partitions_of(cells, rows, cells))))
    return lam, mu, tuple(nu)


@settings(max_examples=150, deadline=None)
@given(_skew_shapes_and_contents())
@example(((2, 1, 0, 0), (2, 1, 1, 1), (3, 2, 2, 1)))
@example(((0, 0, 0, 0), (3, 2, 2, 1), (3, 2, 2, 1)))
def test_ballot_prune_equals_the_ballot_filter_on_random_shapes(instance):
    lam, mu, nu = instance
    assert lr_coefficient(lam, mu, nu) == _ballot_by_filter(lam, mu, nu)


def test_lr_coefficient_examples():
    assert lr_coefficient((2, 1, 0), (2, 1, 0), (3, 2, 1)) == 2
    zero = (0, 0)
    assert lr_coefficient((1, 0), zero, (1, 0)) == 1
    assert lr_coefficient((1, 0), zero, (2, 0)) == 0
    assert lr_coefficient((1, 0), (1, 0), (1, 1)) == 1
    assert lr_coefficient((1, 0), (1, 0), (2, 0)) == 1
    # containment failure and size mismatch give zero, not an error
    assert lr_coefficient((2, 0), (1, 0), (1, 1)) == 0
    assert lr_coefficient((1, 0), (1, 0), (3, 0)) == 0
    with pytest.raises(LengthMismatchError):
        lr_coefficient((1,), (1, 0), (1, 1))


def test_schur_polynomial_examples():
    assert schur_polynomial((1, 0), 2) == SparsePoly(2, {(1, 0): 1, (0, 1): 1})
    assert schur_polynomial((2, 1), 2) == SparsePoly(2, {(2, 1): 1, (1, 2): 1})
    assert schur_polynomial((0, 0, 0), 3) == SparsePoly.one(3)


def test_schur_polynomial_coefficients_are_ssyt_counts():
    # every coefficient the one walk counts, zeros included, is the length
    # of ssyt_enumerate's list for that content: k <= 4 and |lam| <= 6
    checked = 0
    for k in range(5):
        for lam in (p for s in range(7) for p in _partitions_of(s, k, s)):
            f = schur_polynomial(lam, k)
            shape = SkewShape(lam, (0,) * k)
            for w in product(range(sum(lam) + 1), repeat=k):
                if sum(w) == sum(lam):
                    assert f.coefficient(w) == len(ssyt_enumerate(shape, w)), (lam, w)
                    checked += 1
    assert checked == 1845


def _hook_product(lam):
    """Product of the hook lengths of the cells of a partition."""
    columns = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
    return prod(lam[i] - j + columns[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))


def test_schur_polynomial_counts_tableaux_by_the_hook_formulas():
    # the coefficient of y_1...y_n counts the standard fillings of lam (hook
    # length formula), and the coefficients sum to the number of fillings
    # with entries at most n (hook content formula)
    for total in range(7):
        for lam in _partitions_of(total, min(3, total), total):
            padded = lam + (0,) * (total - len(lam))
            f = schur_polynomial(padded, total)
            hooks = _hook_product(lam)
            assert f.coefficient((1,) * total) == factorial(total) // hooks, lam
            contents = prod(total + j - i for i in range(len(lam)) for j in range(lam[i]))
            assert sum(f.terms.values()) == contents // hooks, lam


@st.composite
def _partitions_and_a_swap(draw):
    k = draw(st.integers(2, 4))
    parts = sorted(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), reverse=True)
    assume(sum(parts) <= 6)
    return tuple(parts), k, draw(st.integers(0, k - 2))


@settings(max_examples=60, deadline=None)
@given(_partitions_and_a_swap())
@example(((2, 1, 0), 3, 1))
@example(((1, 1, 0), 3, 0))
def test_schur_polynomial_is_symmetric_under_adjacent_swaps(instance):
    lam, k, i = instance
    f = schur_polynomial(lam, k)

    def swap(e):
        e = list(e)
        e[i], e[i + 1] = e[i + 1], e[i]
        return tuple(e)

    assert SparsePoly(k, {swap(e): c for e, c in f.terms.items()}) == f


def test_schur_product_oracle():
    # the tableau count reproduces polynomial multiplication of the
    # generating functions, for all length-k pairs within the size budget
    k = 3
    partitions = [p for s in range(5) for p in _partitions_of(s, k, s)]
    for lam in partitions:
        for mu in partitions:
            if sum(lam) + sum(mu) > 8 or sum(lam) == 0 or sum(mu) == 0:
                continue
            product = schur_polynomial(lam, k) * schur_polynomial(mu, k)
            total = sum(lam) + sum(mu)
            expanded = SparsePoly.zero(k)
            for nu in _partitions_of(total, k, total):
                c = lr_coefficient(lam, mu, nu)
                if c:
                    expanded = expanded + schur_polynomial(nu, k).scale(c)
            assert product == expanded, (lam, mu)


def test_lr_symmetry_random():
    rng = random.Random(17)
    k = 3
    partitions = [p for s in range(1, 5) for p in _partitions_of(s, k, s)]
    for _ in range(30):
        lam, mu = rng.choice(partitions), rng.choice(partitions)
        for nu in _partitions_of(sum(lam) + sum(mu), k, 8):
            assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_grassmannian_dictionary():
    w = (1, 2, 4, 6, 9, 3, 5, 7, 8)
    assert grassmannian_to_partition(w, 5) == (4, 2, 1, 0, 0)
    assert partition_to_grassmannian((4, 2, 1, 0, 0), 5) == w
    assert grassmannian_to_partition((1, 2, 3), 2) == (0, 0)
    with pytest.raises(NotGrassmannianError):
        grassmannian_to_partition((2, 1, 4, 3), 2)  # descent at 1 and 3
    with pytest.raises(NotGrassmannianError):
        grassmannian_to_partition((1, 1, 2), 1)


def test_partition_needs_enough_letters():
    # (2, 1) with k = 2 needs k + 2 = 4 letters
    with pytest.raises(NotGrassmannianError, match="n >= 4"):
        partition_to_grassmannian((2, 1), 2, 3)


def test_grassmannian_roundtrip_exhaustive_s7():
    count = 0
    for w in permutations(range(1, 8)):
        descents = [i for i in range(1, 7) if w[i - 1] > w[i]]
        if descents and descents != [5]:
            continue
        lam = grassmannian_to_partition(w, 5)
        assert partition_to_grassmannian(lam, 5, 7) == w
        # cell dimension pairs with Coxeter length
        assert sum(lam) == coxeter_length(w)
        count += 1
    assert count == 21  # C(7, 5) cosets


def test_buk_structure_constant_examples():
    lam = ((1, 0, 0), (2, 1, 0))
    mu = ((2, 1, 0),)
    assert buk_structure_constant(lam, mu, ((2, 1, 0), (1, 0, 0), (2, 1, 0)), 3) == 1
    assert buk_structure_constant(lam, mu, ((1, 0, 0), (2, 1, 0), (2, 1, 0)), 3) == 2
    assert (
        buk_structure_constant(lam, lam, ((1, 0, 0), (1, 0, 0), (3, 2, 1)), 3) == 4
    )
    with pytest.raises(LengthMismatchError):
        buk_structure_constant(((1, 0),), ((1, 0, 0),), (((1, 0, 0)),), 3)
    with pytest.raises(InvalidCompositionError):
        buk_structure_constant(((0, 0, 0),), mu, mu, 3)


def _buk_all_pairs(lam_tuple, mu_tuple, nu_tuple, k):
    """The loop buk_structure_constant used to run: every pair of placements,
    hit or not, with unhit slots read as the zero partition."""
    lams = as_partition_tuple(lam_tuple, k)
    mus = as_partition_tuple(mu_tuple, k)
    nus = as_partition_tuple(nu_tuple, k)
    zero = (0,) * k
    slots = len(nus)
    total = 0
    for ipos in combinations(range(slots), len(lams)):
        lam_at = dict(zip(ipos, lams))
        for jpos in combinations(range(slots), len(mus)):
            mu_at = dict(zip(jpos, mus))
            prod = 1
            for i in range(slots):
                prod *= lr_coefficient(lam_at.get(i, zero), mu_at.get(i, zero), nus[i])
                if prod == 0:
                    break
            total += prod
    return total


def test_buk_surjective_pairs_match_all_pairs():
    for k in (1, 2, 3):
        small = [p for s in (1, 2) for p in _partitions_of(s, k, s)]
        ends = (small[0], small[-1])
        nonzero = 0
        for lam in [(p,) for p in small] + [ends, ends[::-1]]:
            for mu in [ends[1:], ends]:
                size = sum(map(sum, lam + mu))
                # every target length, including those no placement pair fills
                sizes = [c for c in compositions_of(size) if len(c) <= len(lam) + len(mu) + 1]
                for c in sizes:
                    for nu in product(*(_partitions_of(s, k, s) for s in c)):
                        got = buk_structure_constant(lam, mu, nu, k)
                        assert got == _buk_all_pairs(lam, mu, nu, k), (k, lam, mu, nu)
                        nonzero += got > 0
        assert nonzero > 0, k


def test_buk_agrees_with_generic_engine():
    ring = schur_ring(3)
    lam = ((1, 0, 0), (2, 1, 0))
    mu = ((2, 1, 0),)
    expansion = qsym_r_product(lam, mu, ring, 3)
    assert expansion[((2, 1, 0), (1, 0, 0), (2, 1, 0))] == 1
    for nu_tuple, coeff in expansion.items():
        assert buk_structure_constant(lam, mu, nu_tuple, 3) == coeff
    assert expansion == qsym_r_product_shuffle(lam, mu, ring)


def test_buk_agrees_with_generic_engine_random():
    rng = random.Random(2718)
    k = 2
    ring = schur_ring(k)
    partitions = [p for s in range(1, 5) for p in _partitions_of(s, k, s)]
    for _ in range(10):
        lam = tuple(rng.choice(partitions) for _ in range(rng.randint(1, 2)))
        mu = tuple(rng.choice(partitions) for _ in range(rng.randint(1, 2)))
        n = len(lam) + len(mu)
        expansion = qsym_r_product(lam, mu, ring, n)
        assert expansion, (lam, mu)
        for nu_tuple, coeff in expansion.items():
            assert buk_structure_constant(lam, mu, nu_tuple, k) == coeff, (
                lam,
                mu,
                nu_tuple,
            )


def test_partitions_of_comes_in_decreasing_lexicographic_order():
    for total, k, bound in product(range(8), range(5), range(9)):
        expected = sorted(
            (
                p
                for p in product(range(min(total, bound) + 1), repeat=k)
                if sum(p) == total and all(a >= b for a, b in zip(p, p[1:]))
            ),
            reverse=True,
        )
        assert list(_partitions_of(total, k, bound)) == expected, (total, k, bound)


def test_schur_ring_of_many_parts():
    # the partition walk keeps no Python frame per part
    k = 1500
    one, two, pair = (1,) + (0,) * (k - 1), (2,) + (0,) * (k - 1), (1, 1) + (0,) * (k - 2)
    assert qsym_r_product((one,), (one,), schur_ring(k), 2) == {
        (two,): Fraction(1),
        (pair,): Fraction(1),
        (one, one): Fraction(2),
    }


def test_schur_ring_respects_grading():
    ring = schur_ring(3)
    out = ring.product((1, 0, 0), (2, 1, 0))
    assert out
    for nu, coeff in out.items():
        assert sum(nu) == 4
        assert coeff == Fraction(int(coeff))


def test_schur_ring_products_are_exact_in_every_degree():
    # degree 12: a ring that dropped high-degree products would lose every
    # key but the unmerged tensor, in both engine routes alike
    ring = schur_ring(3)
    lam = ((3, 2, 1),)
    expansion = qsym_r_product(lam, lam, ring, 2)
    assert expansion == {
        ((6, 4, 2),): 1,
        ((6, 3, 3),): 1,
        ((5, 5, 2),): 1,
        ((5, 4, 3),): 2,
        ((4, 4, 4),): 1,
        ((3, 2, 1), (3, 2, 1)): 2,
    }
    assert expansion == qsym_r_product_shuffle(lam, lam, ring)
    for nu_tuple, coeff in expansion.items():
        assert buk_structure_constant(lam, lam, nu_tuple, 3) == coeff


@pytest.mark.parametrize(
    "label", ["21", [2, 1], (2.0, 1), (True, False), (1, 2), (2, -1), (2, 1, 0), (2,)]
)
def test_schur_ring_takes_only_partition_tuples(label):
    ring = schur_ring(2)
    assert not ring.contains(label)
    with pytest.raises(UnknownLabelError):
        qsym_r_product((label,), ((1, 0),), ring, 2)


def test_a_negative_content_fills_no_tableau():
    # (3, -1) sums to the two cells, and once gave three tableaux
    with pytest.raises(InvalidCompositionError):
        ssyt_enumerate(SkewShape((2,), (0,)), (3, -1))
