import copy
import json
import pickle
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from glidekit import poset
from glidekit.compositions import closure
from glidekit.errors import InvalidCompositionError, LengthMismatchError, OutOfRangeError
from glidekit.glides import enumerate_C
from glidekit.poset import (
    _BYTE_FILL_VALUES,
    BOTTOM,
    GlidePoset,
    _byte_tables,
    _element_tables,
    atoms,
    build_poset,
    join,
    leq,
)

from conftest import all_compositions, pairwise_closure, strings


def test_atoms_paper_examples():
    assert atoms((1, 3), 4) == strings("0013", "0103", "0130", "1003", "1030", "1300")
    assert atoms((1,), 1) == {(1,)}
    assert atoms((1, 1), 3) == strings("011", "101", "110")


def test_atom_count_is_binomial():
    for alpha in all_compositions(6):
        for n in range(len(alpha), 8):
            assert len(atoms(alpha, n)) == comb(n, len(alpha))


def test_atoms_rejects_short_strings():
    with pytest.raises(OutOfRangeError):
        atoms((1, 3), 1)
    with pytest.raises(OutOfRangeError):
        build_poset((2, 1), 1)


def test_build_poset_paper_examples():
    p = build_poset((1, 3), 4)
    expected = strings(
        "0013", "0103", "0130", "1003", "1030", "1300",
        "0113", "1103", "1013", "1130", "1113", "1330",
        "0133", "1033", "1303", "1133", "1313", "1333",
    )
    assert set(p.elements) == expected
    assert len(p) == 18

    p11 = build_poset((1, 1), 3)
    assert set(p11.elements) == strings("011", "101", "110", "111")

    assert set(build_poset((2,), 1).elements) == {(2,)}


def test_join_examples():
    assert join((0, 1, 0, 3), (0, 1, 3, 0)) == (0, 1, 3, 3)
    assert join((1, 0, 1, 3), (1, 1, 3, 0)) == (1, 1, 3, 3)
    p = (1, 0, 3, 0)
    assert join(p, p) == p
    with pytest.raises(LengthMismatchError):
        join((1, 0), (1, 0, 0))


def test_meet_examples():
    p = build_poset((1, 3), 4)
    assert p.meet((1, 1, 0, 3), (1, 0, 1, 3)) == (1, 0, 0, 3)
    assert p.meet((1, 0, 1, 3), (1, 1, 3, 0)) is BOTTOM
    assert p.meet((1, 1, 1, 3), (1, 1, 1, 3)) == (1, 1, 1, 3)
    with pytest.raises(OutOfRangeError):
        p.meet((1, 1, 1, 1), (1, 0, 0, 3))
    # not join-closed: (0, 1) and (1, 0) are incomparable common lower bounds
    q = GlidePoset(2, [(0, 1), (1, 0), (2, 1), (1, 2)])
    assert q.meet((2, 1), (1, 0)) == (1, 0)
    with pytest.raises(OutOfRangeError, match=r"\(2, 1\) and \(1, 2\) have no meet"):
        q.meet((2, 1), (1, 2))


def test_closure_under_join():
    for alpha in [(1, 3), (1, 1), (2, 1, 2), (1, 2)]:
        p = build_poset(alpha, len(alpha) + 2)
        elements = set(p.elements)
        for a in elements:
            for b in elements:
                assert join(a, b) in elements


def _naive_minimal(p):
    """The elements with no other element below them, by leq alone."""
    return {e for e in p.elements if not any(q != e and leq(q, e) for q in p.elements)}


def test_minimal_elements_are_the_atoms():
    for alpha in [(1, 3), (2, 2), (1, 2, 1)]:
        p = build_poset(alpha, len(alpha) + 2)
        assert _naive_minimal(p) == set(p.atom_set)


def test_atom_set_of_build_poset_is_the_paddings():
    for alpha in all_compositions(5):
        for n in range(len(alpha), len(alpha) + 3):
            assert build_poset(alpha, n).atom_set == atoms(alpha, n), (alpha, n)


def test_mobius_paper_values():
    p = build_poset((1, 3), 4)
    mu = p.mobius()
    assert mu[(1, 3, 1, 3)] == 0
    assert mu[(1, 1, 1, 3)] == 1
    assert mu[(0, 1, 1, 3)] == -1
    assert all(mu[a] == 1 for a in p.atom_set)

    p11 = build_poset((1, 1), 3)
    assert p11.mobius()[(1, 1, 1)] == -2


def test_mobius_defining_recurrence():
    for alpha in [(1, 3), (1, 1), (2, 1), (1, 1, 2)]:
        p = build_poset(alpha, len(alpha) + 2)
        mu = p.mobius()
        for top in p.elements:
            assert sum(mu[q] for q in p.elements if leq(q, top)) == 1


def _traditional_mobius(p):
    """Interval recurrence on the bottom-augmented poset, as an oracle."""
    order = sorted(p.elements, key=lambda e: (sum(e), e))
    mu_hat = {}
    for x in order:
        mu_hat[x] = -1 - sum(mu_hat[q] for q in order if q != x and leq(q, x))
    return mu_hat


def test_mobius_negates_traditional_convention():
    for alpha in all_compositions(5):
        if not alpha:
            continue
        for n in range(len(alpha), len(alpha) + 3):
            p = build_poset(alpha, n)
            mu = p.mobius()
            mu_hat = _traditional_mobius(p)
            assert all(mu[x] == -mu_hat[x] for x in p.elements)


def test_crosscut_matches_recurrence_where_feasible():
    # the subset-enumeration oracle is exponential in the atom count, so the
    # pointwise comparison runs wherever the atom count stays small
    for alpha in all_compositions(6):
        for n in range(len(alpha), 8):
            if comb(n, len(alpha)) > 12:
                continue
            p = build_poset(alpha, n)
            mu = p.mobius()
            for sigma in p.elements:
                assert p.mobius_crosscut(sigma) == mu[sigma], (alpha, n, sigma)


def test_crosscut_on_atoms_and_known_values():
    p = build_poset((1, 1), 3)
    assert p.mobius_crosscut((1, 1, 1)) == -2
    for a in p.atom_set:
        assert p.mobius_crosscut(a) == 1


def test_covers_small_poset():
    p = build_poset((1, 1), 3)
    idx = {e: i for i, e in enumerate(p.elements)}
    top = (1, 1, 1)
    expected = sorted(
        (idx[a], idx[top]) for a in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    )
    assert p.covers() == expected


def test_is_lattice_with_bottom():
    assert build_poset((1, 3), 4).is_lattice_with_bottom()
    assert build_poset((2,), 1).is_lattice_with_bottom()
    assert build_poset((2, 1, 2), 5).is_lattice_with_bottom()
    not_closed = GlidePoset(2, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert not not_closed.is_lattice_with_bottom()


_UNORDERABLE = [
    # before the check these two gave the cover cycle [(0, 1), (1, 0)]
    ([(0, -1), (0, 0)], InvalidCompositionError),
    ([(0, 0, 1), (0, 0, 0)], LengthMismatchError),
    ([(0,), (0, 0)], LengthMismatchError),
    ([(0, 1.0)], InvalidCompositionError),
    ([(0, True)], InvalidCompositionError),
    ([(0, Fraction(1))], InvalidCompositionError),
    ([5], InvalidCompositionError),
]


@pytest.mark.parametrize(
    "elements, error",
    _UNORDERABLE,
    # the ids of the rows' earlier three-column form, which recorded test lists name
    ids=[f"elements{i}-atom_set{i}-{error.__name__}" for i, (_, error) in enumerate(_UNORDERABLE)],
)
def test_glide_poset_refuses_strings_it_cannot_order(elements, error):
    with pytest.raises(error):
        GlidePoset(2, elements)


def test_glide_poset_counts_a_repeated_element_once():
    p = GlidePoset(2, [(0, 1), (1, 1), (0, 1)])
    assert p.elements == ((0, 1), (1, 1))
    assert p.covers() == [(0, 1)]
    assert p.mobius() == {(0, 1): 1, (1, 1): 0}


def test_element_order_deterministic():
    a = build_poset((1, 2), 4)
    b = build_poset((1, 2), 4)
    assert a.elements == b.elements
    assert list(a.elements) == sorted(a.elements)


# Naive references for the bitset order queries.  They use only componentwise
# max and leq, never the poset's own tables, so they stay independent of the
# code they check.


def _naive_covers(p):
    """Pairs x < y with no element strictly between them, by leq alone."""
    out = []
    for j, y in enumerate(p.elements):
        below = [(i, x) for i, x in enumerate(p.elements) if x != y and leq(x, y)]
        for i, x in below:
            if not any(z != x and leq(x, z) for _, z in below):
                out.append((i, j))
    return sorted(out)


def _naive_meets(p):
    """Meet of every pair by leq alone: the common lower bound that all the
    others lie below, BOTTOM when there is no common lower bound, and None
    when the common lower bounds have no greatest one."""
    lower = {y: {x for x in p.elements if leq(x, y)} for y in p.elements}
    out = {}
    for x in p.elements:
        for y in p.elements:
            common = lower[x] & lower[y]
            greatest = [w for w in common if common <= lower[w]]
            out[x, y] = greatest[0] if greatest else None if common else BOTTOM
    return out


def _check_meets(p):
    for (x, y), m in _naive_meets(p).items():
        if m is None:
            with pytest.raises(OutOfRangeError, match="have no meet"):
                p.meet(x, y)
        else:
            assert p.meet(x, y) == m, (x, y)


def _check_against_references(alpha, n):
    p = build_poset(alpha, n)
    assert set(p.elements) == pairwise_closure(atoms(alpha, n), max), (alpha, n)
    assert p.covers() == _naive_covers(p), (alpha, n)
    _check_meets(p)
    return p


def _pairwise_is_lattice_with_bottom(p):
    """The pairwise check the join-irreducible test replaced: every pair of
    distinct elements has its join in the poset, and its common lower
    bounds, if any, have a greatest one."""
    for x, y in combinations(p.elements, 2):
        if join(x, y) not in p:
            return False
        common = [z for z in p.elements if leq(z, x) and leq(z, y)]
        if common and not any(all(leq(z, w) for z in common) for w in common):
            return False
    return True


def test_lattice_check_matches_pairwise_reference_on_glide_rows():
    # the string posets of |alpha| <= 6, n <= 7 with at most 40 elements
    checked = 0
    for alpha in all_compositions(6):
        for n in range(len(alpha), 8):
            p = build_poset(alpha, n)
            if len(p) <= 40:
                assert p.is_lattice_with_bottom() is _pairwise_is_lattice_with_bottom(p) is True
                checked += 1
    assert checked == 202


@st.composite
def small_string_sets(draw):
    """Any set of equal-length strings with entries at most 2, closed under
    join or (mostly) not."""
    n = draw(st.integers(0, 4))
    elements = set(draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=12)))
    if draw(st.booleans()):
        elements = pairwise_closure(elements, max)
    return GlidePoset(n, elements)


@settings(max_examples=300, deadline=None)
@given(p=small_string_sets())
@example(p=GlidePoset(2, [(0, 1), (1, 0), (1, 2), (2, 1)]))
@example(p=GlidePoset(2, [(0, 1), (1, 0)]))
@example(p=GlidePoset(0, [()]))
@example(p=GlidePoset(1, []))
def test_lattice_check_matches_pairwise_reference_on_hand_built_sets(p):
    assert p.is_lattice_with_bottom() is _pairwise_is_lattice_with_bottom(p)
    assert p.is_lattice_with_bottom() is (pairwise_closure(p.elements, max) == set(p.elements))


@settings(max_examples=300, deadline=None)
@given(p=small_string_sets())
@example(p=GlidePoset(2, [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)]))
def test_crosscut_matches_mobius_on_join_closed_hand_built_sets(p):
    assume(pairwise_closure(p.elements, max) == set(p.elements))
    mu = p.mobius()
    for sigma in p.elements:
        if sum(1 for a in p.atom_set if leq(a, sigma)) <= 12:
            assert p.mobius_crosscut(sigma) == mu[sigma], sigma


def test_lattice_check_stops_at_the_first_string_outside_the_poset(monkeypatch):
    # the axis strings v * e_i for v <= 3 at n = 10: their join-closure holds
    # every nonzero string with entries at most 3, 4**10 - 1 of them
    n = 10
    p = GlidePoset(n, [tuple(v * (k == i) for k in range(n)) for i in range(n) for v in (1, 2, 3)])
    drawn = []

    def counted(generators, pick):
        for s in closure(generators, pick):
            drawn.append(s)
            yield s

    monkeypatch.setattr(poset, "closure", counted)
    assert p.is_lattice_with_bottom() is _pairwise_is_lattice_with_bottom(p) is False
    assert 0 < len(drawn) <= len(p) + 1


def test_order_queries_match_naive_references():
    for alpha in all_compositions(4):
        for n in range(len(alpha), 7):
            _check_against_references(alpha, n)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    extra=st.integers(0, 3),
)
def test_order_queries_property(alpha, extra):
    n = len(alpha) + extra
    p = _check_against_references(alpha, n)
    mu = p.mobius()
    mu_hat = _traditional_mobius(p)
    assert list(mu) == sorted(p.elements, key=lambda e: (sum(e), e))
    assert all(mu[x] == -mu_hat[x] for x in p.elements)
    for sigma in p.elements:
        if sum(1 for a in p.atom_set if leq(a, sigma)) <= 12:
            assert p.mobius_crosscut(sigma) == mu[sigma], (alpha, n, sigma)


# (elements, covers, nonzero mu) of the largest posets of the |alpha| <= 6,
# n <= 7 sweep, and of (3,1,2) at n = 8 and 9
_HEAVY_TAIL = {
    ((3, 1, 2), 7): (787, 2788, 351),
    ((2, 1, 3), 7): (787, 2788, 351),
    ((3, 1, 2), 8): (3204, 13828, 1023),
    ((3, 1, 2), 9): (12900, 65484, 2815),
}


@pytest.mark.parametrize(
    "alpha, n", list(_HEAVY_TAIL), ids=["alpha0", "alpha1", "alpha0-n8", "alpha0-n9"]
)
def test_heavy_tail_instances(alpha, n):
    elements, covers, nonzero_mu = _HEAVY_TAIL[alpha, n]
    p = build_poset(alpha, n)
    mu = p.mobius()
    assert len(p) == elements
    assert len(p.covers()) == covers
    nonzero = {s for s, v in mu.items() if v}
    assert len(nonzero) == nonzero_mu
    assert nonzero == enumerate_C(alpha, n)
    assert p.is_lattice_with_bottom()


# Hand-built posets: any set of equal-length tuples, not only closed string
# posets.  A layered fan (an antichain of k elements, an antichain of m above
# all of it, and one element on top) gives mu = 1 - k in the middle and
# (k - 1)(m - 1) on top, so |mu| spans several binary digits of both signs.


def _fan(n, k, m, lift):
    """The layered fan in the first two coordinates, the rest set to lift."""
    rest = (lift,) * (n - 2)
    low = {(i, k - 1 - i) + rest for i in range(k)}
    middle = {(k + j, k + m - 1 - j) + rest for j in range(m)}
    return low | middle | {(k + m, k + m) + rest}


@st.composite
def hand_built_posets(draw):
    n = draw(st.integers(1, 4))
    # entries on both sides of 256, the first value no byte holds
    entries = st.one_of(st.integers(0, 12), st.sampled_from([254, 255, 256, 2**16]))
    elements = set(draw(st.lists(st.tuples(*[entries] * n), max_size=20)))
    if n >= 2 and draw(st.booleans()):
        elements |= _fan(n, draw(st.integers(1, 40)), draw(st.integers(0, 4)), draw(entries))
    return GlidePoset(n, elements)


def _check_kernels(p):
    mu = p.mobius()
    assert list(mu) == sorted(p.elements, key=lambda e: (sum(e), e))
    assert mu == {x: -v for x, v in _traditional_mobius(p).items()}
    for top in p.elements:
        assert sum(mu[q] for q in p.elements if leq(q, top)) == 1, top
    assert p.covers() == _naive_covers(p)
    return mu


def test_fan_reaches_several_bit_planes_of_both_signs():
    # k = 38 antichain elements give mu = -37 (binary 100101) in the middle,
    # and m = 3 middle elements give 37 * 2 = 74 on top
    mu = _check_kernels(GlidePoset(3, _fan(3, 38, 3, 1)))
    assert min(mu.values()) == -37
    assert max(mu.values()) == 74


@settings(max_examples=100, deadline=None)
@given(p=hand_built_posets())
@example(p=GlidePoset(2, _fan(2, 33, 2, 0)))
@example(p=GlidePoset(0, [()]))
@example(p=GlidePoset(1, []))
def test_kernels_match_references_on_hand_built_posets(p):
    _check_kernels(p)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(small_string_sets(), hand_built_posets()))
@example(p=GlidePoset(2, _fan(2, 33, 2, 0)))
def test_atom_set_is_the_minimal_elements(p):
    assert p.atom_set == _naive_minimal(p)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(small_string_sets(), hand_built_posets()))
def test_meet_matches_the_greatest_common_lower_bound(p):
    _check_meets(p)


# The order tables come from one byte matrix when the entries take at most
# ``_BYTE_FILL_VALUES`` distinct values (an entry of 256 or more replaced by
# its rank) and are filled one element at a time otherwise.  A map of the
# entry values that keeps their order keeps the lex order of the elements,
# so it keeps the downsets, the covers and the Mobius values of each index;
# and wherever both fills can run, they give the same tables.


def _relabelled(p, value):
    return GlidePoset(p.n, [tuple(map(value, e)) for e in p.elements])


def _check_same_order(p, q, value):
    """q is p relabelled by the order-keeping ``value``."""
    assert q.elements == tuple(tuple(map(value, e)) for e in p.elements)
    assert q._downsets == p._downsets
    assert q.covers() == p.covers()
    assert q.mobius() == {tuple(map(value, s)): v for s, v in p.mobius().items()}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_poset_tables_are_the_same_above_and_below_256(n):
    small, large = build_poset((2, 1, 3), n), build_poset((300, 1, 700), n)
    assert max(map(max, small.elements)) < 256 <= max(map(max, large.elements))
    _check_same_order(small, large, {0: 0, 1: 1, 2: 300, 3: 700}.__getitem__)


# a chain of 300 one-part strings, which the byte matrix cannot hold, and
# four columns of 200 values each, the most translations per element
_CHAIN = GlidePoset(1, [(v,) for v in range(300)])
_WIDE = GlidePoset(4, {(i % 200, i * 7 % 200, i * 13 % 200, i // 15) for i in range(3000)})


@settings(max_examples=100, deadline=None)
@given(p=st.one_of(small_string_sets(), hand_built_posets()))
@example(p=_CHAIN)
@example(p=_WIDE)
@example(p=GlidePoset(0, [()]))
@example(p=GlidePoset(2, []))
# neighbours in lex order that first differ at each coordinate in turn
@example(p=GlidePoset(3, [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1), (2, 0, 0)]))
def test_order_tables_keep_to_the_order_of_the_entries(p):
    # v + 256 sends every entry past a byte, and the rank of v among the
    # entries brings every value of a poset of at most 256 values into one
    _check_same_order(p, _relabelled(p, (256).__add__), (256).__add__)
    rank = {v: r for r, v in enumerate(sorted({v for e in p.elements for v in e}))}
    _check_same_order(p, _relabelled(p, rank.__getitem__), rank.__getitem__)
    if len(rank) <= 256:
        _check_fills_agree(p)


def _check_fills_agree(p):
    """Both fills give the same tables, and ``_downsets`` is their AND over
    all n coordinates, element by element."""
    values = sorted({v for e in p.elements for v in e})
    tables = _byte_tables(p.elements, p.n, values)
    assert tables == _element_tables(p.elements, p.n, values)
    full = (1 << len(p)) - 1
    expected = [full] * len(p)
    for k, e in enumerate(p.elements):
        for table, v in zip(tables, e):
            expected[k] &= table[v]
    assert p._downsets == expected
    return values


@pytest.mark.parametrize(
    "p, byte_fill",
    [
        (_WIDE, False),
        (build_poset((3, 1, 2), 6), True),
        (build_poset((300, 1, 700), 4), True),
        (GlidePoset(2, [(v, 300 - v) for v in range(0, 300, 4)]), False),
    ],
    ids=["wide", "string-poset", "string-poset-over-256", "many-values-over-256"],
)
def test_byte_and_element_fills_give_the_same_tables(p, byte_fill):
    # the fill is chosen by the number of distinct entry values alone
    values = _check_fills_agree(p)
    assert (len(values) <= _BYTE_FILL_VALUES) is byte_fill


GLIDE_ROWS = Path(__file__).resolve().parent.parent / "perfbench/data/glide_sweep.json"


def test_downsets_are_the_and_per_coordinate_on_the_glide_rows():
    rows = json.loads(GLIDE_ROWS.read_text(encoding="utf-8"))["instances"]
    assert len(rows) == 320
    for row in rows:
        _check_fills_agree(build_poset(tuple(row["alpha"]), row["n"]))


def test_chain_across_256_has_the_chain_order():
    assert _CHAIN.covers() == [(k, k + 1) for k in range(299)]
    assert _CHAIN.mobius() == {(v,): int(v == 0) for v in range(300)}
    assert _CHAIN._downsets == [(1 << (k + 1)) - 1 for k in range(300)]


def test_membership_follows_the_string_rule():
    p = build_poset((1,), 2)
    assert (1, 0) in p and [1, 0] in p and iter([0, 1]) in p
    # a bool or a float is no part, and a string of another length no element
    for value in [(True, 0), (1.0, 0), (1, 0, 0), (2, 0), (1,), 5, None, "10", [[1], 0]]:
        assert value not in p, value


def test_poset_cannot_be_changed_after_it_is_built():
    p = build_poset((1, 2), 3)
    mu = p.mobius()
    assert len(mu) == 5
    for name, value in [("n", 4), ("elements", p.elements[:2]), ("_index", {})]:
        with pytest.raises(AttributeError):
            setattr(p, name, value)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.mobius() == mu and p.n == 3 and len(p) == 5
    # the order tables and the atoms fill once, on their first query
    atoms_found = p.atom_set
    for name in ("_downsets", "atom_set"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.atom_set == atoms_found and p.mobius() == mu


def test_posets_compare_and_hash_by_value():
    p = build_poset((1, 2), 3)
    q = build_poset((1, 2), 3)
    assert p == q and hash(p) == hash(q)
    assert p != build_poset((1, 2), 4) and p != build_poset((2, 1), 3)
    # a queried poset equals an unqueried one: the memos are not compared
    p.mobius(), p.atom_set
    by_hand = GlidePoset(3, reversed(p.elements))
    assert by_hand == p == q and hash(by_hand) == hash(p)
    assert p in {q} and len({p, q, by_hand}) == 1


@pytest.mark.parametrize("queried", [False, True])
def test_poset_pickles_and_copies(queried):
    p = build_poset((1, 2), 3)
    expected = (build_poset((1, 2), 3).mobius(), build_poset((1, 2), 3).covers())
    if queried:
        p.mobius(), p.atom_set
    for copier in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        got = copier(p)
        assert got == p and hash(got) == hash(p)
        assert got.n == p.n and got.elements == p.elements
        assert (got.mobius(), got.covers()) == expected
        assert got.atom_set == p.atom_set
        with pytest.raises(AttributeError):
            got.elements = ()
