import random
from itertools import chain, product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from glidekit.compositions import paddings, run_encode, semistandardize, sorting_data
from glidekit.errors import InvalidCompositionError, NotInCSetError, OutOfRangeError
from glidekit.compositions import _pack
from glidekit.glides import (
    GLIDE_METHODS,
    _barred_fields,
    _barred_strings,
    _closed_terms,
    _inflations,
    _move_closure,
    _run_factor,
    check_binomial_identity,
    enumerate_C,
    enumerate_C_tilde,
    glide_m_expansion,
    glide_polynomial,
    monomial_glide_weak,
    mu_closed,
    mu_prime,
)
from glidekit.ktheory import is_quasisymmetric
from glidekit.poset import atoms, build_poset, join
from glidekit.poly import SparsePoly
from glidekit.qsym import m_to_polynomial, polynomial_to_m

from conftest import all_compositions, strings


def test_enumerate_C_paper_examples():
    expected = strings(
        "0013", "0103", "0130", "1003", "1030", "1300",
        "0113", "1103", "1013", "1130", "1113", "1330",
        "0133", "1033", "1303", "1133", "1333",
    )
    assert enumerate_C((1, 3), 4) == expected
    assert enumerate_C((1, 1), 3) == strings("011", "101", "110", "111")
    assert enumerate_C((2,), 1) == {(2,)}


def test_enumerate_C_accepts_lists():
    assert enumerate_C([1, 3], 4) == enumerate_C((1, 3), 4)
    with pytest.raises(OutOfRangeError):
        enumerate_C([1, 3], 1)


def test_enumerate_C_tilde_paper_examples():
    expected = set(atoms((1, 3), 4)) | {
        (0, 1, -1, 3), (1, -1, 0, 3), (1, 0, -1, 3), (1, -1, 3, 0),
        (1, -1, -1, 3), (1, 3, -3, 0), (0, 1, 3, -3), (1, 0, 3, -3),
        (1, 3, 0, -3), (1, -1, 3, -3), (1, 3, -3, -3),
    }
    assert enumerate_C_tilde((1, 3), 4) == expected
    assert enumerate_C_tilde((1, 1), 3) == set(atoms((1, 1), 3)) | {
        (1, -1, 1), (1, 1, -1)
    }
    assert enumerate_C_tilde((1,), 1) == {(1,)}


def test_enumerate_C_tilde_accepts_lists_and_bounds_its_cache():
    enumerate_C_tilde.cache_clear()
    assert enumerate_C_tilde([1, 3], 4) == enumerate_C_tilde((1, 3), 4)
    info = enumerate_C_tilde.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert info.maxsize is not None
    with pytest.raises(InvalidCompositionError):
        enumerate_C_tilde([1, 0], 3)
    with pytest.raises(OutOfRangeError):
        enumerate_C_tilde([1, 3], 1)
    enumerate_C_tilde.cache_clear()
    assert enumerate_C_tilde.cache_info().currsize == 0


def _move_closure_unbarred(alpha, n):
    """Oracle: literal closure of the paddings under the unbarred moves."""
    seen = set(atoms(alpha, n))
    frontier = list(seen)
    while frontier:
        s = frontier.pop()
        for i in range(len(s) - 1):
            if s[i] == 0 and s[i + 1] > 0:
                p = s[i + 1]
                for repl in ((p, 0), (p, p)):
                    t = s[:i] + repl + s[i + 2:]
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
    return seen


def test_enumerate_C_matches_move_closure_oracle():
    for alpha in all_compositions(5):
        if not alpha:
            continue
        for n in range(len(alpha), len(alpha) + 3):
            assert enumerate_C(alpha, n) == _move_closure_unbarred(alpha, n), (alpha, n)


def _signed_barred_closure(seeds):
    """Reference: breadth-first closure of the seed strings under M.1 and
    M.2, on tuples, each string's sign counted off its own bars."""
    seen = set(seeds)
    layer = list(seen)
    while layer:
        found = []
        for s in layer:
            for i in range(len(s) - 1):
                if s[i] == 0 and s[i + 1] > 0:
                    p = s[i + 1]
                    for repl in ((p, 0), (p, -p)):
                        t = s[:i] + repl + s[i + 2:]
                        if t not in seen:
                            seen.add(t)
                            found.append(t)
        layer = found
    return {t: (-1) ** sum(1 for x in t if x < 0) for t in seen}


def _decoded_closure(seeds, n):
    """The packed move closure of the seed strings, each string decoded."""
    s, shifts = _barred_fields(max(chain.from_iterable(seeds), default=0), n)
    signed = _move_closure([_pack(t, shifts) for t in seeds], s, shifts)
    return dict(zip(_barred_strings(signed, s, shifts), signed.values()))


def _check_barred_route(alpha, n):
    reference = _signed_barred_closure(atoms(alpha, n))
    signed = _decoded_closure(sorted(atoms(alpha, n)), n)
    assert signed.keys() == reference.keys()
    assert signed == reference
    assert enumerate_C_tilde(alpha, n) == reference.keys()
    projection = {}
    for t, sign in reference.items():
        s = tuple(abs(x) for x in t)
        projection[s] = projection.get(s, 0) + sign
    # the glide keeps the nonzero coefficients, in ascending string order
    expected = [(s, c) for s, c in sorted(projection.items()) if c]
    assert list(glide_polynomial(alpha, n, "barred").terms.items()) == expected
    for s, c in projection.items():
        assert mu_prime(s, alpha, n) == c, s
    padded = (0,) * (n - len(alpha)) + alpha
    weak = _signed_barred_closure([padded])
    assert _decoded_closure([padded], n) == weak
    assert list(monomial_glide_weak(padded).terms.items()) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alpha=st.sampled_from(all_compositions(5)))
def test_signed_closure_matches_its_definition(data, alpha):
    n = data.draw(st.integers(len(alpha), len(alpha) + 2), label="n")
    _check_barred_route(alpha, n)
    for sigma, value in build_poset(alpha, n).mobius().items():
        assert mu_prime(sigma, alpha, n) == value, sigma


# a field holds a part's bits, a bar bit and a guard bit; one part of 63 or
# less leaves a field of at most 8 bits, and 64, 256 and 1000 each take one
# more bit than the part below them
_WIDTH_EDGES = (1, 2, 3, 4, 7, 8, 63, 64, 127, 128, 255, 256, 1000)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.lists(st.one_of(st.integers(1, 4), st.sampled_from(_WIDTH_EDGES)), max_size=3),
    data=st.data(),
)
@example(alpha=[], data=None)
@example(alpha=[1], data=None)
@example(alpha=[63, 1], data=None)
@example(alpha=[64, 1], data=None)
@example(alpha=[2, 255], data=None)
@example(alpha=[256, 3], data=None)
@example(alpha=[1000, 1000], data=None)
def test_packed_barred_closure_decodes_to_the_tuple_closure(alpha, data):
    alpha = tuple(alpha)
    if data is None:
        ns = range(len(alpha), len(alpha) + 3)
    else:
        ns = [data.draw(st.integers(len(alpha), len(alpha) + 3), label="n")]
    for n in ns:
        _check_barred_route(alpha, n)
        if n:
            # an entry above every part is in no string of the closure
            assert mu_prime((max(alpha, default=0) + 1,) + (0,) * (n - 1), alpha, n) == 0


@pytest.mark.parametrize("n", [0, 1])
def test_barred_route_at_zero_and_one_slot(n):
    expected = {(): 1} if n == 0 else {(0,): 1}
    assert dict(glide_polynomial((), n, "barred").terms) == expected
    assert enumerate_C_tilde((), n) == {(0,) * n}
    assert mu_prime((0,) * n, (), n) == 1
    if n == 1:
        for part in (1, 63, 64, 255, 256, 1000):
            assert dict(glide_polynomial((part,), 1, "barred").terms) == {(part,): 1}
            assert enumerate_C_tilde((part,), 1) == {(part,)}
            assert mu_prime((part,), (part,), 1) == 1
            assert mu_prime((part + 1,), (part,), 1) == 0


def test_mu_prime_values():
    assert mu_prime((1, 1, 1), (1, 1), 3) == -2
    assert mu_prime((0, 0, 1, 3), (1, 3), 4) == 1
    assert mu_prime((1, 1, 3, 3), (1, 3), 4) == 1
    # off the closure the extension is zero
    assert mu_prime((1, 3, 1, 3), (1, 3), 4) == 0


def test_mu_closed_values():
    assert mu_closed((0, 1, 1, 3), (1, 3)) == -1
    assert mu_closed((1, 1, 1), (1, 1)) == -2
    for a in atoms((2, 1, 2), 5):
        assert mu_closed(a, (2, 1, 2)) == 1
    with pytest.raises(NotInCSetError):
        mu_closed((1, 3, 1, 3), (1, 3))
    with pytest.raises(NotInCSetError):
        mu_closed((3, 1, 0), (1, 3))


def test_mu_closed_refuses_a_block_shorter_than_its_run():
    # the run values match, but (0, 1) holds the value 1 once where (1, 1)
    # holds it twice
    with pytest.raises(NotInCSetError, match="too few entries"):
        mu_closed((0, 1), (1, 1))


def test_glide_polynomial_unit_and_single_part():
    for n in range(4):
        assert glide_polynomial((), n) == SparsePoly.one(n)
    got = glide_polynomial((1,), 3)
    expected = SparsePoly(
        3,
        {
            (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
            (1, 1, 0): -1, (1, 0, 1): -1, (0, 1, 1): -1,
            (1, 1, 1): 1,
        },
    )
    assert got == expected


def test_glide_methods_agree_small_sweep():
    for alpha in all_compositions(4):
        for n in range(len(alpha), len(alpha) + 3):
            polys = [glide_polynomial(alpha, n, m) for m in GLIDE_METHODS]
            assert polys[0] == polys[1] == polys[2], (alpha, n)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), alpha=st.sampled_from(all_compositions(5)), cold=st.booleans())
def test_glide_routes_agree_property(data, alpha, cold):
    n = data.draw(st.integers(len(alpha), 6), label="n")
    if cold:
        # the closed route reads its terms, and on a miss the run
        # inflations, from caches, and the barred route its signed closure;
        # the routes must agree whatever earlier examples left in them
        _closed_terms.cache_clear()
        _inflations.cache_clear()
        enumerate_C_tilde.cache_clear()
    polys = [glide_polynomial(alpha, n, m) for m in GLIDE_METHODS]
    assert polys[0] == polys[1] == polys[2]
    # the poset route is an uncached oracle; the closed glide and the C set
    # share one cache entry, and a warm call repeats it item for item
    closed = polys[GLIDE_METHODS.index("closed")]
    assert enumerate_C(alpha, n) == frozenset(closed.terms)
    assert list(glide_polynomial(alpha, n, "closed").terms.items()) == list(closed.terms.items())


def test_barred_glide_terms_come_in_ascending_order():
    # the order in which the closure finds the strings, which once started
    # from the paddings' frozenset, must not show through; the two frozenset
    # layouts of the paddings differ on part of this range
    layouts_differ = 0
    for alpha in all_compositions(5):
        pads = list(paddings(alpha, 7))
        layouts_differ += list(frozenset(pads)) != list(frozenset(set(pads)))
        for n in range(len(alpha), 8):
            terms = list(glide_polynomial(alpha, n, "barred").terms)
            assert terms == sorted(terms), (alpha, n)
    assert layouts_differ


def test_glide_polynomial_rejects_bad_input():
    with pytest.raises(OutOfRangeError):
        glide_polynomial((1, 2), 1)
    with pytest.raises(OutOfRangeError):
        glide_polynomial((1,), 2, "magic")


def test_mobius_vanishes_off_C_small_sweep():
    for alpha in all_compositions(4):
        if not alpha:
            continue
        for n in range(len(alpha), len(alpha) + 3):
            p = build_poset(alpha, n)
            mu = p.mobius()
            c_set = enumerate_C(alpha, n)
            for sigma in p.elements:
                if sigma not in c_set:
                    assert mu[sigma] == 0, (alpha, n, sigma)


def test_glide_polynomial_is_quasisymmetric():
    for alpha in all_compositions(4):
        for n in range(len(alpha), len(alpha) + 3):
            assert is_quasisymmetric(glide_polynomial(alpha, n), n), (alpha, n)


def test_lowest_degree_part_is_monomial_truncation():
    for alpha in all_compositions(4):
        if not alpha:
            continue
        for n in range(len(alpha), len(alpha) + 3):
            g = glide_polynomial(alpha, n)
            d = min(sum(e) for e in g.terms)
            assert d == sum(alpha)
            lowest = SparsePoly(n, {e: c for e, c in g.terms.items() if sum(e) == d})
            assert lowest == m_to_polynomial(alpha, n)


def test_stability_under_last_variable_to_zero():
    for alpha in [(1, 3), (2,), (1, 1)]:
        for n in range(len(alpha), len(alpha) + 3):
            bigger = glide_polynomial(alpha, n + 1)
            assert bigger.restrict(n) == glide_polynomial(alpha, n)


def test_monomial_glide_weak_examples():
    assert monomial_glide_weak((0, 0, 1, 3)) == glide_polynomial((1, 3), 4)
    assert monomial_glide_weak((1, 3)) == SparsePoly.monomial((1, 3))
    assert monomial_glide_weak((0, 1)) == SparsePoly(
        2, {(0, 1): 1, (1, 0): 1, (1, 1): -1}
    )


def test_monomial_glide_weak_padded_identity_sweep():
    for alpha in all_compositions(4):
        if not alpha:
            continue
        for n in range(len(alpha), len(alpha) + 3):
            padded = (0,) * (n - len(alpha)) + alpha
            assert monomial_glide_weak(padded) == glide_polynomial(alpha, n)


def test_glide_m_expansion_triangular():
    for alpha in [(1,), (1, 1), (2, 1), (1, 3)]:
        coords = glide_m_expansion(alpha, sum(alpha) + 4)
        assert coords[alpha] == 1
        assert all(sum(g) > sum(alpha) for g in coords if g != alpha)
        # coefficients agree with the closed formula on any padding
        for g, c in coords.items():
            assert mu_closed(g, alpha) == c


def test_glide_m_expansion_matches_poset_route():
    # in D variables every composition of size at most D is visible, so the
    # poset-route glide read in the monomial basis and cut at degree D must
    # give the closed-form expansion
    for alpha in all_compositions(5):
        for D in range(max(sum(alpha), 1), 8):
            coords = polynomial_to_m(glide_polynomial(alpha, D, "poset"), D).coords
            truncated = {g: c for g, c in coords.items() if sum(g) <= D}
            assert glide_m_expansion(alpha, D) == truncated, (alpha, D)
    assert glide_m_expansion((2, 1), 2) == {}
    # a negative bound is a bad size, not an empty expansion
    with pytest.raises(OutOfRangeError):
        glide_m_expansion((), -1)


def test_inflations_come_in_lexicographic_order_of_run_sizes():
    # the reference: every run-size vector within the slack, in the order
    # itertools.product lists them, which is lexicographic
    for alpha in all_compositions(5):
        runs = run_encode(alpha)
        for length, degree in product(range(len(alpha), 9), range(sum(alpha), 12)):
            expected = []
            for sizes in product(*[range(m, length + 1) for _, m in runs]):
                gamma = tuple(v for (v, _), size in zip(runs, sizes) for _ in range(size))
                if len(gamma) <= length and sum(gamma) <= degree:
                    expected.append((gamma, prod(map(_run_factor, sizes, (m for _, m in runs)))))
            assert _inflations(alpha, length, degree) == tuple(expected), (alpha, length, degree)


def test_check_binomial_identity():
    assert check_binomial_identity(3, 3)
    assert check_binomial_identity(1, 4)
    assert check_binomial_identity(2, 5)
    with pytest.raises(OutOfRangeError):
        check_binomial_identity(4, 3)
    with pytest.raises(OutOfRangeError):
        check_binomial_identity(0, 3)


def test_semistandardization_preserves_C_membership():
    # joins of standardized subsets that land in the closure come back into
    # the closure after semistandardizing
    rng = random.Random(20240817)
    for alpha in [(2, 1, 3, 1), (1, 1, 2), (2, 2), (3, 1, 3)]:
        data = sorting_data(alpha)
        beta = data.beta
        for n in range(len(alpha), len(alpha) + 3):
            s_beta = sorted(atoms(beta, n))
            c_beta = enumerate_C(beta, n)
            c_alpha = enumerate_C(alpha, n)
            for _ in range(50):
                size = rng.randint(1, min(4, len(s_beta)))
                subset = rng.sample(s_beta, size)
                j = subset[0]
                for t in subset[1:]:
                    j = join(j, t)
                if j in c_beta:
                    des_set = [semistandardize(t, alpha) for t in subset]
                    d = des_set[0]
                    for t in des_set[1:]:
                        d = join(d, t)
                    assert d in c_alpha, (alpha, n, subset)
