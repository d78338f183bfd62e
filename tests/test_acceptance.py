"""Acceptance suite: every criterion checked exactly, one pass/fail line each.

All comparisons are exact (integers and rationals throughout); run with -s to
see the per-criterion lines.
"""

import random
import re
from ast import literal_eval
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from glidekit.glides import (
    check_binomial_identity,
    enumerate_C,
    glide_polynomial,
)
from glidekit.ktheory import (
    KRingElement,
    chern_series_coeffs,
    chern_substitute,
    is_quasisymmetric,
    knutson_class,
)
from glidekit.errors import NotQuasisymmetricError
from glidekit.poly import SparsePoly
from glidekit.poset import BOTTOM, build_poset, join
from glidekit.qsym import (
    QSymElement,
    _group_by_positive_part,
    m_multiply,
    m_to_polynomial,
    polynomial_to_m,
    qsym_r_product,
)
from glidekit.schur import (
    _partitions_of,
    buk_structure_constant,
    grassmannian_to_partition,
    lr_coefficient,
    schur_ring,
)

from conftest import all_compositions, all_paddings, assert_box_is_image


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


HASSE_COVERS_13 = {
    ("0013", "0113"), ("0013", "1013"), ("0103", "0113"), ("0103", "1103"),
    ("0130", "1130"), ("0130", "0133"), ("1003", "1103"), ("1003", "1013"),
    ("1030", "1130"), ("1030", "1033"), ("1300", "1330"), ("1300", "1303"),
    ("0113", "0133"), ("0113", "1113"), ("1103", "1113"), ("1103", "1303"),
    ("1013", "1113"), ("1013", "1033"), ("1130", "1330"), ("1130", "1133"),
    ("1113", "1133"), ("1113", "1313"), ("1330", "1333"), ("0133", "1133"),
    ("1033", "1133"), ("1303", "1313"), ("1133", "1333"), ("1313", "1333"),
}

MOBIUS_13 = {
    "0013": 1, "0103": 1, "0130": 1, "1003": 1, "1030": 1, "1300": 1,
    "0113": -1, "1103": -1, "1013": -1, "1130": -1,
    "1113": 1, "1330": -1, "0133": -1, "1033": -1, "1303": -1,
    "1133": 1, "1313": 0, "1333": 1,
}

GLIDE_13_TERMS = {
    tuple(int(c) for c in word): coeff
    for word, coeff in MOBIUS_13.items()
    if coeff
}


@pytest.fixture(scope="module")
def glide_sweep():
    """Posets, Mobius tables, move closures, and glide polynomials for the
    full sweep |alpha| <= 6, len(alpha) <= n <= 7."""
    data = {}
    for alpha in all_compositions(6):
        for n in range(len(alpha), 8):
            poset = build_poset(alpha, n)
            data[(alpha, n)] = {
                "poset": poset,
                "mobius": poset.mobius(),
                "c_set": enumerate_C(alpha, n),
            }
    return data


@pytest.fixture(scope="module")
def kclass_sweep():
    """Knutson classes and matching glide reductions for |alpha| <= 5,
    len(alpha) <= n <= 6, max(alpha) <= m <= 5."""
    instances = []
    for alpha in all_compositions(5):
        lo_m = max(alpha) if alpha else 1
        for n in range(len(alpha), 7):
            glide = glide_polynomial(alpha, n)
            for m in range(lo_m, 6):
                instances.append((alpha, n, m, knutson_class(alpha, n, m), glide))
    return instances


def test_criterion_01_poset_fixtures():
    with criterion(1, "poset on (1,3), n=4: 18 elements, covers, meets and joins"):
        p = build_poset((1, 3), 4)
        assert len(p) == 18
        covers = {
            (
                "".join(map(str, p.elements[i])),
                "".join(map(str, p.elements[j])),
            )
            for i, j in p.covers()
        }
        assert covers == HASSE_COVERS_13
        assert join((0, 1, 0, 3), (0, 1, 3, 0)) == (0, 1, 3, 3)
        assert p.meet((1, 1, 0, 3), (1, 0, 1, 3)) == (1, 0, 0, 3)
        assert p.meet((1, 0, 1, 3), (1, 1, 3, 0)) is BOTTOM


def test_criterion_02_mobius_fixtures():
    with criterion(2, "Mobius values via recurrence and crosscut oracle"):
        p = build_poset((1, 3), 4)
        mu = p.mobius()
        for word, value in MOBIUS_13.items():
            sigma = tuple(int(c) for c in word)
            assert mu[sigma] == value
            assert p.mobius_crosscut(sigma) == value
        p11 = build_poset((1, 1), 3)
        assert p11.mobius()[(1, 1, 1)] == -2
        assert p11.mobius_crosscut((1, 1, 1)) == -2


def test_criterion_03_glide_three_way_equality(glide_sweep):
    with criterion(3, "poset, barred, closed glide methods agree on the full sweep"):
        for (alpha, n), data in glide_sweep.items():
            from_poset = SparsePoly(n, dict(data["mobius"].items()))
            from_barred = glide_polynomial(alpha, n, "barred")
            from_closed = glide_polynomial(alpha, n, "closed")
            assert from_poset == from_barred == from_closed, (alpha, n)
        assert glide_polynomial((1, 3), 4) == SparsePoly(4, GLIDE_13_TERMS)


def test_criterion_04_mobius_vanishing_off_closure(glide_sweep):
    with criterion(4, "Mobius vanishes off the move closure on the full sweep"):
        for (alpha, n), data in glide_sweep.items():
            c_set = data["c_set"]
            for sigma, value in data["mobius"].items():
                if sigma not in c_set:
                    assert value == 0, (alpha, n, sigma)


def test_criterion_05_shuffle_product_oracle():
    with criterion(5, "monomial product matches polynomial multiplication, sizes <= 7"):
        comps = all_compositions(7)
        for alpha in comps:
            for beta in comps:
                if sum(alpha) + sum(beta) > 7:
                    continue
                n = len(alpha) + len(beta) + 1
                product = m_multiply(
                    QSymElement.monomial(alpha), QSymElement.monomial(beta)
                )
                direct = m_to_polynomial(alpha, n) * m_to_polynomial(beta, n)
                expanded = SparsePoly.zero(n)
                for gamma, c in product.coords.items():
                    expanded = expanded + m_to_polynomial(gamma, n).scale(c)
                assert direct == expanded, (alpha, beta)
        paper = m_multiply(QSymElement.monomial((3,)), QSymElement.monomial((1, 3)))
        assert paper.coords == {
            (3, 1, 3): 1,
            (1, 3, 3): 2,
            (4, 3): 1,
            (1, 6): 1,
        }


def test_criterion_06_ktheory_main_identity(kclass_sweep):
    with criterion(6, "Knutson classes equal reduced glides; truncations compatible"):
        for alpha, n, m, kclass, glide in kclass_sweep:
            assert kclass.poly == KRingElement(glide, m).poly, (alpha, n, m)
        # restriction maps drop variables and clip exponents, so they compose
        # mechanically; with that, agreement of every instance against the
        # (6, 5) corner covers every (n, m) <= (N, M) pair of the sweep
        corners = {
            alpha: kclass for alpha, n, m, kclass, _ in kclass_sweep if (n, m) == (6, 5)
        }
        for alpha, n, m, kclass, _ in kclass_sweep:
            assert corners[alpha].restrict(n, m).poly == kclass.poly, (alpha, n, m)
        sample = corners[(1, 3)]
        assert (
            sample.restrict(5, 4).restrict(4, 3).poly == sample.restrict(4, 3).poly
        )


def chern_rows(kclass_sweep):
    """(alpha, n, m, kclass, Chern image) for each row of ``kclass_sweep``.
    Each image is computed when its row is reached and let go after it, so
    a test walking the rows holds one image at a time, not all 515."""
    for alpha, n, m, kclass, _ in kclass_sweep:
        yield alpha, n, m, kclass, chern_substitute(kclass)


def test_criterion_07_chern_substitution(kclass_sweep):
    with criterion(7, "Chern images quasisymmetric; series coefficients exact"):
        for m in range(1, 6):
            coeffs = chern_series_coeffs(m)
            for j in range(1, m + 1):
                assert coeffs[j] == Fraction((-1) ** (j + 1), factorial(j))
        for alpha, n, m, _, chern in chern_rows(kclass_sweep):
            assert is_quasisymmetric(chern, n), (alpha, n, m)


def test_chern_image_box_is_its_terms(kclass_sweep):
    for alpha, n, m, _, chern in chern_rows(kclass_sweep):
        assert_box_is_image(chern, n)


def test_chern_image_readers_check_each_other(kclass_sweep):
    # the box reader and the grouping reader, on a box-less copy, must give
    # the same coordinates in the same order.  The copy is built with
    # ``_trusted`` from a plain dict of the terms, which were checked when
    # the image was built; the image's own view would bring its box along
    for alpha, n, m, kclass, chern in chern_rows(kclass_sweep):
        coords, failed = _group_by_positive_part(SparsePoly._trusted(n, chern.terms.copy()), n)
        assert failed is None, (alpha, n, m)
        assert chern.terms._slice_check(), (alpha, n, m)
        boxed = chern.terms._read_placements()
        assert list(boxed.items()) == list(coords.items()), (alpha, n, m)
        if n < 2:
            continue
        # y_n alone is not quasisymmetric, and the Chern map carries that to
        # the image: x_n gains a coefficient that x_(n-1) does not.  Only the
        # last pair of axes breaks, which the slice check compares block by
        # block at n = 2 and by strided slices from n = 3 on, so the sweep
        # reaches both branches.  The slice check must refuse the image, and
        # so must ``is_quasisymmetric``, which falls back on the grouping
        # reader, as ``polynomial_to_m`` does.  The composition named in
        # ``polynomial_to_m``'s error, the grouping reader's first failure,
        # must have placements that really carry more than one coefficient
        terms = dict(kclass.poly.terms)
        y_n = (0,) * (n - 1) + (1,)
        terms[y_n] = terms.get(y_n, 0) + 1
        broken = chern_substitute(KRingElement(SparsePoly(n, terms), m))
        assert not broken.terms._slice_check(), (alpha, n, m)
        assert not is_quasisymmetric(broken, n), (alpha, n, m)
        with pytest.raises(NotQuasisymmetricError) as raised:
            polynomial_to_m(broken, n)
        named = re.search(r"placements of (\(.*\)) do not", str(raised.value))
        failed = literal_eval(named[1])
        assert len({broken.terms.get(p) for p in all_paddings(failed, n)}) > 1, (alpha, n, m)


def test_criterion_08_tableau_fixtures():
    with criterion(8, "tableau coefficient fixtures and the Grassmannian dictionary"):
        assert lr_coefficient((2, 1, 0), (2, 1, 0), (3, 2, 1)) == 2
        lam = ((1, 0, 0), (2, 1, 0))
        mu = ((2, 1, 0),)
        assert buk_structure_constant(lam, mu, ((2, 1, 0), (1, 0, 0), (2, 1, 0)), 3) == 1
        assert buk_structure_constant(lam, mu, ((1, 0, 0), (2, 1, 0), (2, 1, 0)), 3) == 2
        assert buk_structure_constant(lam, lam, ((1, 0, 0), (1, 0, 0), (3, 2, 1)), 3) == 4
        assert grassmannian_to_partition((1, 2, 4, 6, 9, 3, 5, 7, 8), 5) == (4, 2, 1, 0, 0)


def test_criterion_09_cross_engine_equivalence():
    with criterion(9, "tableau rule equals the generic tensor engine, incl. random"):
        ring3 = schur_ring(3)
        lam = ((1, 0, 0), (2, 1, 0))
        mu = ((2, 1, 0),)
        for target, expected in [
            (((2, 1, 0), (1, 0, 0), (2, 1, 0)), 1),
            (((1, 0, 0), (2, 1, 0), (2, 1, 0)), 2),
        ]:
            expansion = qsym_r_product(lam, mu, ring3, 3)
            assert expansion[target] == expected
            assert buk_structure_constant(lam, mu, target, 3) == expected
        expansion = qsym_r_product(lam, lam, ring3, 4)
        target = ((1, 0, 0), (1, 0, 0), (3, 2, 1))
        assert expansion[target] == 4 == buk_structure_constant(lam, lam, target, 3)

        rng = random.Random(31415)
        checked = 0
        while checked < 20:
            k = rng.choice((2, 3))
            ring = schur_ring(k)
            partitions = [p for s in range(1, 6) for p in _partitions_of(s, k, s)]
            lam_t = tuple(rng.choice(partitions) for _ in range(rng.randint(1, 2)))
            mu_t = tuple(rng.choice(partitions) for _ in range(rng.randint(1, 2)))
            if sum(map(sum, lam_t)) + sum(map(sum, mu_t)) > 10:
                continue
            n = len(lam_t) + len(mu_t)
            expansion = qsym_r_product(lam_t, mu_t, ring, n)
            assert expansion, (lam_t, mu_t)
            for nu_tuple, coeff in expansion.items():
                assert (
                    buk_structure_constant(lam_t, mu_t, nu_tuple, k) == coeff
                ), (lam_t, mu_t, nu_tuple)
            # off-support targets must vanish in the tableau rule as well
            absent = tuple(rng.choice(partitions) for _ in range(n))
            if absent not in expansion:
                assert buk_structure_constant(lam_t, mu_t, absent, k) == 0
            checked += 1


def test_criterion_10_binomial_identity():
    with criterion(10, "telescoping binomial identity for all 1 <= N <= l <= 12"):
        for l in range(1, 13):
            for N in range(1, l + 1):
                assert check_binomial_identity(N, l), (N, l)
