import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from glidekit.compositions import paddings
from glidekit.errors import (
    GlidekitError,
    InputFileError,
    InvalidCompositionError,
    MalformedInputError,
    NotQuasisymmetricError,
    OutOfRangeError,
    UnknownLabelError,
)
from glidekit.glides import glide_polynomial
from glidekit.ktheory import is_quasisymmetric
from glidekit.poly import SparsePoly
from glidekit.qsym import (
    GradedRingData,
    QSymElement,
    _slot_product,
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
    # every placement present, but a negative exponent is no composition part
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
    scale=_COEFFS,
)
@example(slots=[{"a": Fraction(1, 2)}, {}, {"b": Fraction(1, 2)}], scale=Fraction(3))
@example(slots=[], scale=Fraction(3))
@example(slots=[{"a": Fraction(1, 2), "b": Fraction(2)}, {"c": Fraction(1, 2)}], scale=Fraction(1))
def test_slot_product_matches_prefix_expansion(slots, scale):
    expected = _reference_slot_expansion(slots, scale)
    assert list(_slot_product(slots, scale)) == list(expected.items())


def test_overlapping_shuffle_examples():
    assert overlapping_shuffle((3,), (1, 3)) == {
        (3, 1, 3): 1,
        (1, 3, 3): 2,
        (4, 3): 1,
        (1, 6): 1,
    }
    assert overlapping_shuffle((2, 1), ()) == {(2, 1): 1}
    assert overlapping_shuffle((1,), (1,)) == {(1, 1): 2, (2,): 1}


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


def test_glide_structure_constants_examples():
    assert glide_structure_constants((1,), (1,), 2) == {
        (2,): Fraction(1),
        (1, 1): Fraction(2),
    }
    assert glide_structure_constants((), (1, 2), 4) == {(1, 2): Fraction(1)}


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
            for key, c in _slot_product(slots, c1 * c2):
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
        (dict(RING_JSON, constants={"q": {"1": {"1": "1"}}}), UnknownLabelError),
        (dict(RING_JSON, constants={"x": {"x": {"x2": "1/0"}}}), MalformedInputError),
        (dict(RING_JSON, counit={"1": "abc"}), MalformedInputError),
        ([RING_JSON], MalformedInputError),
    ],
    ids=[
        "empty",
        "basis-not-a-list",
        "entry-without-label",
        "degree-not-an-integer",
        "constants-unknown-factor",
        "coefficient-over-zero",
        "counit-not-rational",
        "top-level-list",
    ],
)
def test_graded_ring_data_errors_are_typed(data, error):
    with pytest.raises(error) as info:
        GradedRingData.from_dict(data)
    assert isinstance(info.value, GlidekitError)


def test_graded_ring_file_errors_are_typed(tmp_path):
    with pytest.raises(InputFileError):
        GradedRingData.from_json_file(tmp_path / "missing.json")
    path = tmp_path / "ring.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedInputError):
        GradedRingData.from_json_file(path)


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
