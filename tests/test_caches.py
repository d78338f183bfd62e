"""The package's caches: every one is bounded, and none changes a result.

The caches are found the way the benchmark's ``clear_caches`` finds them:
every module-level object with a ``cache_clear``.
"""

import importlib
import pickle
import pkgutil
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product

import pytest

import glidekit
from glidekit import glides, qsym, schur
from glidekit.errors import (
    InvalidCompositionError,
    MalformedInputError,
    OutOfRangeError,
    UnknownLabelError,
)
from glidekit.glides import (
    enumerate_C,
    enumerate_C_tilde,
    glide_m_expansion,
    glide_polynomial,
    mu_prime,
)
from glidekit.qsym import (
    GradedRingData,
    QSymElement,
    cpinf_ring,
    glide_element,
    glide_structure_constants,
    m_multiply,
    overlapping_shuffle,
    qsym_r_product,
)
from glidekit.schur import buk_structure_constant, lr_coefficient, schur_ring

from conftest import all_compositions


def _module_caches():
    modules = [glidekit] + [
        importlib.import_module(f"glidekit.{info.name}")
        for info in pkgutil.iter_modules(glidekit.__path__)
    ]
    found = {}
    for module in modules:
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)):
                found[f"{module.__name__}.{name}"] = obj
    return found


def test_every_cache_is_bounded():
    caches = _module_caches()
    assert caches["glidekit.schur._lr"] is schur._lr
    assert caches["glidekit.glides._inflations"] is glides._inflations
    assert caches["glidekit.glides._closed_terms"] is glides._closed_terms
    assert caches["glidekit.glides._c_tilde"] is glides._c_tilde
    assert caches["glidekit.qsym._glide_element"] is qsym._glide_element
    assert caches["glidekit.qsym._glide_constants"] is qsym._glide_constants
    assert caches["glidekit.qsym._r_expansion"] is qsym._r_expansion
    assert caches["glidekit.qsym._overlapping_shuffle"] is qsym._overlapping_shuffle
    assert caches["glidekit.schur._schur_ring"] is schur._schur_ring
    # the public barred closure reports and resets the signed closure's cache
    assert enumerate_C_tilde.cache_info.__self__ is glides._c_tilde
    assert enumerate_C_tilde.cache_clear.__self__ is glides._c_tilde
    assert "glidekit.cli.build_parser" in caches
    for name, cached in caches.items():
        maxsize = cached.cache_info().maxsize
        assert type(maxsize) is int and maxsize > 0, name


# a ``from_dict`` ring, built once so every call hands the engine one ring
_LOADED = GradedRingData.from_dict(
    {
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "x", "degree": 1},
            {"label": "y", "degree": 1},
            {"label": "x2", "degree": 2},
            {"label": "xy", "degree": 2},
        ],
        "constants": {"x": {"x": {"x2": "1/2"}, "y": {"xy": "3", "x2": "-1/3"}}},
    }
)


def _cold_then_warm(cached, call):
    """The call's result on an empty cache, then again served by the cache."""
    cached.cache_clear()
    cold = call()
    hits = cached.cache_info().hits
    warm = call()
    assert cached.cache_info().hits > hits
    return cold, warm


@pytest.mark.parametrize(
    "cached, call",
    [
        # dicts as item lists, so their order is compared too
        (glides._inflations, lambda: list(glide_m_expansion((1, 2, 2), 8).items())),
        # a warm closed glide never reaches the inflations, so these two
        # rows read the closed-glide cache that serves them
        (glides._closed_terms, lambda: list(enumerate_C((2, 1, 1), 5))),
        (
            glides._closed_terms,
            lambda: list(glide_polynomial((1, 3, 1), 5, "closed").terms.items()),
        ),
        # the barred glide, the barred C set and mu_prime read one signed
        # closure
        (
            glides._c_tilde,
            lambda: list(glide_polynomial((1, 3, 1), 5, "barred").terms.items()),
        ),
        (glides._c_tilde, lambda: sorted(enumerate_C_tilde((2, 1, 1), 5))),
        (glides._c_tilde, lambda: mu_prime((1, 1, 1, 2), (1, 1, 2), 4)),
        # the glide ring's elements and its structure-constant tables
        (qsym._glide_element, lambda: list(glide_element((1, 2, 2), 8).coords.items())),
        (
            qsym._glide_constants,
            lambda: list(glide_structure_constants((2, 1), (1, 1), 6).items()),
        ),
        # one product cache serves every tableau ring; a warm tensor engine
        # never reaches the ring, so this row asks the rings themselves
        (
            schur._schur_product,
            lambda: [
                list(schur_ring(len(a)).product(a, b).items())
                for a, b in [((1, 0), (2, 1)), ((1, 0, 0), (2, 1, 0))]
            ],
        ),
        # the tensor engine's expansions, over each kind of ring
        (qsym._r_expansion, lambda: list(qsym_r_product((1, 2), (2, 1), cpinf_ring(), 4).items())),
        (
            qsym._r_expansion,
            lambda: list(qsym_r_product(((1, 0), (1, 0)), ((2, 1),), schur_ring(2), 3).items()),
        ),
        (qsym._r_expansion, lambda: list(qsym_r_product(("x", "y"), ("x",), _LOADED, 3).items())),
        # the shuffle tables, read as they are by the monomial product
        (
            qsym._overlapping_shuffle,
            lambda: list(
                m_multiply(
                    QSymElement({(1, 2): Fraction(1, 2), (2,): -1}),
                    QSymElement({(2, 1): 3, (1,): Fraction(2, 3)}),
                ).coords.items()
            ),
        ),
        (qsym._overlapping_shuffle, lambda: list(overlapping_shuffle((2, 1), (1, 2)).items())),
    ],
    ids=[
        "glide_m_expansion",
        "enumerate_C",
        "closed-glide",
        "barred-glide",
        "enumerate_C_tilde",
        "mu_prime",
        "glide_element",
        "glide_structure_constants",
        "schur-ring-product",
        "r-product-cpinf",
        "r-product-schur",
        "r-product-from-dict",
        "m_multiply",
        "overlapping_shuffle",
    ],
)
def test_inflation_cache_leaves_results_unchanged(cached, call):
    cold, warm = _cold_then_warm(cached, call)
    assert cold == warm


@pytest.mark.parametrize(
    "call",
    [
        lambda: lr_coefficient((2, 1, 0), (2, 1, 0), (3, 2, 1)),
        lambda: lr_coefficient((3, 2, 1), (2, 1, 0), (4, 3, 2)),
        lambda: buk_structure_constant([(1, 0)], [(1, 0), (1, 1)], [(2, 0), (1, 1)], 2),
    ],
    ids=["lr", "lr-larger", "buk"],
)
def test_lr_cache_leaves_results_unchanged(call):
    cold, warm = _cold_then_warm(schur._lr, call)
    assert cold == warm > 0


def test_changing_a_result_leaves_the_next_call_unchanged():
    first = glide_m_expansion((1, 2), 6)
    expected = dict(first)
    first[(9,)] = 5
    del first[(1, 2)]
    assert glide_m_expansion((1, 2), 6) == expected

    poly = glide_polynomial((1, 2), 4, "closed")
    expected = list(poly.terms.items())
    expected_c = list(enumerate_C((1, 2), 4))
    # the terms are read-only, so every write raises
    with pytest.raises(AttributeError):
        poly.terms.clear()
    with pytest.raises(TypeError):
        poly.terms[(0, 0, 0, 9)] = 1
    assert list(glide_polynomial((1, 2), 4, "closed").terms.items()) == expected
    assert list(enumerate_C((1, 2), 4)) == expected_c

    # the shared cached values themselves cannot be changed
    assert type(glides._inflations((1, 2), 4, 8)) is tuple
    cached = glides._closed_terms((1, 2), 4)
    with pytest.raises(TypeError):
        cached[(0, 0, 0, 9)] = 1
    assert list(cached.items()) == expected

    # the barred closure is cached packed, each string one int, in a frozen
    # record whose signs are a read-only view
    cached = glides._c_tilde((1, 2), 4)
    barred = cached.signs
    expected = list(barred.items())
    s, shifts = glides._barred_fields(2, 4)
    assert (cached.s, cached.shifts) == (s, shifts)
    packed = glides._pack((0, 0, 2, 2), shifts)
    assert packed not in barred
    first = next(iter(barred))
    with pytest.raises(TypeError):
        barred[packed] = 1
    with pytest.raises(TypeError):
        barred[first] = -barred[first]
    with pytest.raises(TypeError):
        del barred[first]
    with pytest.raises(AttributeError):
        barred.clear()
    for field, value in (("signs", {packed: 1}), ("s", 5), ("shifts", range(0))):
        with pytest.raises(FrozenInstanceError):
            setattr(cached, field, value)
    assert glides._c_tilde((1, 2), 4) is cached
    assert list(glides._c_tilde((1, 2), 4).signs.items()) == expected
    decoded = dict(zip(glides._barred_strings(barred, s, shifts), barred.values()))
    assert enumerate_C_tilde((1, 2), 4) == frozenset(decoded)
    # the decoded strings are kept with the closure, one frozenset
    c_tilde = enumerate_C_tilde((1, 2), 4)
    assert c_tilde is cached.strings
    with pytest.raises(AttributeError):
        c_tilde.add((0, 0, 0, 9))
    assert enumerate_C_tilde((1, 2), 4) == frozenset(decoded)

    # the structure constants are a fresh dict over a read-only cached table
    constants = glide_structure_constants((1, 2), (1,), 5)
    expected = list(constants.items())
    constants[(9,)] = Fraction(5)
    del constants[(1, 1, 2)]
    assert list(glide_structure_constants((1, 2), (1,), 5).items()) == expected

    # the engine's expansion is a fresh dict over a read-only cached table
    for t, k, ring in [((1, 2), (1,), cpinf_ring()), (((1, 0),), ((1, 0),), schur_ring(2))]:
        expansion = qsym_r_product(t, k, ring, 3)
        expected = list(expansion.items())
        first = next(iter(expansion))
        expansion[first] += 1
        expansion[("z",)] = Fraction(5)
        del expansion[first]
        assert list(qsym_r_product(t, k, ring, 3).items()) == expected
        with pytest.raises(TypeError):
            qsym._r_expansion(t, k, ring, 3)[first] = Fraction(1)

    # the shuffle is a fresh dict over a read-only cached table
    shuffle = overlapping_shuffle((1, 2), (1,))
    expected = list(shuffle.items())
    shuffle[(1, 1, 2)] += 1
    shuffle[(9,)] = 5
    del shuffle[(2, 2)]
    assert list(overlapping_shuffle((1, 2), (1,)).items()) == expected
    with pytest.raises(TypeError):
        qsym._overlapping_shuffle((1, 2), (1,))[(9,)] = 5
    with pytest.raises(AttributeError):
        qsym._overlapping_shuffle((1, 2), (1,)).clear()

    # a glide element is shared, and its coordinates cannot be changed
    element = glide_element((1, 2), 5)
    expected = list(element.coords.items())
    with pytest.raises(TypeError):
        element.coords[(9,)] = Fraction(1)
    with pytest.raises(AttributeError):
        element.coords.clear()
    assert glide_element((1, 2), 5) is element
    assert list(glide_element((1, 2), 5).coords.items()) == expected


def test_ring_products_cannot_be_changed_by_a_caller():
    tableaux = schur_ring(2)
    loaded = GradedRingData.from_dict(
        {
            "basis": [
                {"label": "1", "degree": 0},
                {"label": "x", "degree": 1},
                {"label": "x2", "degree": 2},
            ],
            "constants": {"x": {"x": {"x2": "1"}}},
        }
    )
    for ring, label in [(tableaux, (1, 0)), (loaded, "x")]:
        before = qsym_r_product((label,), (label,), ring, 2)
        with pytest.raises(TypeError):
            ring.multiply(label, label)[label] = 1
        assert qsym_r_product((label,), (label,), ring, 2) == before


def test_a_refused_product_leaves_the_ring_cache_unchanged():
    # the labels are checked before the shared product cache is reached
    ring = schur_ring(2)
    ring.product((1, 0), (1, 0))
    size = schur._schur_product.cache_info().currsize
    for a, b in [((1, 0, 0), (1, 0, 0)), ((2, 1), (0, 1)), ((1, 0), "x")]:
        with pytest.raises(UnknownLabelError):
            ring.product(a, b)
    assert schur._schur_product.cache_info().currsize == size


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: glide_element((True,), 1), InvalidCompositionError),
        (lambda: glide_element((1.0,), 1), InvalidCompositionError),
        (lambda: glide_element((1,), True), OutOfRangeError),
        (lambda: glide_structure_constants((True,), (1,), 1), InvalidCompositionError),
        (lambda: glide_structure_constants((1,), (1.0,), 1), InvalidCompositionError),
        (lambda: glide_structure_constants((1,), (1,), True), OutOfRangeError),
    ],
    ids=["bool-part", "float-part", "bool-bound", "bool-alpha", "float-beta", "bool-degree"],
)
def test_the_glide_caches_refuse_what_equals_a_cached_int_key(call, error):
    # True == 1 == 1.0 and their hashes agree, so only the checks before
    # the caches keep these from being served the int entries
    glide_element((1,), 1)
    glide_structure_constants((1,), (1,), 1)
    caches = (qsym._glide_element, qsym._glide_constants)
    sizes = [cached.cache_info().currsize for cached in caches]
    with pytest.raises(error):
        call()
    assert [cached.cache_info().currsize for cached in caches] == sizes


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: qsym_r_product((True,), (1,), cpinf_ring(), 2), UnknownLabelError),
        (lambda: qsym_r_product((1,), (True,), cpinf_ring(), 2), UnknownLabelError),
        (lambda: qsym_r_product((1,), (1,), cpinf_ring(), True), OutOfRangeError),
    ],
    ids=["bool-theta", "bool-kappa", "bool-n"],
)
def test_the_engine_cache_refuses_what_equals_a_cached_int_key(call, error):
    # the labels and n are checked before the cache, which would serve
    # these from the entry for ((1,), (1,), ring, 2)
    qsym_r_product((1,), (1,), cpinf_ring(), 2)
    size = qsym._r_expansion.cache_info().currsize
    with pytest.raises(error):
        call()
    assert qsym._r_expansion.cache_info().currsize == size


@pytest.mark.parametrize(
    "alpha, beta", [((True,), (1,)), ((1,), (True,)), ((1.0,), (1,)), ((1,), (1.0,))]
)
def test_the_shuffle_cache_refuses_what_equals_a_cached_int_key(alpha, beta):
    # both compositions are checked before the cache, which would serve
    # these from the entry for ((1,), (1,))
    overlapping_shuffle((1,), (1,))
    size = qsym._overlapping_shuffle.cache_info().currsize
    with pytest.raises(InvalidCompositionError):
        overlapping_shuffle(alpha, beta)
    assert qsym._overlapping_shuffle.cache_info().currsize == size


def test_a_shuffle_over_the_cap_is_returned_but_not_kept():
    recursion = qsym._overlapping_shuffle.__wrapped__
    ones = (1,) * 7
    assert len(recursion(ones, ones)) == 610 > qsym._SHUFFLE_CACHE_CAP
    # the largest table two compositions of total size 10 give is kept
    largest = max(
        (recursion(a, b) for a in all_compositions(10) for b in all_compositions(10 - sum(a))),
        key=len,
    )
    assert len(largest) == 146 <= qsym._SHUFFLE_CACHE_CAP
    qsym._overlapping_shuffle.cache_clear()
    overlapping_shuffle((2,), (1,))
    for _ in range(2):
        big = overlapping_shuffle(ones, ones)
        assert list(big.items()) == list(recursion(ones, ones).items())
        # each call is a miss, and no entry is added
        assert qsym._overlapping_shuffle.cache_info().currsize == 1
    product = m_multiply(QSymElement.monomial(ones), QSymElement.monomial(ones))
    assert list(product.coords.items()) == [(g, Fraction(c)) for g, c in big.items()]
    info = qsym._overlapping_shuffle.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 4, 1)


class _UnhashableProduct:
    __hash__ = None

    def __call__(self, a, b):
        return {a + b: 1}


def test_only_equal_rings_share_an_expansion():
    base = cpinf_ring()
    doubled = GradedRingData(0, base.degree, lambda a, b: {a + b: 2}, base.contains)
    tripled = GradedRingData(0, base.degree, lambda a, b: {a + b: 3}, base.contains)
    qsym._r_expansion.cache_clear()
    answers = [qsym_r_product((1,), (1,), ring, 2)[(2,)] for ring in (base, doubled, tripled)]
    assert answers == [1, 2, 3]
    assert qsym._r_expansion.cache_info().currsize == 3
    # a ring built from the same fields is the same ring, and is served
    same = GradedRingData(0, base.degree, base.multiply, base.contains)
    assert same == base and same is not base
    hits = qsym._r_expansion.cache_info().hits
    assert qsym_r_product((1,), (1,), same, 2)[(2,)] == 1
    assert qsym._r_expansion.cache_info().hits == hits + 1
    # a ring is hashed by its fields, so a field that cannot be hashed is refused
    with pytest.raises(MalformedInputError):
        GradedRingData(0, base.degree, _UnhashableProduct(), base.contains)


_RING_DATA = {
    "basis": [
        {"label": "1", "degree": 0},
        {"label": "x", "degree": 1},
        {"label": "x2", "degree": 2},
    ],
    "constants": {"x": {"x": {"x2": "1/2"}}},
}


def test_loads_of_equal_data_are_one_ring():
    first, second = (GradedRingData.from_dict(_RING_DATA) for _ in range(2))
    assert first == second and hash(first) == hash(second) and first is not second
    # a second load is served the first load's expansion
    qsym._r_expansion.cache_clear()
    expected = {("x", "x"): Fraction(2), ("x2",): Fraction(1, 2)}
    assert qsym_r_product(("x",), ("x",), first, 2) == expected
    assert qsym_r_product(("x",), ("x",), second, 2) == expected
    info = qsym._r_expansion.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # a pickled ring is still the same ring, and still multiplies
    copied = pickle.loads(pickle.dumps(first))
    assert copied == first and hash(copied) == hash(first)
    assert copied.multiply("x", "x") == {"x2": Fraction(1, 2)}
    assert (copied.degree("x2"), copied.contains("x2"), copied.contains(2)) == (2, True, False)


@pytest.mark.parametrize(
    "changes",
    [
        # another constant, another degree, one more label, another unit
        {"constants": {"x": {"x": {"x2": "1/3"}}}},
        {
            "basis": [
                {"label": "1", "degree": 0},
                {"label": "x", "degree": 2},
                {"label": "x2", "degree": 4},
            ]
        },
        {"basis": _RING_DATA["basis"] + [{"label": "y", "degree": 1}]},
        {"basis": [{"label": "e", "degree": 0}] + _RING_DATA["basis"][1:]},
    ],
    ids=["constant", "degree", "label", "unit"],
)
def test_loads_of_different_tables_are_different_rings(changes):
    ring = GradedRingData.from_dict(_RING_DATA)
    other = GradedRingData.from_dict({**_RING_DATA, **changes})
    assert other != ring
    qsym._r_expansion.cache_clear()
    qsym_r_product(("x",), ("x",), ring, 2)
    qsym_r_product(("x",), ("x",), other, 2)
    assert qsym._r_expansion.cache_info().currsize == 2


def test_each_ring_is_built_once():
    assert schur_ring(2) is schur_ring(2)
    assert schur_ring(2) is not schur_ring(3)
    assert cpinf_ring() is cpinf_ring()
    # k is checked before the ring cache, which would serve True from 1
    schur_ring(1)
    size = schur._schur_ring.cache_info().currsize
    with pytest.raises(OutOfRangeError):
        schur_ring(True)
    assert schur._schur_ring.cache_info().currsize == size


def _constants_and_certificates():
    """For |alpha|, |beta| <= 3 and D <= 6: the structure constants as an
    item list, Σ_γ c_γ · glide_element(γ, D), and the product of the two
    glide elements."""
    small = all_compositions(3)
    out = []
    for alpha, beta, bound in product(small, small, range(7)):
        constants = glide_structure_constants(alpha, beta, bound)
        total = {}
        for gamma, c in constants.items():
            for comp, gc in glide_element(gamma, bound).coords.items():
                total[comp] = total.get(comp, 0) + c * gc
        summed = {comp: c for comp, c in total.items() if c}
        multiplied = m_multiply(glide_element(alpha, bound), glide_element(beta, bound))
        out.append((list(constants.items()), summed, dict(multiplied.coords)))
    return out


def test_glide_structure_constants_recombine_to_the_product_cold_and_warm():
    qsym._glide_element.cache_clear()
    qsym._glide_constants.cache_clear()
    cold = _constants_and_certificates()
    hits = qsym._glide_constants.cache_info().hits
    warm = _constants_and_certificates()
    assert qsym._glide_constants.cache_info().hits > hits
    assert cold == warm
    for constants, summed, multiplied in cold:
        assert summed == multiplied, constants
