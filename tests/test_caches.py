"""The package's caches: every one is bounded, and none changes a result.

The caches are found the way the benchmark's ``clear_caches`` finds them:
every module-level object with a ``cache_clear``.
"""

import importlib
import pkgutil

import pytest

import glidekit
from glidekit import glides, schur
from glidekit.errors import UnknownLabelError
from glidekit.glides import (
    enumerate_C,
    enumerate_C_tilde,
    glide_m_expansion,
    glide_polynomial,
    mu_prime,
)
from glidekit.qsym import GradedRingData, qsym_r_product
from glidekit.schur import buk_structure_constant, lr_coefficient, schur_ring


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
    # the public barred closure reports and resets the signed closure's cache
    assert enumerate_C_tilde.cache_info.__self__ is glides._c_tilde
    assert enumerate_C_tilde.cache_clear.__self__ is glides._c_tilde
    assert "glidekit.cli.build_parser" in caches
    for name, cached in caches.items():
        maxsize = cached.cache_info().maxsize
        assert type(maxsize) is int and maxsize > 0, name


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
        # one product cache serves every tableau ring
        (
            schur._schur_product,
            lambda: [
                list(qsym_r_product((a, a), (b,), schur_ring(len(a)), 3).items())
                for a, b in [((1, 0), (2, 1)), ((1, 0, 0), (2, 1, 0))]
            ],
        ),
    ],
    ids=[
        "glide_m_expansion",
        "enumerate_C",
        "closed-glide",
        "barred-glide",
        "enumerate_C_tilde",
        "mu_prime",
        "schur-ring-product",
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

    barred = glides._c_tilde((1, 2), 4)
    expected = list(barred.items())
    with pytest.raises(TypeError):
        barred[(0, 0, 0, 9)] = 1
    with pytest.raises(AttributeError):
        barred.clear()
    assert list(glides._c_tilde((1, 2), 4).items()) == expected
    assert enumerate_C_tilde((1, 2), 4) == frozenset(dict(expected))


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
