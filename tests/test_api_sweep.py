"""Junk sweep over the public API: every argument of every public callable,
fed a value of the wrong kind, ends in a return or a typed error."""

import inspect
import json
import os
import traceback

import pytest

import glidekit as gk
from glidekit.errors import GlidekitError, MalformedInputError, OutOfRangeError, UnknownLabelError
from glidekit.jsonio import read_json
from glidekit.qsym import glide_element, qsym_r_product_shuffle
from glidekit.schur import as_partition, content, reading_word

from conftest import public_callables

JUNK = [5, None, 1.5, "x", [None], {}]

# callables outside the public search that the sweep covers too
HELPERS = {"content", "qsym_r_product_shuffle", "reading_word"}

_ONE = gk.SparsePoly.one(2)
_Q = gk.QSymElement.monomial((1,))
_K = gk.KRingElement(gk.SparsePoly.one(2), 2)
_LINE = gk.KRingElement(gk.SparsePoly.one(1), 1)
_P = gk.build_poset((1,), 2)
_SHAPE = gk.SkewShape((1,), (0,))
_T = gk.Tableau(_SHAPE, ((1,),))
_RING = gk.cpinf_ring()
_RING_JSON = {"basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 1}]}


@pytest.fixture(scope="module")
def valid_calls(tmp_path_factory):
    """name -> (callable, arguments of one small valid call), every
    parameter of the callable given."""
    ring_file = tmp_path_factory.mktemp("ring") / "ring.json"
    ring_file.write_text(json.dumps(_RING_JSON), encoding="utf-8")
    return {
        "GlidePoset": (gk.GlidePoset, (2, [(1, 0), (0, 1)])),
        "GlidePoset.covers": (_P.covers, ()),
        "GlidePoset.is_lattice_with_bottom": (_P.is_lattice_with_bottom, ()),
        "GlidePoset.meet": (_P.meet, ((1, 0), (0, 1))),
        "GlidePoset.mobius": (_P.mobius, ()),
        "GlidePoset.mobius_crosscut": (_P.mobius_crosscut, ((1, 0),)),
        "GradedRingData": (
            gk.GradedRingData,
            (0, _RING.degree, _RING.multiply, _RING.contains),
        ),
        "GradedRingData.from_dict": (gk.GradedRingData.from_dict, (_RING_JSON,)),
        "GradedRingData.from_json_file": (gk.GradedRingData.from_json_file, (str(ring_file),)),
        "GradedRingData.product": (_RING.product, (1, 2)),
        "KRingElement": (gk.KRingElement, (_ONE, 2)),
        "KRingElement.restrict": (_K.restrict, (1, 1)),
        "QSymElement": (gk.QSymElement, ({(1,): 1}, 3)),
        "QSymElement.monomial": (gk.QSymElement.monomial, ((1,), 3)),
        "QSymElement.scale": (_Q.scale, (2,)),
        "SkewShape": (gk.SkewShape, ((2, 1), (1, 0))),
        "SkewShape.cell_count": (_SHAPE.cell_count, ()),
        "SparsePoly": (gk.SparsePoly, (2, {(1, 0): 1})),
        "SparsePoly.coefficient": (_ONE.coefficient, ((0, 0),)),
        "SparsePoly.is_zero": (_ONE.is_zero, ()),
        "SparsePoly.monomial": (gk.SparsePoly.monomial, ((1, 0), 2)),
        "SparsePoly.one": (gk.SparsePoly.one, (2,)),
        "SparsePoly.restrict": (_ONE.restrict, (1,)),
        "SparsePoly.scale": (_ONE.scale, (2,)),
        "SparsePoly.sorted_terms": (_ONE.sorted_terms, ()),
        "SparsePoly.zero": (gk.SparsePoly.zero, (2,)),
        "Tableau": (gk.Tableau, (_SHAPE, ((1,),))),
        "as_partition": (as_partition, ((2, 1), 2)),
        "atoms": (gk.atoms, ((1, 2), 3)),
        "build_poset": (gk.build_poset, ((1, 2), 3)),
        "buk_structure_constant": (
            gk.buk_structure_constant,
            (((1,),), ((1,),), ((2,),), 1),
        ),
        "check_binomial_identity": (gk.check_binomial_identity, (1, 2)),
        "chern_substitute": (gk.chern_substitute, (_K,)),
        "content": (content, (_T,)),
        "cpinf_ring": (gk.cpinf_ring, ()),
        "enumerate_C": (gk.enumerate_C, ((1, 2), 3)),
        "enumerate_C_tilde": (gk.enumerate_C_tilde, ((1, 2), 3)),
        "glide_element": (glide_element, ((1,), 2)),
        "glide_expand": (gk.glide_expand, (_Q, 2)),
        "glide_polynomial": (gk.glide_polynomial, ((1, 2), 3, "poset")),
        "glide_structure_constants": (gk.glide_structure_constants, ((1,), (1,), 2)),
        "grassmannian_to_partition": (gk.grassmannian_to_partition, ((2, 1), 1)),
        "is_ballot": (gk.is_ballot, (_T,)),
        "is_quasisymmetric": (gk.is_quasisymmetric, (_ONE, 2)),
        "join": (gk.join, ((1, 0), (0, 1))),
        "knutson_class": (gk.knutson_class, ((1,), 2, 1)),
        "line_bundle_to_y": (gk.line_bundle_to_y, ((1, 0), 1)),
        "lr_coefficient": (gk.lr_coefficient, ((1, 0), (1, 0), (2, 0))),
        "m_multiply": (gk.m_multiply, (_Q, _Q)),
        "m_to_polynomial": (gk.m_to_polynomial, ((1,), 2)),
        "monomial_glide_weak": (gk.monomial_glide_weak, ((0, 1),)),
        "mu_closed": (gk.mu_closed, ((1, 0), (1,))),
        "mu_prime": (gk.mu_prime, ((1, 0), (1,), 2)),
        "overlapping_shuffle": (gk.overlapping_shuffle, ((1,), (2,))),
        "partition_to_grassmannian": (gk.partition_to_grassmannian, ((1,), 1, 3)),
        "polynomial_to_m": (gk.polynomial_to_m, (_ONE, 2)),
        "positive_part": (gk.positive_part, ((1, 0, 2),)),
        "projective_structure_class": (gk.projective_structure_class, (1, 2)),
        "qsym_r_product": (gk.qsym_r_product, ((2,), (1,), _RING, 3)),
        "qsym_r_product_shuffle": (qsym_r_product_shuffle, ((2,), (1,), _RING)),
        "reading_word": (reading_word, (_T,)),
        "run_decode": (gk.run_decode, (((1, 2), (3, 1)),)),
        "run_encode": (gk.run_encode, ((1, 1, 3),)),
        "schur_polynomial": (gk.schur_polynomial, ((1, 0), 2)),
        "schur_ring": (gk.schur_ring, (2,)),
        "semistandardize": (gk.semistandardize, ((1, 0), (2,))),
        "sorting_data": (gk.sorting_data, ((2, 1),)),
        "ssyt_enumerate": (gk.ssyt_enumerate, (gk.SkewShape((2,), (0,)), (1, 1))),
        "standardize": (gk.standardize, ((1, 0), gk.sorting_data((1,)))),
        "y_to_line_bundle": (gk.y_to_line_bundle, (_LINE,)),
        "z_locus": (gk.z_locus, ((1,), 2, 1)),
    }


_NAMES = sorted(set(public_callables()) | HELPERS)


def test_every_public_callable_has_a_row(valid_calls):
    # a new public callable fails here until it has a row
    assert set(valid_calls) == set(_NAMES)
    for name, (call, args) in valid_calls.items():
        assert len(args) == len(inspect.signature(call).parameters), name


@pytest.mark.parametrize("name", _NAMES)
def test_junk_arguments_end_in_a_return_or_a_typed_error(valid_calls, name):
    call, args = valid_calls[name]
    call(*args)
    failures = []
    for i in range(len(args)):
        for junk in JUNK:
            try:
                call(*args[:i], junk, *args[i + 1:])
            except GlidekitError:
                pass
            except Exception as exc:  # noqa: BLE001 - each one is reported
                where = traceback.extract_tb(exc.__traceback__)[-1]
                failures.append(
                    f"argument {i} = {junk!r}: {type(exc).__name__}: {exc} "
                    f"({where.filename.rsplit('/', 1)[-1]}:{where.lineno})"
                )
    assert not failures, "\n".join(failures)


# each once ended in a bare TypeError or AttributeError
_NOT_CONTAINERS = {
    "Tableau.rows": lambda: gk.Tableau(gk.SkewShape((1,), (0,)), 5),
    "GlidePoset.elements": lambda: gk.GlidePoset(2, 5),
    "SparsePoly.terms": lambda: gk.SparsePoly(2, 5),
    "QSymElement.coords": lambda: gk.QSymElement(5),
    "buk_structure_constant.lam_tuple": lambda: gk.buk_structure_constant(
        5, ((1,),), ((2,),), 1
    ),
    "line_bundle_to_y.coeffs": lambda: gk.line_bundle_to_y(5, 1),
    "qsym_r_product.theta": lambda: gk.qsym_r_product(5, (2,), gk.cpinf_ring(), 3),
    "qsym_r_product_shuffle.theta": lambda: qsym_r_product_shuffle(5, (2,), gk.cpinf_ring()),
    "run_decode.runs": lambda: gk.run_decode(5),
    "run_decode.run": lambda: gk.run_decode((5,)),
}


@pytest.mark.parametrize("name", sorted(_NOT_CONTAINERS))
def test_a_non_container_argument_is_malformed_input(name):
    with pytest.raises(MalformedInputError, match="must be a (container|mapping), got int$"):
        _NOT_CONTAINERS[name]()


@pytest.mark.parametrize(
    "call",
    [lambda: gk.schur_polynomial((1,), None), lambda: gk.partition_to_grassmannian((1,), None)],
    ids=["schur_polynomial", "partition_to_grassmannian"],
)
def test_k_is_a_size_even_where_as_partition_reads_none(call):
    with pytest.raises(OutOfRangeError):
        call()


def test_a_ring_that_cannot_multiply_its_arguments_is_malformed_input():
    with pytest.raises(MalformedInputError, match="cannot multiply"):
        gk.cpinf_ring().product("x", 1)


@pytest.mark.parametrize("path", [3, True, 1.5, None, b"ring.json"], ids=repr)
def test_read_json_takes_only_a_str_or_path_like(path):
    with pytest.raises(MalformedInputError, match="path must be a str or os.PathLike"):
        gk.GradedRingData.from_json_file(path)


def test_read_json_leaves_a_file_descriptor_alone():
    # open() reads an int as a file descriptor and closes it on return
    r, w = os.pipe()
    try:
        os.write(w, b"{}")
        os.close(w)
        with pytest.raises(MalformedInputError):
            read_json(r)
        os.fstat(r)  # still open
    finally:
        os.close(r)


@pytest.mark.parametrize("label", [[None], {}, 5], ids=repr)
def test_a_json_ring_refuses_a_label_that_is_not_a_string(label):
    # ``contains`` once looked an unhashable label up in a dict
    ring = gk.GradedRingData.from_dict(_RING_JSON)
    assert not ring.contains(label)
    with pytest.raises(UnknownLabelError):
        gk.qsym_r_product((label,), ("x",), ring, 2)
