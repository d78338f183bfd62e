"""Junk sweep over the public API: every argument of every public callable,
fed a value of the wrong kind, ends in a return or a typed error.  The
arguments are the rows of ``conftest.ARGS``."""

import inspect
import operator
import os
import traceback
from dataclasses import replace

import pytest

import glidekit as gk
from glidekit.errors import GlidekitError, MalformedInputError, OutOfRangeError, UnknownLabelError
from glidekit.jsonio import read_json

from conftest import ARGS, public_callables, rows

JUNK = [5, None, 1.5, "x", [None], {}]

_RING_JSON = {"basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 1}]}


def test_every_public_callable_has_a_row():
    # a new public callable, or a new parameter of one, fails here until it
    # has a row
    parameters = {
        (name, p)
        for name, f in public_callables().items()
        for p in inspect.signature(f).parameters
        if p != "self"
    }
    assert set(ARGS) == parameters


def _sample(cls):
    """An instance of a public class, from its constructor's first row."""
    arg = next(arg for (name, _), arg in ARGS.items() if name == cls)
    return arg.call(arg.valid)


@pytest.mark.parametrize("name", sorted(public_callables()))
def test_junk_arguments_end_in_a_return_or_a_typed_error(name):
    args = {p: arg for (callable_name, p), arg in ARGS.items() if callable_name == name}
    if not args:
        # nothing to feed junk to: one valid call, on an instance for a method
        cls, _, _ = name.rpartition(".")
        public_callables()[name](*([_sample(cls)] if cls else []))
    failures = []
    for p, (call, valid, *_) in args.items():
        call(valid)
        for junk in JUNK:
            try:
                call(junk)
            except GlidekitError:
                pass
            except Exception as exc:  # noqa: BLE001 - each one is reported
                where = traceback.extract_tb(exc.__traceback__)[-1]
                failures.append(
                    f"{p} = {junk!r}: {type(exc).__name__}: {exc} "
                    f"({where.filename.rsplit('/', 1)[-1]}:{where.lineno})"
                )
    assert not failures, "\n".join(failures)


def _reads_a_container(arg):
    """Whether the library reads the argument as a container: a container
    row, a container of coefficients or a container of part tuples."""
    if arg.rule == "coefficient":
        return isinstance(arg.valid, (tuple, dict))
    return arg.rule == "container" or arg.rule == "parts" and isinstance(arg.valid[0], tuple)


# a number in place of a container once ended in a bare TypeError or
# AttributeError
@pytest.mark.parametrize(
    "entry", sorted(key for key, arg in ARGS.items() if _reads_a_container(arg)), ids=".".join
)
def test_a_non_container_argument_is_malformed_input(entry):
    with pytest.raises(MalformedInputError, match="must be a (container|mapping), got int$"):
        ARGS[entry].call(5)


@pytest.mark.parametrize("entry", rows("container"), ids=".".join)
def test_a_container_refuses_a_bad_item(entry):
    call, valid, _, (item, error) = ARGS[entry]
    with pytest.raises(error):
        call([item, *valid[1:]])


@pytest.mark.parametrize(
    "call",
    [lambda: gk.schur_polynomial((1,), None), lambda: gk.partition_to_grassmannian((1,), None)],
    ids=["schur_polynomial", "partition_to_grassmannian"],
)
def test_k_is_a_size_even_where_as_partition_reads_none(call):
    with pytest.raises(OutOfRangeError):
        call()


def test_a_ring_that_cannot_multiply_its_arguments_is_malformed_input():
    # a label outside the ring never reaches ``multiply``
    with pytest.raises(UnknownLabelError, match="not a label of the ring: 'x'"):
        gk.cpinf_ring().product("x", 1)
    # a hand-built ring whose ``multiply`` answers two of its own labels with
    # an int, not a mapping
    broken = replace(gk.cpinf_ring(), multiply=operator.add)
    with pytest.raises(MalformedInputError, match="cannot multiply 1 by 2"):
        broken.product(1, 2)


@pytest.mark.parametrize("entry", rows("label"), ids=".".join)
def test_a_label_of_another_ring_is_unknown_label(entry):
    call, valid, _, other = ARGS[entry]
    call(valid)
    with pytest.raises(UnknownLabelError, match="not a label of the ring"):
        call(other)


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
