import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import glidekit
from glidekit.cli import COMMANDS, build_parser, run
from glidekit.errors import GlidekitError
from glidekit.glides import GLIDE_METHODS
from glidekit.verify import FixtureRow, load_fixtures, run_all, run_fixture


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shuffle_command(capsys):
    code, out, _ = invoke(capsys, "shuffle", "--a", "3", "--b", "1,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "glidekit/1"
    assert payload["exact"] is True
    assert payload["output"]["product"] == [
        {"comp": [1, 6], "coeff": "1"},
        {"comp": [4, 3], "coeff": "1"},
        {"comp": [1, 3, 3], "coeff": "2"},
        {"comp": [3, 1, 3], "coeff": "1"},
    ]


def test_empty_composition_flag(capsys):
    code, out, _ = invoke(capsys, "glide", "--alpha", "", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"]["polynomial"] == [{"exp": [0, 0, 0], "coeff": "1"}]


def test_glide_methods_same_output(capsys):
    outputs = []
    for method in ("poset", "barred", "closed"):
        code, out, _ = invoke(
            capsys, "glide", "--alpha", "1,3", "--n", "4", "--method", method
        )
        assert code == 0
        outputs.append(json.loads(out)["output"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_output_is_byte_identical(capsys):
    runs = [invoke(capsys, "poset", "--alpha", "1,3", "--n", "4", "--hasse", "--mobius")[1]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_poset_command_payload(capsys):
    code, out, _ = invoke(capsys, "poset", "--alpha", "1,1", "--n", "3", "--hasse", "--mobius")
    assert code == 0
    output = json.loads(out)["output"]
    assert output["elements"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
    assert output["covers"] == [[0, 3], [1, 3], [2, 3]]
    assert output["mobius"] == {"0,1,1": 1, "1,0,1": 1, "1,1,0": 1, "1,1,1": -2}


def test_kclass_with_chern(capsys):
    code, out, _ = invoke(capsys, "kclass", "--alpha", "1", "--n", "2", "--m", "1", "--chern")
    assert code == 0
    output = json.loads(out)["output"]
    assert output["kclass"] == [
        {"exp": [0, 1], "coeff": "1"},
        {"exp": [1, 0], "coeff": "1"},
        {"exp": [1, 1], "coeff": "-1"},
    ]
    assert output["chern"] == output["kclass"]  # 1 - exp(-x) is x modulo x^2


def test_lr_and_buk_commands(capsys):
    code, out, _ = invoke(capsys, "lr", "--lambda", "2,1,0", "--mu", "2,1,0", "--nu", "3,2,1")
    assert code == 0
    assert json.loads(out)["output"]["coefficient"] == 2

    code, out, _ = invoke(
        capsys, "buk", "--k", "3",
        "--lambda", "1,0,0;2,1,0", "--m", "2,1,0", "--n", "2,1,0;1,0,0;2,1,0",
    )
    assert code == 0
    assert json.loads(out)["output"]["coefficient"] == 1


def test_glide_expand_and_struct_commands(tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_text(json.dumps({"coords": [{"comp": [1], "coeff": "1"}]}), encoding="utf-8")
    code, out, _ = invoke(capsys, "glide-expand", "--input", str(path), "--degree", "2")
    assert code == 0
    assert json.loads(out)["output"]["coords"] == [
        {"comp": [1], "coeff": "1"},
        {"comp": [1, 1], "coeff": "1"},
    ]

    code, out, _ = invoke(capsys, "glide-struct", "--a", "1", "--b", "1", "--degree", "2")
    assert code == 0
    assert json.loads(out)["output"]["coords"] == [
        {"comp": [2], "coeff": "1"},
        {"comp": [1, 1], "coeff": "2"},
    ]


def test_domain_error_exit_code(capsys):
    code, out, err = invoke(capsys, "poset", "--alpha", "1,3", "--n", "1")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == "out-of-range"


@pytest.mark.parametrize(
    "content, error_code",
    [
        (None, "input-unreadable"),
        ('{"coords": [{"comp": [1], "coeff": "1"},\n', "malformed-input"),
        ('{"coords": [{"comp": [1], "coeff": "1/0"}]}', "malformed-input"),
        ('{"coords": [{"comp": [1]}]}', "malformed-input"),
        ('{"terms": [{"comp": [1], "coeff": "1"}]}', "malformed-input"),
        ('{"coords": [{"comp": ["x"], "coeff": "1"}]}', "invalid-composition"),
        ('{"coords": [{"comp": [1.5], "coeff": "1"}]}', "invalid-composition"),
        ('{"coords": [{"comp": "12", "coeff": "1"}]}', "invalid-composition"),
        ('{"coords": [{"comp": [true, 2], "coeff": "1"}]}', "invalid-composition"),
        ('{"coords": [{"comp": [1], "coeff": 0.1}]}', "malformed-input"),
        ('{"coords": [{"comp": [1], "coeff": true}]}', "malformed-input"),
        ('[{"comp": [1], "coeff": "1"}, {"comp": [1], "coeff": "5"}]', "malformed-input"),
        ('{"coords": [{"comp": [1], "coeff": "0.1"}]}', "malformed-input"),
        ('{"coords": [{"comp": [1], "coeff": "1e3"}]}', "malformed-input"),
        ('{"coords": [{"comp": [1], "coeff": "1_0"}]}', "malformed-input"),
        ('{"coords": [{"comp": [1], "coeff": "\u0661"}]}', "malformed-input"),
        ('{"coords": [{"comp": [1], "coeff": "+3"}]}', "malformed-input"),
    ],
    ids=[
        "missing file",
        "malformed JSON",
        "1/0 coefficient",
        "entry without coeff",
        "missing coords key",
        "non-integer part",
        "float part",
        "string composition",
        "bool part",
        "float coefficient",
        "bool coefficient",
        "composition listed twice",
        "decimal-point string coefficient",
        "exponent string coefficient",
        "underscore string coefficient",
        "non-ASCII digit string coefficient",
        "plus-sign string coefficient",
    ],
)
def test_glide_expand_bad_input_is_typed_error(tmp_path, capsys, content, error_code):
    path = tmp_path / "element.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    code, out, err = invoke(capsys, "glide-expand", "--input", str(path), "--degree", "4")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["code"] == error_code


def test_glide_expand_names_a_composition_listed_twice(tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_text('[{"comp": [1, 2], "coeff": "1"}, {"comp": [1, 2], "coeff": "1"}]')
    code, out, err = invoke(capsys, "glide-expand", "--input", str(path), "--degree", "4")
    assert (code, out) == (1, "")
    assert "[1, 2]" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("coeff, shown", [("0.1", "0.1"), ("true", "true"), ("null", "null")])
def test_glide_expand_names_the_json_coefficient_forms(tmp_path, capsys, coeff, shown):
    path = tmp_path / "element.json"
    path.write_text('{"coords": [{"comp": [1], "coeff": %s}]}' % coeff, encoding="utf-8")
    code, out, err = invoke(capsys, "glide-expand", "--input", str(path), "--degree", "4")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["code"] == "malformed-input"
    assert error["message"] == (
        f'a coefficient must be a JSON integer or a "p/q" string, got {shown}'
    )


@pytest.mark.parametrize("command", ["glide-struct", "glide-expand"])
def test_negative_degree_bound_is_out_of_range(tmp_path, capsys, command):
    if command == "glide-struct":
        argv = ["glide-struct", "--a", "1", "--b", "1"]
    else:
        path = tmp_path / "element.json"
        path.write_text('{"coords": []}', encoding="utf-8")
        argv = ["glide-expand", "--input", str(path)]
    code, out, err = invoke(capsys, *argv, "--degree", "-1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["code"] == "out-of-range"


# argv that parse but carry a bad value, for every subcommand, each with the
# flag it breaks and the typed error code it must end in (None, None: the
# request is valid and exits 0)
MALFORMED_ARGV = [
    (["poset", "--alpha", "1,x", "--n", "3"], "--alpha", "invalid-composition"),
    (["poset", "--alpha", "0,1", "--n", "3"], "--alpha", "invalid-composition"),
    (["poset", "--alpha", "1", "--n", "-1"], "--n", "out-of-range"),
    (["glide", "--alpha", "a", "--n", "2"], "--alpha", "invalid-composition"),
    (["glide", "--alpha", "", "--n", "-2"], "--n", "out-of-range"),
    (["glide", "--alpha", "1", "--n", "0", "--method", "poset"], "--n", "out-of-range"),
    (["shuffle", "--a", "1,0", "--b", "1"], "--a", "invalid-composition"),
    (["shuffle", "--a", "1", "--b", "1;2"], "--b", "invalid-composition"),
    (["shuffle", "--a", "", "--b", ""], None, None),
    (["mprod", "--a", "-3", "--b", "1"], "--a", "invalid-composition"),
    (["mprod", "--a", "1", "--b", "1.5"], "--b", "invalid-composition"),
    (["glide-expand", "--input", ".", "--degree", "2"], "--input", "input-unreadable"),
    (["glide-struct", "--a", "0", "--b", "1", "--degree", "2"], "--a", "invalid-composition"),
    (["glide-struct", "--a", "1", "--b", "1,x", "--degree", "2"], "--b", "invalid-composition"),
    (["kclass", "--alpha", "", "--n", "2", "--m", "-1"], "--m", "out-of-range"),
    (["kclass", "--alpha", "", "--n", "2", "--m", "-1", "--chern"], "--m", "out-of-range"),
    (["kclass", "--alpha", "3", "--n", "2", "--m", "2"], "--m", "out-of-range"),
    (["kclass", "--alpha", "1", "--n", "-1", "--m", "1", "--chern"], "--n", "out-of-range"),
    (["kclass", "--alpha", "1,x", "--n", "2", "--m", "1"], "--alpha", "invalid-composition"),
    (["kclass", "--alpha", "", "--n", "0", "--m", "0", "--chern"], None, None),
    (["lr", "--lambda", "1", "--mu", "1", "--nu", "-1"], "--nu", "invalid-composition"),
    (["lr", "--lambda", "2,1", "--mu", "1", "--nu", "3,1"], "--mu", "length-mismatch"),
    (["lr", "--lambda", "x", "--mu", "1", "--nu", "2"], "--lambda", "invalid-composition"),
    (["lr", "--lambda", "1", "--mu", "1;1", "--nu", "2"], "--mu", "invalid-composition"),
    (["buk", "--k", "0", "--lambda", "1", "--m", "1", "--n", "2"], "--k", "length-mismatch"),
    (["buk", "--k", "-1", "--lambda", "", "--m", "", "--n", ""], "--k", "out-of-range"),
    (["buk", "--k", "2", "--lambda", "0,0", "--m", "1,0", "--n", "1,0"], "--lambda", "invalid-composition"),
    (["buk", "--k", "2", "--lambda", "1,2", "--m", "1,0", "--n", "2,1"], "--lambda", "invalid-composition"),
    (["buk", "--k", "2", "--lambda", "1,0;;2,0", "--m", "1,0", "--n", "2,0"], "--lambda", "length-mismatch"),
    (["buk", "--k", "1", "--lambda", "1", "--m", "x", "--n", "2"], "--m", "invalid-composition"),
    (["buk", "--k", "1", "--lambda", "1", "--m", "1", "--n", "2,1"], "--n", "length-mismatch"),
    (["verify-paper", "--pretty"], None, None),
    # a part is ASCII decimal text: int() alone would read these as 10, 1 and 1
    (["glide", "--alpha", "1_0", "--n", "2"], "--alpha", "invalid-composition"),
    (["glide", "--alpha", "\u0661", "--n", "2"], "--alpha", "invalid-composition"),
    (["glide", "--alpha", "+1", "--n", "2"], "--alpha", "invalid-composition"),
    (["glide", "--alpha", " 1 , 2 ", "--n", " 3 "], None, None),
]


def _valid_argv(command, flag, text):
    """``command`` with ``flag`` at ``text`` and every other required flag
    at a value that parses."""
    plain = {"composition": "1", "partition tuple": "1", "file": "coords.json", "size": "1"}
    argv = [command]
    for f in COMMANDS[command].flags:
        if f.name == flag:
            argv += [f.name, text]
        elif f.kind in plain:
            argv += [f.name, plain[f.kind]]
    return argv


# integer flags whose text int() reads but that are not ASCII decimal: each
# is argparse's usage error.  Every size flag of every command is tried with
# each of three texts, after three hand-written rows with two more texts
NON_DECIMAL_FLAGS = [
    ["kclass", "--alpha", "1", "--n", "1", "--m", "1_0"],
    ["buk", "--k", "\u0661", "--lambda", "1", "--m", "1", "--n", "2"],
    ["glide-struct", "--a", "1", "--b", "1", "--degree", "\u0662"],
] + [
    _valid_argv(command, flag.name, text)
    for command, row in COMMANDS.items()
    for flag in row.flags
    if flag.kind == "size"
    for text in ("0_2", "\u0661", "+2")
]


def test_malformed_argv_corpus_covers_every_subcommand():
    """Every command has a row, and every flag whose text the library reads
    (a composition, a partition tuple, a file) is broken by one."""
    assert {argv[0] for argv, _, _ in MALFORMED_ARGV} == set(COMMANDS)
    for argv, flag, error_code in MALFORMED_ARGV:
        assert (flag is None) == (error_code is None)
        assert flag is None or flag in argv
    broken = {(argv[0], flag) for argv, flag, _ in MALFORMED_ARGV}
    read = {
        (command, flag.name)
        for command, row in COMMANDS.items()
        for flag in row.flags
        if flag.kind in ("composition", "partition tuple", "file")
    }
    assert read - broken == set()


@pytest.mark.parametrize(
    "argv, flag, error_code", MALFORMED_ARGV, ids=[" ".join(a) for a, _, _ in MALFORMED_ARGV]
)
def test_malformed_argv_ends_in_typed_error_or_valid_json(capsys, monkeypatch, argv, flag, error_code):
    monkeypatch.chdir(REPO_ROOT)
    code, out, err = invoke(capsys, *argv)
    if error_code is None:
        assert code == 0
        assert json.loads(out)["command"] == argv[0]
    else:
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["command"] == argv[0]
        assert payload["error"]["code"] == error_code


@pytest.mark.parametrize("argv", NON_DECIMAL_FLAGS, ids=" ".join)
def test_integer_flags_take_only_ascii_decimal_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


HUGE = 99999999999999999999
TERA = 2**40

# valid requests whose values are large but whose answers are small.  Each
# once ended in OverflowError or MemoryError: the coordinate tables of the
# string poset and of the K-class were lists as long as the largest part or
# as m, not keyed by the values present
LARGE_VALUE_ARGV = [
    (
        ["poset", "--alpha", str(HUGE), "--n", "1", "--mobius"],
        {"elements": [[HUGE]], "mobius": {str(HUGE): 1}},
    ),
    (["poset", "--alpha", str(HUGE), "--n", "1", "--hasse"], {"elements": [[HUGE]], "covers": []}),
    (
        ["glide", "--alpha", str(HUGE), "--n", "1", "--method", "poset"],
        {"polynomial": [{"exp": [HUGE], "coeff": "1"}]},
    ),
    (
        ["poset", "--alpha", str(TERA), "--n", "2", "--mobius"],
        {
            "elements": [[0, TERA], [TERA, 0], [TERA, TERA]],
            "mobius": {f"0,{TERA}": 1, f"{TERA},0": 1, f"{TERA},{TERA}": -1},
        },
    ),
    (["kclass", "--alpha", "1", "--n", "1", "--m", str(HUGE)], {"kclass": [{"exp": [1], "coeff": "1"}]}),
    (["kclass", "--alpha", "1", "--n", "1", "--m", str(TERA)], {"kclass": [{"exp": [1], "coeff": "1"}]}),
]


@pytest.mark.parametrize("argv, output", LARGE_VALUE_ARGV, ids=[" ".join(a) for a, _ in LARGE_VALUE_ARGV])
def test_large_values_are_answered(capsys, argv, output):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["output"] == output


# valid requests whose inputs are long but whose answers are small, each
# with the argv of another route that gives the same answer, or with the
# answer.  Each once ended in a RecursionError traceback out of ``run``: the
# closed glide's inflation walk recursed once per run of alpha, and the
# tableau walk once per cell of the skew shape (1,000 cells here)
_ALTERNATING = ",".join(["1", "2"] * 500)
LONG_INPUT_ARGV = [
    (
        ["glide", "--alpha", _ALTERNATING, "--n", "1000"],
        ["glide", "--alpha", _ALTERNATING, "--n", "1000", "--method", "barred"],
    ),
    (["lr", "--lambda", "1000", "--mu", "1000", "--nu", "2000"], {"coefficient": 1}),
    (["buk", "--k", "1", "--lambda", "1000", "--m", "1000", "--n", "2000"], {"coefficient": 1}),
]


@pytest.mark.parametrize(
    "argv, check", LONG_INPUT_ARGV, ids=["glide-1000-parts", "lr-1000-cells", "buk-1000-cells"]
)
def test_long_inputs_are_answered(capsys, argv, check):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    if isinstance(check, list):
        code, answer, err = invoke(capsys, *check)
        assert (code, err) == (0, "")
        check = json.loads(answer)["output"]
    assert json.loads(out)["output"] == check


# no flag may be abbreviated: argparse's prefix matching once read these as
# ``--chern`` and ``--lambda``, and ``--pre`` as ``--pretty``
ABBREVIATED_ARGV = [
    ["kclass", "--alpha", "1", "--n", "1", "--m", "1", "--ch"],
    ["lr", "--la", "1", "--mu", "1", "--nu", "2"],
    ["--pre", "lr", "--lambda", "1", "--mu", "1", "--nu", "2"],
]


@pytest.mark.parametrize("argv", ABBREVIATED_ARGV, ids=" ".join)
def test_abbreviated_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# The argv grammar below draws each flag of ``COMMANDS`` from its kind.  Until
# the CLI has budgets (ROADMAP item 4) it caps the sizes whose work grows
# without bound, per (command, flag): a poset, glide or kclass n beyond 5, a
# ``--degree`` beyond 6, and large parts for ``lr`` and ``buk``, whose
# skew-shape cell loop is as long as the parts; with ``--chern``, a large m
# or n too (the Chern box has (m + 1)**n entries).  Large parts and a large
# m without ``--chern`` stay in: the answers there are small.
_JUNK = st.sampled_from(["-1", f"-{HUGE}", "\u0661", "1_0", "+1", "x", "", " ", "1.5"])
_SMALL = st.integers(0, 3).map(str)
_ANY = st.one_of(_SMALL, st.sampled_from([str(TERA), str(HUGE)]), _JUNK)
_CAPS = {
    ("poset", "--n"): 5,
    ("glide", "--n"): 5,
    ("glide-expand", "--degree"): 6,
    ("glide-struct", "--degree"): 6,
    ("kclass", "--n"): 5,
    ("buk", "--k"): 3,
    **{("lr", flag): 3 for flag in ("--lambda", "--mu", "--nu")},
    **{("buk", flag): 3 for flag in ("--lambda", "--m", "--n")},
}
_CHERN_CAPS = {("kclass", "--n"): 3, ("kclass", "--m"): 3}

_ERROR_CODES = {cls.code for cls in [GlidekitError, *GlidekitError.__subclasses__()]}


def _comma_list(part):
    return st.lists(part, max_size=3).map(",".join)


@st.composite
def _input_file(draw, input_dir):
    """A path to a file of random entries, to a missing file or to a directory."""
    entry = st.fixed_dictionaries({
        "comp": st.lists(st.one_of(st.integers(-1, 3), st.sampled_from([TERA, HUGE])), max_size=3),
        "coeff": st.sampled_from(["1", "-2/3", "1/0", 2, "x"]),
    })
    path = input_dir / "element.json"
    path.write_text(json.dumps({"coords": draw(st.lists(entry, max_size=3))}), encoding="utf-8")
    return draw(st.sampled_from([str(path), str(input_dir / "missing.json"), str(input_dir)]))


def _text(kind, cap, input_dir):
    """The strategy for the text of a flag of ``kind`` whose numbers are at most ``cap``."""
    number = _ANY if cap is None else st.one_of(st.integers(0, cap).map(str), _JUNK)
    if kind == "size":
        return number
    if kind == "composition":
        return _comma_list(number)
    if kind == "partition tuple":
        return st.lists(_comma_list(number), max_size=3).map(";".join)
    if kind == "file":
        return _input_file(input_dir)
    assert kind == "method", kind
    return st.sampled_from(GLIDE_METHODS)


@st.composite
def _argv(draw, input_dir):
    command = draw(st.sampled_from(list(COMMANDS)))
    flags = COMMANDS[command].flags
    on = {f.name for f in flags if f.kind == "switch" and draw(st.booleans())}
    caps = {**_CAPS, **_CHERN_CAPS} if "--chern" in on else _CAPS
    pieces = [[f.name] for f in flags if f.name in on]
    for f in flags:
        if f.kind != "switch" and (f.kind != "method" or draw(st.booleans())):
            pieces.append([f.name, draw(_text(f.kind, caps.get((command, f.name)), input_dir))])
    argv = [command] + [word for piece in draw(st.permutations(pieces)) for word in piece]
    pretty = draw(st.sampled_from([[], ["--pretty"]]))
    return pretty + argv if draw(st.booleans()) else argv + pretty


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv-grammar")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_argv_grammar_ends_in_exit_0_typed_error_or_usage_error(input_dir, data):
    """Every argv of the grammar, for every subcommand, ends in exit 0 with
    JSON on stdout, exit 1 with a typed JSON error on stderr, or argparse's
    exit 2; any other exception fails the test."""
    argv = data.draw(_argv(input_dir))
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        assert stdout.getvalue() == ""
        return
    out, err = stdout.getvalue(), stderr.getvalue()
    command = next(word for word in argv if word in COMMANDS)
    if code == 0:
        payload = json.loads(out)
        assert payload["command"] == command
        assert ("\n  " in out) == ("--pretty" in argv)
    else:
        assert (code, out) == (1, ""), argv
        payload = json.loads(err)
        assert payload["command"] == command
        assert payload["error"]["code"] in _ERROR_CODES, argv


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["bogus-command"])
    assert exc.value.code == 2


def _pretty_help(capsys, *argv) -> list[str]:
    """The description of ``--pretty`` in the help of ``glidekit argv...``."""
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--help"])
    assert exc.value.code == 0
    return re.findall(r"^  --pretty\s+(\S.*)$", capsys.readouterr().out, re.M)


def test_every_command_describes_pretty_as_the_top_level_does(capsys):
    top = _pretty_help(capsys)
    assert top == ["indent the JSON output"]
    for name in COMMANDS:
        assert _pretty_help(capsys, name) == top, name


def test_pretty_flag_and_no_timing_flag(capsys):
    _, plain, _ = invoke(capsys, "shuffle", "--a", "1", "--b", "1")
    _, pretty, _ = invoke(capsys, "shuffle", "--a", "1", "--b", "1", "--pretty")
    _, before, _ = invoke(capsys, "--pretty", "shuffle", "--a", "1", "--b", "1")
    assert json.loads(plain) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in plain
    assert before == pretty

    # the same argv gives the same bytes, so there is no elapsed-time field
    for argv in (["--timing", "shuffle"], ["shuffle", "--timing"]):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--a", "1", "--b", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_verify_paper_all_pass(capsys):
    code, out, _ = invoke(capsys, "verify-paper")
    assert code == 0
    output = json.loads(out)["output"]
    assert output["all_pass"] is True
    assert output["failed"] == 0
    assert output["total"] >= 12
    assert all(row["status"] == "PASS" for row in output["rows"])


def test_verify_paper_exits_1_on_a_failing_row(capsys, monkeypatch):
    row = FixtureRow(name="planted", kind="shuffle", passed=False, expected=[1], actual=[2])
    monkeypatch.setattr("glidekit.cli.run_all", lambda: [row])
    code, out, _ = invoke(capsys, "verify-paper")
    assert code == 1
    assert '"failed": 1' in out
    assert '"all_pass": false' in out
    output = json.loads(out)["output"]
    assert output["total"] == 1
    assert output["rows"] == [
        {"name": "planted", "kind": "shuffle", "status": "FAIL", "expected": [1], "actual": [2]}
    ]


def test_fixture_suite_detects_corruption():
    fixtures = load_fixtures()
    sample = next(f for f in fixtures if f["kind"] == "mobius-table")
    corrupted = dict(sample, expected={**sample["expected"], "1,3,1,3": 5})
    row = run_fixture(corrupted)
    assert not row.passed
    assert row.as_json()["status"] == "FAIL"
    assert "expected" in row.as_json()


def test_console_script_entry_point():
    # the child process imports the package from the tree under test
    src = Path(glidekit.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "glidekit.cli", "shuffle", "--a", "3", "--b", "1,3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "shuffle"


def test_verify_paper_has_no_jobs_flag_and_keeps_fixture_order(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-paper", "--jobs", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert [r.name for r in run_all()] == [f["name"] for f in load_fixtures()]


REPO_ROOT = Path(__file__).resolve().parent.parent


def test_argv_corpus_stdout_digests(capsys, monkeypatch):
    """Every request of the benchmark's argv corpus gives its recorded bytes."""
    corpus = json.loads((REPO_ROOT / "perfbench/corpus/argv.json").read_text(encoding="utf-8"))
    requests = corpus["requests"]
    assert requests
    monkeypatch.chdir(REPO_ROOT)  # the corpus names its input files from the root
    for request in requests:
        code, out, _ = invoke(capsys, *request["argv"])
        assert code == request["exit"], request["argv"]
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == request["stdout_sha256"], request["argv"]


def test_shared_parser_keeps_no_state_between_calls(capsys):
    """One parser serves every call of a process; no call leaks into the next."""
    assert build_parser() is build_parser()

    code, out, _ = invoke(capsys, "glide", "--alpha", "1,3", "--n", "4", "--method", "barred")
    assert code == 0 and json.loads(out)["inputs"]["method"] == "barred"
    code, out, _ = invoke(capsys, "glide", "--alpha", "1,3", "--n", "4")
    assert code == 0 and json.loads(out)["inputs"]["method"] == "closed"

    _, pretty, _ = invoke(capsys, "shuffle", "--a", "1", "--b", "1", "--pretty")
    _, plain, _ = invoke(capsys, "shuffle", "--a", "1", "--b", "1")
    assert "\n  " in pretty
    assert plain == json.dumps(json.loads(plain)) + "\n"

    corpus = json.loads((REPO_ROOT / "perfbench/corpus/argv.json").read_text(encoding="utf-8"))
    request = next(r for r in corpus["requests"] if r["exit"] == 0)
    for bad in (["shuffle", "--a", "1"], ["glide", "--alpha", "1", "--n", "x"]):
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = invoke(capsys, *request["argv"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == request["stdout_sha256"]

    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("glidekit ")
    code, out, _ = invoke(capsys, "shuffle", "--a", "1", "--b", "1")
    assert code == 0 and out == plain


def test_readme_cli_block_lists_every_command_with_its_flags():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("glidekit ")]
    assert [words[1] for words in lines] == list(COMMANDS)
    for words in lines:
        flags = [word for word in words if word.startswith("--")]
        assert flags == [f.name for f in COMMANDS[words[1]].flags], words


def test_version_is_the_one_in_pyproject(capsys):
    # read without tomllib, which Python 3.10 lacks
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]+)"$', project, re.M) == [glidekit.__version__]
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"glidekit {glidekit.__version__}\n"
