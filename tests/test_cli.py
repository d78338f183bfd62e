import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import glidekit
from glidekit.cli import build_parser, run
from glidekit.errors import GlidekitError
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


# argv that parse but carry a bad value, for every subcommand, with the typed
# error code each must end in (None: the request is valid and exits 0)
MALFORMED_ARGV = [
    (["poset", "--alpha", "1,x", "--n", "3"], "invalid-composition"),
    (["poset", "--alpha", "0,1", "--n", "3"], "invalid-composition"),
    (["poset", "--alpha", "1", "--n", "-1"], "out-of-range"),
    (["glide", "--alpha", "a", "--n", "2"], "invalid-composition"),
    (["glide", "--alpha", "", "--n", "-2"], "out-of-range"),
    (["glide", "--alpha", "1", "--n", "0", "--method", "poset"], "out-of-range"),
    (["shuffle", "--a", "1,0", "--b", "1"], "invalid-composition"),
    (["shuffle", "--a", "1", "--b", "1;2"], "invalid-composition"),
    (["shuffle", "--a", "", "--b", ""], None),
    (["mprod", "--a", "-3", "--b", "1"], "invalid-composition"),
    (["mprod", "--a", "1", "--b", "1.5"], "invalid-composition"),
    (["glide-expand", "--input", ".", "--degree", "2"], "input-unreadable"),
    (["glide-struct", "--a", "0", "--b", "1", "--degree", "2"], "invalid-composition"),
    (["kclass", "--alpha", "", "--n", "2", "--m", "-1"], "out-of-range"),
    (["kclass", "--alpha", "", "--n", "2", "--m", "-1", "--chern"], "out-of-range"),
    (["kclass", "--alpha", "3", "--n", "2", "--m", "2"], "out-of-range"),
    (["kclass", "--alpha", "1", "--n", "-1", "--m", "1", "--chern"], "out-of-range"),
    (["kclass", "--alpha", "", "--n", "0", "--m", "0", "--chern"], None),
    (["lr", "--lambda", "1", "--mu", "1", "--nu", "-1"], "invalid-composition"),
    (["lr", "--lambda", "2,1", "--mu", "1", "--nu", "3,1"], "length-mismatch"),
    (["buk", "--k", "0", "--lambda", "1", "--m", "1", "--n", "2"], "length-mismatch"),
    (["buk", "--k", "-1", "--lambda", "", "--m", "", "--n", ""], "out-of-range"),
    (["buk", "--k", "2", "--lambda", "0,0", "--m", "1,0", "--n", "1,0"], "invalid-composition"),
    (["buk", "--k", "2", "--lambda", "1,2", "--m", "1,0", "--n", "2,1"], "invalid-composition"),
    (["buk", "--k", "2", "--lambda", "1,0;;2,0", "--m", "1,0", "--n", "2,0"], "length-mismatch"),
    (["verify-paper", "--pretty"], None),
    # a part is ASCII decimal text: int() alone would read these as 10, 1 and 1
    (["glide", "--alpha", "1_0", "--n", "2"], "invalid-composition"),
    (["glide", "--alpha", "\u0661", "--n", "2"], "invalid-composition"),
    (["glide", "--alpha", "+1", "--n", "2"], "invalid-composition"),
    (["glide", "--alpha", " 1 , 2 ", "--n", " 3 "], None),
]

# integer flags whose text int() reads but that are not ASCII decimal: each
# is argparse's usage error
NON_DECIMAL_FLAGS = [
    ["glide", "--alpha", "1", "--n", "0_2"],
    ["glide", "--alpha", "1", "--n", "\u0661"],
    ["poset", "--alpha", "1", "--n", "+2"],
    ["kclass", "--alpha", "1", "--n", "1", "--m", "1_0"],
    ["buk", "--k", "\u0661", "--lambda", "1", "--m", "1", "--n", "2"],
    ["glide-struct", "--a", "1", "--b", "1", "--degree", "\u0662"],
]


def test_malformed_argv_corpus_covers_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv, _ in MALFORMED_ARGV} == set(sub.choices)


@pytest.mark.parametrize("argv, error_code", MALFORMED_ARGV, ids=[" ".join(a) for a, _ in MALFORMED_ARGV])
def test_malformed_argv_ends_in_typed_error_or_valid_json(capsys, monkeypatch, argv, error_code):
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
# with the argv of another route that gives the same answer.  Each once
# ended in a RecursionError traceback out of ``run``: the closed glide's
# inflation walk recursed once per run of alpha
_ALTERNATING = ",".join(["1", "2"] * 500)
LONG_INPUT_ARGV = [
    (
        ["glide", "--alpha", _ALTERNATING, "--n", "1000"],
        ["glide", "--alpha", _ALTERNATING, "--n", "1000", "--method", "barred"],
    ),
]


@pytest.mark.parametrize("argv, check_argv", LONG_INPUT_ARGV, ids=["glide-1000-parts"])
def test_long_inputs_are_answered(capsys, argv, check_argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    code, check, err = invoke(capsys, *check_argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["output"] == json.loads(check)["output"]


# The argv grammar below keeps out the sizes whose work grows without bound
# until the CLI has budgets (ROADMAP item 4): ``--chern`` with a large m or
# n (the Chern box has (m + 1)**n entries), a poset, glide or kclass n beyond
# 5, a ``--degree`` beyond 6, and large parts for ``lr`` and ``buk``, whose
# skew-shape cell loop is as long as the parts.  Large parts and large m
# without ``--chern`` stay in: the answers there are small.
_JUNK = st.sampled_from(["-1", f"-{HUGE}", "\u0661", "1_0", "+1", "x", "", " ", "1.5"])
_SMALL = st.integers(0, 3).map(str)
_ANY = st.one_of(_SMALL, st.sampled_from([str(TERA), str(HUGE)]), _JUNK)


_SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
_ERROR_CODES = {cls.code for cls in [GlidekitError, *GlidekitError.__subclasses__()]}


def _comma_list(part):
    return st.lists(part, max_size=3).map(",".join)


def _size(top):
    return st.one_of(st.integers(0, top).map(str), _JUNK)


@st.composite
def _argv(draw, input_dir):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    if command in ("poset", "glide"):
        argv = [command, "--alpha", draw(_comma_list(_ANY)), "--n", draw(_size(5))]
        if command == "poset":
            argv += draw(st.lists(st.sampled_from(["--hasse", "--mobius"]), unique=True))
        else:
            argv += ["--method", draw(st.sampled_from(["poset", "barred", "closed"]))]
        return argv
    if command in ("shuffle", "mprod"):
        return [command, "--a", draw(_comma_list(_ANY)), "--b", draw(_comma_list(_ANY))]
    if command == "glide-struct":
        argv = ["glide-struct", "--a", draw(_comma_list(_ANY)), "--b", draw(_comma_list(_ANY))]
        return argv + ["--degree", draw(_size(6))]
    if command == "glide-expand":
        path = input_dir / "element.json"
        entry = st.fixed_dictionaries({
            "comp": st.lists(st.one_of(st.integers(-1, 3), st.sampled_from([TERA, HUGE])), max_size=3),
            "coeff": st.sampled_from(["1", "-2/3", "1/0", 2, "x"]),
        })
        path.write_text(json.dumps({"coords": draw(st.lists(entry, max_size=3))}), encoding="utf-8")
        target = draw(st.sampled_from([str(path), str(input_dir / "missing.json"), str(input_dir)]))
        return ["glide-expand", "--input", target, "--degree", draw(_size(6))]
    if command == "kclass":
        argv = ["kclass", "--alpha", draw(_comma_list(_ANY))]
        if draw(st.booleans()):
            return argv + ["--n", draw(_size(3)), "--m", draw(_size(3)), "--chern"]
        return argv + ["--n", draw(_size(5)), "--m", draw(_ANY)]
    small = _comma_list(st.one_of(_SMALL, _JUNK))
    if command == "lr":
        return ["lr", "--lambda", draw(small), "--mu", draw(small), "--nu", draw(small)]
    if command == "buk":
        partitions = st.lists(small, max_size=3).map(";".join)
        argv = ["buk", "--k", draw(_size(3))]
        return argv + ["--lambda", draw(partitions), "--m", draw(partitions), "--n", draw(partitions)]
    return [command]


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
    if code == 0:
        assert json.loads(out)["command"] == argv[0]
    else:
        assert (code, out) == (1, ""), argv
        payload = json.loads(err)
        assert payload["command"] == argv[0]
        assert payload["error"]["code"] in _ERROR_CODES, argv


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["bogus-command"])
    assert exc.value.code == 2


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
