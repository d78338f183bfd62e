"""The claim and verdict rules of tools/bench_pairs.py, on made-up pair
results, its checks that the staged index it measures is the tree it
records, in a throwaway repository, and its tier-1 record."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.05, 0.97, 1.01, 1.03, 0.99, 1.04, 1.00]


def _row(change, better="lower"):
    return bench_pairs.summarize("s", better, PARENT, change)


def test_summary_fields():
    row = _row([0.5] * 10)
    assert row["parent_median"] == 1.005
    assert row["parent_quartiles"] == [0.9925, 1.0275]
    assert row["change_lower_in_pairs"] == 10
    assert row["relative_change"] == round((0.5 - 1.005) / 1.005, 4)


def test_claim_needs_nine_tenths_of_the_pairs():
    nine = [0.5] * 9 + [1.2]
    assert bench_pairs.judge(_row(nine), "lower").startswith("met:")
    eight = [0.5] * 8 + [1.2, 1.2]
    assert bench_pairs.judge(_row(eight), "lower").startswith("not met:")


def test_claim_needs_a_gap_wider_than_the_parent_spread():
    # lower in every pair, but by less than the parent's interquartile range
    close = [p - 0.001 for p in PARENT]
    assert _row(close)["change_lower_in_pairs"] == 10
    assert bench_pairs.judge(_row(close), "lower").startswith("not met:")


def test_higher_is_better_reads_the_other_way():
    row = _row([2.0] * 10, better="higher")
    assert row["change_higher_in_pairs"] == 10
    assert bench_pairs.judge(row, "higher").startswith("met:")
    assert bench_pairs.judge(_row([0.5] * 10, better="higher"), "higher").startswith("not met:")


def test_verdict_worse_beyond_bound():
    # median 1.10 against 1.005: worse by 9.5%, beyond a 5% bound
    assert bench_pairs.verdict(_row([1.10] * 10), "lower", 0.05) == "worse beyond bound"
    # the same medians read the other way when higher is better
    row = _row([0.90] * 10, better="higher")
    assert bench_pairs.verdict(row, "higher", 0.05) == "worse beyond bound"


def test_verdict_unresolved_when_the_parent_spread_exceeds_the_bound():
    # parent interquartile range 0.035 against 1% of 1.005; the change is no
    # worse in the median, but some change runs lose to some parent runs
    assert bench_pairs.verdict(_row(list(PARENT)), "lower", 0.01) == "unresolved"
    # beating every parent run resolves it
    assert bench_pairs.verdict(_row([0.9] * 10), "lower", 0.01) == "within bound"


def test_verdict_within_bound():
    assert bench_pairs.verdict(_row(list(PARENT)), "lower", 0.25) == "within bound"
    assert bench_pairs.verdict(_row([1.02] * 10), "lower", 0.05) == "within bound"


BENCH = {
    "run_seconds": 1,
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
}
ARGV = ["--pr", "7", "--first-seed", "1", "--note", "n", "--seeds-note", "s"]


def _git(root, *args):
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    return subprocess.run(
        ["git", *identity, *args], cwd=root, check=True, capture_output=True
    ).stdout.decode().strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A throwaway repository with one commit holding a one-workload
    BENCHMARK.json, as the tool's root; each benchmark run is made up and
    recorded in ``repo.runs``."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "start")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    runs = []

    def run(checkout, workload, seed, trace):
        runs.append((checkout.name, seed))
        return {"metrics": {"wall_s": {"value": 1.0}}, "failed": 0, "attempted": 1}

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs, "tier1", lambda checkout: {"summary": checkout.name})
    return tmp_path, runs


@pytest.mark.parametrize("left_out", ["tracked", "untracked"])
def test_index_side_refuses_files_it_would_leave_out(repo, left_out):
    root, runs = repo
    (root / "a.txt").write_text("staged\n")
    _git(root, "add", "a.txt")
    if left_out == "tracked":
        (root / "a.txt").write_text("changed after staging\n")
        named = "a.txt"
    else:
        (root / "b.txt").write_text("never staged\n")
        named = "b.txt"
    with pytest.raises(SystemExit, match=f"not staged: {named};"):
        bench_pairs.main(ARGV)
    assert runs == []
    assert not (root / "BENCH_7.json").exists()


def test_index_side_writes_the_tree_it_measured(repo):
    root, runs = repo
    (root / "a.txt").write_text("staged\n")
    _git(root, "add", "a.txt")
    # its own earlier output, not staged, does not stop it
    (root / "BENCH_7.json").write_text("{}\n")
    assert bench_pairs.main(ARGV) == 0
    assert len(runs) == 2 * bench_pairs.PAIRS
    written = json.loads((root / "BENCH_7.json").read_text())
    assert written["revisions"]["change"] == _git(root, "write-tree")
    assert written["revisions"]["parent"] == _git(root, "rev-parse", "HEAD")


def test_index_side_writes_nothing_when_the_index_changes_during_the_runs(repo, monkeypatch):
    root, runs = repo
    measured = _git(root, "write-tree")
    run = bench_pairs.run

    def run_then_stage(checkout, workload, seed, trace):
        if not runs:
            (root / "late.txt").write_text("staged after the runs began\n")
            _git(root, "add", "late.txt")
        return run(checkout, workload, seed, trace)

    monkeypatch.setattr(bench_pairs, "run", run_then_stage)
    with pytest.raises(SystemExit, match=f"tree {measured} was measured") as info:
        bench_pairs.main(ARGV)
    assert info.value.code != 0
    assert len(runs) == 2 * bench_pairs.PAIRS
    assert not (root / "BENCH_7.json").exists()


def test_a_committed_change_side_needs_no_clean_tree(repo):
    root, runs = repo
    (root / "b.txt").write_text("never staged\n")
    assert bench_pairs.main([*ARGV, "--change", "HEAD"]) == 0
    written = json.loads((root / "BENCH_7.json").read_text())
    assert written["revisions"]["change"] == _git(root, "rev-parse", "HEAD")


def test_tier1_runs_once_per_side_after_the_pairs(repo, monkeypatch):
    root, runs = repo
    sides = []

    def tier1(checkout):
        # every benchmark run is done before the suite runs
        assert len(runs) == 2 * bench_pairs.PAIRS
        sides.append(checkout.name)
        return {"summary": f"{checkout.name} suite"}

    monkeypatch.setattr(bench_pairs, "tier1", tier1)
    assert bench_pairs.main(ARGV) == 0
    # each round runs the suite once on each side
    rounds = [sides[i:i + 2] for i in range(0, len(sides), 2)]
    assert len(rounds) == bench_pairs.TIER1_ROUNDS
    assert all(sorted(r) == ["change", "parent"] for r in rounds)
    record = json.loads((root / "BENCH_7.json").read_text())["tier1"]
    for side in ("parent", "change"):
        assert record[side] == [{"summary": f"{side} suite"}] * bench_pairs.TIER1_ROUNDS


def test_tier1_runs_twice_per_side_after_the_pairs_alternating(repo, monkeypatch):
    root, runs = repo
    sides = []

    def tier1(checkout):
        # every benchmark run is done before the suite runs
        assert len(runs) == 2 * bench_pairs.PAIRS
        sides.append(checkout.name)
        return {"summary": f"{checkout.name} suite {sides.count(checkout.name)}"}

    monkeypatch.setattr(bench_pairs, "tier1", tier1)
    assert bench_pairs.main(ARGV) == 0
    # the side that runs first alternates from round to round
    assert sides == ["parent", "change", "change", "parent"]
    record = json.loads((root / "BENCH_7.json").read_text())["tier1"]
    assert record["parent"] == [{"summary": "parent suite 1"}, {"summary": "parent suite 2"}]
    assert record["change"] == [{"summary": "change suite 1"}, {"summary": "change suite 2"}]
    assert record["first_in_round"] == ["parent", "change"]
    assert "no bound and no verdict" in record["command"]


def test_tier1_peak_counts_only_the_suite(tmp_path, monkeypatch):
    # a 48 MiB child of this process, waited for before the suite runs,
    # stays out of the suite's peak, which still sees the suite's 16 MiB.
    # Both stay below the tier-1 suite's own peak, which this test is part of
    subprocess.run([sys.executable, "-c", "b = b'x' * (48 << 20)"], check=True)
    suite = "b = b'x' * (16 << 20); print('noise'); print('1 passed in 0.01s')"
    monkeypatch.setattr(bench_pairs, "TIER1", ["-c", suite])
    record = bench_pairs.tier1(tmp_path)
    assert 16 <= record["peak_rss_mib"] < 48
    assert record["summary"] == "1 passed in 0.01s"
    assert record["returncode"] == 0
    assert record["wall_s"] > 0


@pytest.mark.parametrize(
    "bad",
    [
        ["--claim", "wall_s"],
        ["--claim", "w:wall_s:x"],
        ["--claim", "nope:wall_s"],
        ["--claim", "w:nope"],
        ["--trace", "w"],
        ["--trace", "w:x"],
        ["--trace", "nope:1"],
    ],
)
def test_a_bad_claim_or_trace_stops_the_tool_before_any_run(repo, bad):
    root, runs = repo
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([*ARGV, "--change", "HEAD", *bad])
    assert info.value.code not in (0, None)
    assert runs == []
    assert not (root / "BENCH_7.json").exists()


def test_a_good_claim_and_trace_are_recorded(repo):
    root, runs = repo
    assert bench_pairs.main([*ARGV, "--change", "HEAD", "--claim", "w:wall_s", "--trace", "w:3"]) == 0
    written = json.loads((root / "BENCH_7.json").read_text())
    assert written["claim"]["workload"] == "w" and written["claim"]["metric"] == "wall_s"
    assert ("change", 3) in runs and "trace_w_seed_3" in written


# Python reads the variable as set when it is not empty
@pytest.mark.parametrize("value, written", [("1", "set"), ("", "not set"), (None, "not set")])
def test_the_machine_line_says_whether_bytecode_is_written(repo, monkeypatch, value, written):
    root, runs = repo
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    if value is not None:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert bench_pairs.main([*ARGV, "--change", "HEAD"]) == 0
    machine = json.loads((root / "BENCH_7.json").read_text())["machine"]
    assert machine.endswith(f", PYTHONDONTWRITEBYTECODE {written}")


# what an untraced perfbench/run.py prints, made up, its JSON result last
STDOUT = """workload w  seed 1  seconds 1  trace 0
  op_p50_ms                                          0.05 ms  samples=6000
  raw wall time 1.2 s, 40 calibration marks
  op_p50_ms of cli: 0.228734 ms over 1173
  op_p50_ms of m_multiply: 0.0286935 ms over 1163
  FAILED x1 m_multiply {(1,): 1}: product differs
{"correct": true, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
"""


def test_a_run_reads_the_median_of_each_request_kind(tmp_path, monkeypatch):
    def fake(argv, **kwargs):
        assert argv[-2:] == ["--trace", "0"]
        return subprocess.CompletedProcess(argv, 0, STDOUT, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake)
    result = bench_pairs.run(tmp_path, "w", 1, 0)
    assert result["kinds"] == {"cli": 0.228734, "m_multiply": 0.0286935}
    assert result["metrics"] == {"wall_s": {"value": 1.0, "unit": "s"}}
    # the whole-stream median is not a kind's line
    assert bench_pairs.kind_medians("  op_p50_ms    0.05 ms  samples=6000") == {}


def test_the_kind_medians_are_summarized_per_side_with_no_verdict():
    def runs(values, extra):
        return [{"kinds": {"m": v, extra: 1.0}} for v in values]

    # a kind that not every run printed is left out
    results = {"parent": runs(PARENT, "a"), "change": runs([0.5] * 9 + [0.7], "b")}
    assert bench_pairs.by_kind(results) == {
        "m": {
            "unit": "ms",
            "parent_median": 1.005,
            "parent_quartiles": [0.9925, 1.0275],
            "change_median": 0.5,
            "change_quartiles": [0.5, 0.5],
        }
    }
    assert bench_pairs.by_kind({"parent": [{}], "change": [{}]}) == {}


def test_the_kind_medians_are_written_per_workload(repo, monkeypatch):
    root, runs = repo

    def run(checkout, workload, seed, trace):
        runs.append((checkout.name, seed))
        value = 0.06 if checkout.name == "parent" else 0.05
        return {
            "metrics": {"wall_s": {"value": 1.0}},
            "failed": 0,
            "attempted": 1,
            "kinds": {"m_multiply": value - 0.02 + seed / 1000},
        }

    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main([*ARGV, "--change", "HEAD"]) == 0
    kinds = json.loads((root / "BENCH_7.json").read_text())["workloads"]["w"]["kinds"]
    assert list(kinds) == ["m_multiply"]
    row = kinds["m_multiply"]
    assert (row["parent_median"], row["change_median"]) == (0.0455, 0.0355)
    assert "verdict" not in row


def test_no_cold_run_for_a_workload_other_than_the_stream(repo, monkeypatch):
    root, runs = repo
    monkeypatch.setattr(bench_pairs, "cold", lambda checkout, seed: pytest.fail("cold run"))
    assert bench_pairs.main([*ARGV, "--change", "HEAD"]) == 0
    assert "cold" not in json.loads((root / "BENCH_7.json").read_text())["workloads"]["w"]


def test_the_stream_runs_cold_once_per_pair_on_each_side(repo, monkeypatch):
    root, runs = repo
    monkeypatch.setattr(bench_pairs, "COLD_WORKLOAD", "w")

    def cold(checkout, seed):
        # right after the same side's run of the same pair
        assert runs[-1] == (checkout.name, seed)
        runs.append(("cold " + checkout.name, seed))
        value = 0.19 if checkout.name == "parent" else 0.17
        p50 = value + seed / 1000
        return {"op_p50_ms": p50, "kinds": {"cli": 0.3}, "attempted": 5, "failed": 0}

    monkeypatch.setattr(bench_pairs, "cold", cold)
    assert bench_pairs.main([*ARGV, "--change", "HEAD"]) == 0
    assert [r for r in runs if r[0].startswith("cold")][:4] == [
        ("cold parent", 1), ("cold change", 1), ("cold change", 2), ("cold parent", 2)
    ]
    assert len(runs) == 4 * bench_pairs.PAIRS
    row = json.loads((root / "BENCH_7.json").read_text())["workloads"]["w"]["cold"]
    assert row["op_p50_ms"]["parent"][:2] == [0.191, 0.192]
    p50 = row["op_p50_ms"]
    assert (p50["parent_median"], p50["change_median"]) == (0.1955, 0.1755)
    assert row["kinds"]["cli"]["change_median"] == 0.3
    assert row["failed_ops"] == "parent 0, change 0"
    assert "verdict" not in json.dumps({k: v for k, v in row.items() if k != "command"})


def test_the_cold_stream_is_summarized_per_side_with_no_verdict():
    def runs(values, extra):
        return [{"op_p50_ms": v, "kinds": {"m": v / 2, extra: 1.0}, "failed": 0} for v in values]

    # a kind that not every run printed is left out, as in the warm stream
    results = {"parent": runs(PARENT, "a"), "change": runs([0.5] * 10, "b")}
    summary = bench_pairs.cold_summary(results)
    assert summary["op_p50_ms"] == {
        "parent": PARENT,
        "change": [0.5] * 10,
        "unit": "ms",
        "parent_median": 1.005,
        "parent_quartiles": [0.9925, 1.0275],
        "change_median": 0.5,
        "change_quartiles": [0.5, 0.5],
    }
    assert list(summary["kinds"]) == ["m"]
    assert summary["kinds"]["m"]["parent_median"] == 0.5025
    assert "no bound and no verdict" in summary["command"]
    assert "verdict" not in json.dumps({k: v for k, v in summary.items() if k != "command"})


def test_a_cold_run_reads_the_scripts_last_line(tmp_path, monkeypatch):
    line = {"op_p50_ms": 0.18, "kinds": {"cli": 0.29}, "attempted": 3, "failed": 0}

    def fake(argv, **kwargs):
        assert argv[1:] == [str(bench_pairs.COLD_SCRIPT), str(tmp_path), "--seed", "4"]
        return subprocess.CompletedProcess(argv, 0, "noise\n" + json.dumps(line) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake)
    assert bench_pairs.cold(tmp_path, 4) == line


# a made-up checkout: a stream of three ops of two kinds, a cache-clearing
# hook that counts its calls, and a harness that runs each op's reset
_FAKE_WORKLOADS = """
from types import SimpleNamespace
CLEARED = []

def clear_caches():
    CLEARED.append(1)

def build(name, seed, seconds):
    assert (name, seconds) == ("algebra_requests", 20)
    kinds = ["cli", "m_multiply", "cli"]
    return SimpleNamespace(ops=[SimpleNamespace(kind=k, reset=None, seed=seed) for k in kinds])
"""
_FAKE_HARNESS = """
from types import SimpleNamespace
import workloads

def run_ops(ops):
    for op in ops:
        op.reset()
    # in ms, so the made-up medians are exact
    latencies = [len(workloads.CLEARED) * (i + 1) for i in range(len(ops))]
    return SimpleNamespace(latencies=latencies, kinds=[op.kind for op in ops], failures=[],
                           attempted=len(ops))

def end_to_end(outcome, setup_s):
    return {"op_p50_ms": {"value": sorted(outcome.latencies)[1]}}

def p50_by_kind(outcome):
    by = {}
    for kind, latency in zip(outcome.kinds, outcome.latencies):
        by.setdefault(kind, []).append(latency)
    return {k: (sorted(v)[len(v) // 2], len(v)) for k, v in sorted(by.items())}
"""


def test_the_cold_script_clears_the_checkouts_caches_before_each_op(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(_FAKE_WORKLOADS)
    (tmp_path / "perfbench" / "harness.py").write_text(_FAKE_HARNESS)
    (tmp_path / "src" / "glidekit").mkdir(parents=True)
    (tmp_path / "src" / "glidekit" / "__init__.py").write_text("")
    done = subprocess.run(
        [sys.executable, str(bench_pairs.COLD_SCRIPT), str(tmp_path), "--seed", "5"],
        capture_output=True,
        text=True,
        check=True,
    )
    # three ops, each reset by the checkout's own clear_caches: 3 ms per op rank
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "op_p50_ms": 6.0,
        "kinds": {"cli": 9.0, "m_multiply": 6.0},
        "attempted": 3,
        "failed": 0,
    }
