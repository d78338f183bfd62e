"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from glidekit import qsym  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str, count: int) -> list[dict]:
    return workloads.load_rows(name)[:count]


def tiny_workloads():
    counts: dict = workloads.Workload().counts
    ops = workloads.glide_sweep(3, 10**6, counts, tiny("glide_sweep", 40))
    ops += workloads.kclass_sweep(3, 10**6, counts, tiny("kclass_sweep", 40))
    return ops, counts


def test_tiny_sweeps_pass_their_checks():
    ops, counts = tiny_workloads()
    outcome = harness.run_ops(ops)
    assert outcome.failures == []
    assert outcome.attempted == 80
    assert counts["poset.elements"] > 0 and counts["ktheory.chern.terms"] > 0


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    outcome = harness.run_ops(tiny_workloads()[0])
    metrics = harness.end_to_end(outcome, setup_s=0.01)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items() if name in spec} == spec
    # error_rate is printed but left out of BENCHMARK.json
    assert set(metrics) - set(spec) == {"error_rate"}
    assert metrics["op_tail_ms"]["samples"] == 80
    assert metrics["op_tail_ms"]["percentile"] == 87.5


def test_every_per_layer_metric_is_emitted_with_its_unit():
    built = workloads.build("algebra_requests", 5, 1)
    built.ops = built.ops[:60] + tiny_workloads()[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = harness.run_ops(built.ops, tracer)
    finally:
        tracer.uninstall()
    assert outcome.failures == []
    overhead_s = tracing.overhead_per_span(calls=2000, blocks=3) * len(tracer.spans)
    metrics = tracing.layer_metrics(tracer, outcome, built.counts, (0, 0), [], overhead_s)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == spec
    assert metrics["trace.overhead_s"]["value"] > 0
    assert metrics["cli.run.calls"]["value"] > 0
    assert metrics["requests.cli.op_p50_ms"]["value"] > 0
    assert metrics["poset.build_poset.calls"]["value"] >= 40  # CLI poset requests add more
    # nested spans: lr_coefficient runs inside buk_structure_constant
    names = {span[0] for span in tracer.spans}
    assert {"schur.buk_structure_constant", "schur.lr_coefficient"} <= names


def test_planted_wrong_answer_raises_error_rate():
    true_product = {(1, 1): 2, (2,): 1}
    planted = {(2,): 1}  # the fake oracle's wrong answer; glidekit is untouched

    def oracle(expected):
        return lambda result: None if result == expected else "mismatch"

    def shuffle():
        return qsym.overlapping_shuffle((1,), (1,))

    right = harness.Op("right", shuffle, oracle(true_product))
    wrong = harness.Op("planted", shuffle, oracle(planted))
    clean = harness.end_to_end(harness.run_ops([right, right]), 0.0)
    dirty = harness.end_to_end(harness.run_ops([right, wrong]), 0.0)
    assert clean["error_rate"]["value"] == 0
    assert dirty["error_rate"]["value"] == 0.5


def test_exception_in_an_op_is_a_failure():
    def boom():
        raise ZeroDivisionError("planted")

    outcome = harness.run_ops([harness.Op("boom", boom, lambda result: None)])
    assert outcome.failures == [("boom", "uncaught ZeroDivisionError: planted")]


def test_repeated_op_is_reset_before_each_call_and_counted_once():
    calls = []
    op = harness.Op("r", lambda: calls.append("run"), lambda result: None, repeat=3,
                    reset=lambda: calls.append("reset"))
    outcome = harness.run_ops([op])
    assert calls == ["reset", "run"] * 3
    assert outcome.attempted == 1 and outcome.failures == []
    traced = harness.run_ops([op], tracing.Tracer())
    assert calls[6:] == ["reset", "run"] and traced.attempted == 1


def test_self_times_exclude_child_spans():
    tracer = tracing.Tracer()
    tracer.spans += [("outer", 0.0, 1.0, -1, 0), ("inner", 0.2, 0.5, 0, 0), ("inner", 0.6, 0.7, 0, 0)]
    busy, calls = tracer.self_times(lambda op: 2.0)
    assert calls == {"outer": 1, "inner": 2}
    assert abs(busy["outer"] - 1.2) < 1e-12 and abs(busy["inner"] - 0.8) < 1e-12


def test_speed_factor_is_reference_over_the_median_slice_around_a_segment():
    s = speed.Speed()
    s.slices = [speed.REFERENCE_S] + [2 * speed.REFERENCE_S] * 6
    s.times = list(range(len(s.slices)))
    assert s.factor(4) == 0.5
    assert s.segment(2.5) == 2 and s.segment(-1) == 0


def test_glide_expand_requests_pass_from_another_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, built = run.setup("algebra_requests", 5, 1)
    requests = workloads.load_corpus()["requests"]
    expand = [workloads.cli_op(r, built.counts, "cli") for r in requests if "glide-expand" in r["argv"]]
    assert len(expand) >= 2
    assert harness.run_ops(expand).failures == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "glide_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
