"""The claim and verdict rules of tools/bench_pairs.py, on made-up pair results."""

import importlib.util
from pathlib import Path

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
