"""Closed-loop measurement of one workload: one client, one op at a time.

An op is a timed call into glidekit followed by an untimed check against an
independent route or a committed digest.  The op's latency covers only the
call; the check runs outside it but inside the wall time of the phase, so
``wall_s`` is the time to a verified result.  An op with ``repeat`` > 1 is
called that many times, ``reset`` before each call, and its latency is the
median call; the traced run calls every op once.  Between ops, every
``speed.INTERVAL_S``, a calibration slice runs outside every measured
interval, and each interval is scaled to the reference speed (see speed.py).
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass
from typing import Any, Callable

from speed import Speed, clock


@dataclass
class Op:
    """One request: ``run`` is timed, ``check`` returns None or a failure text."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    kind: str = "op"
    repeat: int = 1
    reset: Callable[[], None] | None = None  # before each call, untimed


@dataclass
class Outcome:
    """Times are scaled to the reference speed; ``raw_wall_s`` is as the clock read it."""

    wall_s: float
    latencies_s: list[float]
    kinds: list[str]
    segments: list[int]  # the calibration segment each op ran in
    failures: list[tuple[str, str]]
    repeats: int
    speed: Speed
    raw_wall_s: float

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


def run_ops(ops: list[Op], tracer=None) -> Outcome:
    """Run every op in order; an exception in either phase fails the op."""
    latencies: list[float] = []
    totals: list[float] = []  # latency and check
    segments: list[int] = []
    failures: list[tuple[str, str]] = []
    seen: set[str] = set()
    repeats = 0
    speed = Speed()
    started = clock()
    for index, op in enumerate(ops):
        if op.key in seen:
            repeats += 1
        seen.add(op.key)
        if tracer is not None:
            tracer.op_id = index
        if speed.due(clock()):
            speed.mark()
        segments.append(len(speed.times) - 1)
        calls = []
        t0 = clock()
        try:
            for _ in range(1 if tracer is not None else op.repeat):
                if op.reset is not None:
                    op.reset()
                result = None  # the last call's result is freed before the timer starts
                t0 = clock()
                result = op.run()
                calls.append(clock() - t0)
        except Exception as exc:  # an uncaught exception is a failed op
            latencies.append(clock() - t0)
            totals.append(latencies[-1])
            failures.append((op.key, f"uncaught {type(exc).__name__}: {exc}"))
            continue
        latencies.append(statistics.median(calls))
        t1 = clock()
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        totals.append(latencies[-1] + clock() - t1)
        if problem:
            failures.append((op.key, problem))
        del result  # so peak memory is one op's, not two neighbours'
    speed.mark()
    raw_wall_s = clock() - started
    factors = speed.factors()
    return Outcome(
        wall_s=sum(t * factors[s] for t, s in zip(totals, segments)),
        latencies_s=[t * factors[s] for t, s in zip(latencies, segments)],
        kinds=[op.kind for op in ops],
        segments=segments,
        failures=failures,
        repeats=repeats,
        speed=speed,
        raw_wall_s=raw_wall_s,
    )


def p50_by_kind(outcome: Outcome) -> dict[str, tuple[float, int]]:
    """Median latency in ms and sample count of each kind of op."""
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(outcome.kinds, outcome.latencies_s):
        by_kind.setdefault(kind, []).append(latency)
    return {k: (statistics.median(v) * 1000, len(v)) for k, v in sorted(by_kind.items())}


def end_to_end(outcome: Outcome, setup_s: float) -> dict[str, dict[str, Any]]:
    """The six end-to-end metrics, with the sample counts they rest on."""
    ordered = sorted(outcome.latencies_s)
    n = len(ordered)
    rank = max(0, n - 11)  # the highest sample with ten samples beyond it
    return {
        "wall_s": {"value": outcome.wall_s, "unit": "s"},
        "op_p50_ms": {
            "value": statistics.median(ordered) * 1000,
            "unit": "ms",
            "samples": n,
        },
        "op_tail_ms": {
            "value": ordered[rank] * 1000,
            "unit": "ms",
            "percentile": round(100 * (rank + 1) / n, 3),
            "samples": n,
        },
        "error_rate": {
            "value": len(outcome.failures) / n,
            "unit": "ratio",
            "failed": len(outcome.failures),
            "attempted": n,
        },
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
