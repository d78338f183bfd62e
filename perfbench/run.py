"""glidekit benchmark: one workload, one fresh single-threaded process.

    python3 perfbench/run.py --workload glide_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload traced and reports the per-layer metrics.  Every time is scaled to
the reference speed of speed.py; the lines for people also give the raw wall
time.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are for people.
``--workload all`` runs every listed workload in turn, each in its own
process.  It may be started from any directory: it works from the root of
the checkout that holds it, and imports glidekit from that checkout's src/
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from speed import scaled_interval

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9  # this process plus eight fresh probe processes
LISTED = ("glide_sweep", "kclass_sweep", "algebra_requests")
# the algebra_requests stream with every malformed kind in its malformed
# share, including the ones that still end in a traceback; BENCHMARK.json
# leaves it out because its workloads must be ones on which no op fails
UNLISTED = ("algebra_requests_malformed",)


def setup(workload: str, seed: int, seconds: int):
    """Import glidekit and build the workload's inputs; return (scaled seconds, workload)."""
    os.chdir(ROOT)  # the corpus names its input files relative to the root

    def import_and_build():
        sys.path.insert(0, str(ROOT / "src"))
        import glidekit

        if Path(glidekit.__file__).resolve().parent != ROOT / "src" / "glidekit":
            raise ImportError(f"glidekit imported from {glidekit.__file__}, not from {ROOT / 'src'}")
        import workloads

        return workloads.build(workload, seed, seconds)

    return scaled_interval(import_and_build)


def child_argv(args, **overrides) -> list[str]:
    fields = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 0}
    fields.update(overrides)
    argv = [sys.executable, str(Path(__file__).resolve())]
    for key, value in fields.items():
        argv += [f"--{key}", str(value)]
    return argv


def probe_setup(args) -> float:
    """Set-up time measured in a fresh process, as the first run of a user pays it."""
    done = subprocess.run(
        child_argv(args) + ["--probe-setup"], capture_output=True, text=True, check=True
    )
    return float(done.stdout.split()[-1])


def report(args, outcome, metrics, extra_lines=()) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in metrics.items():
        notes = {k: v for k, v in m.items() if k not in ("value", "unit")}
        note = "  " + " ".join(f"{k}={v}" for k, v in notes.items()) if notes else ""
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  raw wall time {outcome.raw_wall_s:.6g} s, {len(outcome.speed.slices)} calibration marks")
    for line in extra_lines:
        print(line)
    by_key: dict[str, list[str]] = {}
    for key, problem in outcome.failures:
        by_key.setdefault(key, []).append(problem)
    for key, problems in sorted(by_key.items()):
        print(f"  FAILED x{len(problems)} {key}: {problems[0]}")


def measure(args) -> int:
    from harness import end_to_end, p50_by_kind, run_ops

    own_setup_s, built = setup(args.workload, args.seed, args.seconds)
    samples = [own_setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    outcome = run_ops(built.ops)
    metrics = end_to_end(outcome, statistics.median(samples))
    metrics["setup_s"]["samples"] = len(samples)
    kinds = [f"  op_p50_ms of {k}: {ms:.6g} ms over {n}" for k, (ms, n) in p50_by_kind(outcome).items()]
    report(args, outcome, metrics, kinds)
    # error_rate is printed above; BENCHMARK.json leaves it out because it is
    # zero on every listed workload, and attempted/failed carry it exactly
    del metrics["error_rate"]
    emit(outcome, metrics)
    return 0


def measure_traced(args) -> int:
    _, built = setup(args.workload, args.seed, args.seconds)
    import workloads
    from harness import run_ops
    from tracing import Tracer, layer_metrics, overhead_per_span

    c_tilde = workloads.C_TILDE.cache_info()
    rings = [ring.multiply.cache_info() for ring in built.rings]
    tracer = Tracer()
    tracer.install()
    outcome = run_ops(built.ops, tracer)
    c_tilde_after = workloads.C_TILDE.cache_info()
    rings_after = [ring.multiply.cache_info() for ring in built.rings]
    tracer.uninstall()
    per_span = overhead_per_span()
    metrics = layer_metrics(
        tracer,
        outcome,
        built.counts,
        (c_tilde_after.hits - c_tilde.hits, c_tilde_after.misses - c_tilde.misses),
        [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(rings_after, rings)],
        per_span * len(tracer.spans),
    )
    spans = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    lines = [
        f"  traced wall_s {outcome.wall_s:.6g} s; one span adds {per_span * 1e6:.3g} us",
        f"  {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}",
    ]
    report(args, outcome, metrics, lines)
    emit(outcome, metrics)
    return 0


def emit(outcome, metrics) -> None:
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    status = 0
    for workload in LISTED:
        argv = child_argv(args, workload=workload, trace=args.trace)
        done = subprocess.run(argv, capture_output=True, text=True)
        print(done.stdout, end="")
        if done.returncode:
            print(done.stderr, end="", file=sys.stderr)
            status = done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=LISTED + UNLISTED + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        if args.probe_setup:
            print(setup(args.workload, args.seed, args.seconds)[0])
            return 0
        return measure_traced(args) if args.trace else measure(args)
    except (ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
