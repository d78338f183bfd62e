"""Run every listed workload on several seeds and append one entry to results.json.

    python3 perfbench/record.py --seeds 1-10 --label "what this entry measures"
    python3 perfbench/record.py --seeds 1-10 --label "..." --baseline

Each seed is one fresh untraced run per workload; the entry keeps every
value, each end-to-end metric's median and quartile spread (the distance
between the first and third quartile over the median), and the per-layer
metrics of one traced run per workload on the first seed.  ``--baseline``
also re-measures the ROADMAP baseline stage figures with traced runs of the
full sweeps and records the failures of the unlisted malformed workload.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results.json"
# at this --seconds every instance of both sweeps runs once
FULL_SWEEP_SECONDS = 600
# (stage, ROADMAP figure in s, workload, per-layer metric)
ROADMAP_STAGES = [
    ("build_poset", 20.8, "glide_sweep", "poset.build_poset.busy_s"),
    ("mobius", 12.0, "glide_sweep", "poset.mobius.busy_s"),
    ("knutson_class", 5.1, "kclass_sweep", "ktheory.knutson_class.busy_s"),
    ("chern_substitute", 12.5, "kclass_sweep", "ktheory.chern_substitute.busy_s"),
    ("is_quasisymmetric", 8.6, "kclass_sweep", "ktheory.is_quasisymmetric.busy_s"),
]
ROADMAP_IMPORT_S = 0.045
IMPORT_PROBE = (
    "import sys; sys.path[:0] = ['perfbench', 'src']; from speed import scaled_interval; "
    "print(scaled_interval(lambda: __import__('glidekit'))[0])"
)


def argv(workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run(workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    done = subprocess.run([sys.executable] + argv(workload, seed, seconds, trace),
                          capture_output=True, text=True, check=True, cwd=ROOT)
    return done.stdout.splitlines()


def result(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return json.loads(run(workload, seed, seconds, trace)[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def roadmap_baseline(seed: int) -> dict:
    """The ROADMAP's single-run stage figures, re-measured as traced self times."""
    traced = {
        w: result(w, seed, FULL_SWEEP_SECONDS, 1)["metrics"] for w in ("glide_sweep", "kclass_sweep")
    }
    rows = [(stage, figure, traced[w][metric]["value"], f"{w}, every instance once")
            for stage, figure, w, metric in ROADMAP_STAGES]
    imports = [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                             text=True, check=True, cwd=ROOT).stdout)
        for _ in range(9)
    ]
    rows.append(
        ("import glidekit", ROADMAP_IMPORT_S, statistics.median(imports), "median of 9 fresh processes")
    )
    return {
        "commands": [
            " ".join(["python3"] + argv(w, seed, FULL_SWEEP_SECONDS, 1)) for w in traced
        ],
        "note": "scaled self times of the traced full sweeps; the ROADMAP figures are raw single runs",
        "figures": [
            {
                "stage": stage,
                "roadmap_s": figure,
                "measured_s": round(measured, 4),
                "ratio": round(measured / figure, 3),
                "differs_by_more_than_a_tenth": abs(measured / figure - 1) > 0.1,
                "scope": scope,
            }
            for stage, figure, measured, scope in rows
        ],
    }


def malformed_failures(seed: int, seconds: int) -> dict:
    """One run of the stream with every malformed kind; its failures by request."""
    lines = run("algebra_requests_malformed", seed, seconds, 0)
    last = json.loads(lines[-1])
    failures = {}
    for line in lines:
        m = re.match(r"\s+FAILED x(\d+) (.*?): (.*)$", line)
        if m:
            failures[m.group(2)] = {"count": int(m.group(1)), "problem": m.group(3)}
    return {
        "command": " ".join(["python3"] + argv("algebra_requests_malformed", seed, seconds, 0)),
        "attempted": last["attempted"],
        "failed": last["failed"],
        "error_rate": last["failed"] / last["attempted"],
        "failures_by_request": failures,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    entry = {"label": args.label, "date": time.strftime("%Y-%m-%d"), "seconds": args.seconds,
             "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [result(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = result(workload, args.seeds[0], args.seconds, 1)
        entry["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for name, s in entry["workloads"][workload]["end_to_end"].items():
            line = f"{workload:18} {name:14} median {s['median']:.6g} spread {s['spread']:.3f}"
            print(line, flush=True)
    if args.baseline:
        entry["algebra_requests_malformed"] = malformed_failures(args.seeds[0], args.seconds)
        entry["roadmap_baseline"] = roadmap_baseline(args.seeds[0])
    results = {"entries": []}
    if RESULTS.exists():
        results = json.loads(RESULTS.read_text(encoding="utf-8"))
    results["entries"].append(entry)
    RESULTS.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
