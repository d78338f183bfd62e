"""Alternating parent/change benchmark pairs, written as one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr 14 --first-seed 101 \\
        --claim glide_sweep:wall_s --trace glide_sweep:111 --trace kclass_sweep:111 \\
        --note "what the change does" --seeds-note "why these seeds"

Both sides are exported with ``git archive`` into a temporary directory:
the parent is a commit (``--parent``, default HEAD) and the change is a
commit given with ``--change`` or, by default, the staged index (``git
write-tree``), so stage the change with ``git add -A`` first.  With the
index as the change, the tool refuses to start while a tracked file has
unstaged changes or an untracked file exists (its own BENCH_<pr>.json
aside), and after the runs it writes nothing and exits non-zero unless
``git write-tree`` still names the tree it measured.  For every
workload in the change's BENCHMARK.json and each of ten seeds from
``--first-seed`` on, each side runs
``perfbench/run.py --workload W --seed S --trace 0`` once in its own
checkout; the side that runs first alternates from pair to pair, the
parent first in the first pair.  Each ``--trace W:S`` adds one ``--trace 1``
run per side and keeps every per-layer metric of both.  The end-to-end
metrics, their units and which way is better come from BENCHMARK.json.
A malformed ``--claim`` or ``--trace`` stops the tool before the export,
and a workload or claimed metric that the change's BENCHMARK.json does not
name stops it right after, so neither wastes a run.

In each pair of algebra_requests, each side also runs that stream cold
once, right after its own run: ``tools/cold_requests.py`` imports the
side's own perfbench harness and workloads and clears every glidekit cache
before each op, untimed, as both sweeps do.  The cold ``op_p50_ms`` and the
cold median of each request kind are written under the workload's ``cold``
as reported values, with no bound and no verdict: they show what a first
request pays, which the warm stream, mostly cache hits, does not.

After the pairs, each side runs the tier-1 suite twice, in two rounds; the
parent runs first in the first round and the change in the second.  Both
runs' wall times and the peak RSS of their processes are written as
reported values, with no bound and no verdict.  Each tier-1 run is timed by
a wrapper process of its own: ``RUSAGE_CHILDREN`` keeps the largest RSS of
every child already waited for, so read in this process it would also
count the benchmark runs.

Each untraced run also prints one ``op_p50_ms of <kind>: X ms over N``
line per request kind of its workload.  For every kind that each run
printed, the medians and quartiles of X over each side's runs are written
under the workload's ``kinds``, as reported values, with no verdict: they
show which kind moved the stream median.

A claim is met when the change is better in at least nine tenths of the
pairs (ties count for neither) and the medians differ, in the better
direction, by more than the parent's interquartile range.  Every
end-to-end metric also gets a ``verdict`` against its ``bound`` in
BENCHMARK.json, a fraction of the parent median: ``worse beyond bound``
when the change median is worse than the parent median by more than that;
else ``unresolved`` when the parent's interquartile range exceeds it and not
every change run beats every parent run; else ``within bound``.  Quartiles
are ``statistics.quantiles(n=4, method='inclusive')``.  Stdlib only; the
export uses tarfile's ``data`` filter, so it needs Python 3.10.12 or 3.11.4
on.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
TIER1_ROUNDS = 2
# the stream that is also run cold, by the script next to this tool
COLD_WORKLOAD = "algebra_requests"
COLD_SCRIPT = Path(__file__).resolve().parent / "cold_requests.py"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# run as ``python -c TIMED argv...``: runs argv, then prints its wall time,
# the peak RSS of its processes (ru_maxrss is in KiB on Linux), its exit
# code and the last line it printed
TIMED = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
done = subprocess.run(sys.argv[1:], capture_output=True, text=True)
wall = time.perf_counter() - start
lines = done.stdout.strip().splitlines() or [""]
print(json.dumps({
    "wall_s": round(wall, 3),
    "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
    "returncode": done.returncode,
    "summary": lines[-1],
}))
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def unstaged(output: str) -> list[str]:
    """Tracked files with unstaged changes and untracked files, but
    ``output``: what a tree written from the index would leave out."""
    changed = git("diff", "--name-only", "-z").split(b"\0")
    untracked = git("ls-files", "--others", "--exclude-standard", "-z").split(b"\0")
    return sorted({p.decode() for p in changed + untracked if p} - {output})


def export(treeish: str, dest: Path) -> None:
    """Write the committed files of ``treeish`` into ``dest``."""
    archive = git("archive", "--format=tar", treeish)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark process; its last stdout line is the JSON result, to
    which the median of each request kind it printed is added as ``kinds``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        argv + ["--trace", str(trace)], cwd=checkout, capture_output=True, text=True
    )
    if done.returncode:
        raise SystemExit(f"{checkout.name} {workload} seed {seed} failed:\n{done.stderr}")
    return {**json.loads(done.stdout.splitlines()[-1]), "kinds": kind_medians(done.stdout)}


KIND_LINE = re.compile(r"\s*op_p50_ms of (\S+): (\S+) ms over \d+")


def kind_medians(stdout: str) -> dict[str, float]:
    """The X of each ``op_p50_ms of <kind>: X ms over N`` line, by kind."""
    return {m[1]: float(m[2]) for m in map(KIND_LINE.fullmatch, stdout.splitlines()) if m}


def by_kind(results: dict) -> dict:
    """The medians and quartiles, per side, of each kind's median over the
    runs, for the kinds that every run printed; no verdict."""
    runs = [r.get("kinds", {}) for side in SIDES for r in results[side]]
    common = sorted(set.intersection(*map(set, runs))) if runs else []
    return {
        kind: reported({side: [r["kinds"][kind] for r in results[side]] for side in SIDES})
        for kind in common
    }


def reported(values: dict) -> dict:
    """The median and quartiles of each side's values, in ms; no verdict."""
    row = {"unit": "ms"}
    for side in SIDES:
        row[f"{side}_median"] = round(statistics.median(values[side]), 6)
        row[f"{side}_quartiles"] = quartiles(values[side])
    return row


def cold(checkout: Path, seed: int) -> dict:
    """One cold run of the algebra_requests stream in ``checkout``, by the
    cold script; its last stdout line is the JSON result."""
    argv = [sys.executable, str(COLD_SCRIPT), str(checkout), "--seed", str(seed)]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{checkout.name} cold seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def cold_summary(results: dict) -> dict:
    """The cold stream's ``op_p50_ms`` and each kind's median, per side, as
    reported values: every run's value, their median and quartiles, and no
    bound or verdict."""
    p50 = {side: [r["op_p50_ms"] for r in results[side]] for side in SIDES}
    return {
        "command": "python3 tools/cold_requests.py CHECKOUT --seed S, once per pair on each "
        "side, right after that side's run of the pair: the algebra_requests stream with "
        "every glidekit cache cleared before each op, untimed; reported values, with no "
        "bound and no verdict",
        "failed_ops": ", ".join(f"{s} {sum(r['failed'] for r in results[s])}" for s in SIDES),
        "op_p50_ms": {
            **{side: [round(v, 6) for v in p50[side]] for side in SIDES},
            **reported(p50),
        },
        "kinds": by_kind(results),
    }


def tier1(checkout: Path) -> dict:
    """One tier-1 run in ``checkout``, timed by its own wrapper process."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", TIMED, sys.executable, *TIER1],
        cwd=checkout,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def tier1_rounds(checkouts: dict) -> dict:
    """Every side's tier-1 runs, in order, and the side that ran first in
    each round."""
    runs = {side: [] for side in SIDES}
    first = []
    for i in range(TIER1_ROUNDS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(tier1(checkouts[side]))
    return {**runs, "first_in_round": first}


def quartiles(values: list[float]) -> list[float]:
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")[::2]]


def summarize(unit: str, better: str, parent: list[float], change: list[float]) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "unit": unit,
        "parent": [round(v, 6) for v in parent],
        "change": [round(v, 6) for v in change],
        "parent_median": round(p_med, 6),
        "parent_quartiles": quartiles(parent),
        "change_median": round(c_med, 6),
        "change_quartiles": quartiles(change),
        f"change_{better}_in_pairs": wins,
        "relative_change": round((c_med - p_med) / p_med, 4) if p_med else None,
    }


def judge(row: dict, better: str) -> str:
    pairs = len(row["parent"])
    wins = row[f"change_{better}_in_pairs"]
    low, high = row["parent_quartiles"]
    gain = row["parent_median"] - row["change_median"]
    if better == "higher":
        gain = -gain
    met = wins * 10 >= pairs * 9 and gain > high - low
    return (
        f"{'met' if met else 'not met'}: the change is {better} in {wins} of {pairs} pairs; "
        f"the medians differ by {gain:.3f} {row['unit']} in its favour, against the "
        f"parent's interquartile range of {high - low:.3f} {row['unit']}"
    )


def verdict(row: dict, better: str, bound: float) -> str:
    """Whether the change stays within ``bound``, a fraction of the parent median."""
    sign = 1 if better == "lower" else -1
    allowed = bound * abs(row["parent_median"])
    if sign * (row["change_median"] - row["parent_median"]) > allowed:
        return "worse beyond bound"
    low, high = row["parent_quartiles"]
    beats_all = all(sign * (c - p) < 0 for c in row["change"] for p in row["parent"])
    if high - low > allowed and not beats_all:
        return "unresolved"
    return "within bound"


def pairs(checkouts: dict, workload: str, seeds: list[int], metrics: list[dict]) -> dict:
    results = {side: [] for side in SIDES}
    colds = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(run(checkouts[side], workload, seed, 0))
            value = results[side][-1]["metrics"]["wall_s"]["value"]
            print(f"{workload} seed {seed} {side}: wall_s {value:.4f}", file=sys.stderr)
            if workload == COLD_WORKLOAD:
                colds[side].append(cold(checkouts[side], seed))
    out = {
        "seeds": seeds,
        "failed_ops": ", ".join(f"{s} {sum(r['failed'] for r in results[s])}" for s in SIDES),
        "attempted_ops": ", ".join(f"{s} {sum(r['attempted'] for r in results[s])}" for s in SIDES),
        "metrics": {m["name"]: judged(m, results) for m in metrics},
        "kinds": by_kind(results),
        "first_in_pair": first,
    }
    if workload == COLD_WORKLOAD:
        out["cold"] = cold_summary(colds)
    return out


def judged(metric: dict, results: dict) -> dict:
    """One metric's summary over the pairs, with its verdict."""
    values = ([r["metrics"][metric["name"]]["value"] for r in results[s]] for s in SIDES)
    row = summarize(metric["unit"], metric["better"], *values)
    row["verdict"] = verdict(row, metric["better"], metric["bound"])
    return row


def traced(checkouts: dict, workload: str, seed: int) -> dict:
    values = {side: run(checkouts[side], workload, seed, 1)["metrics"] for side in SIDES}
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} --trace 1, "
        "one run per side, parent first; busy_s are scaled self times",
        "metrics": {
            name: {side: round(values[side][name]["value"], 6) for side in SIDES}
            for name in values["parent"]
        },
    }


def workload_and(kind, name: str):
    """An argparse type for ``WORKLOAD:<name>``, the part after the colon read
    by ``kind``; a malformed value stops the tool before any run."""

    def parse(text: str):
        workload, colon, value = text.partition(":")
        try:
            if workload and colon and value and ":" not in value:
                return workload, kind(value)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:{name}, got {text!r}")

    return parse


def check_names(bench: dict, claim, traces: list) -> None:
    """Stop before any run when a workload or the claimed metric is not in
    the change's BENCHMARK.json."""
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    for workload, _ in ([claim] if claim else []) + traces:
        if workload not in workloads:
            raise SystemExit(f"no workload {workload!r}; BENCHMARK.json has {workloads}")
    if claim and claim[1] not in metrics:
        raise SystemExit(f"no end-to-end metric {claim[1]!r}; BENCHMARK.json has {metrics}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", help="a commit; default: the staged index")
    parser.add_argument(
        "--claim",
        type=workload_and(str, "METRIC"),
        help="WORKLOAD:METRIC the change claims to improve",
    )
    parser.add_argument(
        "--trace",
        type=workload_and(int, "SEED"),
        action="append",
        default=[],
        help="WORKLOAD:SEED",
    )
    parser.add_argument("--note", required=True, help="what the change does")
    parser.add_argument("--seeds-note", required=True)
    args = parser.parse_args(argv)

    output = f"BENCH_{args.pr}.json"
    left_out = [] if args.change else unstaged(output)
    if left_out:
        raise SystemExit(
            "the change is the staged index, but these files are not staged: "
            f"{', '.join(left_out)}; stage them with git add -A or pass --change"
        )
    revisions = {
        "parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip(),
        "change": (
            git("rev-parse", "--verify", f"{args.change}^{{commit}}")
            if args.change
            else git("write-tree")
        ).decode().strip(),
    }
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revisions[side], checkouts[side])
        bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        check_names(bench, args.claim, args.trace)
        metrics = bench["end_to_end"]
        out = {
            "change": args.note,
            "revisions": revisions,
            "claim": None,
            "method": f"{PAIRS} alternating parent/change pairs per workload; each run is "
            "`python3 perfbench/run.py --workload W --seed S --trace 0` "
            f"(run_seconds {bench['run_seconds']}) in its own checkout of the committed files, "
            "made by tools/bench_pairs.py; `first_in_pair` names the side that ran first in "
            "the pair; quartiles are statistics.quantiles(n=4, method='inclusive')",
            "machine": f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, "
            f"Python {platform.python_version()}, times scaled to the calibration slice of "
            "perfbench/speed.py",
            "seeds_note": args.seeds_note,
            "workloads": {
                w["name"]: pairs(checkouts, w["name"], seeds, metrics) for w in bench["workloads"]
            },
            "tier1": {
                "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors, "
                f"{TIER1_ROUNDS} runs per side after the pairs, in rounds whose first side "
                "alternates, the parent first in the first round; each run is timed by a "
                "wrapper process of its own; wall_s is not scaled, peak_rss_mib is the "
                "largest RSS of the suite's processes; reported values, with no bound and "
                "no verdict",
                **tier1_rounds(checkouts),
            },
        }
        for workload, seed in args.trace:
            out[f"trace_{workload}_seed_{seed}"] = traced(checkouts, workload, seed)
    tree = revisions["change"] if args.change else git("write-tree").decode().strip()
    if tree != revisions["change"]:
        raise SystemExit(
            f"the index changed during the runs: it is tree {tree}, but tree "
            f"{revisions['change']} was measured; {output} is not written"
        )
    if args.claim:
        workload, metric = args.claim
        better = next(m["better"] for m in metrics if m["name"] == metric)
        out["claim"] = {
            "workload": workload,
            "metric": metric,
            "better": better,
            "result": judge(out["workloads"][workload]["metrics"][metric], better),
        }
    path = ROOT / output
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
