"""Run a checkout's algebra_requests stream cold, every cache cleared before each op.

    python3 tools/cold_requests.py CHECKOUT --seed 91 --seconds 20

The script imports the checkout's own perfbench harness and workloads, and
glidekit from the checkout's src/ directory.  It builds the stream as
``perfbench/run.py --workload algebra_requests --seconds T`` does, for the
T given as ``--seconds``, sets each op's untimed ``reset`` to
``workloads.clear_caches`` (as both sweeps do) and runs the stream once.
Its last stdout line is one JSON object: the cold ``op_p50_ms``, the
median of each request kind in ms (``kinds``), and the ops attempted and
failed.  Times are scaled as perfbench scales them.  No
file of the checkout is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD = "algebra_requests"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="as perfbench/run.py's")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    # the corpus names its input files relative to the root
    os.chdir(root)
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import glidekit
    import harness
    import workloads

    if Path(glidekit.__file__).resolve().parent != root / "src" / "glidekit":
        raise SystemExit(f"glidekit imported from {glidekit.__file__}, not from {root / 'src'}")

    built = workloads.build(WORKLOAD, args.seed, args.seconds)
    for op in built.ops:
        op.reset = workloads.clear_caches
    outcome = harness.run_ops(built.ops)
    result = {
        "op_p50_ms": harness.end_to_end(outcome, 0.0)["op_p50_ms"]["value"],
        "kinds": {kind: ms for kind, (ms, _) in harness.p50_by_kind(outcome).items()},
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
