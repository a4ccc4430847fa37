#!/usr/bin/env python3
"""tracksfm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process from the source tree next to this
directory (`src/tracksfm`) and prints a report line and then, as the last
line, {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. `--workload all` runs
every workload, one process after another. `--smoke` shrinks every input for
a quick check of the machinery; `--describe` prints the workload and metric
definitions from spec.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (standard library only; numpy is imported later)


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs")
    ap.add_argument("--describe", action="store_true",
                    help="print the workload and metric definitions and exit")
    return ap.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, strictly one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.describe:
        print(json.dumps({"thread_env": spec.THREAD_ENV, "workloads": spec.WORKLOADS,
                          "end_to_end": spec.END_TO_END, "per_layer": spec.PER_LAYER},
                         indent=1))
        return 0
    src = ROOT / "src"
    if not (src / "tracksfm" / "__init__.py").is_file():
        print(f"error: no tracksfm sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    # BLAS reads its thread count once, when numpy is first imported.
    os.environ.update(spec.THREAD_ENV)
    sys.path.insert(0, str(src))
    import bench  # imports numpy and tracksfm

    result, report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.smoke, ROOT)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
