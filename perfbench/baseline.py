"""Record the benchmark's baseline: end-to-end medians and quartiles over
several seeds, and one traced run, for every workload.

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 36

Runs perfbench/run.py once per workload and seed with --trace 0, and once
per workload at the default seed with --trace 1, then rewrites the
"measured" part of perfbench/baseline.json. The rest of that file (inputs
left out of the workloads, notes) is kept as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import parse_args as run_args
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def bench(workload: str, seed: int, seconds: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']} "
          f"failed {result['failed']}/{result['attempted']}", flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", default="36")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    default_seed = run_args(["--workload", "certify"]).seed
    measured = {}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, args.seconds, 0) for seed in seeds]
        traced = bench(workload, default_seed, args.seconds, 1)
        names = runs[0]["metrics"]
        measured[workload] = {
            "seeds": seeds,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names},
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    baseline["measured"] = {
        "default_seed": default_seed,
        "run_seconds": float(args.seconds),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": measured,
    }
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
