"""Measure every workload over several seeds and record the result.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 -o bench/baseline.json

For each workload, runs ``bench/run.py`` once per seed with ``--trace 0``
and once with ``--trace 1``, one run at a time, and writes per-metric
medians, quartiles and spread (interquartile range over median), the
per-layer numbers of the traced run, and the machine it ran on.
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("construct-large", "verify-codes", "sweep-small")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} ops failed\n{done.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive seed range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run(workload, seeds[0], args.seconds, 1)
        end_to_end = {name: summary([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        for name, stats in end_to_end.items():
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            print(f"{workload} {name}: median {stats['median']:.6g} spread {stats['spread']:.3f}", flush=True)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
