#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 qpfbench/spread.py --runs 10 [--workload ler_pf ...]

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json.  A benchmark is steady when each
spread, setup_s aside, stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=1000)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    steady = True
    for workload in args.workload:
        runs = [run_once(workload, args.first_seed + i, args.seconds, 0)
                for i in range(args.runs)]
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            print(f"{workload:14} {metric['name']:12} median={median:<12.6g} "
                  f"spread={spread:6.3f} bound={metric['bound']:.2f} "
                  f"{'ok' if ok else 'WIDE'}  "
                  f"[{', '.join(f'{v:.4g}' for v in values)}]", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
