#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 qpfbench/selftest.py

1. Builds and runs qpfbench_selftest: the percentile rule, the weighted
   merge of latency samples, and self-time subtraction on a synthetic
   probe chain.
2. Smoke-runs every workload of BENCHMARK.json, untraced and traced, and
   checks that each prints a correct result with every declared metric,
   in order, with its unit.
3. Checks that the benchmark fails, without a result line, in a
   directory that holds only BENCHMARK.json and the benchmark itself.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (this directory's run.py)

ROOT = run.ROOT
SMOKE_SECONDS = {"ler_nopf_lowp": 3}  # its trials take about a second


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    failures = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = run.build_dir()
    run.build(out, ["qpfbench", "qpfbench_selftest"])
    if subprocess.run([str(out / "qpfbench_selftest")]).returncode != 0:
        failures.append("qpfbench_selftest failed")

    for workload in (w["name"] for w in spec["workloads"]):
        seconds = SMOKE_SECONDS.get(workload, 1)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", "1",
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            result = result_of(proc)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                failures.append(f"{what}: exit {proc.returncode}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{what}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{what}: not correct: {result}")
            declared = [(m["name"], m["unit"]) for m in spec[key]]
            printed = [(name, m["unit"])
                       for name, m in result["metrics"].items()]
            if printed != declared:
                failures.append(f"{what}: metrics {printed} != {declared}")
            print(f"selftest: {what}: {len(printed)} metrics ok",
                  file=sys.stderr)

    bare = out / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("a bare directory did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"selftest: FAIL: {failure}", file=sys.stderr)
    print(f"selftest: {'FAILED' if failures else 'all passed'}",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
