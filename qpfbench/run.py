#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 qpfbench/run.py --workload ler_pf --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds qpfbench (this directory's CMake
package, which compiles ../src) into $CARGO_TARGET_DIR/qpfbench, default
.bench_build/qpfbench, then runs one workload.  The last line of stdout is
the result JSON; build output and the human-readable table go to stderr.
Traced runs (--trace 1) write their spans under the build directory.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("ler_pf", "ler_nopf_lowp", "serve_mixed")


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "qpfbench"


def build(out: Path, targets) -> None:
    """Configure once, then bring `targets` up to date."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=120)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
        check=True, stdout=sys.stderr, timeout=700)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "bench" / "ler_common.cpp").is_file():
        print(f"qpfbench: no qpf sources next to {BENCH_DIR.name}/; "
              "run from a full checkout", file=sys.stderr)
        return 2

    out = build_dir()
    try:
        build(out, ["qpfbench"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"qpfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [str(out / "qpfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-dir", str(traces)]
    try:
        return subprocess.run(command, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("qpfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
