#!/usr/bin/env python3
"""Compare fresh --json bench reports against the committed baselines.

The bench binaries (bench/) write machine-readable reports; the repo
pins one blessed report per bench at the root (BENCH_micro.json,
BENCH_ler.json, BENCH_serve.json).  This tool re-reads a fresh report,
pairs it with its baseline by report shape, and flags performance
regressions beyond a relative threshold (default 30% — wide enough to
absorb machine-to-machine noise, tight enough to catch a lost
optimisation).

Only *performance* metrics are compared.  Physics results (LER values,
standard deviations) vary legitimately with seeds and trial counts and
are the province of tools/check_bench.sh, not this tool.

Usage:
  tools/bench_compare.py FRESH.json [FRESH2.json ...]
      [--baseline-dir DIR]   directory holding BENCH_*.json (default:
                             the repository root, next to tools/)
      [--threshold PCT]      relative regression threshold in percent
                             (default 30)
      [--against FILE]       explicit baseline report: compare every
                             FRESH.json against FILE instead of the
                             committed BENCH_*.json (the two must be
                             reports of the same kind)
      [--bless]              re-pin the committed baseline with the
                             fresh report.  Requires --against
                             PARENT.json: a report of the parent tree
                             run in the same session, so that both sides
                             saw the same host load.  The gate compares
                             FRESH.json against PARENT.json, prints the
                             change/parent ratio of every metric, and
                             overwrites the committed BENCH_*.json only
                             when every metric is within threshold

Exit codes: 0 all metrics within threshold, 1 regression found,
2 usage / malformed report (including --bless without --against).
"""

import argparse
import json
import os
import sys

# Metric tables: (json key path, direction).  "higher" means a drop is
# a regression; "lower" means growth is a regression.  Keys absent from
# either report are skipped (benches grow fields over time).
TOP_LEVEL_METRICS = {
    "bench_micro": [
        (("gate_ops_per_sec",), "higher"),
    ],
    "bench_ler": [
        (("trials_per_sec",), "higher"),
    ],
    # v1 and v2 serve reports gate the same four latency/throughput
    # metrics; the v2 robustness counters (retries, reconnects,
    # dedup_hits, lease_expirations) are workload descriptions, not
    # performance, and are deliberately not compared.
    "qpf-serve-bench": [
        (("requests_per_sec",), "higher"),
        (("sessions_per_sec",), "higher"),
        (("latency_ms", "p50"), "lower"),
        (("latency_ms", "p99"), "lower"),
    ],
}

BASELINE_FILES = {
    "bench_micro": "BENCH_micro.json",
    "bench_ler": "BENCH_ler.json",
    "qpf-serve-bench": "BENCH_serve.json",
}


def report_kind(report):
    """Identify which bench produced a report, or None."""
    if report.get("schema") in ("qpf-serve-bench-v1", "qpf-serve-bench-v2"):
        return "qpf-serve-bench"
    name = report.get("name")
    if name in ("bench_micro", "bench_ler"):
        return name
    return None


def lookup(report, path):
    value = report
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value if isinstance(value, (int, float)) else None


def relative_change(baseline, fresh, direction):
    """Signed regression fraction: positive means worse."""
    if baseline == 0:
        return 0.0
    if direction == "higher":
        return (baseline - fresh) / baseline
    return (fresh - baseline) / baseline


def micro_kernel_metrics(baseline, fresh):
    """Per-kernel ns/op pairs from bench_micro stats, keyed (kernel, n)."""
    def as_map(report):
        table = {}
        for row in report.get("stats", []):
            key = (row.get("kernel"), row.get("n"))
            value = row.get("word_parallel_ns_op")
            if None not in key and isinstance(value, (int, float)):
                table[key] = value
        return table

    base_map, fresh_map = as_map(baseline), as_map(fresh)
    for key in sorted(base_map.keys() & fresh_map.keys()):
        label = "word_parallel_ns_op[%s,n=%d]" % key
        yield label, base_map[key], fresh_map[key], "lower"


def compare(baseline, fresh, kind, threshold):
    """Yield (label, base, fresh, regression_fraction, is_regression)."""
    rows = []
    for path, direction in TOP_LEVEL_METRICS[kind]:
        base_value = lookup(baseline, path)
        fresh_value = lookup(fresh, path)
        if base_value is None or fresh_value is None:
            continue
        rows.append((".".join(path), base_value, fresh_value, direction))
    if kind == "bench_micro":
        rows.extend(micro_kernel_metrics(baseline, fresh))
    for label, base_value, fresh_value, direction in rows:
        change = relative_change(base_value, fresh_value, direction)
        yield label, base_value, fresh_value, change, change > threshold


def main(argv):
    parser = argparse.ArgumentParser(
        description="flag >threshold%% perf regressions vs BENCH_*.json")
    parser.add_argument("reports", nargs="+", metavar="FRESH.json")
    parser.add_argument("--baseline-dir",
                        default=os.path.join(os.path.dirname(
                            os.path.abspath(__file__)), os.pardir))
    parser.add_argument("--threshold", type=float, default=30.0,
                        help="regression threshold in percent (default 30)")
    parser.add_argument("--against", metavar="FILE",
                        help="explicit baseline report instead of the "
                             "committed BENCH_*.json")
    parser.add_argument("--bless", action="store_true",
                        help="with --against PARENT.json: on success, "
                             "overwrite the committed baseline with the "
                             "fresh report (regeneration gate)")
    args = parser.parse_args(argv)
    threshold = args.threshold / 100.0
    if args.bless and not args.against:
        # A committed report comes from another session and another host
        # state; gating against it pins host load, not the change.
        print("bench_compare: --bless needs --against PARENT.json, a report "
              "of the parent tree from the same session", file=sys.stderr)
        return 2

    regressions = 0
    compared = 0
    blessed = []
    for path in args.reports:
        try:
            with open(path) as handle:
                fresh = json.load(handle)
        except (OSError, ValueError) as error:
            print("bench_compare: cannot read %s: %s" % (path, error),
                  file=sys.stderr)
            return 2
        kind = report_kind(fresh)
        if kind is None:
            print("bench_compare: %s is not a recognised bench report"
                  % path, file=sys.stderr)
            return 2
        committed_path = os.path.join(args.baseline_dir, BASELINE_FILES[kind])
        baseline_path = args.against or committed_path
        try:
            with open(baseline_path) as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            print("bench_compare: cannot read baseline %s: %s"
                  % (baseline_path, error), file=sys.stderr)
            return 2
        if args.against and report_kind(baseline) != kind:
            print("bench_compare: --against %s is a %s report but %s is %s"
                  % (baseline_path, report_kind(baseline), path, kind),
                  file=sys.stderr)
            return 2
        blessed.append((path, committed_path))

        print("%s vs %s:" % (path, os.path.basename(baseline_path)))
        for label, base_value, fresh_value, change, regressed in \
                compare(baseline, fresh, kind, threshold):
            compared += 1
            marker = "REGRESSION" if regressed else "ok"
            print("  %-34s %14.6g -> %14.6g  %+7.1f%%  %s"
                  % (label, base_value, fresh_value, change * 100.0, marker))
            if args.bless and base_value != 0:
                print("  %-34s change/parent %.3f"
                      % ("", fresh_value / base_value))
            if regressed:
                regressions += 1

    if compared == 0:
        print("bench_compare: no comparable metrics found", file=sys.stderr)
        return 2
    if regressions:
        print("bench_compare: %d metric(s) regressed more than %.0f%%"
              % (regressions, args.threshold))
        return 1
    print("bench_compare: %d metric(s) within %.0f%% of baseline"
          % (compared, args.threshold))
    if args.bless:
        for fresh_path, committed_path in blessed:
            with open(fresh_path) as handle:
                body = handle.read()
            with open(committed_path, "w") as handle:
                handle.write(body)
            print("bench_compare: blessed %s <- %s"
                  % (os.path.basename(committed_path), fresh_path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
