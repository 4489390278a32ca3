#!/usr/bin/env bash
# Smoke-run every bench binary at a tiny workload and validate the
# machine-readable report each one writes via --json.
#
# Two things are checked per binary:
#   1. it exits 0 with --json <path> (tiny trial counts via the QPF_LER_*
#      environment knobs, so the whole sweep stays in the seconds range);
#   2. the emitted JSON parses and matches the schema documented in
#      bench/bench_json.h: exactly the keys {name, config, wall_ms,
#      trials_per_sec, gate_ops_per_sec, stats}, with stats a list of
#      flat objects.
#
# Usage: tools/check_bench.sh [build-dir]     (default: ./build)
set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bench_dir="$build_dir/bench"

if [ ! -d "$bench_dir" ]; then
    echo "check_bench.sh: $bench_dir not built" >&2
    exit 1
fi

workdir=$(mktemp -d "${TMPDIR:-/tmp}/qpf_bench.XXXXXX")

# Cleanup always; report any nonzero exit (a crashed bench or a schema
# failure under set -e) so CTest can't see a green run with a dead
# child.  Signals re-raise through the standard codes.
server_pid=""
cleanup() {
    code=$?
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2> /dev/null; then
        kill -KILL "$server_pid" 2> /dev/null || true
        wait "$server_pid" 2> /dev/null || true
    fi
    rm -rf "$workdir"
    [ "$code" -eq 0 ] || echo "check_bench.sh: FAIL (exit $code)" >&2
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# Tiny workloads: one run per point, stop at the first logical error,
# a handful of fault-injection circuits.  bench_micro ignores these and
# is kept honest by its own fixed-size kernel sweep.
export QPF_LER_RUNS=1
export QPF_LER_ERRORS=1
export QPF_FAULT_CIRCUITS=50

count=0
for bench in "$bench_dir"/bench_*; do
    [ -x "$bench" ] || continue
    [ -f "$bench" ] || continue
    name=$(basename "$bench")
    json="$workdir/$name.json"
    echo "check_bench.sh: $name"
    "$bench" --json "$json" --jobs 2 > "$workdir/$name.log" 2>&1 || {
        status=$?
        echo "check_bench.sh: $name FAILED (exit $status)" >&2
        tail -20 "$workdir/$name.log" >&2
        # Propagate the child's own exit code (139 for a segfault, not
        # a generic 1), so the CTest log tells the real story.
        exit "$status"
    }
    python3 - "$json" "$name" <<'EOF'
import json, sys
path, name = sys.argv[1], sys.argv[2]
with open(path) as f:
    report = json.load(f)
expected = {"name", "config", "wall_ms", "trials_per_sec",
            "gate_ops_per_sec", "stats"}
assert set(report) == expected, f"{name}: keys {sorted(report)}"
assert isinstance(report["name"], str) and report["name"], name
assert isinstance(report["config"], dict), name
assert isinstance(report["wall_ms"], (int, float)), name
assert report["wall_ms"] >= 0, name
for key in ("trials_per_sec", "gate_ops_per_sec"):
    assert report[key] is None or isinstance(report[key], (int, float)), name
assert isinstance(report["stats"], list), name
for row in report["stats"]:
    assert isinstance(row, dict) and row, f"{name}: stats row {row!r}"
EOF
    count=$((count + 1))
done

if [ "$count" -lt 10 ]; then
    echo "check_bench.sh: only $count bench binaries found" >&2
    exit 1
fi

# The fuzzer's --json triage report is the other machine-readable
# schema shipped by tools/: validate it the same way, once clean
# (verdict PASS, no failures) and once with a planted mutation
# (verdict FAIL, every failure row fully triaged and shrunk).
fuzz="$build_dir/tools/qpf_fuzz"
if [ ! -x "$fuzz" ]; then
    echo "check_bench.sh: $fuzz not built" >&2
    exit 1
fi
echo "check_bench.sh: qpf_fuzz triage schema"
"$fuzz" --seed=1 --cases=5 --json > "$workdir/fuzz-clean.json" 2> /dev/null
QPF_PLANT_BUG=2 "$fuzz" --seed=7 --cases=25 --max-failures=2 --json \
    > "$workdir/fuzz-planted.json" 2> /dev/null && {
    echo "check_bench.sh: planted fuzz run unexpectedly passed" >&2
    exit 1
}
python3 - "$workdir/fuzz-clean.json" "$workdir/fuzz-planted.json" <<'EOF'
import json, sys
expected = {"schema", "seed", "cases", "oracle_runs", "passes", "skips",
            "failures", "verdict"}
row_keys = {"oracle", "case_index", "case_seed", "detail", "original_gates",
            "shrunk_gates", "shrink_evaluations", "reproducer"}
for path, verdict in zip(sys.argv[1:3], ("PASS", "FAIL")):
    with open(path) as f:
        report = json.load(f)
    assert set(report) == expected, f"{path}: keys {sorted(report)}"
    assert report["schema"] == "qpf-fuzz-triage-v1", path
    assert report["verdict"] == verdict, f"{path}: {report['verdict']}"
    for key in ("seed", "cases", "oracle_runs", "passes", "skips"):
        assert isinstance(report[key], int) and report[key] >= 0, path
    assert report["oracle_runs"] == report["passes"] + report["skips"] + \
        len(report["failures"]), path
    assert isinstance(report["failures"], list), path
    assert bool(report["failures"]) == (verdict == "FAIL"), path
    for row in report["failures"]:
        assert set(row) == row_keys, f"{path}: failure keys {sorted(row)}"
        assert isinstance(row["oracle"], str) and row["oracle"], path
        assert isinstance(row["detail"], str) and row["detail"], path
        assert row["shrunk_gates"] <= max(row["original_gates"], 1), path
EOF

# The serve stack's load report (qpf_serve_load --json) is the third
# machine-readable schema: run a small RetryClient workload against a
# live server and validate the qpf-serve-bench-v2 key set, including
# the robustness counters (retries, reconnects, dedup_hits,
# lease_expirations) that bench_compare.py deliberately does not gate.
serve="$build_dir/tools/qpf_serve"
serve_load="$build_dir/tools/qpf_serve_load"
if [ ! -x "$serve" ] || [ ! -x "$serve_load" ]; then
    echo "check_bench.sh: $serve / $serve_load not built" >&2
    exit 1
fi
echo "check_bench.sh: qpf_serve_load report schema"
"$serve" --port=0 > "$workdir/serve.log" 2> "$workdir/serve.err" &
server_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' \
               "$workdir/serve.log" | head -n 1)
    [ -n "$port" ] && break
    if ! kill -0 "$server_pid" 2> /dev/null; then
        echo "check_bench.sh: qpf_serve died during startup" >&2
        cat "$workdir/serve.err" >&2
        exit 1
    fi
    sleep 0.05
done
if [ -z "$port" ]; then
    echo "check_bench.sh: qpf_serve never reported its port" >&2
    exit 1
fi
"$serve_load" --port="$port" --sessions=4 --requests=4 --json \
    > "$workdir/serve-bench.json" 2> "$workdir/serve-load.log" || {
    status=$?
    echo "check_bench.sh: qpf_serve_load FAILED (exit $status)" >&2
    tail -20 "$workdir/serve-load.log" >&2
    exit "$status"
}
kill -TERM "$server_pid" 2> /dev/null || true
wait "$server_pid" 2> /dev/null || true
server_pid=""
python3 - "$workdir/serve-bench.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
expected = {"schema", "sessions", "requests_per_session", "poisoned",
            "sessions_ok", "sessions_evicted", "replies_ok", "replies_error",
            "retries", "reconnects", "dedup_hits", "lease_expirations",
            "wall_ms", "latency_ms", "requests_per_sec", "sessions_per_sec"}
assert set(report) == expected, f"keys {sorted(report)}"
assert report["schema"] == "qpf-serve-bench-v2", report["schema"]
for key in ("sessions", "requests_per_session", "poisoned", "sessions_ok",
            "sessions_evicted", "replies_ok", "replies_error", "retries",
            "reconnects", "dedup_hits", "lease_expirations"):
    assert isinstance(report[key], int) and report[key] >= 0, key
assert report["sessions_ok"] == report["sessions"], "healthy run evicted"
assert report["replies_error"] == 0, "healthy run saw error replies"
assert isinstance(report["latency_ms"], dict), "latency_ms"
assert set(report["latency_ms"]) == {"p50", "p99", "p999"}, \
    sorted(report["latency_ms"])
for key, value in report["latency_ms"].items():
    assert isinstance(value, (int, float)) and value >= 0, key
for key in ("wall_ms", "requests_per_sec", "sessions_per_sec"):
    assert isinstance(report[key], (int, float)) and report[key] >= 0, key
EOF

# bench_compare.py --bless gates a fresh report against a parent report
# from the same session, never against the committed one.  Without
# --against it exits 2 and leaves the baseline alone; with it, a change
# faster than its parent re-pins even below the committed figure, and a
# change slower than its parent beyond the threshold does not.
compare="$repo_root/tools/bench_compare.py"
echo "check_bench.sh: bench_compare.py --bless --against"
mkdir "$workdir/pins"
ler_report() {
    printf '{"name": "bench_ler", "config": {}, "wall_ms": 1, "trials_per_sec": %s, "gate_ops_per_sec": null, "stats": []}\n' "$1"
}
ler_report 12 > "$workdir/pins/BENCH_ler.json"
ler_report 8 > "$workdir/parent.json"
ler_report 10 > "$workdir/change.json"
ler_report 4 > "$workdir/slower.json"
cp "$workdir/pins/BENCH_ler.json" "$workdir/committed.json"
status=0
python3 "$compare" --baseline-dir "$workdir/pins" --bless \
    "$workdir/change.json" > "$workdir/bless.log" 2>&1 || status=$?
if [ "$status" -ne 2 ] || ! grep -q -- '--against' "$workdir/bless.log" ||
    ! cmp -s "$workdir/committed.json" "$workdir/pins/BENCH_ler.json"; then
    echo "check_bench.sh: --bless without --against did not refuse" >&2
    cat "$workdir/bless.log" >&2
    exit 1
fi
python3 "$compare" --baseline-dir "$workdir/pins" --bless \
    --against "$workdir/parent.json" "$workdir/change.json" \
    > "$workdir/bless.log" 2>&1
if ! grep -q 'change/parent 1.250' "$workdir/bless.log" ||
    ! cmp -s "$workdir/change.json" "$workdir/pins/BENCH_ler.json"; then
    echo "check_bench.sh: --bless --against did not re-pin a faster change" >&2
    cat "$workdir/bless.log" >&2
    exit 1
fi
status=0
python3 "$compare" --baseline-dir "$workdir/pins" --bless \
    --against "$workdir/parent.json" "$workdir/slower.json" \
    > "$workdir/bless.log" 2>&1 || status=$?
if [ "$status" -ne 1 ] ||
    ! cmp -s "$workdir/change.json" "$workdir/pins/BENCH_ler.json"; then
    echo "check_bench.sh: --bless re-pinned a change slower than its parent" >&2
    cat "$workdir/bless.log" >&2
    exit 1
fi

echo "check_bench.sh: PASS ($count bench reports + fuzz triage + serve report + bless gate validated)"
