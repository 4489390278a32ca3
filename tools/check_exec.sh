#!/usr/bin/env bash
# Executor determinism over the real binaries (CTest target check_exec).
#
# The unified executor (src/exec/) promises byte-identical output for
# every --jobs value on every migrated surface.  The gtest battery
# proves it in-process; this harness proves it end-to-end through the
# shipped tools:
#
#   1. qpf_ler: a --jobs ∈ {2, 7, 16} sweep whose stdout statistics
#      line AND durable journal bytes must equal the jobs=1 reference;
#   2. qpf_chaos: a supervised crash-storm scenario at --jobs ∈ {2, 7}
#      whose stdout must equal its jobs=1 run (recovery included);
#   3. qpf_fuzz: --jobs ∈ {2, 8} JSON triage reports byte-equal to the
#      sequential report for the same seed;
#   4. bench_biased_noise: its dephasing-biased LER table at --jobs 3
#      equal to the --jobs 1 table.
#
# Usage: tools/check_exec.sh [build-dir]        (default: ./build)
set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
ler="$build_dir/tools/qpf_ler"
chaos="$build_dir/tools/qpf_chaos"
fuzz="$build_dir/tools/qpf_fuzz"
biased="$build_dir/bench/bench_biased_noise"

for bin in "$ler" "$chaos" "$fuzz" "$biased"; do
    if [ ! -x "$bin" ]; then
        echo "check_exec.sh: $bin not built" >&2
        exit 1
    fi
done

workdir=$(mktemp -d "${TMPDIR:-/tmp}/qpf_exec.XXXXXX")
cleanup() {
    code=$?
    rm -rf "$workdir"
    [ "$code" -eq 0 ] || echo "check_exec.sh: FAIL (exit $code)" >&2
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

ler_args="--per=0.05 --pauli-frame --errors=3 --max-windows=5000 \
          --seed=77177 --runs=6"

# 1. qpf_ler: stdout and journal bytes across the jobs sweep.
echo "check_exec.sh: qpf_ler jobs sweep"
$ler $ler_args --jobs=1 --state-dir="$workdir/ler-ref" \
    > "$workdir/ler-ref.out" 2> /dev/null
[ -s "$workdir/ler-ref/journal.jsonl" ] || {
    echo "check_exec.sh: reference journal is empty" >&2
    exit 1
}
for jobs in 2 7 16; do
    $ler $ler_args --jobs=$jobs --state-dir="$workdir/ler-j$jobs" \
        > "$workdir/ler-j$jobs.out" 2> /dev/null
    cmp -s "$workdir/ler-ref.out" "$workdir/ler-j$jobs.out" || {
        echo "check_exec.sh: qpf_ler stdout diverges at --jobs=$jobs" >&2
        diff "$workdir/ler-ref.out" "$workdir/ler-j$jobs.out" >&2 || true
        exit 1
    }
    cmp -s "$workdir/ler-ref/journal.jsonl" \
           "$workdir/ler-j$jobs/journal.jsonl" || {
        echo "check_exec.sh: qpf_ler journal diverges at --jobs=$jobs" >&2
        exit 1
    }
done

# 2. qpf_chaos: a supervised recovery storm must aggregate identically
#    in parallel (stderr carries timing-ish recovery logs; stdout is
#    the bit-exact statistics contract).
echo "check_exec.sh: qpf_chaos jobs sweep"
chaos_args="--scenario=crash-recover --runs=4 --errors=3 \
            --max-windows=5000 --per=0.05 --seed=77177"
$chaos $chaos_args --jobs=1 > "$workdir/chaos-ref.out" 2> /dev/null
for jobs in 2 7; do
    $chaos $chaos_args --jobs=$jobs > "$workdir/chaos-j$jobs.out" 2> /dev/null
    cmp -s "$workdir/chaos-ref.out" "$workdir/chaos-j$jobs.out" || {
        echo "check_exec.sh: qpf_chaos stdout diverges at --jobs=$jobs" >&2
        diff "$workdir/chaos-ref.out" "$workdir/chaos-j$jobs.out" >&2 || true
        exit 1
    }
done

# 3. qpf_fuzz: the triage report is a pure function of the options.
echo "check_exec.sh: qpf_fuzz jobs sweep"
$fuzz --seed=7 --cases=12 --json --jobs=1 \
    > "$workdir/fuzz-ref.json" 2> /dev/null
for jobs in 2 8; do
    $fuzz --seed=7 --cases=12 --json --jobs=$jobs \
        > "$workdir/fuzz-j$jobs.json" 2> /dev/null
    cmp -s "$workdir/fuzz-ref.json" "$workdir/fuzz-j$jobs.json" || {
        echo "check_exec.sh: qpf_fuzz report diverges at --jobs=$jobs" >&2
        exit 1
    }
done

# 4. bench_biased_noise: the biased stack through the shared engine.
echo "check_exec.sh: bench_biased_noise jobs sweep"
QPF_LER_RUNS=3 QPF_LER_ERRORS=1 $biased --jobs 1 \
    > "$workdir/biased-ref.out" 2> /dev/null
QPF_LER_RUNS=3 QPF_LER_ERRORS=1 $biased --jobs 3 \
    > "$workdir/biased-j3.out" 2> /dev/null
cmp -s "$workdir/biased-ref.out" "$workdir/biased-j3.out" || {
    echo "check_exec.sh: bench_biased_noise stdout diverges at --jobs 3" >&2
    diff "$workdir/biased-ref.out" "$workdir/biased-j3.out" >&2 || true
    exit 1
}

echo "check_exec.sh: PASS"
