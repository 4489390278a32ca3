#!/usr/bin/env bash
# Output digests over the real binaries (CTest target check_outputs).
#
# The exact tier of the physics gate: every surface below runs at a
# fixed small scale and fixed seeds, and the SHA-256 of its stdout (with
# its exit code) must equal the line recorded in
# tests/golden/output_digests.txt.  A change that moves any LER, any
# histogram or any statistics line fails here, even when every unit test
# passes.  Surfaces:
#
#   1. the LER benches (bench_ler, bench_ler_analysis, bench_distance,
#      bench_biased_noise, bench_esm_order, bench_code_comparison) at
#      QPF_LER_RUNS=2 QPF_LER_ERRORS=2, each at --jobs 1 and --jobs 2;
#      the two stdouts must be byte-identical, so one digest covers both;
#   2. the six examples, which take no arguments;
#   3. qpf_ler at PER 1e-3: frame on and off, Z and X bases, plus one
#      d = 5 point;
#   4. every qpf_chaos scenario, with its exit code;
#   5. noisy qpf_run runs of the committed programs (tests/corpus/*.qasm
#      and tests/golden/programs/) under --error-rate, under
#      --classical-fault-rate, and under both with
#      --pauli-frame --protect-frame=vote --validate (QISA and logical
#      programs, whose QCU stack builds neither the protection nor the
#      validator, take --pauli-frame alone).
#
# A change that moves a digest on purpose re-records the file with
# --record and says why in CHANGES.md.
#
# Usage: tools/check_outputs.sh [build-dir] [--record]
#        (default build dir: ./build)
set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"
record=0
for arg in "$@"; do
    case "$arg" in
        --record) record=1 ;;
        *) build_dir=$arg ;;
    esac
done
golden="$repo_root/tests/golden/output_digests.txt"

benches="bench_ler bench_ler_analysis bench_distance bench_biased_noise
         bench_esm_order bench_code_comparison"
examples="compile_and_run error_correction_demo lattice_surgery_demo
          logical_qubit_demo pauli_frame_tracking quickstart"
scenarios="baseline crash-recover crash-unsupervised crash-escalate
           stall-degrade stall-escalate"
ler="$build_dir/tools/qpf_ler"
chaos="$build_dir/tools/qpf_chaos"
run="$build_dir/tools/qpf_run"

for bin in "$ler" "$chaos" "$run" \
           $(for b in $benches; do echo "$build_dir/bench/$b"; done) \
           $(for e in $examples; do echo "$build_dir/examples/$e"; done); do
    if [ ! -x "$bin" ]; then
        echo "check_outputs.sh: $bin not built" >&2
        exit 1
    fi
done

workdir=$(mktemp -d "${TMPDIR:-/tmp}/qpf_outputs.XXXXXX")
cleanup() {
    code=$?
    rm -rf "$workdir"
    [ "$code" -eq 0 ] || echo "check_outputs.sh: FAIL (exit $code)" >&2
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# Knobs that would change what the binaries compute stay unset.
clean_env="env -u QPF_FULL -u QPF_PLANT_BUG -u QPF_FAULTFS -u QPF_FAULTNET"
digests="$workdir/digests.txt"
: > "$digests"

# capture NAME CMD...: run CMD into $workdir/NAME.out and record
# "NAME EXIT SHA256" for its stdout.
capture() {
    local name=$1
    shift
    local code=0
    $clean_env "$@" > "$workdir/$name.out" 2> /dev/null || code=$?
    printf '%s %s %s\n' "$name" "$code" \
        "$(sha256sum < "$workdir/$name.out" | cut -d' ' -f1)" >> "$digests"
}

echo "check_outputs.sh: LER benches at --jobs 1 and --jobs 2"
for b in $benches; do
    capture "$b" env QPF_LER_RUNS=2 QPF_LER_ERRORS=2 \
        "$build_dir/bench/$b" --jobs 1
    $clean_env QPF_LER_RUNS=2 QPF_LER_ERRORS=2 \
        "$build_dir/bench/$b" --jobs 2 > "$workdir/$b.j2" 2> /dev/null
    cmp -s "$workdir/$b.out" "$workdir/$b.j2" || {
        echo "check_outputs.sh: $b stdout differs between --jobs 1 and 2" >&2
        diff "$workdir/$b.out" "$workdir/$b.j2" >&2 || true
        exit 1
    }
done

echo "check_outputs.sh: examples"
for e in $examples; do
    capture "example_$e" "$build_dir/examples/$e"
done

echo "check_outputs.sh: qpf_ler"
ler_args="--per=1e-3 --runs=3 --errors=4 --seed=11"
capture qpf_ler_z "$ler" $ler_args --basis=z
capture qpf_ler_x "$ler" $ler_args --basis=x
capture qpf_ler_z_pf "$ler" $ler_args --basis=z --pauli-frame
capture qpf_ler_x_pf "$ler" $ler_args --basis=x --pauli-frame
capture qpf_ler_d5 "$ler" $ler_args --distance=5 --pauli-frame

echo "check_outputs.sh: qpf_chaos"
for s in $scenarios; do
    capture "qpf_chaos_$s" "$chaos" --scenario="$s"
done

echo "check_outputs.sh: noisy qpf_run"
frame_flags="--pauli-frame --protect-frame=vote --validate"
for program in "$repo_root"/tests/corpus/*.qasm \
               "$repo_root"/tests/golden/programs/*; do
    name=$(basename "$program")
    backend=""
    flags=$frame_flags
    case "$name" in
        mirror-qx-*) backend="--backend=qx" ;;
        *.qisa|*.lqasm) flags="--pauli-frame" ;;
    esac
    common="--shots=10 --seed=7 $backend"
    capture "qpf_run_noise_$name" "$run" $common \
        --error-rate=0.005 "$program"
    capture "qpf_run_cf_$name" "$run" $common \
        --classical-fault-rate=0.01 "$program"
    capture "qpf_run_frame_$name" "$run" $common $flags \
        --error-rate=0.005 --classical-fault-rate=0.01 "$program"
done

if [ "$record" -eq 1 ]; then
    cp "$digests" "$golden"
    echo "check_outputs.sh: recorded $(wc -l < "$digests") digests in $golden"
    echo "check_outputs.sh: PASS"
    exit 0
fi

if [ ! -f "$golden" ]; then
    echo "check_outputs.sh: no $golden; run with --record" >&2
    exit 1
fi
if ! cmp -s "$golden" "$digests"; then
    echo "check_outputs.sh: digests differ from $golden" \
         "(name exit sha256; - recorded, + this build):" >&2
    diff "$golden" "$digests" >&2 || true
    exit 1
fi
echo "check_outputs.sh: $(wc -l < "$digests") digests match"
echo "check_outputs.sh: PASS"
