#!/usr/bin/env bash
# Crash-point enumeration over the real binaries (ALICE/CrashMonkey
# style), driven by the QPF_FAULTFS fault-injecting I/O backend
# (src/io/fault_fs.*) that every tool installs from the environment.
#
# For each durable-I/O scenario the harness first runs a counting pass
# (QPF_FAULTFS=count:LOG) to record the exact sequence of durable ops
# — open-for-write, write, fsync, rename, truncate, unlink — then
# re-runs the scenario once per op k with QPF_FAULTFS=kill@k (SIGKILL
# semantics, exit 137), including torn final writes, and proves
# recovery:
#
#   1. qpf_run --checkpoint-dir: after every kill point (and a torn
#      variant of every write), --resume completes and the shot
#      journal is byte-identical to an uninterrupted reference.
#   2. qpf_ler --state-dir, at --jobs=1 and again at --jobs=2: after
#      every kill point AND after every sticky typed-failure point
#      (fail@k:errno=ENOSPC:sticky, which must exit with a typed error,
#      never corrupt), re-running to completion reproduces the
#      reference statistics line exactly.  Both widths run one engine,
#      and above one worker durable I/O happens only on the committing
#      thread, so each width's op order is fixed.
#   3. qpf_serve drain: killed at every durable op of the SIGTERM
#      park-everything drain, a restarted server restores exactly the
#      sessions whose park files landed (rename is the commit point)
#      and serves a --resume client cleanly.
#   4. sustained ENOSPC on the serve state dir
#      (QPF_FAULTFS=enospc-under=DIR): every tenant transcript stays
#      byte-identical to the fault-free reference, parking fails
#      (parked=0) and the drain still exits 130 — degraded, never
#      corrupt or hung.
#
# Usage: tools/check_faultfs.sh [build-dir]     (default: ./build)
set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
qpf_run="$build_dir/tools/qpf_run"
qpf_ler="$build_dir/tools/qpf_ler"
qpf_serve="$build_dir/tools/qpf_serve"
qpf_load="$build_dir/tools/qpf_serve_load"

for binary in "$qpf_run" "$qpf_ler" "$qpf_serve" "$qpf_load"; do
    if [ ! -x "$binary" ]; then
        echo "check_faultfs.sh: $binary not built" >&2
        exit 1
    fi
done

workdir=$(mktemp -d "${TMPDIR:-/tmp}/qpf_faultfs.XXXXXX")
server_pid=""

cleanup() {
    code=$?
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -KILL "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
    [ "$code" -eq 0 ] || echo "check_faultfs.sh: FAIL (exit $code)" >&2
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

fail() {
    echo "check_faultfs.sh: $*" >&2
    exit 1
}

# Run "$@" expecting the fault-injected SIGKILL (exit 137).  Any other
# outcome means the kill point never fired or the process failed on
# its own — both enumeration bugs.
expect_killed() {
    local spec="$1"
    shift
    set +e
    QPF_FAULTFS="$spec" "$@" >/dev/null 2>&1
    local status=$?
    set -e
    [ "$status" -eq 137 ] || \
        fail "$spec: expected exit 137 (injected SIGKILL), got $status ($*)"
}

cat >"$workdir/program.qasm" <<'EOF'
qubits 4
h q0
cnot q0,q1
cnot q1,q2
cnot q2,q3
measure q0
measure q1
measure q2
measure q3
EOF

echo "check_faultfs.sh: build $build_dir"

# --- 1. qpf_run: kill at every durable journal op -------------------
run_args=(--shots=6 --seed=7 --pauli-frame)

"$qpf_run" "$workdir/program.qasm" "${run_args[@]}" \
    --checkpoint-dir="$workdir/run_ref" >/dev/null 2>&1 \
    || fail "qpf_run reference run failed"
[ -s "$workdir/run_ref/shots.jsonl" ] || fail "reference journal is empty"

QPF_FAULTFS="count:$workdir/run.oplog" \
    "$qpf_run" "$workdir/program.qasm" "${run_args[@]}" \
    --checkpoint-dir="$workdir/run_count" >/dev/null 2>&1 \
    || fail "qpf_run counting pass failed"
n_run=$(wc -l <"$workdir/run.oplog")
[ "$n_run" -ge 10 ] || fail "qpf_run counting pass saw only $n_run ops"

run_crash_points=0
for k in $(seq 1 "$n_run"); do
    kind=$(awk -v n="$k" 'NR == n { print $2 }' "$workdir/run.oplog")
    specs=("kill@$k")
    # Writes also get a torn variant: only a 2-byte prefix of the final
    # write reaches the disk before the kill.
    [ "$kind" = "write" ] && specs+=("kill@$k:torn=2")
    for spec in "${specs[@]}"; do
        dir="$workdir/run_kill"
        rm -rf "$dir"
        expect_killed "$spec" "$qpf_run" "$workdir/program.qasm" \
            "${run_args[@]}" --checkpoint-dir="$dir"
        "$qpf_run" "$workdir/program.qasm" "${run_args[@]}" \
            --resume="$dir" >/dev/null 2>&1 \
            || fail "$spec: qpf_run --resume failed"
        cmp -s "$dir/shots.jsonl" "$workdir/run_ref/shots.jsonl" \
            || fail "$spec: resumed shot journal differs from the reference"
        run_crash_points=$((run_crash_points + 1))
    done
done
echo "  qpf_run: $run_crash_points crash points over $n_run durable ops," \
    "every resume bit-identical"

# --- 2. qpf_ler: kill AND typed-failure at every durable op ---------
ler_args=(--per=2e-3 --runs=2 --errors=2 --max-windows=400 --seed=20260807
    --pauli-frame --checkpoint-every=25)

reference=$("$qpf_ler" "${ler_args[@]}" 2>/dev/null) \
    || fail "qpf_ler reference run failed"

# Re-run a state dir until the campaign reports success; every killed
# run must make progress from durable state, so a handful of attempts
# always suffices.  Runs with the sweep's arguments, sweep_args.
run_to_completion() {
    local dir="$1" attempt out status
    for attempt in 1 2 3 4 5; do
        set +e
        out=$("$qpf_ler" "${sweep_args[@]}" --state-dir="$dir" 2>/dev/null)
        status=$?
        set -e
        if [ "$status" -eq 0 ]; then
            printf '%s\n' "$out"
            return 0
        fi
    done
    fail "campaign in $dir did not complete within 5 attempts"
}

# sweep_ler <jobs> <floor>: count the campaign's durable ops at --jobs,
# require at least <floor> of them, then kill and fail at each one.
sweep_ler() {
    local jobs="$1" floor="$2" oplog="$workdir/ler_jobs$1.oplog"
    sweep_args=("${ler_args[@]}" --jobs="$jobs")
    QPF_FAULTFS="count:$oplog" \
        "$qpf_ler" "${sweep_args[@]}" --state-dir="$workdir/ler_count$jobs" \
        >/dev/null 2>&1 || fail "qpf_ler --jobs=$jobs counting pass failed"
    n_ler=$(wc -l <"$oplog")
    [ "$n_ler" -ge "$floor" ] || \
        fail "qpf_ler --jobs=$jobs counting pass saw only $n_ler ops"

    for k in $(seq 1 "$n_ler"); do
        dir="$workdir/ler_kill"
        rm -rf "$dir"
        expect_killed "kill@$k" "$qpf_ler" "${sweep_args[@]}" \
            --state-dir="$dir"
        resumed=$(run_to_completion "$dir")
        [ "$resumed" = "$reference" ] || \
            fail "--jobs=$jobs kill@$k: resumed statistics differ
  reference: $reference
  resumed:   $resumed"

        # The same op failing with a typed errno instead of a crash: the
        # tool must exit 1 with a typed error (never 137, never
        # corrupt), and the state it left behind must still resume
        # bit-identically.
        dir="$workdir/ler_fail"
        rm -rf "$dir"
        set +e
        QPF_FAULTFS="fail@$k:errno=ENOSPC:sticky" \
            "$qpf_ler" "${sweep_args[@]}" --state-dir="$dir" \
            >/dev/null 2>&1
        status=$?
        set -e
        [ "$status" -eq 1 ] || \
            fail "--jobs=$jobs fail@$k: expected typed-error exit 1, got $status"
        resumed=$(run_to_completion "$dir")
        [ "$resumed" = "$reference" ] || \
            fail "--jobs=$jobs fail@$k: resumed statistics differ
  reference: $reference
  resumed:   $resumed"
    done
    echo "  qpf_ler --jobs=$jobs: kill@k and sticky fail@k swept over" \
        "$n_ler durable ops, every recovery bit-identical"
}

sweep_ler 1 10
# Above one worker there are no periodic checkpoints: the journal's
# open, the config line's write and fsync, then a write, fsync and
# unlink per trial.
sweep_ler 2 9

# --- serve helpers (check_serve.sh idiom) ---------------------------
# start_server <logfile> [flags...]: ephemeral port, exports
# $server_pid and $port.  $faultfs (may be empty) reaches only the
# server, never the load generator.  The logs are emptied here, before
# the launch: the background job truncates them only once it runs, so
# a loop that reuses a log could otherwise scrape the previous
# (stopped) server's port and fail to connect.
faultfs=""
start_server() {
    local log="$1"
    shift
    : >"$log"
    : >"$log.err"
    if [ -n "$faultfs" ]; then
        env QPF_FAULTFS="$faultfs" "$qpf_serve" --port=0 "$@" \
            >"$log" 2>"$log.err" &
    else
        "$qpf_serve" --port=0 "$@" >"$log" 2>"$log.err" &
    fi
    server_pid=$!
    port=""
    local tries=0
    while [ -z "$port" ]; do
        port=$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' "$log" \
            2>/dev/null || true)
        [ -n "$port" ] && break
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            cat "$log.err" >&2
            fail "server never reported its port"
        fi
        kill -0 "$server_pid" 2>/dev/null || {
            cat "$log.err" >&2
            fail "server died on startup"
        }
        sleep 0.1
    done
}

stop_server() {
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null && server_exit=0 || server_exit=$?
    server_pid=""
}

# run_load <what> <server-log> [qpf_serve_load flags...]: drive the
# running server; a failure names <what> and carries the load
# generator's stderr, whether the server is still alive, and the
# server's stderr log.
run_load() {
    local what="$1" log="$2"
    shift 2
    local status=0
    "$qpf_load" --port="$port" "$@" >/dev/null 2>"$workdir/load.err" \
        || status=$?
    [ "$status" -eq 0 ] && return 0
    local alive="exited"
    kill -0 "$server_pid" 2>/dev/null && alive="running"
    fail "$what (qpf_serve_load exit $status, server pid $server_pid $alive)
  qpf_serve_load stderr:
$(sed 's/^/    /' "$workdir/load.err")
  qpf_serve stderr ($log.err):
$(sed 's/^/    /' "$log.err")"
}

# --- 3. qpf_serve: kill at every durable op of the drain ------------
state="$workdir/serve_state"
mkdir -p "$state"
faultfs="count:$workdir/serve.oplog"
start_server "$workdir/serve_count.log" --state-dir="$state"
faultfs=""
run_load "qpf_serve counting load failed" "$workdir/serve_count.log" \
    --sessions=3 --requests=4 --no-close
stop_server
[ "$server_exit" -eq 130 ] || \
    fail "counting-pass drain exited $server_exit (want 130)"
n_serve=$(wc -l <"$workdir/serve.oplog")
[ "$n_serve" -ge 10 ] || fail "qpf_serve counting pass saw only $n_serve ops"

for k in $(seq 1 "$n_serve"); do
    rm -rf "$state"
    mkdir -p "$state"
    faultfs="kill@$k"
    start_server "$workdir/serve_kill.log" --state-dir="$state"
    faultfs=""
    run_load "kill@$k: load before drain failed" "$workdir/serve_kill.log" \
        --sessions=3 --requests=4 --no-close
    stop_server
    [ "$server_exit" -eq 137 ] || \
        fail "kill@$k: drain exited $server_exit (want 137, injected SIGKILL)"

    # rename(2) is the park commit point: exactly the sessions whose
    # .session files landed must restore; the rest rebuild fresh.  The
    # stale .tmp the kill may have left must never confuse restore.
    parked=$(ls "$state" | grep -c '\.session$' || true)
    start_server "$workdir/serve_restore.log" --state-dir="$state"
    run_load "kill@$k: --resume load after restart failed" \
        "$workdir/serve_restore.log" --sessions=3 --requests=4 --resume
    stop_server
    [ "$server_exit" -eq 130 ] || \
        fail "kill@$k: post-restart drain exited $server_exit (want 130)"
    restored=$(sed -n 's/.*restored=\([0-9][0-9]*\).*/\1/p' \
        "$workdir/serve_restore.log.err")
    [ "$restored" = "$parked" ] || \
        fail "kill@$k: $parked park file(s) on disk but restored=$restored"
done
echo "  qpf_serve: drain killed at each of $n_serve durable ops," \
    "restore always matched the parked set"

# --- 4. qpf_serve: sustained ENOSPC on the state dir ----------------
state_ref="$workdir/enospc_ref_state"
mkdir -p "$state_ref"
start_server "$workdir/enospc_ref.log" --state-dir="$state_ref" \
    --idle-evict-ms=100
mkdir -p "$workdir/enospc_ref"
run_load "ENOSPC reference load failed" "$workdir/enospc_ref.log" \
    --sessions=3 --requests=6 --no-close \
    --transcript-dir="$workdir/enospc_ref"
sleep 0.5
stop_server
[ "$server_exit" -eq 130 ] || \
    fail "ENOSPC reference drain exited $server_exit (want 130)"

state="$workdir/enospc_state"
mkdir -p "$state"
faultfs="enospc-under=$state"
start_server "$workdir/enospc.log" --state-dir="$state" --idle-evict-ms=100
faultfs=""
mkdir -p "$workdir/enospc_fault"
run_load "load against the ENOSPC-starved server failed" \
    "$workdir/enospc.log" --sessions=3 --requests=6 --no-close \
    --transcript-dir="$workdir/enospc_fault"
sleep 0.5   # idle parking fires, every park hits ENOSPC
stop_server
[ "$server_exit" -eq 130 ] || \
    fail "ENOSPC drain exited $server_exit (want 130: degraded, not dead)"
grep -q 'parked=0' "$workdir/enospc.log.err" \
    || fail "ENOSPC run still parked sessions: $(cat "$workdir/enospc.log.err")"
for transcript in "$workdir/enospc_ref"/*; do
    name=$(basename "$transcript")
    cmp -s "$transcript" "$workdir/enospc_fault/$name" \
        || fail "tenant $name transcript diverged under state-dir ENOSPC"
done
echo "  qpf_serve: ENOSPC-starved state dir degraded cleanly," \
    "every tenant transcript bit-identical"

echo "check_faultfs.sh: PASS"
