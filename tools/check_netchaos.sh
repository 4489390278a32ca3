#!/usr/bin/env bash
# Network-chaos proof for qpf_serve + RetryClient, with real processes
# and deterministic FaultNet schedules (QPF_FAULTNET, injected into the
# LOAD process only — the server sees a hostile network, never a
# modified binary).
#
# The exactly-once contract under test:
#
#   1. isolation under fire: the PR 6 drill (9 tenants, tenant-0
#      poisoned into eviction) repeated under every FaultNet mode —
#      connection resets, seeded short sends, seeded stalls, single-bit
#      garble, and a silent blackhole with session leases armed.  Every
#      healthy tenant's reply transcript must stay byte-identical to
#      the fault-free reference: retries, reconnects, and replayed
#      replies are invisible in the byte stream.
#   2. lease reaping: the blackholed connection never sends a FIN, so
#      only the --lease-ms reaper can detect it; its sessions must be
#      PARKED (lease_expired >= 1) and transparently re-attached — not
#      evicted.
#   3. chaos drain: SIGTERM during a short-send run still checkpoints
#      every session and exits 130; a restarted server restores them
#      for a --resume client.
#   4. reset storm: a counting pass enumerates every socket op of a
#      single-tenant conversation, then reset@K is swept over the
#      ordinals (a window in quick mode, every K in storm mode).  Each
#      K must recover to a byte-identical transcript, and the summed
#      dedup_hits prove lost REPLIES were replayed from the idempotency
#      window rather than re-executed.
#
# Usage: tools/check_netchaos.sh [build-dir] [quick|storm]
#        (defaults: ./build, quick — CTest runs quick as tier1 and
#        storm under the slow label)
set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
mode=${2:-quick}
qpf_serve="$build_dir/tools/qpf_serve"
qpf_load="$build_dir/tools/qpf_serve_load"

for binary in "$qpf_serve" "$qpf_load"; do
    if [ ! -x "$binary" ]; then
        echo "check_netchaos.sh: $binary not built" >&2
        exit 1
    fi
done

workdir=$(mktemp -d "${TMPDIR:-/tmp}/qpf_netchaos.XXXXXX")
server_pid=""

cleanup() {
    code=$?
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -KILL "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
    [ "$code" -eq 0 ] || echo "check_netchaos.sh: FAIL (exit $code)" >&2
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# start_server <logfile> [extra flags...]: launch on an ephemeral port,
# export $server_pid and $port.  The logs are emptied before the launch
# (the background job truncates them only once it runs), so the reset@K
# sweep, which reuses one log, never scrapes a stopped server's port.
start_server() {
    log="$1"
    shift
    : >"$log"
    : >"$log.err"
    "$qpf_serve" --port=0 "$@" >"$log" 2>"$log.err" &
    server_pid=$!
    port=""
    tries=0
    while [ -z "$port" ]; do
        port=$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' "$log" \
            2>/dev/null || true)
        [ -n "$port" ] && break
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "check_netchaos.sh: server never reported its port" >&2
            cat "$log.err" >&2
            exit 1
        fi
        kill -0 "$server_pid" 2>/dev/null || {
            echo "check_netchaos.sh: server died on startup" >&2
            cat "$log.err" >&2
            exit 1
        }
        sleep 0.1
    done
}

stop_server() {
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null && server_exit=0 || server_exit=$?
    server_pid=""
}

# json_counter <file> <key>: pull one integer out of the --json summary.
json_counter() {
    sed -n "s/.*\"$2\": \([0-9][0-9]*\).*/\1/p" "$1" | head -n 1
}

sessions=9      # 8 healthy + 1 poisoned in the perturbed runs
requests=8

echo "check_netchaos.sh: build $build_dir ($mode)"

# --- 1. fault-free reference ----------------------------------------
start_server "$workdir/ref.log"
mkdir -p "$workdir/ref"
"$qpf_load" --port="$port" --sessions=$sessions --requests=$requests \
    --poison=0 --json --transcript-dir="$workdir/ref" \
    >"$workdir/ref.json" 2>"$workdir/ref.load" \
    || { echo "check_netchaos.sh: reference load run failed" >&2;
         cat "$workdir/ref.load" >&2; exit 1; }
stop_server
grep -q '"schema": "qpf-serve-bench-v2"' "$workdir/ref.json" \
    || { echo "check_netchaos.sh: reference summary is not schema v2" >&2;
         cat "$workdir/ref.json" >&2; exit 1; }
echo "  reference: $sessions sessions clean (schema v2)"

# compare_healthy <dir> <label>: tenants 1..8 byte-identical to the
# reference, tenant-0 (poisoned) diverged and was evicted.
compare_healthy() {
    dir="$1"
    label="$2"
    i=1
    while [ "$i" -lt "$sessions" ]; do
        if ! cmp -s "$workdir/ref/tenant-$i.transcript" \
                   "$dir/tenant-$i.transcript"; then
            echo "check_netchaos.sh: tenant-$i transcript diverged under $label" >&2
            exit 1
        fi
        i=$((i + 1))
    done
    if cmp -s "$workdir/ref/tenant-0.transcript" "$dir/tenant-0.transcript"; then
        echo "check_netchaos.sh: poisoned tenant-0 did not diverge under $label" >&2
        exit 1
    fi
}

# --- 2. the PR 6 isolation drill under every wire-fault mode --------
for spec in "reset@12" "garble@9:bit=3" "short-send:seed=5" \
            "delay:ms=2:seed=5"; do
    tag=$(printf '%s' "$spec" | tr -c 'a-z0-9' '_')
    start_server "$workdir/$tag.log"
    mkdir -p "$workdir/$tag"
    QPF_FAULTNET="$spec" "$qpf_load" --port="$port" --sessions=$sessions \
        --requests=$requests --poison=1 --json \
        --transcript-dir="$workdir/$tag" \
        >"$workdir/$tag.json" 2>"$workdir/$tag.load" \
        || { echo "check_netchaos.sh: load run failed under $spec" >&2;
             cat "$workdir/$tag.load" >&2; exit 1; }
    stop_server
    compare_healthy "$workdir/$tag" "$spec"
    grep -q 'evicted=1' "$workdir/$tag.load" \
        || { echo "check_netchaos.sh: no eviction under $spec" >&2;
             cat "$workdir/$tag.load" >&2; exit 1; }
    echo "  $spec: 8 healthy transcripts byte-identical, tenant-0 evicted"
done

# --- 3. blackhole + lease reaping -----------------------------------
# The swallowed connection never delivers a FIN; only the lease reaper
# can free its sessions, and it must PARK them for re-attach.
mkdir -p "$workdir/bh.state" "$workdir/bh"
start_server "$workdir/bh.log" --state-dir="$workdir/bh.state" --lease-ms=300
QPF_FAULTNET="blackhole@13" "$qpf_load" --port="$port" \
    --sessions=$sessions --requests=$requests --poison=1 --json \
    --transcript-dir="$workdir/bh" \
    >"$workdir/bh.json" 2>"$workdir/bh.load" \
    || { echo "check_netchaos.sh: load run failed under blackhole@13" >&2;
         cat "$workdir/bh.load" >&2; exit 1; }
stop_server
compare_healthy "$workdir/bh" "blackhole@13"
leases=$(json_counter "$workdir/bh.json" lease_expirations)
if [ -z "$leases" ] || [ "$leases" -lt 1 ]; then
    echo "check_netchaos.sh: blackhole run reaped no lease (got '${leases:-0}')" >&2
    cat "$workdir/bh.json" >&2
    exit 1
fi
grep -q 'lease_expired=[1-9]' "$workdir/bh.log.err" \
    || { echo "check_netchaos.sh: drained server reported no lease expiry" >&2;
         cat "$workdir/bh.log.err" >&2; exit 1; }
echo "  blackhole@13: lease reaped ($leases), healthy transcripts intact"

# --- 4. chaos drain + transparent restore ---------------------------
mkdir -p "$workdir/drain.state" "$workdir/before"
start_server "$workdir/drain.log" --state-dir="$workdir/drain.state"
QPF_FAULTNET="short-send:seed=5" "$qpf_load" --port="$port" --sessions=4 \
    --requests=$requests --no-close \
    --transcript-dir="$workdir/before" >"$workdir/before.load" 2>&1 \
    || { echo "check_netchaos.sh: pre-drain load run failed" >&2;
         cat "$workdir/before.load" >&2; exit 1; }
stop_server
if [ "$server_exit" -ne 130 ]; then
    echo "check_netchaos.sh: drained server exited $server_exit, want 130" >&2
    cat "$workdir/drain.log.err" >&2
    exit 1
fi
parked=$(ls "$workdir/drain.state" | grep -c '\.session$' || true)
if [ "$parked" -ne 4 ]; then
    echo "check_netchaos.sh: drain parked $parked of 4 sessions" >&2
    ls -la "$workdir/drain.state" >&2
    exit 1
fi
start_server "$workdir/restore.log" --state-dir="$workdir/drain.state"
"$qpf_load" --port="$port" --sessions=4 --requests=$requests --resume \
    >"$workdir/restore.load" 2>&1 \
    || { echo "check_netchaos.sh: restore load run failed" >&2;
         cat "$workdir/restore.load" >&2; exit 1; }
stop_server
grep -q 'restored=4' "$workdir/restore.log.err" \
    || { echo "check_netchaos.sh: restart restored fewer than 4 sessions" >&2;
         cat "$workdir/restore.log.err" >&2; exit 1; }
echo "  drain: exit 130 with 4/4 parked under short sends, 4/4 restored"

# --- 5. reset storm over the op ordinals ----------------------------
# Counting pass: enumerate the socket ops of one tenant conversation
# (connection 1 of the load process; the stats query dials later).
start_server "$workdir/count.log"
QPF_FAULTNET="count:$workdir/ordinals.log" "$qpf_load" --port="$port" \
    --sessions=1 --requests=4 >"$workdir/count.load" 2>&1 \
    || { echo "check_netchaos.sh: counting run failed" >&2;
         cat "$workdir/count.load" >&2; exit 1; }
stop_server
total=$(awk '$1 == 1 { n = $2 } END { print n + 0 }' "$workdir/ordinals.log")
if [ "$total" -lt 10 ]; then
    echo "check_netchaos.sh: counting pass saw only $total ops" >&2
    cat "$workdir/ordinals.log" >&2
    exit 1
fi

# Storm reference: the same single-tenant conversation, fault-free, on
# a fresh server (session ids and stack state must start clean for the
# byte-for-byte comparison).
start_server "$workdir/sweepref.log"
mkdir -p "$workdir/sweepref"
"$qpf_load" --port="$port" --sessions=1 --requests=4 \
    --transcript-dir="$workdir/sweepref" >"$workdir/sweepref.load" 2>&1 \
    || { echo "check_netchaos.sh: storm reference run failed" >&2;
         cat "$workdir/sweepref.load" >&2; exit 1; }
stop_server

if [ "$mode" = "storm" ]; then
    ks=$(seq 1 "$total")
else
    # Quick window: both submit sends and both submit reply reads of
    # the first two requests (ordinals 5..8 of the fixed conversation).
    ks="5 6 7 8"
fi
dedup_sum=0
for k in $ks; do
    start_server "$workdir/sweep.log"
    mkdir -p "$workdir/sweep"
    rm -f "$workdir/sweep/tenant-0.transcript"
    QPF_FAULTNET="reset@$k" "$qpf_load" --port="$port" --sessions=1 \
        --requests=4 --json --transcript-dir="$workdir/sweep" \
        >"$workdir/sweep.json" 2>"$workdir/sweep.load" \
        || { echo "check_netchaos.sh: reset@$k run failed" >&2;
             cat "$workdir/sweep.load" >&2; exit 1; }
    stop_server
    if ! cmp -s "$workdir/sweepref/tenant-0.transcript" \
               "$workdir/sweep/tenant-0.transcript"; then
        echo "check_netchaos.sh: reset@$k recovery transcript diverged" >&2
        exit 1
    fi
    hits=$(json_counter "$workdir/sweep.json" dedup_hits)
    dedup_sum=$((dedup_sum + ${hits:-0}))
done
if [ "$dedup_sum" -lt 1 ]; then
    echo "check_netchaos.sh: reset storm never replayed from the dedup window" >&2
    exit 1
fi
echo "  reset storm: K in {$(echo $ks | tr ' ' ',')} byte-identical, $dedup_sum dedup replays"

echo "check_netchaos.sh: PASS"
