#!/usr/bin/env bash
# Chaos-proven session isolation for qpf_serve, with real processes.
#
# The robustness contract under test:
#
#   1. isolation: N concurrent tenant sessions, one of them poisoned
#      (a seeded chaos storm that exhausts its supervisor and gets the
#      session evicted).  Every HEALTHY session's reply transcript must
#      be byte-identical to the transcript from a fault-free run of the
#      same workload — a hostile neighbor is invisible.
#   2. planted-bug variant: the same comparison with QPF_PLANT_BUG=9
#      (supervisor replay drops a circuit) active in the server — the
#      bug only fires on recovery paths, so healthy sessions must STILL
#      be bit-identical while the poisoned tenant diverges into
#      escalation.
#   3. drain: SIGTERM while sessions are live checkpoints every session
#      to the state dir and exits 130; a restarted server restores them
#      transparently for a --resume client (exit 0 end to end).
#
# qpf_serve_load drives every session through RetryClient.  With no
# QPF_FAULTNET schedule installed, a healthy session that needed a retry
# or a reconnect fails the load run, so a poisoned neighbour can cost
# the healthy tenants neither a reply byte nor a resend.
#
# Usage: tools/check_serve.sh [build-dir]     (default: ./build)
set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
qpf_serve="$build_dir/tools/qpf_serve"
qpf_load="$build_dir/tools/qpf_serve_load"

for binary in "$qpf_serve" "$qpf_load"; do
    if [ ! -x "$binary" ]; then
        echo "check_serve.sh: $binary not built" >&2
        exit 1
    fi
done

workdir=$(mktemp -d "${TMPDIR:-/tmp}/qpf_serve.XXXXXX")
server_pid=""

cleanup() {
    code=$?
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -KILL "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
    [ "$code" -eq 0 ] || echo "check_serve.sh: FAIL (exit $code)" >&2
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# start_server <logfile> [extra flags...]: launch on an ephemeral port,
# export $server_pid and $port.
start_server() {
    log="$1"
    shift
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
            echo "check_serve.sh: server never reported its port" >&2
            cat "$log.err" >&2
            exit 1
        fi
        kill -0 "$server_pid" 2>/dev/null || {
            echo "check_serve.sh: server died on startup" >&2
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

sessions=9      # 8 healthy + 1 poisoned in the perturbed run
requests=12

echo "check_serve.sh: build $build_dir"

# --- 1. fault-free reference run ------------------------------------
start_server "$workdir/ref.log"
mkdir -p "$workdir/ref"
"$qpf_load" --port="$port" --sessions=$sessions --requests=$requests \
    --poison=0 --transcript-dir="$workdir/ref" \
    >"$workdir/ref.load" 2>&1 \
    || { echo "check_serve.sh: reference load run failed" >&2;
         cat "$workdir/ref.load" >&2; exit 1; }
stop_server
echo "  reference run: $sessions sessions clean"

# --- poisoned run: tenant-0 escalates, tenants 1..8 must not notice --
start_server "$workdir/poison.log"
mkdir -p "$workdir/poison"
"$qpf_load" --port="$port" --sessions=$sessions --requests=$requests \
    --poison=1 --transcript-dir="$workdir/poison" \
    >"$workdir/poison.load" 2>&1 \
    || { echo "check_serve.sh: poisoned load run failed" >&2;
         cat "$workdir/poison.load" >&2; exit 1; }
stop_server

i=1
while [ "$i" -lt "$sessions" ]; do
    if ! cmp -s "$workdir/ref/tenant-$i.transcript" \
               "$workdir/poison/tenant-$i.transcript"; then
        echo "check_serve.sh: tenant-$i transcript diverged beside the poisoned tenant" >&2
        exit 1
    fi
    i=$((i + 1))
done
if cmp -s "$workdir/ref/tenant-0.transcript" \
          "$workdir/poison/tenant-0.transcript"; then
    echo "check_serve.sh: poisoned tenant-0 transcript did not change — chaos never fired" >&2
    exit 1
fi
grep -q 'evicted=1' "$workdir/poison.load" \
    || { echo "check_serve.sh: poisoned run reported no eviction" >&2;
         cat "$workdir/poison.load" >&2; exit 1; }
echo "  isolation: 8 healthy transcripts byte-identical, tenant-0 evicted"

# --- 2. planted-bug variant (supervisor replay drops a circuit) ------
export QPF_PLANT_BUG=9
start_server "$workdir/plant.log"
unset QPF_PLANT_BUG
mkdir -p "$workdir/plant"
"$qpf_load" --port="$port" --sessions=$sessions --requests=$requests \
    --poison=1 --transcript-dir="$workdir/plant" \
    >"$workdir/plant.load" 2>&1 \
    || { echo "check_serve.sh: planted-bug load run failed" >&2;
         cat "$workdir/plant.load" >&2; exit 1; }
stop_server

i=1
while [ "$i" -lt "$sessions" ]; do
    if ! cmp -s "$workdir/ref/tenant-$i.transcript" \
               "$workdir/plant/tenant-$i.transcript"; then
        echo "check_serve.sh: tenant-$i transcript diverged under QPF_PLANT_BUG=9" >&2
        exit 1
    fi
    i=$((i + 1))
done
echo "  planted bug 9: healthy transcripts still byte-identical"

# --- 3. SIGTERM drain + transparent restore -------------------------
mkdir -p "$workdir/state"
start_server "$workdir/drain.log" --state-dir="$workdir/state"
mkdir -p "$workdir/before"
"$qpf_load" --port="$port" --sessions=4 --requests=$requests --no-close \
    --transcript-dir="$workdir/before" >"$workdir/before.load" 2>&1 \
    || { echo "check_serve.sh: pre-drain load run failed" >&2;
         cat "$workdir/before.load" >&2; exit 1; }
stop_server
if [ "$server_exit" -ne 130 ]; then
    echo "check_serve.sh: drained server exited $server_exit, want 130" >&2
    cat "$workdir/drain.log.err" >&2
    exit 1
fi
parked=$(ls "$workdir/state" | grep -c '\.session$' || true)
if [ "$parked" -ne 4 ]; then
    echo "check_serve.sh: drain parked $parked of 4 sessions" >&2
    ls -la "$workdir/state" >&2
    exit 1
fi
echo "  drain: exit 130 with 4/4 sessions checkpointed"

start_server "$workdir/restore.log" --state-dir="$workdir/state"
"$qpf_load" --port="$port" --sessions=4 --requests=$requests --resume \
    >"$workdir/restore.load" 2>&1 \
    || { echo "check_serve.sh: restore load run failed" >&2;
         cat "$workdir/restore.load" >&2; exit 1; }
stop_server
grep -q 'restored=4' "$workdir/restore.log.err" \
    || { echo "check_serve.sh: restart restored fewer than 4 sessions" >&2;
         cat "$workdir/restore.log.err" >&2; exit 1; }
echo "  restore: 4 sessions resumed transparently after restart"

echo "check_serve.sh: PASS"
