#!/bin/sh
# server_smoke.sh — end-to-end smoke for the avivd compile server
# (docs/server.md), run by ctest and the CI server-smoke job.
#
#   server_smoke.sh <avivd> <loadgen> <trace_report> <batch.txt> [conns]
#
# Asserts, in order:
#   1. Warm burst: after a priming pass, a multi-connection closed-loop
#      burst completes with zero errors/transport failures and a nonzero
#      cache hit rate, and the client's response count matches the
#      server's own summary — and its --stats-json (no per-request trees,
#      one service node, server responses) and --metrics-json
#      (server.responses gauge).
#   2. Byte-identical assembly: the asm served over the socket, and the asm
#      a batch run under --isolate-workers prints, equal the asm the
#      in-process batch path prints for the same requests (the isolated
#      batch's status lines match too, once wall=/queue= are removed).
#   3. Admission control: with --queue-cap 1 an oversized burst sheds
#      (RETRY_AFTER) instead of erroring, and nothing is lost.
#   4. Graceful drain: SIGTERM mid-load loses zero responses.
#   5. The emitted trace survives trace_report --validate.
set -eu

AVIVD=$1
LOADGEN=$2
TRACE_REPORT=$3
BATCH=$4
CONNS=${5:-50}

WORK=$(mktemp -d /tmp/aviv_server_smoke.XXXXXX)
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ]; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

SOCK="$WORK/avivd.sock"
CACHE="$WORK/cache"

wait_listening() {
  i=0
  while ! grep -q "listening on" "$1" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "FAIL: server never started"; cat "$1"; exit 1; }
    sleep 0.1
  done
}

json_int() {  # json_int FILE KEY -> integer value
  sed -n "s/.*\"$2\": \([0-9][0-9]*\).*/\1/p" "$1" | head -n 1
}

echo "== 1. warm burst: zero errors, nonzero hit rate =="
"$AVIVD" --listen "unix:$SOCK" --jobs 4 --cache-dir "$CACHE" \
  --trace-out "$WORK/server_trace.json" --stats-json "$WORK/stats1.json" \
  --metrics-json "$WORK/metrics1.json" > "$WORK/server1.log" 2>&1 &
SERVER_PID=$!
wait_listening "$WORK/server1.log"
# Priming pass: every distinct request compiles once, cold.
"$LOADGEN" --connect "unix:$SOCK" --batch "$BATCH" --connections 4 \
  --requests 40 --pipeline 2 --json "$WORK/prime.json" 2> /dev/null
# Warm burst: the same lines again, many connections — all hits.
"$LOADGEN" --connect "unix:$SOCK" --batch "$BATCH" --connections "$CONNS" \
  --requests 500 --pipeline 2 --json "$WORK/warm.json" 2> /dev/null
WARM_RESPONSES=$(json_int "$WORK/warm.json" responses)
WARM_HITS=$(json_int "$WORK/warm.json" hit)
WARM_ERRORS=$(json_int "$WORK/warm.json" error)
WARM_SHED=$(json_int "$WORK/warm.json" retry_after)
[ "$WARM_RESPONSES" -eq 500 ] || { echo "FAIL: warm responses $WARM_RESPONSES != 500"; exit 1; }
[ "$WARM_ERRORS" -eq 0 ] || { echo "FAIL: warm burst had $WARM_ERRORS errors"; exit 1; }
[ "$WARM_SHED" -eq 0 ] || { echo "FAIL: warm burst shed $WARM_SHED (queue-cap default should absorb it)"; exit 1; }
[ "$WARM_HITS" -gt 0 ] || { echo "FAIL: warm burst had zero cache hits"; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exit nonzero after drain"; cat "$WORK/server1.log"; exit 1; }
SERVER_PID=""
# Cross-check client-side counts against the server's own summary.
grep -q "0 dropped" "$WORK/server1.log" || { echo "FAIL: server dropped responses"; cat "$WORK/server1.log"; exit 1; }
SERVER_RESPONSES=$(sed -n 's/.* \([0-9][0-9]*\) responses.*/\1/p' "$WORK/server1.log" | head -n 1)
[ "$SERVER_RESPONSES" -eq 540 ] || { echo "FAIL: server saw $SERVER_RESPONSES responses, expected 540"; exit 1; }
# One stats surface: per-request telemetry is not kept across requests,
# and each component counter is published once.
if grep -q '"name": "block:' "$WORK/stats1.json"; then echo "FAIL: server --stats-json carries per-request block trees"; exit 1; fi
SERVICE_NODES=$(grep -c '"name": "service"' "$WORK/stats1.json")
[ "$SERVICE_NODES" -eq 1 ] || { echo "FAIL: server --stats-json has $SERVICE_NODES service nodes, expected 1"; exit 1; }
STATS_RESPONSES=$(json_int "$WORK/stats1.json" responses)
[ "$STATS_RESPONSES" -eq 540 ] || { echo "FAIL: --stats-json server responses $STATS_RESPONSES, expected 540"; exit 1; }
GAUGE_RESPONSES=$(json_int "$WORK/metrics1.json" server.responses)
[ "$GAUGE_RESPONSES" -eq 540 ] || { echo "FAIL: --metrics-json server.responses $GAUGE_RESPONSES, expected 540"; exit 1; }
echo "ok: 500 warm responses, $WARM_HITS hits, 0 errors, 0 shed"

echo "== 2. byte-identical assembly vs batch path =="
# Batch path: deterministic order with --jobs 1, strip status/summary lines.
"$AVIVD" "$BATCH" --jobs 1 --no-cache --print-asm > "$WORK/batch_out.txt" 2>&1
grep -v '^req ' "$WORK/batch_out.txt" | grep -v '^avivd:' > "$WORK/batch_asm.txt"
# Same batch through isolated worker processes: the other dispatch path.
"$AVIVD" "$BATCH" --jobs 1 --no-cache --print-asm --isolate-workers 2 \
  > "$WORK/iso_out.txt" 2>&1
grep -v '^req ' "$WORK/iso_out.txt" | grep -v '^avivd:' > "$WORK/iso_asm.txt"
cmp "$WORK/batch_asm.txt" "$WORK/iso_asm.txt" || {
  echo "FAIL: isolated-worker batch assembly differs from in-process batch"
  diff "$WORK/batch_asm.txt" "$WORK/iso_asm.txt" | head -n 20
  exit 1
}
strip_timing() { grep '^req ' "$1" | sed 's/ wall=[0-9.]*ms queue=[0-9.]*ms$//'; }
strip_timing "$WORK/batch_out.txt" > "$WORK/batch_status.txt"
strip_timing "$WORK/iso_out.txt" > "$WORK/iso_status.txt"
cmp "$WORK/batch_status.txt" "$WORK/iso_status.txt" || {
  echo "FAIL: isolated-worker batch status lines differ from in-process batch"
  diff "$WORK/batch_status.txt" "$WORK/iso_status.txt" | head -n 20
  exit 1
}
# Server path: one connection, pipeline 1 => responses arrive in order.
"$AVIVD" --listen "unix:$SOCK" --jobs 1 --no-cache > "$WORK/server2.log" 2>&1 &
SERVER_PID=$!
wait_listening "$WORK/server2.log"
"$LOADGEN" --connect "unix:$SOCK" --batch "$BATCH" --connections 1 \
  --requests 10 --pipeline 1 --want-asm --dump-asm \
  > "$WORK/net_asm.txt" 2> /dev/null
kill -TERM "$SERVER_PID"; wait "$SERVER_PID" || true; SERVER_PID=""
cmp "$WORK/batch_asm.txt" "$WORK/net_asm.txt" || {
  echo "FAIL: server assembly differs from batch assembly"
  diff "$WORK/batch_asm.txt" "$WORK/net_asm.txt" | head -n 20
  exit 1
}
echo "ok: assembly byte-identical across both front ends and both dispatch paths"

echo "== 3. queue-cap 1: sheds, no errors, nothing lost =="
"$AVIVD" --listen "unix:$SOCK" --jobs 2 --cache-dir "$CACHE" --queue-cap 1 \
  > "$WORK/server3.log" 2>&1 &
SERVER_PID=$!
wait_listening "$WORK/server3.log"
"$LOADGEN" --connect "unix:$SOCK" --batch "$BATCH" --connections 20 \
  --requests 400 --pipeline 4 --json "$WORK/shed.json" 2> /dev/null
SHED=$(json_int "$WORK/shed.json" retry_after)
SHED_ERRORS=$(json_int "$WORK/shed.json" error)
SHED_LOST=$(json_int "$WORK/shed.json" lost)
SHED_RESPONSES=$(json_int "$WORK/shed.json" responses)
[ "$SHED" -gt 0 ] || { echo "FAIL: queue-cap 1 never shed under a 20x4 burst"; exit 1; }
[ "$SHED_ERRORS" -eq 0 ] || { echo "FAIL: shed run had $SHED_ERRORS errors"; exit 1; }
[ "$SHED_LOST" -eq 0 ] || { echo "FAIL: shed run lost $SHED_LOST responses"; exit 1; }
[ "$SHED_RESPONSES" -eq 400 ] || { echo "FAIL: shed run answered $SHED_RESPONSES/400"; exit 1; }
kill -TERM "$SERVER_PID"; wait "$SERVER_PID" || true; SERVER_PID=""
echo "ok: $SHED sheds, 0 errors, 400/400 answered"

echo "== 4. SIGTERM mid-load drains with zero lost responses =="
"$AVIVD" --listen "unix:$SOCK" --jobs 2 --cache-dir "$CACHE" \
  > "$WORK/server4.log" 2>&1 &
SERVER_PID=$!
wait_listening "$WORK/server4.log"
# Enough warm requests that the SIGTERM below lands mid-load.
"$LOADGEN" --connect "unix:$SOCK" --batch "$BATCH" --connections 8 \
  --requests 20000 --pipeline 2 --json "$WORK/drain.json" 2> /dev/null &
LOAD_PID=$!
sleep 0.5
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exit nonzero on mid-load SIGTERM"; cat "$WORK/server4.log"; exit 1; }
SERVER_PID=""
wait "$LOAD_PID" || true  # client sees the close and stops early
# Zero-lost-responses contract is server-side: every ADMITTED request's
# response reached its socket before the close (0 dropped). Requests the
# client sent but the server never read don't count — the client observes
# those as a clean early close.
grep -q " 0 dropped" "$WORK/server4.log" || { echo "FAIL: drain dropped responses"; cat "$WORK/server4.log"; exit 1; }
DRAIN_RESPONSES=$(json_int "$WORK/drain.json" responses)
[ "$DRAIN_RESPONSES" -gt 0 ] || { echo "FAIL: no responses before drain"; exit 1; }
echo "ok: mid-load drain after $DRAIN_RESPONSES responses, server dropped 0"

echo "== 5. trace validates =="
"$TRACE_REPORT" "$WORK/server_trace.json" --validate > /dev/null
echo "ok: trace schema valid"

echo "server_smoke: PASS"
