#!/usr/bin/env bash
# Dashboard smoke test: start a real `stormtune tune -dash` run, probe
# /healthz and /api/state from a second process, and consume the SSE
# stream, asserting a trial_completed event arrives before the run
# ends. CI runs this on every PR; `make dash-smoke` runs it locally.
set -euo pipefail

ADDR="${DASH_ADDR:-127.0.0.1:8090}"
source "$(dirname "$0")/lib.sh"
build_binaries

# 120 steps keeps the GP big enough that the run lasts long past the
# probes below (~10s locally); the SSE replay cursor means a late
# subscriber still sees every event from seq 1.
"$WORKDIR/stormtune" tune -topology small -steps 120 -dash "$ADDR" -quiet \
  >"$WORKDIR/tune.log" 2>&1 &
TUNE_PID=$!
PIDS+=("$TUNE_PID")
wait_healthz "$ADDR" 100 "$TUNE_PID" "$WORKDIR/tune.log"
echo "healthz: ok"

# The state snapshot is valid JSON with the expected fields.
curl -fs "http://$ADDR/api/state" >"$WORKDIR/state.json"
"$WORKDIR/probe" -mode state -file "$WORKDIR/state.json" -topology small

# Follow the SSE stream from the beginning; the server hangs up on its
# own once the run completes ("done" event), so curl terminates with
# the session. Assert a trial completed while the stream was live.
curl -fsN --max-time 600 "http://$ADDR/api/events?after=0" >"$WORKDIR/sse.log"
grep -q '^event: trial_completed' "$WORKDIR/sse.log" || {
  echo "SSE stream delivered no trial_completed event:" >&2
  head -50 "$WORKDIR/sse.log" >&2
  exit 1
}
grep -q '^event: done' "$WORKDIR/sse.log" || {
  echo "SSE stream did not terminate with a done event" >&2
  exit 1
}
echo "sse: ok ($(grep -c '^event: trial_completed' "$WORKDIR/sse.log") trial_completed events)"

wait "$TUNE_PID"
grep -q "throughput:" "$WORKDIR/tune.log" || {
  echo "tune run did not report a result:" >&2
  cat "$WORKDIR/tune.log" >&2
  exit 1
}
echo "dashboard smoke test: PASS"
