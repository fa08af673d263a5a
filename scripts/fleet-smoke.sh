#!/usr/bin/env bash
# Fleet smoke test: start two real `stormtune serve` workers, run a
# real 3-session `stormtune fleet` over them with the aggregated
# dashboard, probe /api/fleet mid-run (all sessions progressing, shared
# capacity never exceeded) and one session's SSE stream, then let the
# run finish and check the final state. CI runs this on every PR;
# `make fleet-smoke` runs it locally.
set -euo pipefail

DASH_ADDR="${FLEET_DASH_ADDR:-127.0.0.1:8091}"
W1_ADDR="${FLEET_W1_ADDR:-127.0.0.1:8077}"
W2_ADDR="${FLEET_W2_ADDR:-127.0.0.1:8078}"
source "$(dirname "$0")/lib.sh"
build_binaries

# Two shared workers. One is flaky so the fleet's retry path sees real
# lost measurements.
"$WORKDIR/stormtune" serve -addr "$W1_ADDR" -topology small -seed 1 -quiet \
  >"$WORKDIR/w1.log" 2>&1 &
PIDS+=($!)
"$WORKDIR/stormtune" serve -addr "$W2_ADDR" -topology small -seed 1 -flaky 9 -quiet \
  >"$WORKDIR/w2.log" 2>&1 &
PIDS+=($!)
for addr in "$W1_ADDR" "$W2_ADDR"; do
  wait_healthz "$addr" 50
done
echo "workers: up"

# Three sessions, different budgets/seeds/strategies/weights, all over
# the 2-worker pool. Budgets sized so the run outlasts the probes.
cat >"$WORKDIR/fleet.json" <<EOF
{
  "title": "fleet smoke",
  "workers": ["http://$W1_ADDR", "http://$W2_ADDR"],
  "slots": 2,
  "sessions": [
    {"name": "bo-a",  "topology": "small", "strategy": "bo",  "steps": 40, "seed": 1, "weight": 1},
    {"name": "bo-b",  "topology": "small", "strategy": "bo",  "steps": 35, "seed": 2, "weight": 2},
    {"name": "ibo-c", "topology": "small", "strategy": "ibo", "steps": 30, "seed": 3, "weight": 1}
  ]
}
EOF

"$WORKDIR/stormtune" fleet -manifest "$WORKDIR/fleet.json" -dash "$DASH_ADDR" -quiet \
  >"$WORKDIR/fleet.log" 2>&1 &
FLEET_PID=$!
PIDS+=("$FLEET_PID")

wait_healthz "$DASH_ADDR" 100 "$FLEET_PID" "$WORKDIR/fleet.log"
echo "healthz: ok"

# Mid-run: poll until every session has completed at least one trial
# (all sessions progressing), asserting on every sample that the
# in-flight total never exceeds the 2 shared slots.
PROGRESSED=0
for i in $(seq 1 150); do
  if ! kill -0 "$FLEET_PID" 2>/dev/null; then
    echo "fleet finished before all sessions were observed progressing" >&2
    cat "$WORKDIR/fleet.log" >&2
    exit 1
  fi
  curl -fs "http://$DASH_ADDR/api/fleet" >"$WORKDIR/fleet-state.json"
  "$WORKDIR/probe" -mode fleet -file "$WORKDIR/fleet-state.json" -sessions 3 -slots 2 >/dev/null
  if "$WORKDIR/probe" -mode fleet -file "$WORKDIR/fleet-state.json" \
       -sessions 3 -slots 2 -all-progressing 2>/dev/null; then
    PROGRESSED=1
    break
  fi
  sleep 0.2
done
if [[ "$PROGRESSED" != 1 ]]; then
  echo "not every session progressed while the fleet was running:" >&2
  cat "$WORKDIR/fleet-state.json" >&2
  exit 1
fi

# Per-session drill-down: the state JSON has the single-session shape,
# and the SSE stream replays from seq 1 and follows until the session's
# terminal done event (the server hangs up on its own).
curl -fs "http://$DASH_ADDR/sessions/bo-a/api/state" >"$WORKDIR/session.json"
"$WORKDIR/probe" -mode state -file "$WORKDIR/session.json" -topology small
curl -fsN --max-time 600 "http://$DASH_ADDR/sessions/bo-a/api/events?after=0" >"$WORKDIR/sse.log"
grep -q '^event: trial_completed' "$WORKDIR/sse.log" || {
  echo "session SSE stream delivered no trial_completed event:" >&2
  head -50 "$WORKDIR/sse.log" >&2
  exit 1
}
grep -q '^event: done' "$WORKDIR/sse.log" || {
  echo "session SSE stream did not terminate with a done event" >&2
  exit 1
}
echo "sse: ok ($(grep -c '^event: trial_completed' "$WORKDIR/sse.log") trial_completed events on bo-a)"

# Let the fleet finish (it shuts the dashboard down itself) and check
# the process's own summary.
FLEET_STATUS=0
wait "$FLEET_PID" || FLEET_STATUS=$?
if [[ "$FLEET_STATUS" != 0 ]]; then
  echo "fleet run exited with status $FLEET_STATUS:" >&2
  cat "$WORKDIR/fleet.log" >&2
  exit 1
fi
grep -q "fleet best:" "$WORKDIR/fleet.log" || {
  echo "fleet run did not report a result:" >&2
  cat "$WORKDIR/fleet.log" >&2
  exit 1
}
echo "fleet smoke test: PASS"
