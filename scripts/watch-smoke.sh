#!/usr/bin/env bash
# Watch smoke test: run a real `stormtune watch` under a flash-crowd
# drift with the live dashboard attached, then assert the continuous
# tuning loop actually closed — the flash must trip the degradation
# monitor and the retune episode must be visible both in /api/state
# (retunes array, via probe -min-retunes) and on the SSE stream
# (retune_triggered event). CI runs this on every PR; `make
# watch-smoke` runs it locally.
set -euo pipefail

DASH_ADDR="${WATCH_DASH_ADDR:-127.0.0.1:8092}"
source "$(dirname "$0")/lib.sh"
build_binaries

# A 3x flash over an offered load near the tuned capacity guarantees
# sustained backpressure, so the monitor must trigger. The horizon is
# effectively unbounded and -throttle paces the simulated timeline in
# wall-clock, keeping the process (and its dashboard) alive while the
# probes run; the trap shuts it down once the assertions pass.
"$WORKDIR/stormtune" watch -topology small -seed 1 -steps 10 -retune-steps 8 \
  -drift 'flash:at=1500,mag=3' -base-load 400 -episodes 2 -horizon 600000 \
  -throttle 200ms -snapshot "$WORKDIR/watch.json" -snapshot-every 5 \
  -dash "$DASH_ADDR" -quiet >"$WORKDIR/watch.log" 2>&1 &
WATCH_PID=$!
PIDS+=("$WATCH_PID")

wait_healthz "$DASH_ADDR" 100 "$WATCH_PID" "$WORKDIR/watch.log"
echo "healthz: ok"

# Follow the SSE stream from the beginning so the retune event cannot
# race past us while we poll the state document below.
curl -fsN --max-time 300 "http://$DASH_ADDR/api/events?after=0" \
  >"$WORKDIR/sse.log" 2>/dev/null &
PIDS+=($!)

# Poll /api/state until the flash has hit and a retune episode is
# recorded. ~25 pre-flash hold samples at 200ms each put the trigger
# well inside this window.
RETUNED=0
for i in $(seq 1 300); do
  if ! kill -0 "$WATCH_PID" 2>/dev/null; then
    echo "watch exited before a retune episode was observed:" >&2
    cat "$WORKDIR/watch.log" >&2
    exit 1
  fi
  curl -fs "http://$DASH_ADDR/api/state" >"$WORKDIR/state.json"
  if "$WORKDIR/probe" -mode state -file "$WORKDIR/state.json" \
       -topology small -min-retunes 1 2>/dev/null; then
    RETUNED=1
    break
  fi
  sleep 0.2
done
if [[ "$RETUNED" != 1 ]]; then
  echo "no retune episode appeared in /api/state:" >&2
  cat "$WORKDIR/state.json" >&2
  exit 1
fi

# The same episode must be on the event stream.
SSE_OK=0
for i in $(seq 1 50); do
  if grep -q '^event: retune_triggered' "$WORKDIR/sse.log"; then
    SSE_OK=1
    break
  fi
  sleep 0.2
done
if [[ "$SSE_OK" != 1 ]]; then
  echo "SSE stream delivered no retune_triggered event:" >&2
  head -50 "$WORKDIR/sse.log" >&2
  exit 1
fi
echo "sse: ok ($(grep -c '^event: retune_triggered' "$WORKDIR/sse.log") retune_triggered events)"

# The periodic snapshot must exist and parse as a watch state a future
# `stormtune watch -resume` could load.
if [[ ! -s "$WORKDIR/watch.json" ]]; then
  echo "no periodic snapshot was written" >&2
  exit 1
fi
grep -q '"watch"' "$WORKDIR/watch.json" || {
  echo "snapshot does not look like a watch state:" >&2
  head -5 "$WORKDIR/watch.json" >&2
  exit 1
}
echo "snapshot: ok"

# The watch's own log must narrate the episode.
grep -q "retune episode 1 triggered" "$WORKDIR/watch.log" || {
  echo "watch log has no retune trigger line:" >&2
  cat "$WORKDIR/watch.log" >&2
  exit 1
}
echo "watch smoke test: PASS"
