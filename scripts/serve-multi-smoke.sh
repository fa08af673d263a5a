#!/usr/bin/env bash
# Multi-tenant serving-plane smoke test: one authed `stormtune serve`
# worker serving two topologies, a heterogeneous two-session fleet
# tuning both over it, auth actually enforced on the wire, a kill -9
# mid-run, and a `-resume` that must finish with a summary table
# bit-identical to an uninterrupted reference run. CI runs this on
# every PR; `make serve-multi-smoke` runs it locally.
set -euo pipefail

W_ADDR="${SERVE_MULTI_ADDR:-127.0.0.1:8079}"
TOKEN="smoke-secret"
source "$(dirname "$0")/lib.sh"
build_binaries

# One worker, two registered topologies, bearer auth, bounded admission.
"$WORKDIR/stormtune" serve -addr "$W_ADDR" -topology small,medium -seed 1 \
  -token "$TOKEN" -capacity 2 -quiet >"$WORKDIR/worker.log" 2>&1 &
PIDS+=($!)
wait_healthz "$W_ADDR" 50
echo "worker: up"

# Auth is enforced: no token and a wrong token are 401, the right one
# is 200 — /healthz stays open for probes.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$W_ADDR/info")
[[ "$code" == 401 ]] || { echo "unauthenticated /info got $code, want 401" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer nope" "http://$W_ADDR/info")
[[ "$code" == 401 ]] || { echo "wrong-token /info got $code, want 401" >&2; exit 1; }
curl -fs -H "Authorization: Bearer $TOKEN" "http://$W_ADDR/info" >"$WORKDIR/info.json"
grep -q '"topology":"small' "$WORKDIR/info.json" && grep -q '"topology":"medium' "$WORKDIR/info.json" || {
  echo "/info does not list both topologies:" >&2
  cat "$WORKDIR/info.json" >&2
  exit 1
}
echo "auth + multi-topology /info: ok"

# A heterogeneous fleet: two sessions tuning different topologies over
# the same worker, routed by fingerprint.
cat >"$WORKDIR/fleet.json" <<EOF
{
  "title": "serve-multi smoke",
  "workers": ["http://$W_ADDR"],
  "token": "$TOKEN",
  "slots": 2,
  "sessions": [
    {"name": "small-bo",  "topology": "small",  "strategy": "bo", "steps": 120, "seed": 1},
    {"name": "medium-bo", "topology": "medium", "strategy": "bo", "steps": 100, "seed": 2}
  ]
}
EOF

# Reference: the same logged fleet, uninterrupted. -state pins the
# sequential per-member dispatch the crash-safe path uses, so the two
# runs are comparable trial for trial.
"$WORKDIR/stormtune" fleet -manifest "$WORKDIR/fleet.json" \
  -state "$WORKDIR/ref.log" -quiet >"$WORKDIR/ref.out" 2>&1 || {
  echo "reference fleet run failed:" >&2
  cat "$WORKDIR/ref.out" >&2
  exit 1
}
grep -q "fleet best:" "$WORKDIR/ref.out" || {
  echo "reference run reported no result:" >&2
  cat "$WORKDIR/ref.out" >&2
  exit 1
}
echo "reference run: done"

# Crash run: same manifest, fresh log, SIGKILL once both members have
# durable progress (a snapshot covering at least one recorded event).
"$WORKDIR/stormtune" fleet -manifest "$WORKDIR/fleet.json" \
  -state "$WORKDIR/crash.log" -quiet >"$WORKDIR/crash.out" 2>&1 &
FLEET_PID=$!
PIDS+=("$FLEET_PID")
KILLED=0
for i in $(seq 1 300); do
  if ! kill -0 "$FLEET_PID" 2>/dev/null; then
    break
  fi
  small_snaps=$(grep -c '"kind":"snapshot","member":"small-bo","seq":[1-9]' "$WORKDIR/crash.log" 2>/dev/null || true)
  medium_snaps=$(grep -c '"kind":"snapshot","member":"medium-bo","seq":[1-9]' "$WORKDIR/crash.log" 2>/dev/null || true)
  if [[ "${small_snaps:-0}" -ge 3 && "${medium_snaps:-0}" -ge 3 ]]; then
    kill -9 "$FLEET_PID"
    wait "$FLEET_PID" 2>/dev/null || true
    KILLED=1
    break
  fi
  sleep 0.1
done
if [[ "$KILLED" != 1 ]]; then
  echo "fleet finished before it could be killed mid-run; raise the budgets" >&2
  cat "$WORKDIR/crash.out" >&2
  exit 1
fi
echo "fleet: killed mid-run"

# Resume from the recovered log; it must pick up both members and
# finish with the reference's exact summary — same steps, same best
# step, same incumbent throughput per session.
"$WORKDIR/stormtune" fleet -manifest "$WORKDIR/fleet.json" \
  -state "$WORKDIR/crash.log" -resume -quiet >"$WORKDIR/resume.out" 2>&1 || {
  echo "resumed fleet run failed:" >&2
  cat "$WORKDIR/resume.out" >&2
  exit 1
}
grep -q "resuming 2 of 2 session(s)" "$WORKDIR/resume.out" || {
  echo "resume did not restore both members:" >&2
  cat "$WORKDIR/resume.out" >&2
  exit 1
}
sed -n '/^session /,/^fleet best:/p' "$WORKDIR/ref.out" >"$WORKDIR/ref.summary"
sed -n '/^session /,/^fleet best:/p' "$WORKDIR/resume.out" >"$WORKDIR/resume.summary"
# Strip the wall-clock suffix off the fleet-best line before diffing.
sed -i 's/ after .*$//' "$WORKDIR/ref.summary" "$WORKDIR/resume.summary"
if ! diff -u "$WORKDIR/ref.summary" "$WORKDIR/resume.summary"; then
  echo "resumed run's summary diverges from the uninterrupted reference" >&2
  exit 1
fi
echo "resume: bit-identical summary"
echo "serve-multi smoke test: PASS"
