#!/usr/bin/env bash
# Archive smoke test: close the warm-start loop end to end with the
# real CLI. A cold `stormtune tune -archive` run records and seals its
# evidence; `stormtune archive list` shows it; a second run over the
# same archive warm-starts from the first (stdout narrates the donor,
# and /api/state reports warmStarted + the donor key while the run is
# live); `archive gc` then drops the killed second run's unsealed
# record. CI runs this on every PR; `make archive-smoke` runs it
# locally.
set -euo pipefail

ADDR="${ARCHIVE_DASH_ADDR:-127.0.0.1:8093}"
source "$(dirname "$0")/lib.sh"
ARCH="$WORKDIR/archive"
build_binaries

# Cold run: nothing archived yet, so no donor exists; the run must say
# so, finish, and seal its record.
"$WORKDIR/stormtune" tune -topology small -seed 1 -steps 10 \
  -archive "$ARCH" -quiet >"$WORKDIR/cold.log" 2>&1
grep -q "cold start" "$WORKDIR/cold.log" || {
  echo "first run over an empty archive did not report a cold start:" >&2
  cat "$WORKDIR/cold.log" >&2
  exit 1
}
echo "cold run: ok"

# The archive lists the sealed session.
"$WORKDIR/stormtune" archive list -archive "$ARCH" >"$WORKDIR/list1.log"
grep -q "bo" "$WORKDIR/list1.log" && grep -q "true" "$WORKDIR/list1.log" || {
  echo "archive list does not show the sealed cold run:" >&2
  cat "$WORKDIR/list1.log" >&2
  exit 1
}
COLD_KEY="$(awk 'NR==2{print $1}' "$WORKDIR/list1.log")"
echo "archive list: ok ($COLD_KEY)"

# show by the fingerprint embedded in the key (…-<16 hex>/…).
FP="$(sed -n 's|.*-\([0-9a-f]\{16\}\)/.*|\1|p' <<<"$COLD_KEY")"
"$WORKDIR/stormtune" archive show "$FP" -archive "$ARCH" >"$WORKDIR/show.log"
grep -q "trials:    10" "$WORKDIR/show.log" || {
  echo "archive show did not detail the 10 archived trials:" >&2
  cat "$WORKDIR/show.log" >&2
  exit 1
}
echo "archive show: ok"

# Warm run: same topology and archive, long enough (120 steps) to stay
# alive while we probe its dashboard. It must announce the donor on
# stdout immediately.
"$WORKDIR/stormtune" tune -topology small -seed 2 -steps 120 \
  -archive "$ARCH" -dash "$ADDR" -quiet >"$WORKDIR/warm.log" 2>&1 &
TUNE_PID=$!
PIDS+=("$TUNE_PID")
wait_healthz "$ADDR" 100 "$TUNE_PID" "$WORKDIR/warm.log"
grep -q "warm start: donor" "$WORKDIR/warm.log" || {
  echo "re-tune over the archived evidence did not warm-start:" >&2
  cat "$WORKDIR/warm.log" >&2
  exit 1
}
echo "warm start: ok"

# The dashboard state carries the transfer: warmStarted plus the donor
# key the run seeded from.
curl -fs "http://$ADDR/api/state" >"$WORKDIR/state.json"
grep -q '"warmStarted": *true' "$WORKDIR/state.json" || {
  echo "/api/state does not report warmStarted:" >&2
  head -c 2000 "$WORKDIR/state.json" >&2
  exit 1
}
grep -qF '"warmDonor": "'"$COLD_KEY"'"' "$WORKDIR/state.json" || {
  echo "/api/state does not name the donor $COLD_KEY:" >&2
  head -c 2000 "$WORKDIR/state.json" >&2
  exit 1
}
echo "api/state warmStarted: ok"

# Kill the warm run mid-flight: its record stays unsealed (evidence of
# an abandoned run), which is exactly what gc prunes.
kill "$TUNE_PID" 2>/dev/null || true
wait "$TUNE_PID" 2>/dev/null || true

"$WORKDIR/stormtune" archive list -archive "$ARCH" >"$WORKDIR/list2.log"
SESSIONS=$(($(wc -l <"$WORKDIR/list2.log") - 1))
if [[ "$SESSIONS" -ne 2 ]]; then
  echo "expected 2 archived sessions after the warm run, got $SESSIONS:" >&2
  cat "$WORKDIR/list2.log" >&2
  exit 1
fi
"$WORKDIR/stormtune" archive gc -archive "$ARCH" >"$WORKDIR/gc.log"
grep -q "1 record(s) dropped" "$WORKDIR/gc.log" || {
  echo "gc did not drop the killed run's unsealed record:" >&2
  cat "$WORKDIR/gc.log" >&2
  cat "$WORKDIR/list2.log" >&2
  exit 1
}
echo "archive gc: ok"

# Export/import round trip into a fresh archive.
"$WORKDIR/stormtune" archive export -archive "$ARCH" -o "$WORKDIR/export.jsonl"
"$WORKDIR/stormtune" archive import -archive "$WORKDIR/arch2" -i "$WORKDIR/export.jsonl" \
  | grep -q "imported 1 session(s)" || {
  echo "export/import round trip failed" >&2
  exit 1
}
echo "archive export/import: ok"
echo "archive smoke test: PASS"
