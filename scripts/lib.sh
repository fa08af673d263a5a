# Shared plumbing for the scripts/*-smoke.sh end-to-end tests: a
# scratch directory, a cleanup trap that stops every background process
# the script registered in PIDS, the binary builds, and the /healthz
# wait. Source it from the repo root right after `set -euo pipefail`.

WORKDIR="$(mktemp -d)"
PIDS=()

cleanup() {
  # The trap owns cleanup so a failing assertion can never leak a
  # background process, and the step's verdict comes from the
  # assertions, never from kill.
  for pid in "${PIDS[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

# build_binaries builds the CLI into $WORKDIR/stormtune and the JSON
# assertion helper into $WORKDIR/probe, so CI needs no runtime beyond
# the Go toolchain.
build_binaries() {
  go build -o "$WORKDIR/stormtune" ./cmd/stormtune
  go build -o "$WORKDIR/probe" ./scripts/probe
}

# wait_healthz ADDR TRIES [PID LOG] polls http://ADDR/healthz every
# 0.2 s, at most TRIES times, then requires it to answer. Given PID, a
# process that exits first fails the script at once, printing LOG.
wait_healthz() {
  local addr=$1 tries=$2 pid=${3:-} log=${4:-} i
  for i in $(seq 1 "$tries"); do
    curl -fs "http://$addr/healthz" >/dev/null 2>&1 && break
    if [[ -n "$pid" ]] && ! kill -0 "$pid" 2>/dev/null; then
      echo "process $pid exited before http://$addr/healthz came up:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.2
  done
  curl -fs "http://$addr/healthz" >/dev/null
}
