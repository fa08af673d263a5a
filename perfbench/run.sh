#!/usr/bin/env bash
# Builds the stormtune CLI and the benchmark from this checkout, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload tune-large --seed 1 --seconds 36 --trace 0
#
# Everything it builds and writes stays under .bench_build/ in the
# checkout: the Go build cache, and the go command's configuration and
# telemetry directory too. The binaries are rebuilt only when a Go
# source or module file of the checkout changed.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/stormtune" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the root of a stormtune checkout" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOWORK=off GOFLAGS=

stamp="$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print0 |
  LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum)"
if [[ ! -f "$out/stamp" || "$(cat "$out/stamp")" != "$stamp" ||
      ! -x "$out/stormtune" || ! -x "$out/perfbench" || ! -x "$out/perfbench-trace" ]]; then
  rm -f "$out/stamp"
  go build -o "$out/stormtune" ./cmd/stormtune
  (cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/perfbench-trace" ./trace)
  printf '%s' "$stamp" >"$out/stamp"
fi
exec "$out/perfbench" -bin "$out/stormtune" -tracer "$out/perfbench-trace" -work "$out/work" "$@"
