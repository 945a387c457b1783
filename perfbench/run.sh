#!/usr/bin/env bash
# Builds the system under test (temprivd, temprivgw) and the harness from
# source, then runs one workload:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything it builds, and every state
# directory the workloads create, stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory. Build time is not measured.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/temprivd" ] || [ ! -d "$root/perfbench" ]; then
  echo "perfbench: run from the repository root (no tempriv sources here)" >&2
  exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
# Keep the toolchain's caches, temporary files and its user config (where
# it keeps telemetry counters) inside the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/temprivd" ./cmd/temprivd >&2
go build -o "$build/bin/temprivgw" ./cmd/temprivgw >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" --bin "$build/bin" --state "$build/state" "$@"
