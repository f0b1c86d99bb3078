#!/usr/bin/env bash
# Builds pulsed and the benchmark from the checkout's sources, then runs one
# benchmark workload. Run from the repository root:
#
#   bash pulsebench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, the Go build cache, temporary
# files) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"

go build -o "$out/pulsed" ./cmd/pulsed
(cd pulsebench && go build -o "$out/pulsebench" .)
exec "$out/pulsebench" "$@"
