#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the driver's
# arguments. Everything the build and the run write — Go's build cache
# and telemetry counters, the binary, temporary WAL directories — stays
# under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/vdmbench" .)
cd "$root"
exec "$out/vdmbench" "$@"
