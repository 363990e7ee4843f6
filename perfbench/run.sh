#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, telemetry, the binary)
# stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
