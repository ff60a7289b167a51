#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Every flag is
# passed through, e.g.:
#
#   bash benchmark/run.sh --workload tune-scalar --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# live under .bench_build/ at the repository root, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/autoblox-bench"
mkdir -p "$build/gocache" "$build/tmp" "$build/home/.config" "$build/home/.cache" "$build/gopath"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" --workdir "$build/work" "$@"
