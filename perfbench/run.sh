#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload uniform-rw --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# and the build never touches the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
