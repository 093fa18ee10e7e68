#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload engine --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes stays under
# .bench_build/ in the checkout: the binary, the Go build cache, GOPATH
# and the Go configuration directory. The build never reaches the network; without
# the repository's sources next to perfbench/ it fails, and the script exits
# non-zero without running anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOPATH="$out/gopath"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
