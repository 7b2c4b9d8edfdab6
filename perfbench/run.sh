#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload offline-core --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The binary, the Go build cache
# and everything a run writes stay under .bench_build in that directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command keeps telemetry and its env file under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
