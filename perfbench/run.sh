#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sbr-bulk --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory. Outside a full checkout the build fails, and
# so does the run.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
