#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# arguments given, e.g.
#   bash perfbench/run.sh --workload oltp_rw --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Everything the build writes, the Go build
# cache included, stays in .bench_build at the root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
