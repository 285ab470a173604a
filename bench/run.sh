#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#	bash bench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Every build artifact (the Go build cache and the binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$out/ibpbench" .
exec "$out/ibpbench" "$@"
