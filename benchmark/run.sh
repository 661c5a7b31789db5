#!/usr/bin/env bash
# Builds vpbench from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload uni-conv --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, module cache, telemetry, the binary, span files) stays
# under .bench_build in the current directory, and nothing is fetched:
# the module needs only the standard library and the repository itself.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" \
	GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" \
	GOENV=off \
	GOTOOLCHAIN=local \
	GOPROXY=off \
	GOFLAGS=-mod=readonly

go build -C benchmark -o "$build/vpbench" .
exec "$build/vpbench" "$@"
