#!/usr/bin/env bash
# Builds dts and the perfbench harness from this checkout's sources into
# .bench_build/, then runs the harness with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
#
# The Go build cache lives under .bench_build/ too, so the benchmark
# writes nothing outside the checkout. The first run in a fresh checkout
# compiles the standard library and takes longer. -trimpath and
# -buildvcs=false make the dts binary, whose SHA-256 every result
# records, depend only on the sources and the toolchain.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dts || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/dts and perfbench/go.mod must exist)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep every file the go command writes (build cache, module cache,
# toolchain telemetry under the user config directory) inside .bench_build.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go build -trimpath -buildvcs=false -o "$build/dts" ./cmd/dts
(cd perfbench && go build -trimpath -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" -dts "$build/dts" -work "$build/work" "$@"
