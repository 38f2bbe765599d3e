#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload pages --seed 1 --seconds 20 --trace 0
#
# The build cache, the build's temporary files and the binary stay
# under .bench_build in the checkout. Without the module the benchmark
# measures (the go.mod and sources at the root), the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
