#!/usr/bin/env bash
# Builds the benchmark and the programs it measures from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload figures-4k --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# (binaries, Go build cache, trace files) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/asppbench || ! -d cmd/asppserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an aspp checkout (go.mod, cmd/ and perfbench/ not found)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/" ./cmd/asppbench ./cmd/asppserve
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
