#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Builds the benchmark from the checkout
# this script sits in, into .bench_build/ at its root, and runs it with
# the arguments given; the benchmark builds the daemons it spawns.
# Everything the builds and the run write stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/aestored ] || [ ! -d cmd/aecluster ]; then
	echo "bench: $root is not a checkout of the aecodes module: nothing to build or measure" >&2
	exit 2
fi

build="$root/.bench_build"
# Keep the toolchain's own files inside the checkout as well.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -C bench -o "$build/bin/lifecycle" .
exec "$build/bin/lifecycle" "$@"
