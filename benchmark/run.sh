#!/usr/bin/env bash
# Build the benchmark from source and run it with the arguments given.
# Everything the build writes (binary, Go build cache, the compiler's
# temporary files) stays under .bench_build/ in the checkout this script
# lives in.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
	export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
	go build -C "$root/benchmark" -o "$build/bsbench" .
)
cd "$root"
exec "$build/bsbench" "$@"
