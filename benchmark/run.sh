#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Everything the build and the run write (Go build
# cache, temp files, disk stores, spill files) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOPATH="$build/gopath" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/lusail-benchmark" .)
# The module is not part of the root's `go test ./...`, so the run itself
# refuses a BENCHMARK.json that is not what the metric tables print.
if ! "$build/lusail-benchmark" -print-manifest | cmp -s - "$root/BENCHMARK.json"; then
	echo "benchmark: BENCHMARK.json differs from \`-print-manifest\`; regenerate it" >&2
	exit 1
fi
exec "$build/lusail-benchmark" -tmp "$build/tmp" "$@"
