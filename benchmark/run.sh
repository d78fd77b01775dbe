#!/usr/bin/env bash
# Builds the benchmark — a Go module of its own under benchmark/ — into
# .bench_build/ at the repository root and runs it from there. Every
# file the Go toolchain and the benchmark write (build cache, binary,
# generated tables, journals, traces) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
cd "$root"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$here" -o "$build/erbench" . >&2
exec "$build/erbench" "$@"
