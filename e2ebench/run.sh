#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root of
# the checkout; every argument passes through (see README.md). Build outputs,
# the Go build cache and the benchmark's work files all stay under
# .bench_build, so a run reads and writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
