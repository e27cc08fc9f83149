#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash bench/run.sh -workload router-1024B-perm -seed 1 -seconds 25 -trace 0
#
# The binary, the Go build cache and the checkpoint files all live under
# .bench_build in the working directory, so a run writes nothing else.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
