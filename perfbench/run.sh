#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload testbed-fig7 --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
