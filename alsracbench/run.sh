#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash alsracbench/run.sh --workload rca32-global --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root.
set -euo pipefail

if [ ! -f alsracbench/go.mod ] || [ ! -f go.mod ]; then
	echo "alsracbench: run from the repository root (need go.mod and alsracbench/go.mod)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd alsracbench && go build -o "$out/alsracbench" .)
exec "$out/alsracbench" "$@"
