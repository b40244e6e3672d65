#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, for example
#
#   bash perfbench/run.sh --workload flagship --seed 1 --seconds 25 --trace 0
#
# perfbench is a Go module of its own that builds the repository's
# packages from the checkout it sits in (see perfbench/NOTES.md).
# Everything the build and the run write stays under .bench_build/ in
# the checkout, the Go build cache included, and the Go runtime runs at
# its defaults.
set -euo pipefail
cd "$(dirname "$0")/.."
work="$PWD/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" \
	TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
unset GOFLAGS GOGC GOMEMLIMIT GOMAXPROCS GODEBUG
# With telemetry off the go command leaves no helper process behind.
go telemetry off
go build -C perfbench -buildvcs=false -o "$work/bin/perfbench" .
exec "$work/bin/perfbench" "$@"
