#!/usr/bin/env bash
# Builds the benchmark and demuxd from this checkout, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload tpca-paper --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output and cache lands in
# .bench_build/ so nothing is read or written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ must be present)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/demuxd" ./cmd/demuxd >&2
exec "$out/perfbench" --demuxd "$out/demuxd" "$@"
