#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash bench/run.sh --workload cocco-coexplore --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# Every file the toolchain or the benchmark writes stays under bench/.build/:
# the build cache, temporary files, the binary, and the benchmark's own
# scratch and span files.
set -euo pipefail
root=$(pwd)
out="$root/bench/.build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
COCCO_BENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
	git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export COCCO_BENCH_COMMIT
go -C "$root/bench" build -o "$out/cocco-bench" .
exec "$out/cocco-bench" "$@"
