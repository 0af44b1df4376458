#!/usr/bin/env bash
# Builds the benchmark and cmd/mesad from the checkout's sources into
# .bench_build/ and runs the benchmark with the given arguments. Run it from
# the root of a checkout:
#
#   bash bench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the runs write stays inside .bench_build/: the Go
# build cache, module cache and configuration directory (where the go
# command keeps its telemetry) are kept there, no module is fetched, and no
# toolchain is downloaded. Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

cd "$root/bench"
go build -o "$out/bench" .
go build -o "$out/mesad" mesa/cmd/mesad
cd "$root"
exec "$out/bench" "$@"
