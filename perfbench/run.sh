#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:  bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/run" "$@"
