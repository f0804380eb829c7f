#!/usr/bin/env bash
# Builds graphd and the benchmark program from this checkout's sources,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-small-skewed --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory (Go build cache included), so a checkout is
# self-contained.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/graphd" repro/cmd/graphd
cd "$root"
exec "$out/bin/perfbench" -graphd "$out/bin/graphd" -work "$out" "$@"
