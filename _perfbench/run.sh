#!/usr/bin/env bash
# Builds ssdserved, ssdrouter and the perfbench program from this
# checkout into .bench_build, then runs perfbench with the arguments
# given, for example:
#
#   bash _perfbench/run.sh --workload ingest_bin --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file it builds or writes stays
# under .bench_build; the Go build cache is kept there too, so only the
# first run in a checkout compiles from scratch.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C _perfbench build -o "$out/bin/" ssdfail/cmd/ssdserved ssdfail/cmd/ssdrouter ssdfail/perfbench
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
