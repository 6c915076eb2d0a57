#!/usr/bin/env bash
# Builds glesbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload lenet-serve --seed 20160316 --seconds 20 --trace 0
#
# Every build artefact, cache and temporary file stays under .bench_build
# in the current directory, so the run touches nothing outside the checkout.
set -euo pipefail

out="${PWD}/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GO111MODULE=on CGO_ENABLED=0

(cd bench && go build -buildvcs=false -o "$out/glesbench" .)
exec "$out/glesbench" "$@"
