#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload attack200 --seed 1 --seconds 40 --trace 0
#
# Build output, the Go build cache included, stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
