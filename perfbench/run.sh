#!/usr/bin/env bash
# Builds the benchmark and the f3dd daemon from the checkout, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload f3d-1m-half --seed 1 --seconds 30 --trace 0
#
# Every build product and cache stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go build -C perfbench -o "$out/perfbench" .
go build -o "$out/f3dd" ./cmd/f3dd
exec "$out/perfbench" --f3dd "$out/f3dd" "$@"
