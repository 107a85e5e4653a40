#!/usr/bin/env bash
# Builds the benchmark against the repository checkout it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch state all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/anc.go" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an anc checkout (go.mod, anc.go and perfbench/ missing here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
export PERFBENCH_WORK="$out"
exec "$out/perfbench" "$@"
