#!/usr/bin/env bash
# Builds the election benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash electbench/run.sh --workload elect --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the compiler's temporary files stay
# under .bench_build/ in the checkout. Outside a full checkout (no root
# go.mod) the build fails and the script exits non-zero without printing a
# result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/electbench" && go build -o "$out/electbench" .)
exec "$out/electbench" "$@"
