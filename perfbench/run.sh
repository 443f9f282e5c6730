#!/usr/bin/env bash
# Builds streamtokd and the load generator from the checkout this script
# sits in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload file-docs --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Every build product, generated input and
# result lands under .bench_build/; the last line of standard output is the
# JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/streamtokd" ./cmd/streamtokd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/streamtokd" "$@"
