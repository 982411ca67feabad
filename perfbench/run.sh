#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload eval-full-sd2 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD.json NEW.json
#
# Every build artefact (Go build cache, temporary files, the binary) and every
# result record stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
