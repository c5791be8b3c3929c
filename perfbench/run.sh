#!/usr/bin/env bash
# Builds the program (qualserve) and the benchmark from this checkout's
# source, then runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload tree-cold --seed 1 --seconds 10 --trace 0
# Run it from the checkout root. Everything it writes stays under
# .bench_build/ in the checkout: the Go build cache, the binaries, the
# benchmark's scratch trees and stores, and trace files.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: the program's source is not in $root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/qualserve) >&2
exec "$out/bin/perfbench" "$@"
