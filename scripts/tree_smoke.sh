#!/bin/sh
# tree-smoke: repo-scale checking equivalence + speedup gate (make tree-smoke).
#
# Generates a synthetic ~500-file corpus with gentree and runs
# `qualcheck -r -stats` RUNS times at -j 1 and RUNS times at -j NumCPU,
# alternating. Every run's diagnostics must be byte-identical to the first
# -j 1 run's — the determinism contract of the work-stealing scheduler. A run
# without -j must print the same diagnostics and report, on its -stats
# scheduler line, a pool of every core (GOMAXPROCS when set).
#
# Each run is timed by the wall time its -stats throughput line prints: the
# in-process checking phase, walk included, without the process launch
# around it. When the machine has enough cores for a meaningful floor
# (min(4, NumCPU/2) >= 1) the median -j 1 time over the median -j NumCPU
# time must clear that floor; on smaller boxes only the equivalence half is
# asserted, since a sub-1x floor says nothing.
set -eu

N=${TREE_SMOKE_FILES:-500}
RUNS=5
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/qualcheck" ./cmd/qualcheck
go run ./cmd/gentree -o "$tmp/corpus" -n "$N" -seed 1 >/dev/null

# check <outfile> [flags...]: one `qualcheck -r -stats` run. Exit 1 (warnings
# found) is the expected verdict on this corpus; >=2 is a real failure.
check() {
	out=$1
	shift
	rc=0
	"$tmp/qualcheck" -r "$tmp/corpus" -stats "$@" >"$out" 2>"$tmp/err" || rc=$?
	if [ "$rc" -gt 1 ]; then
		echo "tree-smoke: qualcheck $* failed (exit $rc):" >&2
		cat "$tmp/err" >&2
		exit 1
	fi
}

# same_diags <outfile> <label>: the run's output without its -stats block
# (from "files:" through "function cache:", the last line without
# -cache-dir, between the diagnostics and the summary line) must equal the
# reference run's.
same_diags() {
	sed '/^files: [0-9]* matched/,/^function cache: /d' "$1" >"$tmp/diags.txt"
	if [ ! -f "$tmp/ref.txt" ]; then
		cp "$tmp/diags.txt" "$tmp/ref.txt"
	elif ! cmp -s "$tmp/ref.txt" "$tmp/diags.txt"; then
		echo "tree-smoke: FAIL: -j 1 and $2 diagnostics differ:" >&2
		diff "$tmp/ref.txt" "$tmp/diags.txt" | head -20 >&2
		exit 1
	fi
}

# wall_ms <outfile>: the in-process wall time of the run, in whole ms, from
# its "throughput: ... (S.SSSs wall)" line.
wall_ms() {
	sed -n 's/^throughput: .*(\([0-9.]*\)s wall)$/\1/p' "$1" | awk '{ printf "%d", $1 * 1000 + 0.5 }'
}

# median <n...>: the middle value of an odd number of integers.
median() {
	printf '%s\n' "$@" | sort -n | sed -n "$((($# + 1) / 2))p"
}

ncpu=$(nproc 2>/dev/null || echo 1)
t1s=""
tns=""
i=1
while [ "$i" -le "$RUNS" ]; do
	check "$tmp/out.txt" -j 1
	same_diags "$tmp/out.txt" "-j 1"
	t1=$(wall_ms "$tmp/out.txt")
	check "$tmp/out.txt" -j "$ncpu"
	same_diags "$tmp/out.txt" "-j $ncpu"
	tn=$(wall_ms "$tmp/out.txt")
	echo "tree-smoke: run $i: j1=${t1}ms j$ncpu=${tn}ms"
	t1s="$t1s $t1"
	tns="$tns $tn"
	i=$((i + 1))
done

# The default pool.
check "$tmp/out_jdef.txt"
same_diags "$tmp/out_jdef.txt" "default -j"
want=${GOMAXPROCS:-$ncpu}
workers=$(sed -n 's/^scheduler: \([0-9]*\) workers,.*/\1/p' "$tmp/out_jdef.txt")
if [ "$workers" != "$want" ]; then
	echo "tree-smoke: FAIL: default -j ran ${workers:-no} workers, want $want (every core)" >&2
	exit 1
fi

m1=$(median $t1s)
mn=$(median $tns)
[ "$mn" -gt 0 ] || mn=1
floor=$((ncpu / 2))
[ "$floor" -gt 4 ] && floor=4
speedup=$(awk "BEGIN { printf \"%.2f\", $m1 / $mn }")
times="median of $RUNS runs: j1=${m1}ms, j$ncpu=${mn}ms"
if [ "$floor" -ge 1 ]; then
	# Integer-ms comparison: m1 >= floor * mn  <=>  speedup >= floor.
	if [ "$m1" -lt $((floor * mn)) ]; then
		echo "tree-smoke: FAIL: -j $ncpu speedup ${speedup}x below the ${floor}x floor ($times)" >&2
		exit 1
	fi
	echo "tree-smoke: OK: $N files byte-identical at -j 1, -j $ncpu and default -j ($workers workers); speedup ${speedup}x (floor ${floor}x; $times)"
else
	echo "tree-smoke: OK: $N files byte-identical at -j 1, -j $ncpu and default -j ($workers workers); speedup floor skipped (min(4, NumCPU/2) < 1 on $ncpu CPU; $times, ${speedup}x)"
fi
