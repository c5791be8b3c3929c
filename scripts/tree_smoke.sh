#!/bin/sh
# tree-smoke: repo-scale checking equivalence + speedup gate (make tree-smoke).
#
# Generates a synthetic ~500-file corpus with gentree, runs `qualcheck -r`
# serially (-j 1) and at -j NumCPU, and asserts the two runs' stdout is
# byte-identical — the determinism contract of the work-stealing scheduler.
# A third run without -j must print the same diagnostics and report, on its
# -stats scheduler line, a pool of every core (GOMAXPROCS when set).
# When the machine has enough cores for a meaningful floor (min(4, NumCPU/2)
# >= 1) the parallel run must also clear that wall-clock speedup floor; on
# smaller boxes only the equivalence half is asserted, since a sub-1x floor
# says nothing.
set -eu

N=${TREE_SMOKE_FILES:-500}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/qualcheck" ./cmd/qualcheck
go run ./cmd/gentree -o "$tmp/corpus" -n "$N" -seed 1 >/dev/null

# run <jobs> <outfile>: prints elapsed wall-clock ms. Exit 1 (warnings found)
# is the expected verdict on this corpus; >=2 is a real failure.
run() {
	start=$(date +%s%N)
	rc=0
	"$tmp/qualcheck" -r "$tmp/corpus" -j "$1" >"$2" 2>"$tmp/err" || rc=$?
	end=$(date +%s%N)
	if [ "$rc" -gt 1 ]; then
		echo "tree-smoke: qualcheck -j $1 failed (exit $rc):" >&2
		cat "$tmp/err" >&2
		exit 1
	fi
	echo $(( (end - start) / 1000000 ))
}

ncpu=$(nproc 2>/dev/null || echo 1)
t1=$(run 1 "$tmp/out_j1.txt")
tn=$(run "$ncpu" "$tmp/out_jn.txt")

if ! cmp -s "$tmp/out_j1.txt" "$tmp/out_jn.txt"; then
	echo "tree-smoke: FAIL: -j 1 and -j $ncpu diagnostics differ:" >&2
	diff "$tmp/out_j1.txt" "$tmp/out_jn.txt" | head -20 >&2
	exit 1
fi

# The default pool. -stats prints its block (from "files:" through "function
# cache:", the last line without -cache-dir) between the diagnostics and the
# summary line; without that block the output must equal the -j 1 run's.
rc=0
"$tmp/qualcheck" -r "$tmp/corpus" -stats >"$tmp/out_jdef.txt" 2>"$tmp/err" || rc=$?
if [ "$rc" -gt 1 ]; then
	echo "tree-smoke: qualcheck without -j failed (exit $rc):" >&2
	cat "$tmp/err" >&2
	exit 1
fi
sed '/^files: [0-9]* matched/,/^function cache: /d' "$tmp/out_jdef.txt" >"$tmp/out_jdef_diags.txt"
if ! cmp -s "$tmp/out_j1.txt" "$tmp/out_jdef_diags.txt"; then
	echo "tree-smoke: FAIL: -j 1 and default -j diagnostics differ:" >&2
	diff "$tmp/out_j1.txt" "$tmp/out_jdef_diags.txt" | head -20 >&2
	exit 1
fi
want=${GOMAXPROCS:-$ncpu}
workers=$(sed -n 's/^scheduler: \([0-9]*\) workers,.*/\1/p' "$tmp/out_jdef.txt")
if [ "$workers" != "$want" ]; then
	echo "tree-smoke: FAIL: default -j ran ${workers:-no} workers, want $want (every core)" >&2
	exit 1
fi

floor=$((ncpu / 2))
[ "$floor" -gt 4 ] && floor=4
speedup=$(awk "BEGIN { printf \"%.2f\", $t1 / ($tn > 0 ? $tn : 1) }")
if [ "$floor" -ge 1 ]; then
	# Integer-ms comparison: t1 >= floor * tn  <=>  speedup >= floor.
	if [ "$t1" -lt $((floor * tn)) ]; then
		echo "tree-smoke: FAIL: -j $ncpu speedup ${speedup}x below the ${floor}x floor (j1=${t1}ms, j$ncpu=${tn}ms)" >&2
		exit 1
	fi
	echo "tree-smoke: OK: $N files byte-identical at -j 1, -j $ncpu and default -j ($workers workers); speedup ${speedup}x (floor ${floor}x; j1=${t1}ms, j$ncpu=${tn}ms)"
else
	echo "tree-smoke: OK: $N files byte-identical at -j 1, -j $ncpu and default -j ($workers workers); speedup floor skipped (min(4, NumCPU/2) < 1 on $ncpu CPU; j1=${t1}ms, j$ncpu=${tn}ms, ${speedup}x)"
fi
