#!/bin/sh
# persist-smoke: durable-cache end-to-end gate (make persist-smoke).
#
# Runs the real qualcheck binary against one -cache-dir over a generated
# corpus and asserts the durability contract, at the disk tier's unit of one
# record per file:
#
#   1. Run 2 is served entirely from the disk cache: one record hit per
#      file, zero disk misses, zero function walks, with byte-identical
#      diagnostics to run 1.
#   2. After one function in one file is edited, the next run misses exactly
#      one record (the edited file's) and its diagnostics match a fresh
#      qualcheck -r without -cache-dir.
#   3. A deliberately corrupted record is detected on the next cold start,
#      evicted, and re-checked: diagnostics still byte-identical, corrupt
#      eviction counted, never a wrong or missing verdict.
set -eu

N=${PERSIST_SMOKE_FILES:-120}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/qualcheck" ./cmd/qualcheck
go run ./cmd/gentree -o "$tmp/corpus" -n "$N" -seed 1 >/dev/null

# check <outfile> [args]: qualcheck -r plus args over the corpus. The -stats
# block (from "files:" through "disk cache:") and the summary line are
# dropped from the diagnostics written to the out file; the whole output is
# kept in <outfile>.raw. Exit 1 (warnings) is the expected verdict on this
# corpus; >=2 is a real failure.
check() {
	out=$1
	shift
	rc=0
	"$tmp/qualcheck" -r "$tmp/corpus" "$@" >"$out.raw" 2>"$tmp/err" || rc=$?
	if [ "$rc" -gt 1 ]; then
		echo "persist-smoke: qualcheck failed (exit $rc):" >&2
		cat "$tmp/err" >&2
		exit 1
	fi
	sed '/^files: [0-9]* matched/,/^disk cache: /d' "$out.raw" | grep -v '^'"$tmp"'/corpus:' >"$out" || true
}

# run <outfile>: check with the shared cache dir and -stats; prints the
# "disk cache:" line.
run() {
	check "$1" -cache-dir "$tmp/cache" -stats
	grep '^disk cache:' "$1.raw"
}

stats1=$(run "$tmp/out1.txt")
stats2=$(run "$tmp/out2.txt")

if ! cmp -s "$tmp/out1.txt" "$tmp/out2.txt"; then
	echo "persist-smoke: FAIL: cold and disk-warm diagnostics differ:" >&2
	diff "$tmp/out1.txt" "$tmp/out2.txt" | head -20 >&2
	exit 1
fi

# Run 1 must have written records; run 2 must have served every file from
# its record (no disk miss, no function walk) with no corruption.
puts1=$(echo "$stats1" | sed -n 's/.* \([0-9]*\) puts.*/\1/p')
hits2=$(echo "$stats2" | sed -n 's/disk cache: \([0-9]*\) hits.*/\1/p')
misses2=$(echo "$stats2" | sed -n 's/.* \([0-9]*\) misses.*/\1/p')
walks2=$(sed -n 's/^function cache: .* \([0-9]*\) misses.*/\1/p' "$tmp/out2.txt.raw")
if [ "${puts1:-0}" -eq 0 ]; then
	echo "persist-smoke: FAIL: run 1 persisted nothing ($stats1)" >&2
	exit 1
fi
if [ "${hits2:-0}" -ne "$N" ] || [ "${misses2:-1}" -ne 0 ] || [ "${walks2:-1}" -ne 0 ]; then
	echo "persist-smoke: FAIL: run 2 not fully disk-warm: want $N record hits, 0 misses, 0 walks ($stats2; $walks2 walks)" >&2
	exit 1
fi

# Edit one function in one file (file 1's bytes are its own; every fifth
# generated file duplicates another). Only that file's record may miss, and
# the result must be a fresh check's.
target="$tmp/corpus/pkg1/file0001.c"
awk '!done && /^  return / { sub(/^  return /, "  return 0 + "); done = 1 } { print }' "$target" >"$target.new"
if cmp -s "$target" "$target.new"; then
	echo "persist-smoke: FAIL: the edit changed nothing in $target" >&2
	exit 1
fi
mv "$target.new" "$target"
stats3=$(run "$tmp/out3.txt")
check "$tmp/fresh.txt"
if ! cmp -s "$tmp/fresh.txt" "$tmp/out3.txt"; then
	echo "persist-smoke: FAIL: post-edit diagnostics differ from a fresh run:" >&2
	diff "$tmp/fresh.txt" "$tmp/out3.txt" | head -20 >&2
	exit 1
fi
misses3=$(echo "$stats3" | sed -n 's/.* \([0-9]*\) misses.*/\1/p')
if [ "${misses3:-0}" -ne 1 ]; then
	echo "persist-smoke: FAIL: a one-function edit missed ${misses3:-?} records, want 1 ($stats3)" >&2
	exit 1
fi

# Corrupt one committed record (truncate to half), then prove the next cold
# start self-heals: the record is evicted and re-checked, diagnostics
# byte-identical to the fresh run.
victim=$(ls "$tmp/cache/func/"*.qc | head -1)
size=$(wc -c <"$victim")
truncate_to=$((size / 2))
dd if="$victim" of="$victim.cut" bs=1 count="$truncate_to" 2>/dev/null
mv "$victim.cut" "$victim"

stats4=$(run "$tmp/out4.txt")
if ! cmp -s "$tmp/fresh.txt" "$tmp/out4.txt"; then
	echo "persist-smoke: FAIL: post-corruption diagnostics differ:" >&2
	diff "$tmp/fresh.txt" "$tmp/out4.txt" | head -20 >&2
	exit 1
fi
corrupt4=$(echo "$stats4" | sed -n 's/.* \([0-9]*\) corrupt evicted.*/\1/p')
if [ "${corrupt4:-0}" -eq 0 ]; then
	echo "persist-smoke: FAIL: corrupted record was not detected ($stats4)" >&2
	exit 1
fi

echo "persist-smoke: OK: $N files; run2 fully disk-warm ($stats2); one-function edit missed one record ($stats3); corrupted record evicted and re-checked ($stats4)"
