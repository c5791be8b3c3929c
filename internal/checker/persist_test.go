package checker

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cachedisk"
	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/qdl"
	"repro/internal/quals"
)

// diskCache returns a fresh cache over a freshly opened store on dir, as a
// restarted process would build it.
func diskCache(t *testing.T, dir string) *FuncCache {
	t.Helper()
	store, err := cachedisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewFuncCache(0).WithDisk(store)
}

// checkSrc runs CheckSource on src as the file name.
func checkSrc(t *testing.T, reg *qdl.Registry, name, src string, fc *FuncCache) *Result {
	t.Helper()
	res, err := CheckSource(context.Background(), name, src, reg, Options{}, fc)
	if err != nil {
		t.Fatalf("CheckSource %s: %v", name, err)
	}
	return res
}

// render prints a result's diagnostics and every statistic but the cache
// counters, which follow the counting rule rather than the check.
func render(diags []Diagnostic, s Stats, err error) string {
	s.FuncCacheHits, s.FuncCacheMisses, s.FuncCacheCoalesced = 0, 0, 0
	return fmt.Sprintf("%v\n%+v\nerr=%v", diags, s, err)
}

// TestCheckSourceIgnoresCallerTypes: CheckSource parses the file itself, so
// base type information a caller holds for another program must not stand
// in for the file's own. Neither the check nor the record a disk tier
// stores under the file's key, which does not cover the types, may take it.
func TestCheckSourceIgnoresCallerTypes(t *testing.T) {
	reg := quals.MustStandard()
	const src = "int f(int a) { int pos b = a; return b; }\nint h(int * p) { return *p; }\n"
	other, err := cminor.Parse("other.c", "int g(int x) { return x; }\n", reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	info, tdiags := cminor.TypeCheck(other)
	foreign := Options{Types: info, TypeDiags: tdiags}

	want := checkSrc(t, reg, "t.c", src, nil)
	if len(want.Diags) != 2 {
		t.Fatalf("own check: %d diagnostics, want 2: %v", len(want.Diags), want.Diags)
	}
	dir := t.TempDir()
	for _, fc := range []*FuncCache{nil, diskCache(t, dir), diskCache(t, dir)} {
		got, err := CheckSource(context.Background(), "t.c", src, reg, foreign, fc)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := render(got.Diags, got.Stats, got.Err), render(want.Diags, want.Stats, want.Err); g != w {
			t.Fatalf("check with another program's types (disk=%t):\n%s\nwant\n%s", fc != nil, g, w)
		}
	}
}

func TestFileRecordCodecRoundtrip(t *testing.T) {
	cases := []*FileRecord{
		{Stats: Stats{Annotations: map[string]int{}, QualCasts: map[string]int{}, RefUses: map[string]int{}}},
		{Stats: Stats{
			Dereferences: 4, RestrictChecks: 3, RestrictFailures: 1, MemoHits: 10, MemoMisses: 2, FuncCacheHits: 6,
			Annotations: map[string]int{"nonnull": 3, "pos": 1},
			QualCasts:   map[string]int{"nonnull": 2},
			RefUses:     map[string]int{"p": 7},
		}},
		{Diags: []Diagnostic{
			{Pos: cminor.Pos{Line: 1, Col: 3}, Code: "qual", Msg: "assignment may store NULL into nonnull g"},
			{Pos: cminor.Pos{Line: 8, Col: 1}, Code: "restrict", Msg: "Δ unicode ok"},
			{Pos: cminor.Pos{Line: 2}, Code: "", Msg: ""},
		}, Stats: Stats{Annotations: map[string]int{}, QualCasts: map[string]int{}, RefUses: map[string]int{}}},
	}
	for i, in := range cases {
		in.seal = sealFileRecord(in)
		got, err := decodeFileRecord(encodeFileRecord(in))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("case %d: mangled:\n got %+v\nwant %+v", i, got, in)
		}
	}
}

// TestFileRecordPinnedBytes pins the QFR payload of a fixed record and the
// file key of a fixed source under the standard registry, flow off and on:
// a layout or key change must bump fileRecordVersion, or cache directories
// already on disk would miss every file or decode into different results.
// Decoding the pinned bytes must yield the same record back.
func TestFileRecordPinnedBytes(t *testing.T) {
	rec := &FileRecord{
		Diags: []Diagnostic{
			{Pos: cminor.Pos{Line: 8, Col: 3}, Code: "qual", Msg: "assignment may store NULL into nonnull g"},
			{Pos: cminor.Pos{Line: 300, Col: 12}, Code: "restrict", Msg: "Δ"},
		},
		Stats: Stats{
			Dereferences: 4, RestrictChecks: 3, RestrictFailures: 1, MemoHits: 200, MemoMisses: 2, FuncCacheHits: 6,
			Annotations: map[string]int{"pos": 1, "nonnull": 3},
			QualCasts:   map[string]int{"nonnull": 2},
			RefUses:     map[string]int{"p": 7},
		},
	}
	rec.seal = sealFileRecord(rec)
	const want = "51465201040301c801020602076e6f6e6e756c6c0303706f730101076e6f6e6e756c6c0201017007020803047175616c2861737369676e6d656e74206d61792073746f7265204e554c4c20696e746f206e6f6e6e756c6c2067ac020c08726573747269637402ce943bbf0ad2cc2af852"
	if got := hex.EncodeToString(encodeFileRecord(rec)); got != want {
		t.Errorf("encoded\n got %s\nwant %s", got, want)
	}
	data, _ := hex.DecodeString(want)
	got, err := decodeFileRecord(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("decoded\n got %+v\nwant %+v", got, rec)
	}

	tab := tablesFor(quals.MustStandard())
	for _, tc := range []struct {
		flow bool
		key  string
	}{
		{false, "5636e90f368853c72370826a3e619d73d92637cf0f68d828a3545f82f4c9ef8c"},
		{true, "b05b687f5dfe0d9684ac2b4c87c7beca6dff4dce3ff6e1d4799e1bcdd82d8092"},
	} {
		if got := fileKey(tab, Options{FlowSensitive: tc.flow}, cacheSrc); got != tc.key {
			t.Errorf("fileKey(flow=%v)\n got %s\nwant %s", tc.flow, got, tc.key)
		}
	}
}

func TestFileRecordDecodeRejectsHostileBytes(t *testing.T) {
	r := &FileRecord{
		Diags: []Diagnostic{{Pos: cminor.Pos{Line: 1, Col: 2}, Code: "qual", Msg: "msg"}},
		Stats: Stats{RestrictChecks: 2, Annotations: map[string]int{"nonnull": 1}},
	}
	r.seal = sealFileRecord(r)
	good := encodeFileRecord(r)
	reject := func(name string, data []byte) {
		t.Helper()
		if _, err := decodeFileRecord(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	reject("empty", nil)
	reject("bad magic", append([]byte("XXX"), good[3:]...))
	stale := append([]byte(nil), good...)
	stale[3] = 99
	reject("stale version", stale)
	for cut := 0; cut < len(good); cut += 3 {
		reject("truncated", good[:cut])
	}
	reject("trailing", append(append([]byte(nil), good...), 1))
	// Seal mismatch: flip a payload byte inside the message text. The codec
	// framing still parses; the recomputed seal must not match.
	mut := append([]byte(nil), good...)
	mut[len(mut)-10] ^= 1
	reject("seal mismatch", mut)
	// A record whose stored seal was forged over a transient "internal"
	// diagnostic must be rejected by the transient gate even with a
	// self-consistent seal.
	tr := &FileRecord{Diags: []Diagnostic{{Code: "internal", Msg: "recovered panic"}}}
	tr.seal = sealFileRecord(tr)
	reject("transient diagnostic", encodeFileRecord(tr))
	// A hostile counter list may not demand a giant map.
	huge := append([]byte(fileRecordMagic), fileRecordVersion)
	huge = append(huge, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)
	reject("counter list too long", append(huge, make([]byte, 8)...))
}

// TestFileRecordDecodeBounds trips each list bound of the decoder with a
// length no record could hold, before any element is read.
func TestFileRecordDecodeBounds(t *testing.T) {
	counters := append([]byte(fileRecordMagic), fileRecordVersion, 0, 0, 0, 0, 0, 0)
	for _, tc := range []struct {
		want string
		body []byte
	}{
		{"counter list too long", binary.AppendUvarint(nil, maxPersistCounts+1)},
		{"diagnostic list too long", binary.AppendUvarint([]byte{0, 0, 0}, maxPersistDiags+1)},
	} {
		data := append(append(append([]byte(nil), counters...), tc.body...), make([]byte, 8)...)
		if _, err := decodeFileRecord(data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("got %v, want %q", err, tc.want)
		}
	}
}

func TestFuncCacheDiskWarmRestart(t *testing.T) {
	reg := quals.MustStandard()
	dir := t.TempDir()

	cold := checkSrc(t, reg, "test.c", cacheSrc, diskCache(t, dir))
	if cold.Stats.FuncCacheMisses != 3 {
		t.Fatalf("cold run: %d misses, want 3", cold.Stats.FuncCacheMisses)
	}

	// "Restart": a fresh cache over the same directory. The file is served
	// from its one record: every function counts as a hit from disk, none
	// is looked up, and the result is a fresh check's.
	fc2 := diskCache(t, dir)
	warm := checkSrc(t, reg, "test.c", cacheSrc, fc2)
	if warm.Stats.FuncCacheHits != 3 || warm.Stats.FuncCacheMisses != 0 {
		t.Fatalf("warm restart: %d hits / %d misses, want 3 / 0",
			warm.Stats.FuncCacheHits, warm.Stats.FuncCacheMisses)
	}
	if st := fc2.Stats(); st.Hits != 3 || st.DiskHits != 3 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 3 hits, all from disk, and no miss", st)
	}
	if ds := fc2.DiskStats(); ds.Hits != 1 || ds.Misses != 0 || ds.Entries != 1 {
		t.Fatalf("disk stats = %+v, want the file's one record read once", ds)
	}
	if fc2.Len() != 0 {
		t.Fatalf("a disk-served file filled %d memory entries, want none", fc2.Len())
	}
	plain := checkSrc(t, reg, "test.c", cacheSrc, nil)
	if got, want := render(warm.Diags, warm.Stats, nil), render(plain.Diags, plain.Stats, nil); got != want {
		t.Fatalf("disk-replayed result diverges from a fresh check:\n got %s\nwant %s", got, want)
	}

	// The record holds no file name: the same bytes under another name
	// replay under that name.
	other := checkSrc(t, reg, "other.c", cacheSrc, fc2)
	if got, want := fmt.Sprint(other.Diags), fmt.Sprint(checkSrc(t, reg, "other.c", cacheSrc, nil).Diags); got != want {
		t.Fatalf("replay under another name:\n got %s\nwant %s", got, want)
	}
	if st := fc2.Stats(); st.DiskHits != 6 {
		t.Fatalf("second name: %+v, want its functions served from disk too", st)
	}
}

// poisonedSrcs are distinct files (one record each) with cacheSrc's
// diagnostics.
func poisonedSrcs(n int) []string {
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("%s/* copy %d */\n", cacheSrc, i)
	}
	return srcs
}

func TestFuncCachePoisonedDiskConverges(t *testing.T) {
	// Poison every record in the cache dir, each a different way, and
	// cold-restart: the diagnostics must converge to a fresh run's byte
	// for byte, with the poison counted and evicted.
	reg := quals.MustStandard()
	dir := t.TempDir()
	srcs := poisonedSrcs(5)
	fc := diskCache(t, dir)
	for _, src := range srcs {
		checkSrc(t, reg, "test.c", src, fc)
	}
	tab := tablesFor(reg)
	for i, src := range srcs {
		key := fileKey(tab, Options{}, src)
		path := filepath.Join(dir, cachedisk.KeyHash(key)+".qc")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0: // torn tail
			data = data[:len(data)/2]
		case 1: // flipped byte mid-record
			data[len(data)/2] ^= 0xff
		case 2: // hostile rewrite: checksum-clean record, garbage payload
			data = cachedisk.Seal("", []byte("attack bytes"))
		case 3: // stale payload format under the right key
			payload, err := cachedisk.Unseal(data, key)
			if err != nil {
				t.Fatal(err)
			}
			payload[len(fileRecordMagic)] = fileRecordVersion + 1
			data = cachedisk.Seal(key, payload)
		case 4: // a self-consistent record of a transient check
			rec := &FileRecord{Diags: []Diagnostic{{Code: "internal", Msg: "injected"}}}
			rec.seal = sealFileRecord(rec)
			data = cachedisk.Seal(key, encodeFileRecord(rec))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	fc2 := diskCache(t, dir)
	plain := checkSrc(t, reg, "test.c", cacheSrc, nil)
	for _, src := range srcs {
		warm := checkSrc(t, reg, "test.c", src, fc2)
		if got, want := fmt.Sprint(warm.Diags), fmt.Sprint(plain.Diags); got != want {
			t.Fatalf("poisoned-dir diags diverge from fresh:\n got %s\nwant %s", got, want)
		}
	}
	if st := fc2.Stats(); st.DiskHits != 0 || st.Rejected != 2 {
		t.Fatalf("poisoned restart: %+v, want no disk hit and the stale and transient records rejected", st)
	}
	// The store itself returns the stale and transient records, whose
	// framing is clean; the decoder refuses and deletes them.
	if ds := fc2.DiskStats(); ds.Hits != 2 || ds.CorruptEvicted != 5 {
		t.Fatalf("poisoned restart: disk %+v, want all 5 records evicted as corrupt", ds)
	}
	// The fresh checks wrote clean records; the next restart is fully warm.
	fc3 := diskCache(t, dir)
	for _, src := range srcs {
		if healed := checkSrc(t, reg, "test.c", src, fc3); healed.Stats.FuncCacheHits != 3 || healed.Stats.FuncCacheMisses != 0 {
			t.Fatalf("healed restart: %+v, want 3 hits from disk", healed.Stats)
		}
	}
	if ds := fc3.DiskStats(); ds.Hits != 5 {
		t.Fatalf("healed restart: disk %+v, want 5 record hits", ds)
	}
}

func TestFuncCacheDiskCoalescesUnderConcurrency(t *testing.T) {
	// The disk tier is read once per file, never once per function: N
	// concurrent checks of one warm file read its record N times and look
	// no function up. CheckWithCache over the parsed program never reads
	// the disk; its concurrent walks coalesce in memory.
	reg := quals.MustStandard()
	dir := t.TempDir()
	checkSrc(t, reg, "test.c", cacheSrc, diskCache(t, dir))

	fc := diskCache(t, dir)
	want := fmt.Sprint(checkSrc(t, reg, "test.c", cacheSrc, nil).Diags)
	const N = 8
	var wg sync.WaitGroup
	results := make([]*Result, 2*N)
	prog := parseWith(t, reg, cacheSrc)
	for i := 0; i < N; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			results[i], _ = CheckSource(context.Background(), "test.c", cacheSrc, reg, Options{}, fc)
		}(i)
		go func(i int) {
			defer wg.Done()
			results[N+i] = CheckWithCache(context.Background(), prog, reg, Options{}, fc)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil {
			t.Fatalf("check %d returned no result", i)
		}
		if got := fmt.Sprint(r.Diags); got != want {
			t.Fatalf("concurrent disk-warm check %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}
	if ds := fc.DiskStats(); ds.Hits != N || ds.Misses != 0 {
		t.Fatalf("disk %+v: want one record read per file check (%d)", ds, N)
	}
	if st := fc.Stats(); st.Misses != 3 || st.DiskHits != 3*N || st.Hits+st.Coalesced != 3*N+3*N-3 {
		t.Fatalf("stats %+v: want 3 walks, every other parsed-program lookup a memory hit or coalesced", st)
	}
}

// TestFileRecordStoredOnlyWhenReplayable: no record is written for a parse
// failure, a context error, or a result holding an "internal" diagnostic,
// and a fired checker.cache.replay fault turns a file hit into a fresh check
// that bypasses the disk tier.
func TestFileRecordStoredOnlyWhenReplayable(t *testing.T) {
	reg := quals.MustStandard()
	defer faults.DisarmAll()
	fc := diskCache(t, t.TempDir())
	stored := func() int { return fc.DiskStats().Entries }

	if _, err := CheckSource(context.Background(), "bad.c", "int (((", reg, Options{}, fc); err == nil {
		t.Fatal("unparsable source checked without error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := CheckSource(ctx, "test.c", cacheSrc, reg, Options{}, fc); err != nil || res.Err == nil {
		t.Fatalf("canceled check: err=%v res.Err=%v, want a context error on the result", err, res.Err)
	}
	if err := faults.Arm("checker.walk=error"); err != nil {
		t.Fatal(err)
	}
	if res := checkSrc(t, reg, "test.c", cacheSrc, fc); len(res.Errors("internal")) == 0 {
		t.Fatal("armed walk fault produced no internal diagnostic")
	}
	faults.DisarmAll()
	if n := stored(); n != 0 {
		t.Fatalf("%d record(s) stored for a parse failure, a canceled run and a faulted walk", n)
	}

	plain := checkSrc(t, reg, "test.c", cacheSrc, nil)
	checkSrc(t, reg, "test.c", cacheSrc, fc)
	if n := stored(); n != 1 {
		t.Fatalf("%d records after a clean check, want 1", n)
	}
	if err := faults.Arm("checker.cache.replay=error"); err != nil {
		t.Fatal(err)
	}
	before := fc.DiskStats()
	res := checkSrc(t, reg, "test.c", cacheSrc, fc)
	faults.DisarmAll()
	if after := fc.DiskStats(); after.Hits != before.Hits || after.Puts != before.Puts {
		t.Fatalf("a replay fault still used the disk tier: %+v -> %+v", before, after)
	}
	if res.Stats.FuncCacheMisses != 3 {
		t.Fatalf("replay fault: %+v, want every function walked afresh", res.Stats)
	}
	if got, want := render(res.Diags, res.Stats, nil), render(plain.Diags, plain.Stats, nil); got != want {
		t.Fatalf("fresh check under a replay fault diverges:\n got %s\nwant %s", got, want)
	}
}

// editLiteralRE finds the trailing literal on the first body line of a
// generated compute or read function.
var editLiteralRE = regexp.MustCompile(`(?m)^int (?:compute|read)\w*\([^)]*\) \{\n  int \w+ = [^;\n]*?(\d+);$`)

// TestDiskWarmMatchesUncached is the disk tier's equivalence gate: over a
// generated tree with duplicated files, at one and two workers, flow off
// and on, a cold pass and then restart passes after a fixed-seed edit
// sequence (a body edit, a whitespace-only reformat, a file made
// unparsable, a file renamed to a duplicate's bytes) must give every file
// exactly the result of a check without a cache: diagnostics, file names
// included, and every statistic except the cache counters, which follow the
// counting rule. A file whose bytes a record holds is served from disk, and
// only the other files are parsed, each function one fan-out unit.
func TestDiskWarmMatchesUncached(t *testing.T) {
	std := quals.MustStandard()
	for _, workers := range []int{1, 2} {
		for _, flow := range []bool{false, true} {
			t.Run(fmt.Sprintf("j%d/flow=%v", workers, flow), func(t *testing.T) {
				diskWarmEquivalence(t, std, workers, flow)
			})
		}
	}
}

func diskWarmEquivalence(t *testing.T, reg *qdl.Registry, workers int, flow bool) {
	ctx := context.Background()
	dir, storeDir := t.TempDir(), t.TempDir()
	rels, err := corpus.WriteTree(dir, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := TreeOptions{Options: Options{FlowSensitive: flow}, Workers: workers, Seed: 1}
	texts := map[string]string{}
	for _, rel := range rels {
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		texts[rel] = string(data)
	}
	// stored maps the bytes of every file a pass checked to its function
	// count.
	stored := map[string]int{}

	// pass runs a restart pass and checks it. A file whose bytes a record
	// held before the pass must be served from disk. In the cold pass a
	// duplicate may find its twin's record written moments before, so only
	// later passes, where every new text is unique, pin the exact counts.
	pass := func(step string) {
		t.Helper()
		cold := len(stored) == 0
		before := maps.Clone(stored)
		o := opts
		o.Cache = diskCache(t, storeDir)
		got, err := CheckTree(ctx, dir, reg, o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CheckTree(ctx, dir, reg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Files) != len(want.Files) {
			t.Fatalf("%s: %d files, want %d", step, len(got.Files), len(want.Files))
		}
		var served, diskFuncs, spawned int
		for i, fr := range got.Files {
			w := want.Files[i]
			if fr.File != w.File {
				t.Fatalf("%s: file %d is %s, want %s", step, i, fr.File, w.File)
			}
			if g, w := render(fr.Diags, fr.Stats, fr.Err), render(w.Diags, w.Stats, w.Err); g != w {
				t.Fatalf("%s: %s diverges from an uncached check:\n got %s\nwant %s", step, fr.File, g, w)
			}
			src := texts[fr.File]
			if funcs, ok := before[src]; ok {
				served++
				diskFuncs += funcs
				if s := fr.Stats; s.FuncCacheHits != funcs || s.FuncCacheMisses != 0 || s.FuncCacheCoalesced != 0 {
					t.Fatalf("%s: %s: counters %d/%d/%d, want its %d functions as hits from disk",
						step, fr.File, s.FuncCacheHits, s.FuncCacheMisses, s.FuncCacheCoalesced, funcs)
				}
				continue
			}
			if fr.Err == nil {
				n := fr.Stats.FuncCacheHits + fr.Stats.FuncCacheMisses + fr.Stats.FuncCacheCoalesced
				spawned += n
				stored[src] = n
			}
		}
		ds, st := o.Cache.DiskStats(), o.Cache.Stats()
		if int(st.Hits) != got.Stats.FuncCacheHits || int(st.Misses) != got.Stats.FuncCacheMisses ||
			int(st.Coalesced) != got.Stats.FuncCacheCoalesced {
			t.Fatalf("%s: cache stats %+v disagree with the pass's %d/%d/%d",
				step, st, got.Stats.FuncCacheHits, got.Stats.FuncCacheMisses, got.Stats.FuncCacheCoalesced)
		}
		if int(ds.Hits+ds.Misses) != len(got.Files) || ds.WriteErrors != 0 || ds.CorruptEvicted != 0 {
			t.Fatalf("%s: disk %+v, want one lookup per file (%d) and no write error or torn record", step, ds, len(got.Files))
		}
		if cold {
			return
		}
		if int(ds.Hits) != served {
			t.Fatalf("%s: disk %d hits / %d misses, want %d / %d", step, ds.Hits, ds.Misses, served, len(got.Files)-served)
		}
		if int(st.DiskHits) != diskFuncs {
			t.Fatalf("%s: %d functions served from disk, want %d", step, st.DiskHits, diskFuncs)
		}
		if int(got.Sched.Spawned) != spawned {
			t.Fatalf("%s: %d function units spawned, want one per function of the %d parsed files (%d)",
				step, got.Sched.Spawned, len(got.Files)-served, spawned)
		}
	}
	write := func(rel, src string) {
		t.Helper()
		texts[rel] = src
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(rel)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// unique picks, with rng, a file whose bytes no other file shares.
	rng := rand.New(rand.NewSource(5))
	unique := func() string {
		for {
			rel := rels[rng.Intn(len(rels))]
			n := 0
			for _, src := range texts {
				if src == texts[rel] {
					n++
				}
			}
			if n == 1 && editLiteralRE.MatchString(texts[rel]) {
				return rel
			}
		}
	}

	pass("cold")
	pass("restart")

	rel := unique()
	m := editLiteralRE.FindStringSubmatchIndex(texts[rel])
	write(rel, texts[rel][:m[2]]+strconv.Itoa(9000+rng.Intn(1000))+texts[rel][m[3]:])
	pass("body edit")

	rel = unique()
	write(rel, strings.ReplaceAll(texts[rel], "\n  ", "\n    "))
	pass("whitespace reformat")

	write(unique(), "int broken( {\n")
	pass("unparsable file")

	gone, twin := unique(), rels[0]
	if err := os.Remove(filepath.Join(dir, filepath.FromSlash(gone))); err != nil {
		t.Fatal(err)
	}
	delete(texts, gone)
	write(strings.TrimSuffix(gone, ".c")+"_renamed.c", texts[twin])
	pass("renamed to a duplicate")

	// Another registry or the other flow setting keys every file anew: no
	// record written before the pass may hit, so only a duplicate can, on
	// its twin's record from the same pass.
	distinct := map[string]bool{}
	for _, src := range texts {
		distinct[src] = true
	}
	taint, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	flipped := opts
	flipped.FlowSensitive = !flow
	for _, c := range []struct {
		name string
		reg  *qdl.Registry
		opts TreeOptions
	}{{"taint registry", taint, opts}, {"flipped flow", reg, flipped}} {
		o := c.opts
		o.Cache = diskCache(t, storeDir)
		got, err := CheckTree(ctx, dir, c.reg, o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CheckTree(ctx, dir, c.reg, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range got.Files {
			w := want.Files[i]
			if g, w := render(fr.Diags, fr.Stats, fr.Err), render(w.Diags, w.Stats, w.Err); g != w {
				t.Fatalf("%s: %s diverges from an uncached check:\n got %s\nwant %s", c.name, fr.File, g, w)
			}
		}
		if ds := o.Cache.DiskStats(); int(ds.Misses) < len(distinct) || int(ds.Hits+ds.Misses) != len(got.Files) {
			t.Fatalf("%s: disk %+v, want a miss for each of the %d distinct files", c.name, ds, len(distinct))
		}
	}
}

// TestTreeGoldenDiskWarm runs TestTreeGolden's tree through a disk-warm
// pass: every file is served from a record a cold pass wrote, and the
// output matches tree.golden on every line but the cache counters.
func TestTreeGoldenDiskWarm(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "tree.golden"))
	if err != nil {
		t.Fatal(err)
	}
	counters := regexp.MustCompile(` funccache=\d+/\d+/\d+$`)
	gl, wl := strings.Split(goldenReport(t, t.TempDir()), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("disk-warm report has %d lines, tree.golden %d", len(gl), len(wl))
	}
	for i := range gl {
		if g, w := counters.ReplaceAllString(gl[i], ""), counters.ReplaceAllString(wl[i], ""); g != w {
			t.Fatalf("disk-warm output differs from testdata/tree.golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
}
