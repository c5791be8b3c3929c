package checker

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cachedisk"
	"repro/internal/quals"
)

func TestFuncEntryCodecRoundtrip(t *testing.T) {
	cases := []*funcCacheEntry{
		{},
		{restrictChecks: 3, restrictFailures: 1, memoHits: 10, memoMisses: 2},
		{diags: []relDiag{
			{relLine: 0, col: 3, code: "nonnull", msg: "assignment may store NULL into nonnull g"},
			{relLine: 7, col: 1, code: "tainted", msg: "Δ unicode ok"},
			{relLine: 2, col: 0, code: "", msg: ""},
		}},
	}
	for i, in := range cases {
		in.seal = sealEntry(in)
		got, err := decodeFuncEntry(encodeFuncEntry(in))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.seal != in.seal ||
			got.restrictChecks != in.restrictChecks || got.restrictFailures != in.restrictFailures ||
			got.memoHits != in.memoHits || got.memoMisses != in.memoMisses ||
			len(got.diags) != len(in.diags) {
			t.Fatalf("case %d: mangled:\n got %+v\nwant %+v", i, got, in)
		}
		for j := range got.diags {
			if got.diags[j] != in.diags[j] {
				t.Errorf("case %d diag %d: %+v != %+v", i, j, got.diags[j], in.diags[j])
			}
		}
	}
}

func TestFuncEntryDecodeRejectsHostileBytes(t *testing.T) {
	e := &funcCacheEntry{
		restrictChecks: 2,
		diags:          []relDiag{{relLine: 1, col: 2, code: "nonnull", msg: "msg"}},
	}
	e.seal = sealEntry(e)
	good := encodeFuncEntry(e)
	reject := func(name string, data []byte) {
		t.Helper()
		if _, err := decodeFuncEntry(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	reject("empty", nil)
	reject("bad magic", append([]byte("XXX"), good[3:]...))
	stale := append([]byte(nil), good...)
	stale[3] = 99
	reject("stale version", stale)
	for cut := 0; cut < len(good); cut += 5 {
		reject("truncated", good[:cut])
	}
	reject("trailing", append(append([]byte(nil), good...), 1))
	// Seal mismatch: flip a payload byte inside the message text. The codec
	// framing still parses; the recomputed seal must not match.
	mut := append([]byte(nil), good...)
	mut[len(mut)-10] ^= 1
	reject("seal mismatch", mut)
	// An entry whose stored seal was forged over a transient "internal"
	// diagnostic must be rejected by the transient gate even with a
	// self-consistent seal.
	tr := &funcCacheEntry{diags: []relDiag{{code: "internal", msg: "recovered panic"}}}
	tr.seal = sealEntry(tr)
	reject("transient diagnostic", encodeFuncEntry(tr))
}

func TestFuncCacheDiskWarmRestart(t *testing.T) {
	reg := quals.MustStandard()
	dir := t.TempDir()

	store, err := cachedisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := checkCached(t, reg, cacheSrc, NewFuncCache(0).WithDisk(store))
	if cold.Stats.FuncCacheMisses != 3 {
		t.Fatalf("cold run: %d misses, want 3", cold.Stats.FuncCacheMisses)
	}

	// "Restart": fresh memory cache over the same directory. Every function
	// must be served from disk, and the diagnostics must be identical to an
	// uncached run.
	store2, err := cachedisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc2 := NewFuncCache(0).WithDisk(store2)
	warm := checkCached(t, reg, cacheSrc, fc2)
	if warm.Stats.FuncCacheHits != 3 || warm.Stats.FuncCacheMisses != 0 {
		t.Fatalf("warm restart: %d hits / %d misses, want 3 / 0",
			warm.Stats.FuncCacheHits, warm.Stats.FuncCacheMisses)
	}
	// The cache's own counters agree with the run's: three hits, all from
	// disk, and no miss.
	st := fc2.Stats()
	if st.Hits != 3 || st.DiskHits != 3 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 3 hits, all from disk, and no miss", st)
	}
	plain := checkCached(t, reg, cacheSrc, nil)
	if got, want := fmt.Sprint(warm.Diags), fmt.Sprint(plain.Diags); got != want {
		t.Fatalf("disk-replayed diags diverge from a fresh check:\n got %s\nwant %s", got, want)
	}
	// Third run: pure memory hits — disk-loaded entries were promoted.
	again := checkCached(t, reg, cacheSrc, fc2)
	if again.Stats.FuncCacheHits != 3 {
		t.Fatalf("post-promotion run: %d hits", again.Stats.FuncCacheHits)
	}
	if st := fc2.Stats(); st.DiskHits != 3 {
		t.Fatalf("promotion re-read the disk: %+v", st)
	}
}

func TestFuncCachePoisonedDiskConverges(t *testing.T) {
	// The acceptance-criteria scenario in miniature: poison every record in
	// the cache dir, cold-restart, and the diagnostics must converge to a
	// fresh run's byte-for-byte, with the poison counted and evicted.
	reg := quals.MustStandard()
	dir := t.TempDir()
	store, _ := cachedisk.Open(dir, 0)
	checkCached(t, reg, cacheSrc, NewFuncCache(0).WithDisk(store))

	files, err := filepath.Glob(filepath.Join(dir, "*.qc"))
	if err != nil || len(files) != 3 {
		t.Fatalf("expected 3 records, found %v (%v)", files, err)
	}
	for i, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // torn tail
			data = data[:len(data)/2]
		case 1: // flipped byte mid-record
			data[len(data)/2] ^= 0xff
		case 2: // hostile rewrite: checksum-clean record, garbage payload
			data = cachedisk.Seal("", []byte("attack bytes"))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store2, _ := cachedisk.Open(dir, 0)
	fc := NewFuncCache(0).WithDisk(store2)
	warm := checkCached(t, reg, cacheSrc, fc)
	if warm.Stats.FuncCacheHits != 0 || warm.Stats.FuncCacheMisses != 3 {
		t.Fatalf("poisoned restart: %d hits / %d misses, want 0 / 3",
			warm.Stats.FuncCacheHits, warm.Stats.FuncCacheMisses)
	}
	plain := checkCached(t, reg, cacheSrc, nil)
	if got, want := fmt.Sprint(warm.Diags), fmt.Sprint(plain.Diags); got != want {
		t.Fatalf("poisoned-dir diags diverge from fresh:\n got %s\nwant %s", got, want)
	}
	ds := store2.Stats()
	if ds.CorruptEvicted == 0 {
		t.Fatalf("no poison counted: %+v", ds)
	}
	// The re-walks wrote clean records; the next restart is fully warm.
	store3, _ := cachedisk.Open(dir, 0)
	fc3 := NewFuncCache(0).WithDisk(store3)
	healed := checkCached(t, reg, cacheSrc, fc3)
	if healed.Stats.FuncCacheHits != 3 {
		t.Fatalf("healed restart: %d hits, want 3", healed.Stats.FuncCacheHits)
	}
}

func TestFuncCacheDiskCoalescesUnderConcurrency(t *testing.T) {
	// The disk probe runs on the singleflight leader path: N concurrent
	// checks of one warm program must not multiply disk reads.
	reg := quals.MustStandard()
	dir := t.TempDir()
	store, _ := cachedisk.Open(dir, 0)
	checkCached(t, reg, cacheSrc, NewFuncCache(0).WithDisk(store))

	store2, _ := cachedisk.Open(dir, 0)
	fc := NewFuncCache(0).WithDisk(store2)
	prog := parseWith(t, reg, cacheSrc)
	const N = 8
	done := make(chan *Result, N)
	for i := 0; i < N; i++ {
		go func() {
			done <- CheckWithCache(context.Background(), prog, reg, Options{}, fc)
		}()
	}
	want := fmt.Sprint(checkCached(t, reg, cacheSrc, nil).Diags)
	for i := 0; i < N; i++ {
		r := <-done
		if got := fmt.Sprint(r.Diags); got != want {
			t.Fatalf("concurrent disk-warm check diverged:\n got %s\nwant %s", got, want)
		}
	}
	if ds := store2.Stats(); ds.Hits > 3 {
		t.Fatalf("disk read %d times for 3 functions; the leader path lost coalescing", ds.Hits)
	}
}
