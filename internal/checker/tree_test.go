package checker

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/input"
	"repro/internal/quals"
	"repro/internal/testutil/leak"
)

// renderTree flattens a TreeResult into the canonical diagnostic listing the
// CLI prints: one line per diagnostic, files in walk order.
func renderTree(res *TreeResult) string {
	var b strings.Builder
	for _, fr := range res.Files {
		if fr.Err != nil {
			fmt.Fprintf(&b, "%s: error: %v\n", fr.File, fr.Err)
			continue
		}
		for _, d := range fr.Diags {
			fmt.Fprintf(&b, "%s\n", d)
		}
	}
	return b.String()
}

func genTree(t *testing.T, files int) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := corpus.WriteTree(dir, files, 0x7ee5eed); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTreeSerialParallelIdentical is the core determinism claim: the same
// tree checked at -j=1 and at -j=8, with and without a shared cache, yields
// byte-identical diagnostics.
func TestTreeSerialParallelIdentical(t *testing.T) {
	leak.Check(t)
	reg := quals.MustStandard()
	dir := genTree(t, 40)
	ctx := context.Background()

	serial, err := CheckTree(ctx, dir, reg, TreeOptions{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Files) != 40 {
		t.Fatalf("checked %d files, want 40", len(serial.Files))
	}
	want := renderTree(serial)
	if !strings.Contains(want, "[qual]") {
		t.Fatalf("corpus produced no qualifier diagnostics:\n%.400s", want)
	}
	for run := 0; run < 3; run++ {
		fc := NewFuncCache(0)
		par, err := CheckTree(ctx, dir, reg, TreeOptions{Workers: 8, Seed: uint64(run), Cache: fc})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderTree(par); got != want {
			t.Fatalf("parallel run %d diverged from serial:\n--- serial\n%.600s\n--- parallel\n%.600s", run, want, got)
		}
		// Warm second pass over the same cache must replay identically.
		warm, err := CheckTree(ctx, dir, reg, TreeOptions{Workers: 8, Seed: 99, Cache: fc})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderTree(warm); got != want {
			t.Fatalf("warm cached run %d diverged from serial", run)
		}
		if warm.Stats.FuncCacheHits == 0 {
			t.Errorf("warm run scored no cache hits: %+v", warm.Stats)
		}
	}
}

// TestTreeMatchesSingleFileChecks: a file checked inside a tree reports
// exactly what CheckWithCache reports for it alone.
func TestTreeMatchesSingleFileChecks(t *testing.T) {
	leak.Check(t)
	reg := quals.MustStandard()
	dir := genTree(t, 12)
	tree, err := CheckTree(context.Background(), dir, reg, TreeOptions{Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range tree.Files {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.File, fr.Err)
		}
		src := corpus.TreeFile(0x7ee5eed, fileIndexOf(t, fr.File))
		prog, err := cminor.Parse(fr.File, src, reg.Names())
		if err != nil {
			t.Fatal(err)
		}
		alone := CheckWithContext(context.Background(), prog, reg, Options{Concurrency: 1})
		if fmt.Sprint(fr.Diags) != fmt.Sprint(alone.Diags) {
			t.Errorf("%s: tree diags %v != standalone %v", fr.File, fr.Diags, alone.Diags)
		}
	}
}

func fileIndexOf(t *testing.T, rel string) int {
	t.Helper()
	var idx int
	if _, err := fmt.Sscanf(filepath.Base(rel), "file%04d.c", &idx); err != nil {
		t.Fatalf("unexpected tree file name %q: %v", rel, err)
	}
	return idx
}

// TestTreeWalkSkips: the decoy files WriteTree plants in vendor/, testdata/,
// and as non-.c files never reach the parser (they would fail loudly).
func TestTreeWalkSkips(t *testing.T) {
	leak.Check(t)
	dir := genTree(t, 8)
	res, err := CheckTree(context.Background(), dir, quals.MustStandard(), TreeOptions{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range res.Files {
		if strings.Contains(fr.File, "decoy") || strings.Contains(fr.File, "vendor") {
			t.Errorf("walker failed to skip %s", fr.File)
		}
		if fr.Err != nil {
			t.Errorf("%s: %v", fr.File, fr.Err)
		}
	}
	if res.Walk.SkippedDirs < 2 {
		t.Errorf("walk skipped %d dirs, want >= 2 (vendor, testdata)", res.Walk.SkippedDirs)
	}
}

// TestTreeCancellation: a canceled context returns promptly with Err set and
// no leaked scheduler goroutines (leak.Check).
func TestTreeCancellation(t *testing.T) {
	leak.Check(t)
	dir := genTree(t, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CheckTree(ctx, dir, quals.MustStandard(), TreeOptions{Workers: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Error("canceled tree check reported no Err")
	}
	for _, fr := range res.Files {
		if fr.Err == nil && len(fr.Diags) > 0 {
			// Files may legitimately complete before observing cancellation;
			// the ones that were cut short must carry the context error.
			continue
		}
	}
}

// TestTreeSchedulerTelemetry: a parallel run reports scheduler and reader
// stats consistent with the work done.
func TestTreeSchedulerTelemetry(t *testing.T) {
	leak.Check(t)
	dir := genTree(t, 20)
	res, err := CheckTree(context.Background(), dir, quals.MustStandard(), TreeOptions{Workers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sched
	if st.Submitted != 20 {
		t.Errorf("submitted %d file tasks, want 20", st.Submitted)
	}
	if st.Spawned == 0 {
		t.Error("no per-function units spawned")
	}
	if st.Executed != st.Submitted+st.Spawned {
		t.Errorf("executed %d != submitted %d + spawned %d", st.Executed, st.Submitted, st.Spawned)
	}
	if res.Read.Files != 20 {
		t.Errorf("reader served %d files, want 20", res.Read.Files)
	}
	if res.Walk.Matched != 20 {
		t.Errorf("walk matched %d, want 20", res.Walk.Matched)
	}
}

// TestTreeCheckerDefaultWorkers: a zero worker count means every core, as
// TreeOptions.Workers documents — not a pool of one worker. GOMAXPROCS is
// raised for the test so the two differ on any machine.
func TestTreeCheckerDefaultWorkers(t *testing.T) {
	leak.Check(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	tc := NewTreeChecker(quals.MustStandard(), TreeOptions{})
	defer tc.Close()
	if got := tc.SchedStats().Workers; got != 3 {
		t.Errorf("default pool has %d workers, want runtime.GOMAXPROCS(0) = 3", got)
	}
}

// TestCoalescedLookups pins the singleflight protocol: with the one leader
// walk blocked, all other concurrent identical submissions must join its
// flight (Coalesced), and exactly one fill (Miss) happens in total.
func TestCoalescedLookups(t *testing.T) {
	leak.Check(t)
	reg := quals.MustStandard()
	const src = `
int* nonnull g;
void solo(int* p) {
  g = p;
}
`
	const clients = 32
	fc := NewFuncCache(0)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	CheckFuncHook = func(*cminor.FuncDef) {
		entered <- struct{}{}
		<-release
	}
	defer func() { CheckFuncHook = nil }()

	var wg sync.WaitGroup
	results := make([]*Result, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := cminor.Parse("solo.c", src, reg.Names())
			if err != nil {
				panic(err)
			}
			results[i] = CheckWithCache(context.Background(), prog, reg, Options{Concurrency: 1}, fc)
		}()
	}
	<-entered // the leader is inside its walk, holding the flight open
	// Every other client must end up parked on the leader's flight.
	for {
		if fc.Stats().Coalesced == clients-1 {
			break
		}
	}
	close(release)
	wg.Wait()

	st := fc.Stats()
	if st.Misses != 1 || st.Coalesced != clients-1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want exactly 1 miss (the fill), %d coalesced, 0 hits", st, clients-1)
	}
	want := fmt.Sprint(results[0].Diags)
	if want == "[]" {
		t.Fatal("expected a diagnostic from the violating function")
	}
	for i, r := range results {
		if fmt.Sprint(r.Diags) != want {
			t.Errorf("client %d diags %v != %v", i, r.Diags, want)
		}
	}
}

// TestAbandonedLookupCountsCoalesced: a check whose context ends while it
// waits on another check's walk of the same function counts that lookup as
// Coalesced, in its own Stats and in the cache's, and walks nothing.
func TestAbandonedLookupCountsCoalesced(t *testing.T) {
	leak.Check(t)
	reg := quals.MustStandard()
	const src = `
void solo(int* p) {
  int x = 0;
}
`
	fc := NewFuncCache(0)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	CheckFuncHook = func(*cminor.FuncDef) {
		entered <- struct{}{}
		<-release
	}
	defer func() { CheckFuncHook = nil }()
	check := func(ctx context.Context) *Result {
		prog, err := cminor.Parse("solo.c", src, reg.Names())
		if err != nil {
			panic(err)
		}
		return CheckWithCache(ctx, prog, reg, Options{Concurrency: 1}, fc)
	}

	leader := make(chan *Result, 1)
	go func() { leader <- check(context.Background()) }()
	<-entered // the leader is inside its walk, holding the flight open
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan *Result, 1)
	go func() { waiter <- check(ctx) }()
	for fc.Stats().Coalesced != 1 {
		runtime.Gosched()
	}
	cancel()
	got := <-waiter
	close(release)
	<-leader

	if got.Stats.FuncCacheCoalesced != 1 || got.Stats.FuncCacheHits != 0 || got.Stats.FuncCacheMisses != 0 {
		t.Errorf("abandoned run stats: %d hits, %d misses, %d coalesced, want 0 / 0 / 1",
			got.Stats.FuncCacheHits, got.Stats.FuncCacheMisses, got.Stats.FuncCacheCoalesced)
	}
	if st := fc.Stats(); st.Hits != 0 || st.Misses != 1 || st.Coalesced != 1 {
		t.Errorf("cache stats %+v, want the leader's miss and the abandoned lookup coalesced", st)
	}
}

// TestFuncCacheCountersRace is the satellite -race regression: counters are
// updated from concurrent lookups (including the coalescing path, which
// counts outside the cache lock) while Stats is read concurrently. Under
// -race this fails if any counter update is a read-modify-write.
func TestFuncCacheCountersRace(t *testing.T) {
	leak.Check(t)
	reg := quals.MustStandard()
	fc := NewFuncCache(0)
	dir := genTree(t, 10)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = fc.Stats()
				_ = fc.Len()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := CheckTree(context.Background(), dir, reg, TreeOptions{Workers: 2, Seed: 11, Cache: fc}); err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	st := fc.Stats()
	if st.Hits+st.Misses+st.Coalesced == 0 {
		t.Error("no cache activity recorded")
	}
	// Fills (misses) bound the cache's size; every lookup is exactly one of
	// hit, miss, or coalesced, so the sum must cover every cached walk.
	if uint64(fc.Len()) > st.Misses {
		t.Errorf("cache holds %d entries but only %d fills were counted", fc.Len(), st.Misses)
	}
}

// TestTreeReaderRejectsOversize: MaxFileBytes is enforced per file without
// failing the rest of the tree.
func TestTreeReaderRejectsOversize(t *testing.T) {
	leak.Check(t)
	dir := genTree(t, 4)
	res, err := CheckTree(context.Background(), dir, quals.MustStandard(), TreeOptions{
		Workers: 2,
		Seed:    1,
		Walk:    input.WalkOptions{MaxFileBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range res.Files {
		if fr.Err != nil {
			t.Errorf("%s: %v", fr.File, fr.Err)
		}
	}
}

func writeTreeFile(t *testing.T, root, rel, body string) {
	t.Helper()
	full := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTreeCheckerIncrementalReuse is the watch daemon's engine contract: one
// TreeChecker survives across passes, and re-checking an edited file through
// it misses the cache only for the function whose content actually changed.
func TestTreeCheckerIncrementalReuse(t *testing.T) {
	leak.Check(t)
	reg := quals.MustStandard()
	dir := t.TempDir()
	writeTreeFile(t, dir, "a.c", `
int* nonnull g;

int keep(int a) {
  return a;
}
void violate(int* p) {
  g = p;
}
`)
	writeTreeFile(t, dir, "b.c", "int other(int n) {\n  return n;\n}\n")

	fc := NewFuncCache(0)
	tc := NewTreeChecker(reg, TreeOptions{Workers: 2, Seed: 1, Cache: fc})
	defer tc.Close()
	ctx := context.Background()

	full, err := tc.CheckTree(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.FuncCacheMisses != 3 {
		t.Fatalf("cold pass: %d misses, want 3", full.Stats.FuncCacheMisses)
	}

	// Edit exactly one function body; signatures and interfaces unchanged.
	writeTreeFile(t, dir, "a.c", `
int* nonnull g;

int keep(int a) {
  return a;
}
void violate(int* p) {
  int* q = p;
  g = q;
}
`)
	path := filepath.Join(dir, "a.c")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f := input.File{Path: path, Rel: "a.c", Size: fi.Size(), ModTime: fi.ModTime()}
	res := tc.CheckFiles(ctx, []input.File{f})
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("incremental re-check: %+v", res)
	}
	if res[0].Stats.FuncCacheMisses != 1 || res[0].Stats.FuncCacheHits != 1 {
		t.Errorf("incremental re-check: %d misses / %d hits, want 1 / 1 (only the edited function re-walks)",
			res[0].Stats.FuncCacheMisses, res[0].Stats.FuncCacheHits)
	}
	// The warm incremental result must match a cold whole-tree pass of the
	// current state.
	cold, err := CheckTree(ctx, dir, reg, TreeOptions{Workers: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(res[0].Diags), fmt.Sprint(cold.Files[0].Diags); got != want {
		t.Errorf("incremental diags diverge from cold pass:\n got %s\nwant %s", got, want)
	}
}

// TestTreeVanishedFileDegrades: a file deleted between walk and read must not
// fail the pass under DegradeReadErrors — it becomes that file's own
// transient "internal" diagnostic — while the default mode still reports a
// hard per-file error.
func TestTreeVanishedFileDegrades(t *testing.T) {
	leak.Check(t)
	reg := quals.MustStandard()
	dir := t.TempDir()
	writeTreeFile(t, dir, "a.c", "int a(int n) {\n  return n;\n}\n")
	writeTreeFile(t, dir, "b.c", "int b(int n) {\n  return n;\n}\n")
	writeTreeFile(t, dir, "c.c", "int c(int n) {\n  return n;\n}\n")

	files, _, err := input.Walk(dir, input.WalkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The deletion happens after the walk, before the read — the watch
	// daemon's routine race.
	if err := os.Remove(filepath.Join(dir, "b.c")); err != nil {
		t.Fatal(err)
	}

	tc := NewTreeChecker(reg, TreeOptions{Workers: 2, Seed: 1, DegradeReadErrors: true})
	defer tc.Close()
	res := tc.CheckFiles(context.Background(), files)
	if res[1].Err != nil {
		t.Errorf("degraded mode still returned a hard error: %v", res[1].Err)
	}
	if len(res[1].Diags) != 1 || res[1].Diags[0].Code != "internal" {
		t.Errorf("vanished file diags = %v, want one internal diagnostic", res[1].Diags)
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || len(res[i].Diags) != 0 {
			t.Errorf("intact file %s affected: err=%v diags=%v", res[i].File, res[i].Err, res[i].Diags)
		}
	}

	hard := NewTreeChecker(reg, TreeOptions{Workers: 2, Seed: 1})
	defer hard.Close()
	hres := hard.CheckFiles(context.Background(), files)
	if hres[1].Err == nil {
		t.Error("default mode swallowed the read failure")
	}
}
