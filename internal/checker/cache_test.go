package checker

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cminor"
	"repro/internal/qdl"
	"repro/internal/quals"
)

func parseWith(t *testing.T, reg *qdl.Registry, src string) *cminor.Program {
	t.Helper()
	prog, err := cminor.Parse("test.c", src, reg.Names())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func checkCached(t *testing.T, reg *qdl.Registry, src string, fc *FuncCache) *Result {
	t.Helper()
	return CheckWithCache(context.Background(), parseWith(t, reg, src), reg, Options{}, fc)
}

// cacheSrc has one clean function and two violating ones, so replays carry
// both empty and non-empty diagnostic sets.
const cacheSrc = `
int* nonnull g;

void alpha() {
  int x = 1;
}
void beta(int* p) {
  g = p;
}
void gamma(int* q) {
  g = q;
}
`

func TestFuncCacheColdWarmEquivalence(t *testing.T) {
	reg := quals.MustStandard()
	fc := NewFuncCache(0)

	plain := checkCached(t, reg, cacheSrc, nil)
	cold := checkCached(t, reg, cacheSrc, fc)
	if cold.Stats.FuncCacheMisses != 3 || cold.Stats.FuncCacheHits != 0 {
		t.Errorf("cold run: %d misses / %d hits, want 3 / 0",
			cold.Stats.FuncCacheMisses, cold.Stats.FuncCacheHits)
	}
	warm := checkCached(t, reg, cacheSrc, fc)
	if warm.Stats.FuncCacheHits != 3 || warm.Stats.FuncCacheMisses != 0 {
		t.Errorf("warm run: %d hits / %d misses, want 3 / 0",
			warm.Stats.FuncCacheHits, warm.Stats.FuncCacheMisses)
	}
	// Cached, cold, and cache-free runs must be indistinguishable.
	want := fmt.Sprint(plain.Diags)
	if got := fmt.Sprint(cold.Diags); got != want {
		t.Errorf("cold cached diags differ from uncached:\n got %s\nwant %s", got, want)
	}
	if got := fmt.Sprint(warm.Diags); got != want {
		t.Errorf("replayed diags differ from uncached:\n got %s\nwant %s", got, want)
	}
	if plain.Stats.RestrictChecks != warm.Stats.RestrictChecks ||
		plain.Stats.RestrictFailures != warm.Stats.RestrictFailures {
		t.Errorf("replayed restrict stats differ: cached %d/%d, uncached %d/%d",
			warm.Stats.RestrictChecks, warm.Stats.RestrictFailures,
			plain.Stats.RestrictChecks, plain.Stats.RestrictFailures)
	}
}

// TestFuncCacheIncrementalEdit is the service's whole point: editing one
// function re-checks only that function, and the untouched functions —
// shifted down a line by the edit — replay their diagnostics at rebased
// positions identical to a from-scratch check.
func TestFuncCacheIncrementalEdit(t *testing.T) {
	reg := quals.MustStandard()
	fc := NewFuncCache(0)
	checkCached(t, reg, cacheSrc, fc)

	edited := `
int* nonnull g;

void alpha() {
  int y = 2;
  int x = 1;
}
void beta(int* p) {
  g = p;
}
void gamma(int* q) {
  g = q;
}
`
	warm := checkCached(t, reg, edited, fc)
	if warm.Stats.FuncCacheMisses != 1 {
		t.Errorf("edit of one function caused %d misses, want 1", warm.Stats.FuncCacheMisses)
	}
	if warm.Stats.FuncCacheHits != 2 {
		t.Errorf("unchanged functions scored %d hits, want 2", warm.Stats.FuncCacheHits)
	}
	want := checkCached(t, reg, edited, nil)
	if got, w := fmt.Sprint(warm.Diags), fmt.Sprint(want.Diags); got != w {
		t.Errorf("rebased replay diverges from a fresh check:\n got %s\nwant %s", got, w)
	}
	// The replayed positions must reflect the shift (beta's violation moved
	// from line 8 to line 9).
	found := false
	for _, d := range warm.Diags {
		if d.Code == "qual" && d.Pos.Line == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("no qual diagnostic rebased to line 9: %v", warm.Diags)
	}
}

// TestFuncCacheIsolation shares one cache across a different registry and
// different options; neither may replay entries minted under the other
// configuration.
func TestFuncCacheIsolation(t *testing.T) {
	fc := NewFuncCache(0)
	std := quals.MustStandard()
	// Annotation-free source so it parses under any registry; nonnull's
	// program-wide dereference restrict still flags the unguarded *p.
	src := `
void f(int* p) {
  int x = *p;
}
`
	first := checkCached(t, std, src, fc)
	if len(first.Diags) == 0 {
		t.Fatal("expected a nonnull restrict diagnostic under the standard registry")
	}

	// Same source text under a registry without nonnull: a miss, and the
	// violation vanishes rather than being replayed.
	uniqueOnly, err := qdl.Load(map[string]string{"unique.qdl": quals.Unique})
	if err != nil {
		t.Fatal(err)
	}
	other := checkCached(t, uniqueOnly, src, fc)
	if other.Stats.FuncCacheHits != 0 {
		t.Errorf("different registry hit %d entries of the standard run", other.Stats.FuncCacheHits)
	}
	for _, d := range other.Diags {
		t.Errorf("diagnostic replayed without nonnull loaded: %s", d)
	}

	// Same source and registry, different flow-sensitivity: fresh context.
	prog := parseWith(t, std, cacheSrc)
	flow := CheckWithCache(context.Background(), prog, std, Options{FlowSensitive: true}, fc)
	if flow.Stats.FuncCacheHits != 0 {
		t.Errorf("flow-sensitive run hit %d flow-insensitive entries", flow.Stats.FuncCacheHits)
	}
}

// TestFuncCacheFreshFactInvalidation covers the one cross-function
// dependency a body walk has: under the fresh-extended unique qualifier,
// init's verdict depends on whether parse_dfa returns a fresh reference.
// Editing only parse_dfa's body must invalidate init's cached (clean) entry
// rather than replaying it stale.
func TestFuncCacheFreshFactInvalidation(t *testing.T) {
	reg, err := qdl.Load(map[string]string{"unique.qdl": quals.UniqueFresh})
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFuncCache(0)

	freshSrc := `
struct dfastate { int n; };
struct dfastate* unique dfa;
struct dfastate* parse_dfa() {
  struct dfastate* unique d;
  d = (struct dfastate*)malloc(sizeof(struct dfastate));
  return d;
}
void init() {
  dfa = parse_dfa();
}
`
	clean := checkCached(t, reg, freshSrc, fc)
	for _, d := range clean.Diags {
		t.Errorf("fresh-returning callee flagged: %s", d)
	}

	// parse_dfa now returns an unqualified local: no longer provably fresh.
	// init's text is unchanged, but its cached entry must not replay.
	staleSrc := `
struct dfastate { int n; };
struct dfastate* unique dfa;
struct dfastate* parse_dfa() {
  struct dfastate* d2;
  d2 = (struct dfastate*)malloc(sizeof(struct dfastate));
  return d2;
}
void init() {
  dfa = parse_dfa();
}
`
	got := checkCached(t, reg, staleSrc, fc)
	if got.Stats.FuncCacheHits != 0 {
		t.Errorf("fresh-fact change still hit %d cached entries", got.Stats.FuncCacheHits)
	}
	want := checkCached(t, reg, staleSrc, nil)
	if g, w := fmt.Sprint(got.Diags), fmt.Sprint(want.Diags); g != w {
		t.Fatalf("cached diags diverge from fresh check:\n got %s\nwant %s", g, w)
	}
	found := false
	for _, d := range got.Diags {
		if d.Code == "assign" {
			found = true
		}
	}
	if !found {
		t.Errorf("stale fresh fact replayed: no assign diagnostic in %v", got.Diags)
	}
}

// TestFuncCacheSharedAcrossConcurrency checks the serial and parallel walks
// agree through one shared cache (each hitting entries the other stored).
func TestFuncCacheSharedAcrossConcurrency(t *testing.T) {
	reg := quals.MustStandard()
	fc := NewFuncCache(0)
	prog := parseWith(t, reg, cacheSrc)
	serial := CheckWithCache(context.Background(), prog, reg, Options{Concurrency: 1}, fc)
	parallel := CheckWithCache(context.Background(), prog, reg, Options{Concurrency: 8}, fc)
	if parallel.Stats.FuncCacheHits != 3 {
		t.Errorf("parallel run hit %d of the serial run's 3 entries", parallel.Stats.FuncCacheHits)
	}
	if g, w := fmt.Sprint(parallel.Diags), fmt.Sprint(serial.Diags); g != w {
		t.Errorf("parallel replay differs from serial:\n got %s\nwant %s", g, w)
	}
}

// TestFuncCacheSealRejectsCorruption: every record carries a content seal
// computed when it is built and re-verified on every lookup. Corrupting a
// stored entry in place turns the would-be hit into a counted rejection plus
// a miss, the function is re-walked (diagnostics identical to an uncached
// check), and the re-stored entry serves hits again.
func TestFuncCacheSealRejectsCorruption(t *testing.T) {
	reg := quals.MustStandard()
	fc := NewFuncCache(0)
	checkCached(t, reg, cacheSrc, fc)
	if fc.Len() != 3 {
		t.Fatalf("seed run cached %d entries, want 3", fc.Len())
	}

	// Corrupt one non-empty entry's payload behind the seal's back.
	corrupted := 0
	fc.cache.ForEach(func(_ string, r *FileRecord) {
		if len(r.Diags) > 0 && corrupted == 0 {
			r.Diags[0].Msg = "tampered"
			corrupted++
		}
	})
	if corrupted != 1 {
		t.Fatalf("corrupted %d entries, want 1", corrupted)
	}

	got := checkCached(t, reg, cacheSrc, fc)
	if got.Stats.FuncCacheHits != 2 || got.Stats.FuncCacheMisses != 1 {
		t.Errorf("post-corruption run: %d hits / %d misses, want 2 / 1",
			got.Stats.FuncCacheHits, got.Stats.FuncCacheMisses)
	}
	if st := fc.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	want := checkCached(t, reg, cacheSrc, nil)
	if g, w := fmt.Sprint(got.Diags), fmt.Sprint(want.Diags); g != w {
		t.Errorf("post-corruption diags diverge from uncached:\n got %s\nwant %s", g, w)
	}
	for _, d := range got.Diags {
		if d.Msg == "tampered" {
			t.Fatal("tampered diagnostic replayed despite the seal")
		}
	}

	// The re-walk re-stored a sealed entry: full hits, no new rejections.
	again := checkCached(t, reg, cacheSrc, fc)
	if again.Stats.FuncCacheHits != 3 {
		t.Errorf("re-stored entry not served: %d hits, want 3", again.Stats.FuncCacheHits)
	}
	if st := fc.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected moved to %d after recovery, want still 1", st.Rejected)
	}
}

// TestFuncCacheRapidSuccessiveEdits drives one function through three
// versions in quick succession — the watch daemon's save-storm shape — and
// asserts that no intermediate version's entry is ever served for newer
// source, and that the final warm incremental result is byte-identical to a
// cold cache-free check of the final state.
func TestFuncCacheRapidSuccessiveEdits(t *testing.T) {
	reg := quals.MustStandard()
	fc := NewFuncCache(0)

	version := func(n int) string {
		return fmt.Sprintf(`
int* nonnull g;

void alpha() {
  int x = %d;
}
void beta(int* p) {
  g = p;
}
`, n)
	}

	checkCached(t, reg, version(1), fc)
	for n := 2; n <= 3; n++ {
		res := checkCached(t, reg, version(n), fc)
		// Each new body is a genuinely new content key: a miss, never a stale
		// replay of the previous version's entry.
		if res.Stats.FuncCacheMisses != 1 || res.Stats.FuncCacheHits != 1 {
			t.Errorf("version %d: %d misses / %d hits, want 1 / 1 (stale entry served?)",
				n, res.Stats.FuncCacheMisses, res.Stats.FuncCacheHits)
		}
		cold := checkCached(t, reg, version(n), nil)
		if got, want := fmt.Sprint(res.Diags), fmt.Sprint(cold.Diags); got != want {
			t.Errorf("version %d: warm incremental diags diverge from cold check:\n got %s\nwant %s", n, got, want)
		}
	}

	// Every distinct version must have minted its own entry (3 alpha bodies +
	// 1 shared beta body), and re-checking an old version again replays its
	// own entry, not a newer one's.
	if fc.Len() != 4 {
		t.Errorf("cache holds %d entries, want 4 (three alpha versions + beta)", fc.Len())
	}
	old := checkCached(t, reg, version(1), fc)
	if old.Stats.FuncCacheHits != 2 || old.Stats.FuncCacheMisses != 0 {
		t.Errorf("re-check of version 1: %d hits / %d misses, want 2 / 0",
			old.Stats.FuncCacheHits, old.Stats.FuncCacheMisses)
	}
	coldOld := checkCached(t, reg, version(1), nil)
	if got, want := fmt.Sprint(old.Diags), fmt.Sprint(coldOld.Diags); got != want {
		t.Errorf("version 1 replay diverges from cold check:\n got %s\nwant %s", got, want)
	}
}

// betaSrc is the primed layout of TestFuncCacheReformattedFunction: beta's
// violation sits at 4:3.
const betaSrc = "int* nonnull g;\n\nvoid beta(int* p) {\n  g = p;\n}\n"

// TestFuncCacheReformattedFunction: a function whose layout changed must not
// replay the positions cached for its old layout. Every variant, checked
// through a cache primed with betaSrc, must print what a fresh uncached
// check prints, byte for byte; a function that only moved to other lines
// must still hit.
func TestFuncCacheReformattedFunction(t *testing.T) {
	reg := quals.MustStandard()
	for _, tc := range []struct {
		name, src string
		wantHit   bool
	}{
		{"blank line in body", "int* nonnull g;\n\nvoid beta(int* p) {\n\n  g = p;\n}\n", false},
		{"re-indented body", "int* nonnull g;\n\nvoid beta(int* p) {\n      g = p;\n}\n", false},
		{"moved down three lines", "int* nonnull g;\n\n\n\n\nvoid beta(int* p) {\n  g = p;\n}\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := NewFuncCache(0)
			checkCached(t, reg, betaSrc, fc)
			got := checkCached(t, reg, tc.src, fc)
			want := checkCached(t, reg, tc.src, nil)
			if g, w := fmt.Sprint(got.Diags), fmt.Sprint(want.Diags); g != w || len(want.Diags) == 0 {
				t.Errorf("cached check diverges from a fresh one:\n got %s\nwant %s", g, w)
			}
			if hit := got.Stats.FuncCacheHits == 1; hit != tc.wantHit {
				t.Errorf("cache hits = %d, want hit %v", got.Stats.FuncCacheHits, tc.wantHit)
			}
		})
	}
}

// TestFuncKeyTracksSourceText: the function key is exact about the text —
// one space, one comment character, or a one-column shift changes it — and
// blind only to which lines the function occupies.
func TestFuncKeyTracksSourceText(t *testing.T) {
	reg := quals.MustStandard()
	const ctxKey = "ctx"
	key := func(src string) string {
		t.Helper()
		return funcKey(ctxKey, parseWith(t, reg, src).Func("f"))
	}
	base := key("int g;\nvoid f(int a) {\n  g = a; /* x */\n}\n")
	for name, src := range map[string]string{
		"one space in the body":   "int g;\nvoid f(int a) {\n  g =  a; /* x */\n}\n",
		"one comment in the body": "int g;\nvoid f(int a) {\n  g = a; /* y */\n}\n",
		"shifted right a column":  "int g;\n void f(int a) {\n   g = a; /* x */\n }\n",
	} {
		if key(src) == base {
			t.Errorf("%s: key unchanged", name)
		}
	}
	if moved := key("int g;\n\n\n\nvoid f(int a) {\n  g = a; /* x */\n}\n"); moved != base {
		t.Error("moving the function down three lines changed its key")
	}
}

// TestFuncCacheEmptySrcWalked: a FuncDef that Parse did not build carries no
// source text. It has no key, so it is walked and never replayed — not even
// against a cache primed with the same functions.
func TestFuncCacheEmptySrcWalked(t *testing.T) {
	reg := quals.MustStandard()
	fc := NewFuncCache(0)
	checkCached(t, reg, cacheSrc, fc)
	before := fc.Stats()

	prog := parseWith(t, reg, cacheSrc)
	for _, f := range prog.Funcs {
		f.Src = ""
	}
	got := CheckWithCache(context.Background(), prog, reg, Options{}, fc)
	if got.Stats.FuncCacheHits != 0 || got.Stats.FuncCacheCoalesced != 0 {
		t.Errorf("functions without source text replayed: %d hits, %d coalesced",
			got.Stats.FuncCacheHits, got.Stats.FuncCacheCoalesced)
	}
	if after := fc.Stats(); after != before {
		t.Errorf("functions without source text touched the cache: %+v -> %+v", before, after)
	}
	want := checkCached(t, reg, cacheSrc, nil)
	if g, w := fmt.Sprint(got.Diags), fmt.Sprint(want.Diags); g != w {
		t.Errorf("walk without source text diverges from a fresh check:\n got %s\nwant %s", g, w)
	}
}
