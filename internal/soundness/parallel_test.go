package soundness

import (
	"strings"
	"testing"

	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/simplify"
	"repro/internal/testutil/leak"
)

// normalizeReports zeroes the fields that legitimately vary between serial
// and parallel runs: wall-clock times, and cache-hit markers (two workers
// proving identical formulas concurrently may both miss where a serial run
// would hit; the verdicts are unaffected).
func normalizeReports(reports []*Report) {
	for _, r := range reports {
		r.Elapsed = 0
		r.CacheHits = 0
		for i := range r.Results {
			r.Results[i].Elapsed = 0
			r.Results[i].Outcome.CacheHit = false
		}
	}
}

// TestProveAllParallelMatchesSerial is the determinism contract of the
// worker pool: a parallel run over the standard library must produce
// byte-identical reports (modulo timing and cache-hit markers) in the same
// registration order as a serial run. Run under -race it also exercises the
// shared prover and cache concurrently.
func TestProveAllParallelMatchesSerial(t *testing.T) {
	leak.Check(t)
	reg := standard(t)

	serialOpts := DefaultOptions()
	serialOpts.Concurrency = 1
	serial, err := ProveAll(reg, serialOpts)
	if err != nil {
		t.Fatal(err)
	}

	parallelOpts := DefaultOptions()
	parallelOpts.Concurrency = 8
	parallel, err := ProveAll(reg, parallelOpts)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(parallel) {
		t.Fatalf("report counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	normalizeReports(serial)
	normalizeReports(parallel)
	for i := range serial {
		if serial[i].Qualifier != parallel[i].Qualifier {
			t.Errorf("report %d order differs: serial %s, parallel %s", i, serial[i].Qualifier, parallel[i].Qualifier)
			continue
		}
		if serial[i].Sound() != parallel[i].Sound() {
			t.Errorf("%s: verdicts differ: serial %t, parallel %t", serial[i].Qualifier, serial[i].Sound(), parallel[i].Sound())
		}
		if s, p := serial[i].String(), parallel[i].String(); s != p {
			t.Errorf("%s: reports differ\nserial:\n%s\nparallel:\n%s", serial[i].Qualifier, s, p)
		}
	}
}

// TestProveParallelMatchesSerial pins the obligation-level pool: one
// qualifier's obligations discharged on 8 workers report in generation
// order, identical to the serial discharge.
func TestProveParallelMatchesSerial(t *testing.T) {
	leak.Check(t)
	reg := standard(t)
	d := reg.Lookup("unique")

	serialOpts := DefaultOptions()
	serialOpts.Concurrency = 1
	serial, err := Prove(d, reg, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parallelOpts := DefaultOptions()
	parallelOpts.Concurrency = 8
	parallel, err := Prove(d, reg, parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	normalizeReports([]*Report{serial, parallel})
	if s, p := serial.String(), parallel.String(); s != p {
		t.Errorf("reports differ\nserial:\n%s\nparallel:\n%s", s, p)
	}
}

// TestProveAllCollectsErrors: a qualifier whose obligations cannot be
// generated must yield a Report with Err set, without suppressing the other
// qualifiers' results.
func TestProveAllCollectsErrors(t *testing.T) {
	bad := `
value qualifier bad(int Expr E)
  case E of
    decl int Const C:
      C, where C > 0
  invariant value(E) / 2 > 0
`
	reg, err := qdl.Load(map[string]string{"pos.qdl": quals.Pos, "neg.qdl": quals.Neg, "bad.qdl": bad})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := ProveAll(reg, DefaultOptions())
	if err == nil {
		t.Error("ProveAll returned nil error despite an untranslatable qualifier")
	} else if !strings.Contains(err.Error(), "bad") {
		t.Errorf("joined error does not name the failing qualifier: %v", err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3 (failures must not drop reports)", len(reports))
	}
	byName := map[string]*Report{}
	for _, r := range reports {
		byName[r.Qualifier] = r
	}
	badRep := byName["bad"]
	if badRep == nil {
		t.Fatal("no report for the failing qualifier")
	}
	if badRep.Err == nil {
		t.Error("failing qualifier's report has nil Err")
	}
	if badRep.Sound() {
		t.Error("failing qualifier reported sound")
	}
	if s := badRep.String(); !strings.Contains(s, "ERROR") {
		t.Errorf("error report does not say ERROR:\n%s", s)
	}
	posRep := byName["pos"]
	if posRep == nil || posRep.Err != nil || !posRep.Sound() {
		t.Errorf("healthy qualifier's result was disturbed: %+v", posRep)
	}
}

// TestCounterExampleLimit checks the truncation constant is honored: a
// report shows DefaultCounterExampleLimit literals and counts the rest.
func TestCounterExampleLimit(t *testing.T) {
	lits := make([]string, 12)
	for i := range lits {
		lits[i] = "(> x 0)"
	}
	failed := ObligationResult{
		Obligation: Obligation{Kind: CaseClause, Description: "synthetic"},
		Outcome:    simplify.Outcome{Result: simplify.Unknown, CounterExample: lits},
	}

	def := &Report{Qualifier: "q", Results: []ObligationResult{failed}}
	if s := def.String(); strings.Count(s, "(> x 0)") != DefaultCounterExampleLimit ||
		!strings.Contains(s, "(4 more literals)") {
		t.Errorf("default truncation wrong:\n%s", s)
	}
}

// TestProveCacheHitsReported: re-proving a qualifier against a shared cache
// serves every non-vacuous obligation from memory, and the report says so.
func TestProveCacheHitsReported(t *testing.T) {
	reg := standard(t)
	d := reg.Lookup("pos")
	opts := DefaultOptions()
	opts.Cache = simplify.NewCache(0)

	first, err := Prove(d, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Prove(d, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	nonVacuous := 0
	for _, res := range second.Results {
		if !res.Obligation.Vacuous {
			nonVacuous++
		}
	}
	if nonVacuous == 0 {
		t.Fatal("pos has no non-vacuous obligations?")
	}
	if second.CacheHits != nonVacuous {
		t.Errorf("second run: %d cache hits, want %d (every non-vacuous obligation)", second.CacheHits, nonVacuous)
	}
	if first.Sound() != second.Sound() {
		t.Error("cached run changed the verdict")
	}
}
