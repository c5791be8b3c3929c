package soundness

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/simplify"
)

// loopAxioms is the prover-level trigger loop injected through
// Options.ExtraAxioms: Ploop(c0) plus ∀x. Ploop(x) ⇒ Ploop(floop(x)).
// Against an unprovable obligation it makes the search diverge, so only the
// per-goal deadline can stop it.
func loopAxioms() []logic.Formula {
	c := logic.Const("c0")
	x := logic.Var{Name: "x"}
	return []logic.Formula{
		logic.P("Ploop", c),
		logic.All([]string{"x"}, logic.Imp(logic.P("Ploop", x), logic.P("Ploop", logic.Fn("floop", x)))),
	}
}

// brokenPosRegistry loads pos with its first case weakened to C >= 0 (the
// section 2.1.3 mutation): that case's obligation is unprovable, which under
// loopAxioms means its search never saturates.
func brokenPosRegistry(t *testing.T) *qdl.Registry {
	t.Helper()
	reg, err := qdl.Load(map[string]string{
		"pos.qdl": strings.Replace(quals.Pos, "C > 0", "C >= 0", 1),
		"neg.qdl": quals.Neg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestProveAllDeadlineTriggerLoop is the tentpole's acceptance scenario: a
// synthetic diverging obligation must come back Unknown("deadline exceeded")
// with per-goal stats attached, the whole ProveAll must finish within twice
// the goal budget, and no worker goroutine may leak.
func TestProveAllDeadlineTriggerLoop(t *testing.T) {
	const timeout = 500 * time.Millisecond
	reg := brokenPosRegistry(t)
	opts := DefaultOptions()
	opts.Prover.MaxRounds = 1 << 20
	opts.Prover.MaxInstances = 1 << 20
	opts.Prover.GoalTimeout = timeout
	opts.ExtraAxioms = loopAxioms()
	opts.Concurrency = 4

	before := runtime.NumGoroutine()
	start := time.Now()
	reports, err := ProveAll(reg, opts)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed >= 2*timeout {
		t.Errorf("ProveAll took %v with a diverging goal, want < 2x the %v budget", elapsed, timeout)
	}

	var pos *Report
	for _, r := range reports {
		if r.Qualifier == "pos" {
			pos = r
		}
	}
	if pos == nil {
		t.Fatal("no report for pos")
	}
	if pos.Sound() {
		t.Fatal("broken pos reported sound")
	}
	failed := pos.Failed()
	if len(failed) == 0 {
		t.Fatal("no failed obligations on broken pos")
	}
	sawDeadline := false
	for _, res := range failed {
		if res.Outcome.Reason == simplify.ReasonDeadline {
			sawDeadline = true
			if res.Outcome.Stats.Rounds == 0 || res.Outcome.Stats.Instantiations == 0 {
				t.Errorf("timed-out goal carries empty stats: %+v", res.Outcome.Stats)
			}
		}
	}
	if !sawDeadline {
		t.Errorf("no failed obligation reported %q; reasons: %v", simplify.ReasonDeadline, failureReasons(failed))
	}
	if pos.Stats.WallTime <= 0 {
		t.Errorf("report-level stats not aggregated: %+v", pos.Stats)
	}

	// Worker pools must drain: allow the runtime a moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before ProveAll, %d after", before, after)
	}
}

func failureReasons(results []ObligationResult) []string {
	var out []string
	for _, r := range results {
		out = append(out, r.Outcome.Reason)
	}
	return out
}

// TestProveAllConcurrencyBudget pins the one pool's bound: with C workers,
// the qualifier tasks and their obligation units together never discharge
// more than C obligations at once (nested pools would run up to C*C), and
// with enough obligations they do run C.
func TestProveAllConcurrencyBudget(t *testing.T) {
	reg := standard(t)
	const budget = 2

	var active, highWater int64
	dischargeHook = func(Obligation) {
		n := atomic.AddInt64(&active, 1)
		for {
			hw := atomic.LoadInt64(&highWater)
			if n <= hw || atomic.CompareAndSwapInt64(&highWater, hw, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond) // force overlap
		atomic.AddInt64(&active, -1)
	}
	defer func() { dischargeHook = nil }()

	opts := DefaultOptions()
	opts.Concurrency = budget
	if _, err := ProveAll(reg, opts); err != nil {
		t.Fatal(err)
	}
	hw := atomic.LoadInt64(&highWater)
	if hw > budget {
		t.Errorf("high-water concurrency %d exceeds the budget of %d", hw, budget)
	}
	if hw < 2 {
		t.Errorf("high-water concurrency %d; the pool never overlapped, budget test is vacuous", hw)
	}
}

// TestProveAllIdleWorkerClamp: a concurrency far above the qualifier count
// must neither deadlock nor leak idle workers, and reports stay in
// registration order (the satellite's original symptom was idle outer
// workers under Concurrency > len(qualifiers)).
func TestProveAllIdleWorkerClamp(t *testing.T) {
	reg := standard(t)
	before := runtime.NumGoroutine()
	opts := DefaultOptions()
	opts.Concurrency = 64 // far more than qualifiers or obligations
	reports, err := ProveAll(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defs := reg.Defs()
	if len(reports) != len(defs) {
		t.Fatalf("got %d reports for %d qualifiers", len(reports), len(defs))
	}
	for i, r := range reports {
		if r.Qualifier != defs[i].Name {
			t.Errorf("report %d out of order: got %s, want %s", i, r.Qualifier, defs[i].Name)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak with oversized pool: %d before, %d after", before, after)
	}
}

// TestForEachIndexClamp pins the pool as Prove drives it: every index runs
// exactly once at any workers/n ratio, including workers > n, n = 0, and
// workers = 0 (every core).
func TestForEachIndexClamp(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 8}, {1, 8}, {3, 64}, {8, 3}, {5, 5}, {7, 1}, {4, 0},
	} {
		var mu sync.Mutex
		seen := map[int]int{}
		fanOut(tc.n, tc.workers, func(i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		if len(seen) != tc.n {
			t.Errorf("n=%d workers=%d: %d distinct indices run", tc.n, tc.workers, len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("n=%d workers=%d: index %d run %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestDischargePanicIsolation: a panic while discharging one obligation must
// fail only that obligation's report entry; every other obligation still
// proves, and the pool survives.
func TestDischargePanicIsolation(t *testing.T) {
	reg := standard(t)
	d := reg.Lookup("pos")
	obls, err := Obligations(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(obls) < 2 {
		t.Fatalf("need at least 2 obligations, got %d", len(obls))
	}
	victim := obls[0].Description

	dischargeHook = func(o Obligation) {
		if o.Description == victim {
			panic("injected discharge fault")
		}
	}
	defer func() { dischargeHook = nil }()

	opts := DefaultOptions()
	opts.Concurrency = 4
	rep, err := Prove(d, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound() {
		t.Fatal("report sound despite an injected panic")
	}
	for _, res := range rep.Results {
		if res.Obligation.Description == victim {
			if res.Valid || !strings.HasPrefix(res.Outcome.Reason, "panic:") {
				t.Errorf("victim obligation: valid=%v reason=%q, want a panic failure", res.Valid, res.Outcome.Reason)
			}
		} else if !res.Valid {
			t.Errorf("unrelated obligation %q failed: %q", res.Obligation.Description, res.Outcome.Reason)
		}
	}
}

func posRegistry(t *testing.T) *qdl.Registry {
	t.Helper()
	reg, err := qdl.Load(map[string]string{"pos.qdl": quals.Pos, "neg.qdl": quals.Neg})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestDischargeFaultBudgetMode: a budget-mode fault on the discharge point
// surfaces as the transient ReasonBudget, feeding qualserve's breaker.
func TestDischargeFaultBudgetMode(t *testing.T) {
	defer faults.DisarmAll()
	reg := posRegistry(t)
	d := reg.Lookup("pos")
	if err := faults.Arm("soundness.discharge=budget"); err != nil {
		t.Fatal(err)
	}
	report, err := Prove(d, reg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.Sound() {
		t.Fatal("permanent budget fault should leave the report unsound")
	}
	for _, res := range report.Failed() {
		if res.Outcome.Reason != simplify.ReasonBudget {
			t.Errorf("reason %q, want %q", res.Outcome.Reason, simplify.ReasonBudget)
		}
	}
}

// TestTraceWriter checks the JSONL trace: one well-formed record per
// obligation, in generation order, carrying verdicts and counters.
func TestTraceWriter(t *testing.T) {
	reg := standard(t)
	d := reg.Lookup("pos")
	var buf bytes.Buffer
	opts := DefaultOptions()
	opts.Trace = &buf
	rep, err := Prove(d, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rep.Results) {
		t.Fatalf("%d trace records for %d obligations", len(lines), len(rep.Results))
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d is not valid JSON: %v\n%s", i, err, line)
		}
		if rec["qualifier"] != "pos" {
			t.Errorf("record %d qualifier = %v", i, rec["qualifier"])
		}
		if rec["obligation"] != rep.Results[i].Obligation.Description {
			t.Errorf("record %d out of order: %v", i, rec["obligation"])
		}
		if _, ok := rec["decisions"]; !ok {
			t.Errorf("record %d lacks telemetry fields: %s", i, line)
		}
	}
}

// TestTraceDeterministicAcrossRuns is the CDCL determinism regression at the
// trace level: two serial ProveAll runs over the standard library — fresh
// caches, lemma sharing live, timings omitted — must emit byte-identical
// trace JSONL. Any nondeterminism in decision order, restart schedule,
// conflict analysis, or lemma pooling shows up as a trace_hash diff here.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	reg := standard(t)
	run := func() []byte {
		var buf bytes.Buffer
		opts := DefaultOptions()
		opts.Concurrency = 1
		opts.Cache = simplify.NewCache(0)
		opts.Trace = &buf
		opts.TraceOmitTimings = true
		if _, err := ProveAll(reg, opts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		la := strings.Split(string(a), "\n")
		lb := strings.Split(string(b), "\n")
		for i := range la {
			if i >= len(lb) || la[i] != lb[i] {
				t.Fatalf("trace runs diverge at record %d:\nrun1: %s\nrun2: %s", i, la[i], lb[i])
			}
		}
		t.Fatalf("trace runs differ in length: %d vs %d bytes", len(a), len(b))
	}
	if !bytes.Contains(a, []byte(`"trace_hash"`)) {
		t.Error("trace records carry no trace_hash")
	}
	if bytes.Contains(a, []byte(`"elapsed_us":1`)) {
		t.Error("TraceOmitTimings left a nonzero elapsed_us")
	}
}
