package simplify

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/logic"
)

// Resource-budget regressions: the instantiation budget and injected budget
// faults must trip to the transient reason ReasonBudget, never hang, and
// never leave a verdict in the cache — a budget-starved Unknown replayed
// after the budget is raised would be a soundness-of-service bug.

// budgetOptions is the divergent trigger-loop setup with the wall-clock,
// round and instance budgets effectively disabled, so only the budget under
// test can stop the search.
func budgetOptions() Options {
	opts := DefaultOptions()
	opts.MaxRounds = 1 << 20
	opts.MaxInstances = 1 << 20
	opts.GoalTimeout = 30 * time.Second // backstop against a broken budget
	return opts
}

func checkBudgetOutcome(t *testing.T, out Outcome, what string) {
	t.Helper()
	if out.Result != Unknown {
		t.Fatalf("%s: result %v, want Unknown", what, out.Result)
	}
	if out.Reason != ReasonBudget {
		t.Fatalf("%s: reason %q, want %q", what, out.Reason, ReasonBudget)
	}
	if !TransientReason(out.Reason) {
		t.Fatalf("%s: ReasonBudget must be transient", what)
	}
}

func TestInstanceBudgetTripsTransient(t *testing.T) {
	opts := budgetOptions()
	opts.MaxInstances = 50
	before := BudgetTrips()
	out := New(triggerLoopAxioms(), opts).Prove(unprovableGoal())
	checkBudgetOutcome(t, out, "MaxInstances")
	if BudgetTrips() <= before {
		t.Error("BudgetTrips counter did not advance")
	}
}

// TestBudgetVerdictNotReplayedWhenRaised is the cache-poisoning regression:
// a verdict minted under a starved budget must not be stored, so raising the
// budget re-proves the goal instead of replaying the starved Unknown.
func TestBudgetVerdictNotReplayedWhenRaised(t *testing.T) {
	cache := NewCache(64)

	// Provable goal that needs one e-matching instantiation; MaxInstances=1
	// trips before the search can use it.
	goal := mustParse(t, "(Ploop (floop c0))")
	starved := budgetOptions()
	starved.MaxInstances = 1
	out := New(triggerLoopAxioms(), starved).WithCache(cache).Prove(goal)
	checkBudgetOutcome(t, out, "starved run")
	if cache.Len() != 0 {
		t.Fatalf("budget-minted outcome was cached (%d entries)", cache.Len())
	}

	// A second starved run must search again, not hit the cache.
	out = New(triggerLoopAxioms(), starved).WithCache(cache).Prove(goal)
	if out.CacheHit {
		t.Fatal("starved verdict was replayed from the cache")
	}

	// With the budget raised (sharing the same cache) the goal proves.
	raised := budgetOptions()
	out = New(triggerLoopAxioms(), raised).WithCache(cache).Prove(goal)
	if out.CacheHit {
		t.Fatal("raised-budget run must not replay any starved outcome")
	}
	if out.Result != Valid {
		t.Fatalf("raised-budget run: %v, want Valid", out)
	}
}

// Fault-point behavior inside the search: budget faults become ReasonBudget,
// injected errors become "fault: ..." reasons, panics are recovered into
// "panic: ..." — and none of the three is ever cached.
func TestSearchFaultPoints(t *testing.T) {
	defer faults.DisarmAll()
	goal := mustParse(t, "(EQ a a)")

	cases := []struct {
		spec   string
		prefix string
	}{
		{"simplify.prove.round=budget", ReasonBudget},
		{"simplify.prove.round=error:wire", "fault: "},
		{"simplify.prove.round=panic", "panic: "},
		{"simplify.search.decision=budget", ReasonBudget},
		{"simplify.ematch.round=error", "fault: "},
	}
	for _, tc := range cases {
		faults.DisarmAll()
		if err := faults.Arm(tc.spec); err != nil {
			t.Fatal(err)
		}
		cache := NewCache(16)
		// An unprovable-without-search goal keeps the engine in its round
		// loop long enough for every point to be reachable; the learn and
		// backjump points are covered by TestCDCLFaultPoints.
		p := New(triggerLoopAxioms(), DefaultOptions()).WithCache(cache)
		out := p.Prove(goal)
		if out.Result != Unknown && !strings.HasPrefix(tc.spec, "simplify.search.decision") &&
			!strings.HasPrefix(tc.spec, "simplify.ematch.round") {
			t.Errorf("%s: result %v, want Unknown", tc.spec, out.Result)
		}
		if out.Reason != "" && !strings.HasPrefix(out.Reason, tc.prefix) && out.Reason != tc.prefix {
			t.Errorf("%s: reason %q, want prefix %q", tc.spec, out.Reason, tc.prefix)
		}
		if TransientReason(out.Reason) && cache.Len() != 0 {
			t.Errorf("%s: transient outcome cached", tc.spec)
		}
	}

	// Disarmed again, the same prover proves the goal normally.
	faults.DisarmAll()
	if out := New(triggerLoopAxioms(), DefaultOptions()).Prove(goal); out.Result != Valid {
		t.Fatalf("after disarm: %v, want Valid", out)
	}
}

// TestCDCLFaultPoints covers the CDCL fault sites: conflict analysis
// (search.learn) and backjumping (search.backjump). A fault mid-conflict-
// analysis must degrade to a transient Unknown — never a wrong verdict,
// never a cached one.
func TestCDCLFaultPoints(t *testing.T) {
	defer faults.DisarmAll()

	// Find a corpus formula whose clean proof actually learns clauses, so the
	// armed learn/backjump points are guaranteed reachable.
	r := &diffRNG{s: 0xc0ffee}
	var learnGoal logic.Formula
	for i := 0; i < 500 && learnGoal == nil; i++ {
		f := genGroundFormula(r, 3)
		if out := New(nil, DefaultOptions()).Prove(f); out.Result == Valid && out.Stats.LearnedClauses > 0 {
			learnGoal = f
		}
	}
	if learnGoal == nil {
		t.Fatal("corpus search found no goal that learns clauses")
	}

	cases := []struct {
		spec   string
		prefix string
	}{
		{"simplify.search.learn=panic", "panic: "},
		{"simplify.search.learn=budget", ReasonBudget},
		{"simplify.search.backjump=error:chaos", "fault: "},
	}
	for _, tc := range cases {
		faults.DisarmAll()
		if err := faults.Arm(tc.spec); err != nil {
			t.Fatal(err)
		}
		cache := NewCache(16)
		out := New(nil, DefaultOptions()).WithCache(cache).Prove(learnGoal)
		if out.Result != Unknown {
			t.Errorf("%s: result %v, want transient Unknown", tc.spec, out.Result)
		}
		if !strings.HasPrefix(out.Reason, tc.prefix) {
			t.Errorf("%s: reason %q, want prefix %q", tc.spec, out.Reason, tc.prefix)
		}
		if !TransientReason(out.Reason) {
			t.Errorf("%s: reason %q must be transient", tc.spec, out.Reason)
		}
		if cache.Len() != 0 {
			t.Errorf("%s: transient outcome cached", tc.spec)
		}
	}

	// Disarmed, the goal proves normally.
	faults.DisarmAll()
	if out := New(nil, DefaultOptions()).Prove(learnGoal); out.Result != Valid {
		t.Fatalf("learn goal after disarm: %v (%q), want Valid", out.Result, out.Reason)
	}
}
