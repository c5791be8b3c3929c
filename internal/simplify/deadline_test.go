package simplify

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/logic"
)

// Deadline, cancellation, and panic-safety regression tests. The adversary
// is a trigger loop: Ploop(c0) plus ∀x. Ploop(x) ⇒ Ploop(floop(x)), whose
// e-matching adds a fresh instance every round forever. With the round and
// instance budgets effectively disabled, only the wall-clock deadline (or
// the caller's context) can stop the search.

func triggerLoopAxioms() []logic.Formula {
	c := logic.Const("c0")
	x := logic.Var{Name: "x"}
	return []logic.Formula{
		logic.P("Ploop", c),
		logic.All([]string{"x"}, logic.Imp(logic.P("Ploop", x), logic.P("Ploop", logic.Fn("floop", x)))),
	}
}

// unprovableGoal is unrelated to the loop axioms, so the search saturates
// never: the loop keeps feeding instances and no refutation exists.
func unprovableGoal() logic.Formula {
	return logic.P("Qother", logic.Const("c0"))
}

// divergentOptions disables every budget except the wall clock.
func divergentOptions(timeout time.Duration) Options {
	opts := DefaultOptions()
	opts.MaxRounds = 1 << 20
	opts.MaxInstances = 1 << 20
	opts.GoalTimeout = timeout
	return opts
}

func TestProveDeadlineTriggerLoop(t *testing.T) {
	const timeout = 250 * time.Millisecond
	p := New(triggerLoopAxioms(), divergentOptions(timeout))
	start := time.Now()
	out := p.Prove(unprovableGoal())
	elapsed := time.Since(start)
	if out.Result != Unknown {
		t.Fatalf("divergent goal reported %v, want Unknown", out.Result)
	}
	if out.Reason != ReasonDeadline {
		t.Fatalf("reason = %q, want %q", out.Reason, ReasonDeadline)
	}
	if elapsed >= 2*timeout {
		t.Errorf("deadline-bounded search took %v, want < 2x the %v budget", elapsed, timeout)
	}
	if out.Stats.Rounds == 0 || out.Stats.Instantiations == 0 {
		t.Errorf("stats not populated on a stopped search: %+v", out.Stats)
	}
	if out.Stats.WallTime <= 0 {
		t.Errorf("stats wall time not recorded: %v", out.Stats.WallTime)
	}
}

func TestProveContextCancelTriggerLoop(t *testing.T) {
	p := New(triggerLoopAxioms(), divergentOptions(0)) // no wall-clock bound
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(100*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	out := p.ProveContext(ctx, unprovableGoal())
	elapsed := time.Since(start)
	if out.Result != Unknown || out.Reason != ReasonCanceled {
		t.Fatalf("canceled search reported %v (%q), want Unknown (%q)", out.Result, out.Reason, ReasonCanceled)
	}
	if elapsed >= 2*time.Second {
		t.Errorf("cancellation took %v to unwind", elapsed)
	}
}

// TestDeadlineOutcomeNotCached: transient outcomes must not poison the
// memoizing cache — a deadline verdict depends on machine load, not on the
// formula, so a later retry must search afresh.
func TestDeadlineOutcomeNotCached(t *testing.T) {
	cache := NewCache(0)
	p := New(triggerLoopAxioms(), divergentOptions(100*time.Millisecond)).WithCache(cache)
	out := p.Prove(unprovableGoal())
	if out.Reason != ReasonDeadline {
		t.Fatalf("setup: expected a deadline outcome, got %v (%q)", out.Result, out.Reason)
	}
	if cache.Len() != 0 {
		t.Errorf("deadline outcome was cached (%d entries)", cache.Len())
	}
	// A decidable goal against the same prover still caches.
	quick := logic.Imp(logic.P("Qother", logic.Const("c0")), logic.P("Qother", logic.Const("c0")))
	if out := p.Prove(quick); out.Result != Valid {
		t.Fatalf("tautology not proved: %v", out)
	}
	if cache.Len() != 1 {
		t.Errorf("conclusive outcome not cached (%d entries)", cache.Len())
	}
}

// TestProvePanicRecovered: a panic inside the search must surface as an
// Unknown outcome on that goal (never cached), and the prover must remain
// usable afterwards.
func TestProvePanicRecovered(t *testing.T) {
	cache := NewCache(0)
	p := New(nil, DefaultOptions()).WithCache(cache)
	goal := logic.Imp(logic.P("Q", logic.Const("c0")), logic.P("Q", logic.Const("c0")))

	proveRoundHook = func() { panic("injected prover fault") }
	out := p.Prove(goal)
	proveRoundHook = nil

	if out.Result != Unknown {
		t.Fatalf("panicking search reported %v, want Unknown", out.Result)
	}
	if !strings.HasPrefix(out.Reason, "panic:") || !strings.Contains(out.Reason, "injected prover fault") {
		t.Fatalf("reason = %q, want a panic: reason", out.Reason)
	}
	if cache.Len() != 0 {
		t.Errorf("panic outcome was cached (%d entries)", cache.Len())
	}
	// The same prover instance recovers fully.
	if out := p.Prove(goal); out.Result != Valid {
		t.Errorf("prover unusable after a recovered panic: %v", out)
	}
}

// TestProveStatsPopulated pins the telemetry contract on a conclusive
// search: a goal that needs instantiation and theory reasoning reports
// nonzero counters and a wall time.
func TestProveStatsPopulated(t *testing.T) {
	x := logic.Var{Name: "x"}
	axioms := []logic.Formula{
		logic.All([]string{"x"}, logic.Imp(logic.P("P", x), logic.P("Q", logic.Fn("g", x)))),
		logic.P("P", logic.Const("c0")),
	}
	p := New(axioms, DefaultOptions())
	out := p.Prove(logic.P("Q", logic.Fn("g", logic.Const("c0"))))
	if out.Result != Valid {
		t.Fatalf("instantiation goal not proved: %v", out)
	}
	if out.Stats.Rounds == 0 || out.Stats.Instantiations == 0 || out.Stats.TheoryChecks == 0 {
		t.Errorf("stats under-populated on a proved goal: %+v", out.Stats)
	}
	if out.Stats.WallTime <= 0 {
		t.Errorf("wall time not recorded: %v", out.Stats.WallTime)
	}
}

// TestGoalTimeoutInFingerprint: provers with different GoalTimeout budgets
// must not share cache entries (a generous budget's Valid could otherwise
// mask a tight budget's Unknown, or vice versa).
func TestGoalTimeoutInFingerprint(t *testing.T) {
	cache := NewCache(0)
	goal := logic.Imp(logic.P("Q", logic.Const("c0")), logic.P("Q", logic.Const("c0")))
	optsA := DefaultOptions()
	optsA.GoalTimeout = time.Second
	optsB := DefaultOptions()
	optsB.GoalTimeout = 2 * time.Second
	pa := New(nil, optsA).WithCache(cache)
	pb := New(nil, optsB).WithCache(cache)
	if out := pa.Prove(goal); out.Result != Valid || out.CacheHit {
		t.Fatalf("first prove: %+v", out)
	}
	if out := pb.Prove(goal); out.CacheHit {
		t.Errorf("cache hit across different GoalTimeout budgets")
	}
	if out := pa.Prove(goal); !out.CacheHit {
		t.Errorf("cache miss for an identical prover configuration")
	}
}
