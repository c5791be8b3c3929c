package simplify

import (
	"context"
	"testing"
	"time"
)

// Regression tests for the transient-outcome cache bypass: an outcome
// produced under an already-done context must never enter the cache, even
// when the search raced its cancellation and concluded with a nominally
// deterministic reason (or never observed the cancellation at all, thanks
// to the throttled context polling).

func TestPreCanceledContextNotCached(t *testing.T) {
	c := NewCache(0)
	p := New(nil, DefaultOptions()).WithCache(c)
	goal := mustParse(t, "(OR p (NOT p))")

	// A tiny tautology can close before the throttled ticker ever polls the
	// context, so the search may well return Valid here — the guard must
	// refuse to cache it regardless.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.ProveContext(ctx, goal)
	if got := c.Len(); got != 0 {
		t.Fatalf("verdict minted under a canceled context was cached (Len=%d)", got)
	}

	// With the context healthy again the goal must be searched afresh, not
	// replayed, and only then become cacheable.
	healthy := p.Prove(goal)
	if healthy.CacheHit {
		t.Fatal("healthy Prove replayed a verdict from a canceled request")
	}
	if healthy.Result != Valid {
		t.Fatalf("tautology proved %s, want Valid", healthy.Result)
	}
	if !p.Prove(goal).CacheHit {
		t.Error("healthy verdict was not cached")
	}
}

func TestMidSearchCancellationNotReplayed(t *testing.T) {
	c := NewCache(0)
	p := New(triggerLoopAxioms(), divergentOptions(300*time.Millisecond)).WithCache(c)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	proveRoundHook = func() {
		rounds++
		if rounds == 2 {
			cancel()
		}
	}
	defer func() { proveRoundHook = nil }()

	out := p.ProveContext(ctx, unprovableGoal())
	if out.Result != Unknown {
		t.Fatalf("canceled divergent search returned %s, want Unknown", out.Result)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("canceled search cached %d outcome(s)", got)
	}

	// Healthy re-run: no replay of the truncated search. (It legitimately
	// runs to its wall-clock budget and stays uncacheable via its reason.)
	proveRoundHook = nil
	again := p.Prove(unprovableGoal())
	if again.CacheHit {
		t.Fatal("healthy re-run replayed the canceled search's outcome")
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("deadline outcome cached after re-run (Len=%d)", got)
	}
}
