package simplify

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
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

// TestCachePutRefreshesPresentKey pins the put-on-present-key contract: the
// value and recency are refreshed in place, with no eviction counted and no
// length change.
func TestCachePutRefreshesPresentKey(t *testing.T) {
	c := NewCache(2)
	c.put("k1", Outcome{Result: Valid})
	c.put("k2", Outcome{Result: Unknown, Reason: "first"})
	c.put("k1", Outcome{Result: Unknown, Reason: "refreshed"})
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("re-put of a present key counted %d eviction(s)", s.Evictions)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after re-put, want 2", got)
	}

	// The re-put moved k1 to the front, so a third key evicts k2.
	c.put("k3", Outcome{Result: Valid})
	if out, ok := c.get("k1", nil); !ok || out.Reason != "refreshed" {
		t.Errorf("k1 = (%+v, %v), want the refreshed value present", out, ok)
	}
	if _, ok := c.get("k2", nil); ok {
		t.Error("least-recently-used key survived eviction")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want exactly 1", s.Evictions)
	}
}

// TestCacheStatsConsistentUnderConcurrentOverlap hammers one cache with
// concurrent gets and puts over overlapping keys. Capacity covers every
// distinct key, so any eviction could only come from a present-key re-put
// being miscounted; and every get must land in exactly one of Hits/Misses.
// Run under -race this also gates the counter updates themselves.
func TestCacheStatsConsistentUnderConcurrentOverlap(t *testing.T) {
	const (
		keys         = 32
		workers      = 8
		opsPerWorker = 400
	)
	c := NewCache(keys)
	var gets atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := "k" + strconv.Itoa((w*7+i)%keys)
				if i%2 == 0 {
					c.put(k, Outcome{Result: Valid})
				} else {
					c.get(k, nil)
					gets.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	if s.Evictions != 0 {
		t.Errorf("evictions = %d with capacity >= distinct keys: a present-key re-put evicted", s.Evictions)
	}
	if total := s.Hits + s.Misses; total != gets.Load() {
		t.Errorf("Hits+Misses = %d, want %d (one of each per get)", total, gets.Load())
	}
	if got := c.Len(); got != keys {
		t.Errorf("Len = %d, want %d", got, keys)
	}
}
