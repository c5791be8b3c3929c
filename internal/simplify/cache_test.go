package simplify

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logic"
)

func TestProveCacheHit(t *testing.T) {
	p := New(nil, DefaultOptions()).WithCache(NewCache(0))
	goal := mustParse(t, "(OR p (NOT p))")

	first := p.Prove(goal)
	if first.CacheHit {
		t.Error("first Prove reported a cache hit")
	}
	second := p.Prove(goal)
	if !second.CacheHit {
		t.Error("second Prove of an identical formula missed the cache")
	}
	// Everything but the hit marker must match the original search.
	second.CacheHit = false
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached outcome differs: first %+v, second %+v", first, second)
	}
	if s := p.Cache().Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestProveCacheAlphaEquivalence(t *testing.T) {
	// The cache keys goals by logic.CanonicalString, so goals identical up
	// to bound-variable names share one entry.
	p := New(nil, DefaultOptions()).WithCache(NewCache(0))
	a := p.Prove(mustParse(t, "(FORALL (x) (IMPLIES (p x) (p x)))"))
	b := p.Prove(mustParse(t, "(FORALL (y) (IMPLIES (p y) (p y)))"))
	if a.CacheHit {
		t.Error("first goal reported a cache hit")
	}
	if !b.CacheHit {
		t.Error("alpha-equivalent goal missed the cache")
	}
	if a.Result != b.Result {
		t.Errorf("results differ: %s vs %s", a.Result, b.Result)
	}
}

func TestProveCacheDistinguishesAxioms(t *testing.T) {
	// Two provers with different axiom bases may share one cache: the key
	// includes the axiom fingerprint, so "p" proven under axiom p must not
	// leak into the empty-axioms prover.
	shared := NewCache(0)
	withAxiom := New([]logic.Formula{mustParse(t, "p")}, DefaultOptions()).WithCache(shared)
	bare := New(nil, DefaultOptions()).WithCache(shared)

	if out := withAxiom.Prove(mustParse(t, "p")); out.Result != Valid {
		t.Fatalf("axiom p should prove p, got %s", out)
	}
	out := bare.Prove(mustParse(t, "p"))
	if out.CacheHit {
		t.Error("prover with different axioms hit the other prover's entry")
	}
	if out.Result != Unknown {
		t.Errorf("bare prover proved p: %s", out)
	}
}

func TestProveCacheDistinguishesOptions(t *testing.T) {
	shared := NewCache(0)
	a := New(nil, DefaultOptions()).WithCache(shared)
	opts := DefaultOptions()
	opts.MaxRounds++
	b := New(nil, opts).WithCache(shared)

	goal := "(OR p (NOT p))"
	a.Prove(mustParse(t, goal))
	if out := b.Prove(mustParse(t, goal)); out.CacheHit {
		t.Error("prover with different search options hit the other configuration's entry")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(1)
	p := New(nil, DefaultOptions()).WithCache(c)
	p.Prove(mustParse(t, "(OR p (NOT p))"))
	p.Prove(mustParse(t, "(OR q (NOT q))")) // evicts the first entry
	if got := c.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if out := p.Prove(mustParse(t, "(OR p (NOT p))")); out.CacheHit {
		t.Error("evicted entry still served")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(2)
	p := New(nil, DefaultOptions()).WithCache(c)
	pGoal := mustParse(t, "(OR p (NOT p))")
	qGoal := mustParse(t, "(OR q (NOT q))")
	p.Prove(pGoal)
	p.Prove(qGoal)
	p.Prove(pGoal)                          // touch p: q is now least recently used
	p.Prove(mustParse(t, "(OR r (NOT r))")) // evicts q
	if out := p.Prove(pGoal); !out.CacheHit {
		t.Error("recently used entry was evicted")
	}
	if out := p.Prove(qGoal); out.CacheHit {
		t.Error("least recently used entry survived eviction")
	}
}

// TestProveConcurrentSharedCache exercises concurrent Prove calls on one
// prover and one cache (run under -race) and checks the verdicts match a
// serial, uncached prover's.
func TestProveConcurrentSharedCache(t *testing.T) {
	goals := []string{
		"(OR p (NOT p))",
		"(IMPLIES (AND (EQ a b) (EQ b c)) (EQ (f a) (f c)))",
		"(IMPLIES (AND (> x 0) (>= y x)) (> y 0))",
		"(FORALL (x) (IMPLIES (p x) (p x)))",
		"p",
		"(IMPLIES (EQ (f a) (f b)) (EQ a b))",
	}
	serial := New(nil, DefaultOptions())
	want := make([]Result, len(goals))
	for i, g := range goals {
		want[i] = serial.Prove(mustParse(t, g)).Result
	}

	shared := New(nil, DefaultOptions()).WithCache(NewCache(0))
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(goals))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, g := range goals {
				f, err := logic.ParseFormula(g)
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := shared.Prove(f).Result; got != want[i] {
					errs <- "goal " + g + ": got " + got.String() + ", want " + want[i].String()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s := shared.Cache().Stats(); s.Hits == 0 {
		t.Error("no cache hits across concurrent repeated goals")
	}
}

// holdFirstSearch parks the first search to reach an instantiation round
// until release is closed; every later search passes straight through.
func holdFirstSearch(t *testing.T) (entered <-chan struct{}, release chan struct{}) {
	in := make(chan struct{})
	release = make(chan struct{})
	var held atomic.Bool
	proveRoundHook = func() {
		if held.CompareAndSwap(false, true) {
			close(in)
			<-release
		}
	}
	t.Cleanup(func() { proveRoundHook = nil })
	return in, release
}

// waitCoalesced spins until n lookups have joined an in-flight search.
func waitCoalesced(c *Cache, n uint64) {
	for c.Stats().Coalesced != n {
		runtime.Gosched()
	}
}

// TestProveCoalescesConcurrentSearches: N concurrent proofs of one goal on
// a shared cache do one search. The others wait for it and share its stored
// outcome. A shared search is not a cache hit: the outcomes marked CacheHit
// number exactly the cache's Hits.
func TestProveCoalescesConcurrentSearches(t *testing.T) {
	const n = 8
	c := NewCache(0)
	p := New(unsatAxioms(), DefaultOptions()).WithCache(c)
	goal := logic.P("R", logic.Const("c"))
	entered, release := holdFirstSearch(t)
	outs := make([]Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = p.Prove(goal)
		}(i)
	}
	<-entered
	waitCoalesced(c, n-1)
	close(release)
	wg.Wait()

	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != n-1 || s.Hits != 0 {
		t.Fatalf("stats %+v, want exactly 1 miss (the search) and %d coalesced", s, n-1)
	}
	hits := 0
	for i, out := range outs {
		if out.Result != Valid {
			t.Errorf("caller %d: %v (%q), want Valid", i, out.Result, out.Reason)
		}
		if out.CacheHit {
			hits++
		}
	}
	if uint64(hits) != s.Hits {
		t.Errorf("%d outcomes marked CacheHit, but the cache counts %d hits", hits, s.Hits)
	}
}

// TestProveCanceledWaiterStopsWaiting: a caller whose context ends while it
// waits on another caller's search stops waiting and proves under its own
// context, returning a canceled Unknown; nothing transient is stored.
func TestProveCanceledWaiterStopsWaiting(t *testing.T) {
	c := NewCache(0)
	p := New(triggerLoopAxioms(), divergentOptions(time.Minute)).WithCache(c)
	entered, release := holdFirstSearch(t)
	leaderCtx, stopLeader := context.WithCancel(context.Background())
	defer stopLeader()
	leader := make(chan Outcome, 1)
	go func() { leader <- p.ProveContext(leaderCtx, unprovableGoal()) }()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan Outcome, 1)
	go func() { waiter <- p.ProveContext(ctx, unprovableGoal()) }()
	waitCoalesced(c, 1)
	cancel()
	// The leader is still parked, so the waiter must return on its own.
	if out := <-waiter; out.Result != Unknown || out.Reason != ReasonCanceled || out.CacheHit {
		t.Errorf("canceled waiter: %v (%q) hit=%t, want a canceled Unknown", out.Result, out.Reason, out.CacheHit)
	}
	stopLeader()
	close(release)
	if out := <-leader; !TransientReason(out.Reason) {
		t.Fatalf("divergent leader: %v (%q), want a transient Unknown", out.Result, out.Reason)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("%d transient outcome(s) stored", got)
	}
}

// TestProveWaiterReprovesWhenLeaderUnstorable: when the search a caller
// waited on may not be stored (its caller's context ended), the waiter runs
// its own search, and that outcome is stored.
func TestProveWaiterReprovesWhenLeaderUnstorable(t *testing.T) {
	c := NewCache(0)
	p := New(unsatAxioms(), DefaultOptions()).WithCache(c)
	goal := logic.P("R", logic.Const("c"))
	entered, release := holdFirstSearch(t)
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan Outcome, 1)
	go func() { leader <- p.ProveContext(ctx, goal) }()
	<-entered

	waiter := make(chan Outcome, 1)
	go func() { waiter <- p.Prove(goal) }()
	waitCoalesced(c, 1)
	cancel()
	close(release)
	<-leader
	if out := <-waiter; out.Result != Valid || out.CacheHit {
		t.Fatalf("waiter: %v (%q) hit=%t, want its own fresh Valid", out.Result, out.Reason, out.CacheHit)
	}
	if out := p.Prove(goal); !out.CacheHit {
		t.Error("the waiter's own outcome was not stored")
	}
}
