package simplify

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

// Tests for the cross-goal lemma plumbing: the per-fingerprint pool's dedup
// and FIFO forgetting, the pool-count cap, end-to-end sharing between goals
// through a cache, and the in-search learned-DB forgetting pass.

func predClause(names ...string) logic.Clause {
	c := logic.Clause{}
	for _, n := range names {
		c.Lits = append(c.Lits, logic.Literal{Pred: logic.Pred{Name: n}})
	}
	return c
}

func TestLemmaPoolDedupAndForget(t *testing.T) {
	p := &lemmaPool{keys: map[string]bool{}}
	c := predClause("P0", "P1")
	if got := p.add([]logic.Clause{c, c}); got != 1 {
		t.Fatalf("adding a duplicate pair admitted %d, want 1", got)
	}
	if got := p.add([]logic.Clause{c}); got != 0 {
		t.Fatalf("re-adding an existing lemma admitted %d, want 0", got)
	}
	// Fill past the cap; the oldest entries are forgotten in FIFO order.
	const extra = 10
	for i := 0; i < maxLemmasPerPool+extra-1; i++ {
		p.add([]logic.Clause{predClause(fmt.Sprintf("Q%d", i))})
	}
	snap := p.snapshot()
	if len(snap) != maxLemmasPerPool {
		t.Fatalf("pool holds %d clauses, want cap %d", len(snap), maxLemmasPerPool)
	}
	if p.dropped != extra {
		t.Errorf("dropped = %d, want %d", p.dropped, extra)
	}
	if lemmaKey(snap[0]) == lemmaKey(c) {
		t.Error("oldest lemma survived FIFO forgetting")
	}
	// Dropped keys are reusable: the first clause can be admitted again.
	if got := p.add([]logic.Clause{c}); got != 1 {
		t.Errorf("re-adding a forgotten lemma admitted %d, want 1", got)
	}
}

func TestLemmaPoolCountCap(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < maxLemmaPools; i++ {
		if c.lemmaPoolFor(fmt.Sprintf("fp%d", i)) == nil {
			t.Fatalf("pool %d refused below the cap", i)
		}
	}
	if c.lemmaPoolFor("fp-overflow") != nil {
		t.Fatal("pool created beyond maxLemmaPools")
	}
	// Existing fingerprints still resolve to their pools.
	if c.lemmaPoolFor("fp0") == nil {
		t.Fatal("existing pool lost after the cap was reached")
	}
	if st := c.LemmaStats(); st.Pools != maxLemmaPools {
		t.Errorf("Pools = %d, want %d", st.Pools, maxLemmaPools)
	}
}

// TestLemmaSharingAcrossGoals drives a cache-attached prover over corpus
// formulas until the shared pool is populated, then checks a fresh goal
// imports those lemmas — including from a different Prover instance sharing
// the same cache and fingerprint.
func TestLemmaSharingAcrossGoals(t *testing.T) {
	cache := NewCache(0)
	p := New(nil, DefaultOptions()).WithCache(cache)
	r := &diffRNG{s: 0x5eed5eed5eed5eed}
	for i := 0; i < 400; i++ {
		p.Prove(genGroundFormula(r, 2+r.intn(2)))
	}
	st := cache.LemmaStats()
	if st.Pools == 0 || st.Lemmas == 0 {
		t.Fatalf("no lemmas pooled after 400 corpus goals: %+v", st)
	}
	// A search-requiring goal on the same prover imports the pool.
	out := p.Prove(theoryConflictGoal(4))
	if out.Result != Valid {
		t.Fatalf("theory chain goal: %v (%q), want Valid", out.Result, out.Reason)
	}
	if out.Stats.LemmasImported == 0 {
		t.Error("same-prover goal imported no pooled lemmas")
	}
	// A different Prover with identical axioms and options shares the
	// fingerprint, hence the pool.
	q := New(nil, DefaultOptions()).WithCache(cache)
	out = q.Prove(theoryConflictGoal(5))
	if out.Result != Valid {
		t.Fatalf("cross-prover goal: %v (%q), want Valid", out.Result, out.Reason)
	}
	if out.Stats.LemmasImported == 0 {
		t.Error("cross-prover goal imported no pooled lemmas")
	}
}

// TestReduceDBForgetting drives the learned-DB forgetting pass directly: a
// search whose arena is over its cap forgets the low-activity half of the
// long clauses at the next restart, always keeping binaries.
func TestReduceDBForgetting(t *testing.T) {
	tt := logic.NewTermTable()
	at := newAtomTable()
	lit := func(i int) ilit {
		return at.internLit(logic.Literal{Pred: logic.Pred{Name: fmt.Sprintf("P%d", i)}}, tt)
	}
	// Intern the alphabet first so newSearch2 sizes its arrays once.
	var lits []ilit
	for i := 0; i < 8; i++ {
		lits = append(lits, lit(i))
	}
	problem := [][]ilit{{lits[0], lits[1]}}
	eg := newEgraph2(tt)
	ar := newArithSolver2(tt)
	s := newSearch2(tt, at, problem, []bool{false}, eg, ar, 1<<20, &ticker{})

	// Two binaries (always kept) and eight ternaries with rising activity.
	s.importLearned([]ilit{lits[0], lits[2]}, false, 0)
	s.importLearned([]ilit{lits[1], lits[3]}, false, 0)
	for i := 0; i < 8; i++ {
		s.importLearned([]ilit{lits[i%8], lits[(i+1)%8], lits[(i+2)%8]}, false, float64(i))
	}
	s.maxLearned = 4
	s.restartNow()

	if s.forgotten != 4 {
		t.Fatalf("forgot %d clauses, want the low-activity half (4)", s.forgotten)
	}
	binaries := 0
	for i, cl := range s.learned {
		if len(cl) == 2 {
			binaries++
		}
		if len(cl) > 2 && s.lAct[i] < 4 {
			t.Errorf("low-activity ternary (act=%v) survived forgetting", s.lAct[i])
		}
	}
	if binaries != 2 {
		t.Errorf("%d binary lemmas survived, want both", binaries)
	}
	// The rebuilt watch lists cover exactly the surviving clauses: every
	// cref is in range and every length>=2 clause is watched twice.
	watched := map[int32]int{}
	for _, ws := range s.watches {
		for _, cr := range ws {
			watched[cr]++
		}
	}
	want := len(problem) + len(s.learned)
	if len(watched) != want {
		t.Fatalf("%d distinct clauses watched, want %d", len(watched), want)
	}
	for cr, n := range watched {
		if n != 2 {
			t.Errorf("cref %d watched %d times, want 2", cr, n)
		}
		if int(cr) >= s.nProblem+len(s.learned) {
			t.Errorf("dangling watch cref %d past the compacted arena", cr)
		}
	}
}
