package simplify

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

// Prover microbenchmarks. Run with -benchmem: the allocation columns track
// the search engine's per-goal garbage alongside its time.

// BenchmarkRefute proves a fixed slice of the differential corpus — the
// ground EUF+LA formulas the checker's obligations look like — measuring the
// full refutation pipeline: clausify, prefilter, trichotomy splits, CDCL,
// theory checks.
func BenchmarkRefute(b *testing.B) {
	r := &diffRNG{s: groundCorpusSeed}
	forms := make([]logic.Formula, 128)
	for i := range forms {
		forms[i] = genGroundFormula(r, 2+r.intn(2))
	}
	p := New(nil, DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Prove(forms[i%len(forms)])
	}
}

// theoryConflictGoal builds an obligation whose refutation needs the theory
// stack end to end: an equality chain x0=x1=...=xn forces n congruence
// merges before f(x0) and f(xn) share a class, and the f(x0) > 0 hypothesis
// must then flow through the EUF->LA bridge to discharge f(xn) > 0.
func theoryConflictGoal(n int) logic.Formula {
	xs := make([]logic.Term, n+1)
	for i := range xs {
		xs[i] = logic.Const(fmt.Sprintf("x%d", i))
	}
	hyps := make([]logic.Formula, 0, n+1)
	for i := 0; i < n; i++ {
		hyps = append(hyps, logic.Eq(xs[i], xs[i+1]))
	}
	hyps = append(hyps, logic.Gt(logic.Fn("f", xs[0]), logic.Num(0)))
	return logic.Imp(logic.Conj(hyps...), logic.Gt(logic.Fn("f", xs[n]), logic.Num(0)))
}

// BenchmarkTheoryConflict measures theory-conflict detection as the asserted
// equality chain grows. The incremental theory solvers assert each literal
// once and roll back by trail marks, so the cost should track chain length,
// not chain length times branch count.
func BenchmarkTheoryConflict(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		goal := theoryConflictGoal(n)
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			p := New(nil, DefaultOptions())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := p.Prove(goal)
				if out.Result != Valid {
					b.Fatalf("goal unexpectedly %v (%s)", out.Result, out.Reason)
				}
			}
		})
	}
}

// BenchmarkPrefilterOnly prices the prefilter tiers in isolation: every goal
// in the corpus is discharged by one of the three tiers, so the "on"
// sub-benchmark measures pure prefilter cost (the engine is never built) and
// the "off" sub-benchmark is what the same goals cost through the full CDCL
// pipeline. The ratio is the per-goal saving the prefilter buys on the easy
// majority; miss/on vs miss/off bounds its overhead on goals it cannot
// discharge.
func BenchmarkPrefilterOnly(b *testing.B) {
	a := logic.Const("a")
	hits := []logic.Formula{
		// Tier 1: fully interpreted ground arithmetic.
		logic.Eq(logic.Fn("*", logic.Fn("+", logic.Num(1), logic.Num(2)), logic.Num(3)), logic.Num(9)),
		// Tier 2: purely propositional unit conflict.
		logic.Imp(logic.P("P", a), logic.P("P", a)),
		// Tier 3: disjoint bounds, then integer !=-tightening.
		logic.Not{F: logic.Conj(logic.Ge(a, logic.Num(1)), logic.Le(a, logic.Num(0)))},
		logic.Not{F: logic.Conj(
			logic.Ge(a, logic.Num(0)), logic.Le(a, logic.Num(1)),
			logic.Ne(a, logic.Num(0)), logic.Ne(a, logic.Num(1)))},
	}
	// A theory-mixing goal no tier can see through: EUF congruence is needed,
	// so it always falls to the engine.
	miss := []logic.Formula{theoryConflictGoal(4)}

	for _, tc := range []struct {
		name  string
		goals []logic.Formula
		off   bool
	}{
		{"hit/on", hits, false},
		{"hit/off", hits, true},
		{"miss/on", miss, false},
		{"miss/off", miss, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.DisablePrefilter = tc.off
			p := New(nil, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := p.Prove(tc.goals[i%len(tc.goals)])
				if out.Result != Valid {
					b.Fatalf("goal unexpectedly %v (%s)", out.Result, out.Reason)
				}
			}
		})
	}
}

// BenchmarkConflictLearning measures the CDCL engine on corpus formulas
// whose refutation demonstrably learns clauses (scanned from the
// differential corpus at a fixed seed, so the workload is deterministic).
// The prefilter is off: the point is the search engine, not the tiers in
// front of it.
func BenchmarkConflictLearning(b *testing.B) {
	opts := DefaultOptions()
	opts.DisablePrefilter = true
	p := New(nil, opts)
	r := &diffRNG{s: 0x1ea51e55}
	var forms []logic.Formula
	for i := 0; i < 4000 && len(forms) < 32; i++ {
		f := genGroundFormula(r, 3)
		if out := p.Prove(f); out.Result == Valid && out.Stats.LearnedClauses > 0 {
			forms = append(forms, f)
		}
	}
	if len(forms) == 0 {
		b.Fatal("corpus scan found no clause-learning goals")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := p.Prove(forms[i%len(forms)])
		if out.Result != Valid {
			b.Fatalf("goal unexpectedly %v (%s)", out.Result, out.Reason)
		}
	}
}
