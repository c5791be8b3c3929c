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
// full refutation pipeline: clausify, trichotomy splits, CDCL, theory
// checks.
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

// BenchmarkConflictLearning measures the CDCL engine on corpus formulas
// whose refutation demonstrably learns clauses (scanned from the
// differential corpus at a fixed seed, so the workload is deterministic).
func BenchmarkConflictLearning(b *testing.B) {
	p := New(nil, DefaultOptions())
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
