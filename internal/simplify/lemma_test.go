package simplify

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

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
	s := newSearch2(tt, at, problem, eg, ar, 1<<20, &ticker{})

	// Two binaries (always kept) and eight ternaries with rising activity.
	s.importLearned([]ilit{lits[0], lits[2]}, 0)
	s.importLearned([]ilit{lits[1], lits[3]}, 0)
	for i := 0; i < 8; i++ {
		s.importLearned([]ilit{lits[i%8], lits[(i+1)%8], lits[(i+2)%8]}, float64(i))
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
