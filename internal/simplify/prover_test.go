package simplify

import (
	"testing"

	"repro/internal/logic"
)

func mustParse(t *testing.T, s string) logic.Formula {
	t.Helper()
	f, err := logic.ParseFormula(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return f
}

func prove(t *testing.T, axioms []string, goal string) Outcome {
	t.Helper()
	var axs []logic.Formula
	for _, a := range axioms {
		axs = append(axs, mustParse(t, a))
	}
	p := New(axs, DefaultOptions())
	return p.Prove(mustParse(t, goal))
}

func wantValid(t *testing.T, axioms []string, goal string) {
	t.Helper()
	out := prove(t, axioms, goal)
	if out.Result != Valid {
		t.Errorf("goal %q: got %s, want Valid", goal, out)
	}
}

func wantUnknown(t *testing.T, axioms []string, goal string) {
	t.Helper()
	out := prove(t, axioms, goal)
	if out.Result != Unknown {
		t.Errorf("goal %q: got %s, want Unknown", goal, out)
	}
}

func TestProveTautology(t *testing.T) {
	wantValid(t, nil, "(OR p (NOT p))")
	wantValid(t, nil, "(IMPLIES p p)")
	wantValid(t, nil, "(IMPLIES (AND p q) p)")
}

func TestProveNonTautology(t *testing.T) {
	wantUnknown(t, nil, "p")
	wantUnknown(t, nil, "(IMPLIES p q)")
}

func TestProveEUF(t *testing.T) {
	wantValid(t, nil, "(IMPLIES (AND (EQ a b) (EQ b c)) (EQ (f a) (f c)))")
	wantValid(t, nil, "(IMPLIES (EQ a b) (EQ (g (f a)) (g (f b))))")
	wantUnknown(t, nil, "(IMPLIES (EQ (f a) (f b)) (EQ a b))")
}

func TestProveArith(t *testing.T) {
	wantValid(t, nil, "(IMPLIES (AND (> x 0) (>= y x)) (> y 0))")
	wantValid(t, nil, "(IMPLIES (> x 0) (>= x 1))") // integer semantics
	wantUnknown(t, nil, "(IMPLIES (> x 0) (> x 1))")
	wantValid(t, nil, "(IMPLIES (AND (< x y) (< y z)) (< x z))")
}

func TestProveNegationArith(t *testing.T) {
	// The pos qualifier's third case clause: -E1 is positive when E1 is
	// negative.
	wantValid(t, nil, "(IMPLIES (< x 0) (> (~ x) 0))")
	wantValid(t, nil, "(IMPLIES (> x 0) (< (~ x) 0))")
}

func TestProvePosMultiplication(t *testing.T) {
	// The paper's flagship obligation (section 4.2): the product of two
	// positives is positive, via the multiplication sign axioms.
	wantValid(t, nil, "(IMPLIES (AND (> x 0) (> y 0)) (> (* x y) 0))")
}

func TestProveNegMultiplication(t *testing.T) {
	wantValid(t, nil, "(IMPLIES (AND (< x 0) (< y 0)) (> (* x y) 0))")
	wantValid(t, nil, "(IMPLIES (AND (> x 0) (< y 0)) (< (* x y) 0))")
}

func TestProveNonzeroMultiplication(t *testing.T) {
	// Needs trichotomy case splits: x != 0 means x < 0 or x > 0.
	wantValid(t, nil, "(IMPLIES (AND (NEQ x 0) (NEQ y 0)) (NEQ (* x y) 0))")
}

func TestRefutePosSubtraction(t *testing.T) {
	// The paper's deliberately broken rule (section 2.1.3): the difference
	// of two positives need not be positive. The prover must NOT prove it.
	wantUnknown(t, nil, "(IMPLIES (AND (> x 0) (> y 0)) (> (- x y) 0))")
}

func TestProveSumOfPositives(t *testing.T) {
	wantValid(t, nil, "(IMPLIES (AND (> x 0) (> y 0)) (> (+ x y) 0))")
}

func TestProveWithQuantifiedAxiom(t *testing.T) {
	wantValid(t,
		[]string{"(FORALL (x) (EQ (f x) x))"},
		"(EQ (f a) a)")
	wantValid(t,
		[]string{"(FORALL (x) (EQ (f x) x))"},
		"(EQ (f (f a)) a)")
}

func TestProveQuantifiedImplicationAxiom(t *testing.T) {
	wantValid(t,
		[]string{"(FORALL (x) (IMPLIES (p x) (q x)))", "(p a)"},
		"(q a)")
	wantUnknown(t,
		[]string{"(FORALL (x) (IMPLIES (p x) (q x)))", "(q a)"},
		"(p a)")
}

func TestProveSelectStore(t *testing.T) {
	selectStoreAxioms := []string{
		"(FORALL (m k v) (EQ (select (store m k v) k) v))",
		"(FORALL (m k v k2) (OR (EQ k2 k) (EQ (select (store m k v) k2) (select m k2))))",
	}
	wantValid(t, selectStoreAxioms, "(EQ (select (store m0 a 5) a) 5)")
	wantValid(t, selectStoreAxioms,
		"(IMPLIES (NEQ b a) (EQ (select (store m0 a 5) b) (select m0 b)))")
	// Two-level store: read through an unrelated write.
	wantValid(t, selectStoreAxioms,
		"(IMPLIES (AND (NEQ b a) (NEQ b c)) (EQ (select (store (store m0 a 5) c 7) b) (select m0 b)))")
	wantUnknown(t, selectStoreAxioms, "(EQ (select (store m0 a 5) b) 5)")
}

func TestProveChainedInstantiation(t *testing.T) {
	// Requires two instantiation rounds: g(a) appears only after f's axiom
	// fires.
	wantValid(t,
		[]string{
			"(FORALL (x) (EQ (f x) (g x)))",
			"(FORALL (x) (EQ (g x) c))",
		},
		"(EQ (f a) c)")
}

func TestProveExplicitTriggers(t *testing.T) {
	wantValid(t,
		[]string{"(FORALL (x) (PATS (f x)) (> (f x) 0))"},
		"(> (f a) 0)")
}

func TestProveCaseSplit(t *testing.T) {
	// (a || b), a => c, b => c |- c requires branching.
	wantValid(t,
		[]string{"(OR p q)", "(IMPLIES p r)", "(IMPLIES q r)"},
		"r")
}

func TestProveIffGoal(t *testing.T) {
	wantValid(t, []string{"p"}, "(IFF p p)")
	wantValid(t, nil, "(IFF (AND p q) (AND q p))")
}

func TestProvePredicateCongruence(t *testing.T) {
	wantValid(t, nil, "(IMPLIES (AND (p a) (EQ a b)) (p b))")
	wantValid(t, nil, "(IMPLIES (AND (NOT (p a)) (EQ a b)) (NOT (p b)))")
}

func TestProveMixedEUFArith(t *testing.T) {
	// EUF -> LA propagation: f(a) = f(b) via a = b, then arithmetic on f.
	wantValid(t, nil,
		"(IMPLIES (AND (EQ a b) (> (f a) 0)) (> (f b) 0))")
	// LA on a term pinned to an integer through the e-graph.
	wantValid(t, nil,
		"(IMPLIES (AND (EQ (f a) 5) (EQ a b)) (> (f b) 4))")
}

func TestProverOutcomeStats(t *testing.T) {
	out := prove(t, []string{"(FORALL (x) (EQ (f x) x))"}, "(EQ (f a) a)")
	if out.Result != Valid {
		t.Fatalf("got %s", out)
	}
	if out.Stats.Rounds < 1 || out.Stats.GroundClauses == 0 {
		t.Errorf("stats not populated: %+v", out)
	}
}

func TestProverBudgetExhaustion(t *testing.T) {
	// A looping axiom f(x) -> f(f(x)) generates unbounded instances; with no
	// contradiction available the prover must stop at its budget.
	p := New([]logic.Formula{
		mustParse(t, "(FORALL (x) (PATS (f x)) (EQ (f (f x)) (f x)))"),
	}, Options{MaxRounds: 3, MaxInstances: 50})
	out := p.Prove(mustParse(t, "(NEQ (f a) (f a))"))
	// The goal is actually false; result must be Unknown, not a hang.
	if out.Result != Unknown {
		t.Errorf("got %s, want Unknown", out)
	}
}

func TestProveNullDisequality(t *testing.T) {
	// The nonnull shape: address-of is never NULL.
	wantValid(t,
		[]string{"(FORALL (l) (NEQ (addrOf l) NULL))"},
		"(NEQ (addrOf v) NULL)")
	wantUnknown(t,
		[]string{"(FORALL (l) (NEQ (addrOf l) NULL))"},
		"(NEQ (deref v) NULL)")
}

func TestProveDisjunctiveInvariant(t *testing.T) {
	// unique-style invariant: v = NULL or p(v); establishing with NULL.
	wantValid(t, nil, "(IMPLIES (EQ v NULL) (OR (EQ v NULL) (p v)))")
	wantValid(t, nil, "(IMPLIES (p v) (OR (EQ v NULL) (p v)))")
}

func TestProveMultiPatternTrigger(t *testing.T) {
	// A clause whose variables are only covered by two separate subterms.
	wantValid(t,
		[]string{"(FORALL (x y) (IMPLIES (AND (p x) (q y)) (r x y)))", "(p a)", "(q b)"},
		"(r a b)")
}

func TestCounterExampleOnUnknown(t *testing.T) {
	p := New(nil, DefaultOptions())
	out := p.Prove(mustParse(t, "(IMPLIES (AND (> x 0) (> y 0)) (> (- x y) 0))"))
	if out.Result != Unknown {
		t.Fatalf("got %s", out)
	}
	if len(out.CounterExample) == 0 {
		t.Fatal("no counterexample captured")
	}
	// The countermodel must assert the hypotheses and the negated goal.
	joined := ""
	for _, l := range out.CounterExample {
		joined += l + "\n"
	}
	for _, want := range []string{"x", "y"} {
		if !containsStr(joined, want) {
			t.Errorf("counterexample lacks %q:\n%s", want, joined)
		}
	}
}

func TestNoCounterExampleOnValid(t *testing.T) {
	p := New(nil, DefaultOptions())
	out := p.Prove(mustParse(t, "(IMPLIES (> x 0) (>= x 1))"))
	if out.Result != Valid {
		t.Fatalf("got %s", out)
	}
	if len(out.CounterExample) != 0 {
		t.Errorf("valid result carries a counterexample: %v", out.CounterExample)
	}
}

func containsStr(haystack, needle string) bool {
	return len(needle) == 0 || len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}
