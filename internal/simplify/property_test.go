package simplify

import (
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

// These property tests check the prover's soundness empirically: whenever
// the prover reports Valid for a ground formula over integer constants, the
// formula must evaluate to true under every sampled assignment of its
// uninterpreted constants. (The converse — completeness — is not claimed;
// Unknown verdicts are always acceptable.)

// groundGen generates random ground formulas over a fixed set of
// uninterpreted integer constants a, b, c and function symbol f.
type groundGen struct{}

func (g *groundGen) next(seed *int64) int64 {
	*seed = *seed*6364136223846793005 + 1442695040888963407
	v := *seed >> 33
	if v < 0 {
		v = -v
	}
	return v
}

var groundConsts = []string{"a", "b", "c"}

func (g *groundGen) term(seed *int64, depth int) logic.Term {
	switch g.next(seed) % 5 {
	case 0:
		return logic.Num(g.next(seed)%7 - 3)
	case 1:
		return logic.Const(groundConsts[g.next(seed)%3])
	case 2:
		if depth <= 0 {
			return logic.Const("a")
		}
		return logic.Add(g.term(seed, depth-1), g.term(seed, depth-1))
	case 3:
		if depth <= 0 {
			return logic.Num(1)
		}
		return logic.Sub(g.term(seed, depth-1), g.term(seed, depth-1))
	default:
		if depth <= 0 {
			return logic.Const("b")
		}
		return logic.Fn("f", g.term(seed, depth-1))
	}
}

func (g *groundGen) formula(seed *int64, depth int) logic.Formula {
	if depth <= 0 {
		ops := []logic.CmpOp{logic.EqOp, logic.NeOp, logic.LtOp, logic.LeOp, logic.GtOp, logic.GeOp}
		op := ops[g.next(seed)%int64(len(ops))]
		return logic.Cmp{Op: op, L: g.term(seed, 2), R: g.term(seed, 2)}
	}
	switch g.next(seed) % 5 {
	case 0:
		return logic.Conj(g.formula(seed, depth-1), g.formula(seed, depth-1))
	case 1:
		return logic.Disj(g.formula(seed, depth-1), g.formula(seed, depth-1))
	case 2:
		return logic.Not{F: g.formula(seed, depth-1)}
	case 3:
		return logic.Imp(g.formula(seed, depth-1), g.formula(seed, depth-1))
	default:
		return logic.Cmp{Op: logic.EqOp, L: g.term(seed, 2), R: g.term(seed, 2)}
	}
}

// model assigns integer values to the uninterpreted constants and a
// deterministic interpretation to f.
type model struct {
	consts map[string]int64
}

func (m model) evalTerm(t logic.Term) int64 {
	switch t := t.(type) {
	case logic.IntLit:
		return t.Value
	case logic.App:
		switch t.Fn {
		case "+":
			return m.evalTerm(t.Args[0]) + m.evalTerm(t.Args[1])
		case "-":
			if len(t.Args) == 2 {
				return m.evalTerm(t.Args[0]) - m.evalTerm(t.Args[1])
			}
			return -m.evalTerm(t.Args[0])
		case "~":
			return -m.evalTerm(t.Args[0])
		case "*":
			return m.evalTerm(t.Args[0]) * m.evalTerm(t.Args[1])
		case "f":
			// An arbitrary but fixed unary function.
			x := m.evalTerm(t.Args[0])
			return 3*x + 1
		default:
			if v, ok := m.consts[t.Fn]; ok {
				return v
			}
			return 0
		}
	}
	return 0
}

func (m model) evalFormula(f logic.Formula) bool {
	switch f := f.(type) {
	case logic.TrueF:
		return true
	case logic.FalseF:
		return false
	case logic.Cmp:
		l, r := m.evalTerm(f.L), m.evalTerm(f.R)
		switch f.Op {
		case logic.EqOp:
			return l == r
		case logic.NeOp:
			return l != r
		case logic.LtOp:
			return l < r
		case logic.LeOp:
			return l <= r
		case logic.GtOp:
			return l > r
		case logic.GeOp:
			return l >= r
		}
	case logic.Not:
		return !m.evalFormula(f.F)
	case logic.And:
		for _, g := range f.Fs {
			if !m.evalFormula(g) {
				return false
			}
		}
		return true
	case logic.Or:
		for _, g := range f.Fs {
			if m.evalFormula(g) {
				return true
			}
		}
		return false
	case logic.Implies:
		return !m.evalFormula(f.Hyp) || m.evalFormula(f.Concl)
	case logic.Iff:
		return m.evalFormula(f.L) == m.evalFormula(f.R)
	}
	return false
}

// TestProverSoundnessProperty: Valid implies true in every sampled model.
func TestProverSoundnessProperty(t *testing.T) {
	gen := &groundGen{}
	proved, disproved := 0, 0
	check := func(seed int64) bool {
		s := seed
		f := gen.formula(&s, 3)
		p := New(nil, Options{MaxRounds: 4, MaxInstances: 2000, MaxDecisions: 20000, NonlinearAxioms: true})
		out := p.Prove(f)
		if out.Result != Valid {
			return true // Unknown is always acceptable
		}
		proved++
		// Sample models.
		for i := int64(0); i < 40; i++ {
			ms := seed + i*7919
			m := model{consts: map[string]int64{}}
			for _, c := range groundConsts {
				m.consts[c] = gen.next(&ms)%11 - 5
			}
			if !m.evalFormula(f) {
				disproved++
				t.Logf("UNSOUND: proved %s but false under %v", f, m.consts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if proved < 20 {
		t.Logf("note: only %d of 400 random formulas were proved (generator is adversarial)", proved)
	}
}

// TestArithSoundnessProperty: if Fourier-Motzkin reports inconsistent, no
// sampled small-integer assignment satisfies all constraints.
func TestArithSoundnessProperty(t *testing.T) {
	gen := &groundGen{}
	check := func(seed int64) bool {
		s := seed
		// Random conjunction of 4 linear constraints over a, b, c.
		type constraint struct {
			op   logic.CmpOp
			l, r logic.Term
		}
		var cons []constraint
		fx := newArithFixture()
		for i := 0; i < 4; i++ {
			ops := []logic.CmpOp{logic.LeOp, logic.LtOp, logic.GeOp, logic.GtOp, logic.EqOp}
			op := ops[gen.next(&s)%int64(len(ops))]
			l := gen.term(&s, 1)
			r := gen.term(&s, 1)
			cons = append(cons, constraint{op, l, r})
			fx.assert(op, l, r)
		}
		if !fx.infeasible() {
			return true
		}
		// Claimed infeasible: exhaustively try small assignments.
		for a := int64(-6); a <= 6; a++ {
			for b := int64(-6); b <= 6; b++ {
				for c := int64(-6); c <= 6; c++ {
					m := model{consts: map[string]int64{"a": a, "b": b, "c": c}}
					all := true
					for _, cn := range cons {
						if !m.evalFormula(logic.Cmp{Op: cn.op, L: cn.l, R: cn.r}) {
							all = false
							break
						}
					}
					if all {
						t.Logf("UNSOUND: claimed infeasible but satisfied by a=%d b=%d c=%d", a, b, c)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEgraphSoundnessProperty: merges only ever equate terms that are equal
// under some congruence — checked by verifying that the union-find respects
// a random set of asserted equations' deductive closure on a sample of
// derived facts (reflexivity, symmetry, transitivity, congruence).
func TestEgraphSoundnessProperty(t *testing.T) {
	gen := &groundGen{}
	check := func(seed int64) bool {
		s := seed
		e := newEgFixture()
		consts := []logic.Term{logic.Const("a"), logic.Const("b"), logic.Const("c"), logic.Const("d")}
		// Assert random equalities between f-wrapped constants.
		type eqn struct{ l, r logic.Term }
		var eqs []eqn
		for i := 0; i < 5; i++ {
			l := consts[gen.next(&s)%4]
			r := consts[gen.next(&s)%4]
			if gen.next(&s)%2 == 0 {
				l = logic.Fn("f", l)
			}
			if gen.next(&s)%2 == 0 {
				r = logic.Fn("f", r)
			}
			eqs = append(eqs, eqn{l, r})
			e.eq(l, r)
		}
		// Transitivity/symmetry: build expected closure over the asserted
		// terms with a naive fixpoint and compare against the e-graph.
		terms := map[string]logic.Term{}
		for _, q := range eqs {
			terms[q.l.String()] = q.l
			terms[q.r.String()] = q.r
		}
		// Naive closure: union-find over term strings, then congruence for
		// f-applications present in the term set, iterated.
		parent := map[string]string{}
		var find func(x string) string
		find = func(x string) string {
			if parent[x] == "" || parent[x] == x {
				parent[x] = x
				return x
			}
			r := find(parent[x])
			parent[x] = r
			return r
		}
		union := func(x, y string) { parent[find(x)] = find(y) }
		for _, q := range eqs {
			union(q.l.String(), q.r.String())
		}
		for changed := true; changed; {
			changed = false
			for _, t1 := range terms {
				for _, t2 := range terms {
					a1, ok1 := t1.(logic.App)
					a2, ok2 := t2.(logic.App)
					if !ok1 || !ok2 || a1.Fn != "f" || a2.Fn != "f" || len(a1.Args) != 1 || len(a2.Args) != 1 {
						continue
					}
					if find(a1.Args[0].String()) == find(a2.Args[0].String()) &&
						find(t1.String()) != find(t2.String()) {
						union(t1.String(), t2.String())
						changed = true
					}
				}
			}
		}
		// Every naive-closure equality must be reflected in the e-graph
		// (the e-graph may know MORE via congruences through terms outside
		// the naive set, so check one direction only).
		for k1, t1 := range terms {
			for k2, t2 := range terms {
				if find(k1) == find(k2) && !e.sameClass(t1, t2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLinearizeSemanticsProperty: linearizeID preserves meaning — the linear
// form evaluates to the same value as the original term under random
// assignments (checked on linear-only terms).
func TestLinearizeSemanticsProperty(t *testing.T) {
	gen := &groundGen{}
	linTerm := func(seed *int64, depth int) logic.Term {
		var rec func(d int) logic.Term
		rec = func(d int) logic.Term {
			switch gen.next(seed) % 4 {
			case 0:
				return logic.Num(gen.next(seed)%9 - 4)
			case 1:
				return logic.Const(groundConsts[gen.next(seed)%3])
			case 2:
				if d <= 0 {
					return logic.Num(1)
				}
				return logic.Add(rec(d-1), rec(d-1))
			default:
				if d <= 0 {
					return logic.Const("c")
				}
				return logic.Sub(rec(d-1), rec(d-1))
			}
		}
		return rec(depth)
	}
	check := func(seed int64) bool {
		s := seed
		tm := linTerm(&s, 3)
		fx := newArithFixture()
		le := fx.lin(tm)
		for i := int64(0); i < 10; i++ {
			ms := seed + i*104729
			m := model{consts: map[string]int64{}}
			for _, c := range groundConsts {
				m.consts[c] = gen.next(&ms)%13 - 6
			}
			want := m.evalTerm(tm)
			got := le.consts
			for atom, coeff := range le.coeffs {
				got += coeff * m.consts[fx.tt.Fn(atom)]
			}
			if got != want {
				t.Logf("linearizeID(%s) = %+v; eval mismatch %d != %d under %v", tm, le, got, want, m.consts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
