package simplify

import (
	"testing"

	"repro/internal/logic"
)

// egFixture drives the search's backtrackable e-graph directly over terms
// interned into one table.
type egFixture struct {
	tt *logic.TermTable
	e  *egraph2
}

func newEgFixture() *egFixture {
	tt := logic.NewTermTable()
	return &egFixture{tt: tt, e: newEgraph2(tt)}
}

func (f *egFixture) node(t logic.Term) enodeID { return f.e.internNode(f.tt.Intern(t)) }

func (f *egFixture) eq(a, b logic.Term) { f.e.mergeTerms(f.tt.Intern(a), f.tt.Intern(b)) }

func (f *egFixture) ne(a, b logic.Term) { f.e.assertDiseq(f.tt.Intern(a), f.tt.Intern(b), "") }

func (f *egFixture) pred(p logic.Pred, val bool) { f.e.assertPredID(f.tt.Intern(predAsTerm(p)), val) }

func (f *egFixture) sameClass(a, b logic.Term) bool {
	return f.e.find(f.node(a)) == f.e.find(f.node(b))
}

func TestEgraphBasicMerge(t *testing.T) {
	f := newEgFixture()
	a, b := logic.Const("a"), logic.Const("b")
	f.eq(a, b)
	if !f.sameClass(a, b) {
		t.Error("a and b not merged")
	}
	if f.e.check() {
		t.Error("spurious inconsistency")
	}
}

func TestEgraphCongruence(t *testing.T) {
	f := newEgFixture()
	a, b := logic.Const("a"), logic.Const("b")
	fa, fb := logic.Fn("f", a), logic.Fn("f", b)
	f.node(fa)
	f.node(fb)
	f.eq(a, b)
	if !f.sameClass(fa, fb) {
		t.Error("congruence f(a)=f(b) not derived from a=b")
	}
}

func TestEgraphCongruenceAfterTheFact(t *testing.T) {
	// Terms interned after the merge must still land in the right class.
	f := newEgFixture()
	a, b := logic.Const("a"), logic.Const("b")
	f.eq(a, b)
	ia := f.node(logic.Fn("f", a))
	ib := f.node(logic.Fn("f", b))
	if f.e.find(ia) != f.e.find(ib) {
		t.Error("congruence not applied to newly interned terms")
	}
}

func TestEgraphTransitivity(t *testing.T) {
	f := newEgFixture()
	a, b, c := logic.Const("a"), logic.Const("b"), logic.Const("c")
	f.eq(a, b)
	f.eq(b, c)
	if !f.sameClass(a, c) {
		t.Error("transitivity failed")
	}
}

func TestEgraphDisequalityConflict(t *testing.T) {
	f := newEgFixture()
	a, b := logic.Const("a"), logic.Const("b")
	f.ne(a, b)
	f.eq(a, b)
	if !f.e.check() {
		t.Error("a=b with a!=b not detected")
	}
}

func TestEgraphDeepCongruenceConflict(t *testing.T) {
	// a=b, g(f(a)) != g(f(b)) is inconsistent.
	f := newEgFixture()
	a, b := logic.Const("a"), logic.Const("b")
	gfa := logic.Fn("g", logic.Fn("f", a))
	gfb := logic.Fn("g", logic.Fn("f", b))
	f.ne(gfa, gfb)
	f.eq(a, b)
	if !f.e.check() {
		t.Error("nested congruence conflict not detected")
	}
}

func TestEgraphIntLiterals(t *testing.T) {
	f := newEgFixture()
	f.eq(logic.Const("x"), logic.Num(3))
	f.eq(logic.Const("x"), logic.Num(4))
	if !f.e.check() {
		t.Error("3 = 4 via x not detected")
	}
}

func TestEgraphPredicates(t *testing.T) {
	f := newEgFixture()
	a, b := logic.Const("a"), logic.Const("b")
	f.pred(logic.Pred{Name: "p", Args: []logic.Term{a}}, true)
	f.pred(logic.Pred{Name: "p", Args: []logic.Term{b}}, false)
	if f.e.check() {
		t.Fatal("p(a) and !p(b) should be consistent")
	}
	f.eq(a, b)
	if !f.e.check() {
		t.Error("p(a), !p(b), a=b not detected as inconsistent")
	}
}

func TestEgraphDistinctFunctionSymbols(t *testing.T) {
	f := newEgFixture()
	a := logic.Const("a")
	f.eq(logic.Fn("f", a), logic.Fn("g", a))
	if f.e.check() {
		t.Error("f(a)=g(a) must be consistent (uninterpreted symbols)")
	}
	if f.sameClass(a, logic.Const("b")) {
		t.Error("unrelated constants merged")
	}
}
