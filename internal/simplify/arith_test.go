package simplify

import (
	"testing"

	"repro/internal/logic"
)

// arithFixture drives the search's arithmetic theory directly: terms are
// interned into one table, linearized by linearizeID, and asserted into an
// arithSolver2.
type arithFixture struct {
	tt *logic.TermTable
	s  *arithSolver2
}

func newArithFixture() *arithFixture {
	tt := logic.NewTermTable()
	return &arithFixture{tt: tt, s: newArithSolver2(tt)}
}

func (f *arithFixture) id(t logic.Term) logic.TermID { return f.tt.Intern(t) }

func (f *arithFixture) lin(t logic.Term) linExprI { return linearizeID(f.id(t), f.tt) }

func (f *arithFixture) assert(op logic.CmpOp, l, r logic.Term) {
	f.s.assertCmp(op, f.id(l), f.id(r))
}

// infeasible checks the asserted constraints with no EUF->LA extras.
func (f *arithFixture) infeasible() bool { return f.s.infeasible(nil) }

func TestLinearizeConstant(t *testing.T) {
	f := newArithFixture()
	l := f.lin(logic.Num(5))
	if l.consts != 5 || len(l.coeffs) != 0 {
		t.Errorf("linearize(5) = %+v", l)
	}
}

func TestLinearizeSum(t *testing.T) {
	// x + (y - 3)
	f := newArithFixture()
	x, y := logic.Const("x"), logic.Const("y")
	l := f.lin(logic.Add(x, logic.Sub(y, logic.Num(3))))
	if l.consts != -3 || l.coeffs[f.id(x)] != 1 || l.coeffs[f.id(y)] != 1 || len(l.coeffs) != 2 {
		t.Errorf("linearize = %+v", l)
	}
}

func TestLinearizeScaledProduct(t *testing.T) {
	// 2 * x is linear; x * y is opaque.
	f := newArithFixture()
	x, y := logic.Const("x"), logic.Const("y")
	l := f.lin(logic.Mul(logic.Num(2), x))
	if l.coeffs[f.id(x)] != 2 || len(l.coeffs) != 1 {
		t.Errorf("2*x = %+v", l)
	}
	xy := logic.Mul(x, y)
	l2 := f.lin(xy)
	if len(l2.coeffs) != 1 || l2.coeffs[f.id(xy)] != 1 {
		t.Errorf("x*y should be one opaque atom: %+v", l2)
	}
}

func TestLinearizeNegation(t *testing.T) {
	f := newArithFixture()
	x := logic.Const("x")
	l := f.lin(logic.Neg(x))
	if l.coeffs[f.id(x)] != -1 {
		t.Errorf("~x = %+v", l)
	}
}

func TestLinearizeCancellation(t *testing.T) {
	f := newArithFixture()
	l := f.lin(logic.Sub(logic.Const("x"), logic.Const("x")))
	if len(l.coeffs) != 0 || l.consts != 0 {
		t.Errorf("x - x = %+v, want 0", l)
	}
}

func TestArithConsistent(t *testing.T) {
	f := newArithFixture()
	x := logic.Const("x")
	f.assert(logic.GtOp, x, logic.Num(0))
	f.assert(logic.LtOp, x, logic.Num(10))
	if f.infeasible() {
		t.Error("0 < x < 10 reported inconsistent")
	}
}

func TestArithDirectConflict(t *testing.T) {
	f := newArithFixture()
	x := logic.Const("x")
	f.assert(logic.GtOp, x, logic.Num(5))
	f.assert(logic.LtOp, x, logic.Num(3))
	if !f.infeasible() {
		t.Error("x > 5 and x < 3 not detected")
	}
}

func TestArithStrictIntegerTightening(t *testing.T) {
	// Over the integers, x > 0 and x < 1 is inconsistent (no integer in
	// (0,1)), though it is rationally satisfiable.
	f := newArithFixture()
	x := logic.Const("x")
	f.assert(logic.GtOp, x, logic.Num(0))
	f.assert(logic.LtOp, x, logic.Num(1))
	if !f.infeasible() {
		t.Error("integer tightening failed: 0 < x < 1 over ints")
	}
}

func TestArithChain(t *testing.T) {
	f := newArithFixture()
	x, y, z := logic.Const("x"), logic.Const("y"), logic.Const("z")
	f.assert(logic.LtOp, x, y)
	f.assert(logic.LtOp, y, z)
	f.assert(logic.LtOp, z, x)
	if !f.infeasible() {
		t.Error("x<y<z<x not detected")
	}
}

func TestArithEquality(t *testing.T) {
	f := newArithFixture()
	x, y := logic.Const("x"), logic.Const("y")
	f.assert(logic.EqOp, x, y)
	f.assert(logic.GtOp, x, y)
	if !f.infeasible() {
		t.Error("x = y and x > y not detected")
	}
}

func TestArithCoefficients(t *testing.T) {
	// 2x + 3y <= 6, x >= 2, y >= 1 -> 2*2+3*1 = 7 > 6: inconsistent.
	f := newArithFixture()
	x, y := logic.Const("x"), logic.Const("y")
	lhs := logic.Add(logic.Mul(logic.Num(2), x), logic.Mul(logic.Num(3), y))
	f.assert(logic.LeOp, lhs, logic.Num(6))
	f.assert(logic.GeOp, x, logic.Num(2))
	f.assert(logic.GeOp, y, logic.Num(1))
	if !f.infeasible() {
		t.Error("coefficient conflict not detected")
	}
}

// TestArithEqAtomsPropagation: an EUF->LA equality between two atoms arrives
// as the ephemeral extra constraints a = b (two inequalities, as eufLA
// builds them). They decide the check they are passed to and never join the
// solver's persistent stack.
func TestArithEqAtomsPropagation(t *testing.T) {
	f := newArithFixture()
	a, b := f.id(logic.Const("a")), f.id(logic.Const("b"))
	f.assert(logic.GtOp, logic.Const("a"), logic.Num(0))
	f.assert(logic.LtOp, logic.Const("b"), logic.Num(0))
	if f.infeasible() {
		t.Fatal("a > 0, b < 0 should be consistent on their own")
	}
	eq := []linExprI{
		newLinExprI().addAtom(a, 1).addAtom(b, -1),
		newLinExprI().addAtom(b, 1).addAtom(a, -1),
	}
	if !f.s.infeasible(eq) {
		t.Error("a = b with a > 0, b < 0 not detected")
	}
	if f.infeasible() {
		t.Error("the extra equality leaked into the persistent constraints")
	}
}

func TestArithUninterpretedAtoms(t *testing.T) {
	// f(x) > 0 and f(x) < 0 conflict; f(x) and f(y) are independent.
	f := newArithFixture()
	fx := logic.Fn("f", logic.Const("x"))
	fy := logic.Fn("f", logic.Const("y"))
	f.assert(logic.GtOp, fx, logic.Num(0))
	f.assert(logic.LtOp, fy, logic.Num(0))
	if f.infeasible() {
		t.Fatal("f(x) > 0, f(y) < 0 should be consistent")
	}
	cm, am := f.s.mark()
	f.assert(logic.LtOp, fx, logic.Num(0))
	if !f.infeasible() {
		t.Error("f(x) > 0 and f(x) < 0 not detected")
	}
	// Rolling back to the mark drops the conflicting constraint.
	f.s.undoTo(cm, am)
	if f.infeasible() {
		t.Error("undoTo did not retract f(x) < 0")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 4}, {6, 2, 3}, {-7, 2, -3}, {0, 5, 0}, {1, 3, 1}, {-1, 3, 0},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDNormalization(t *testing.T) {
	// 2x <= -1 over ints means x <= -1 (ceil(1/2) = 1).
	f := newArithFixture()
	x := f.id(logic.Const("x"))
	e := newLinExprI().addAtom(x, 2)
	e.consts = 1
	n := normalizeGCDI(e)
	if n.coeffs[x] != 1 || n.consts != 1 {
		t.Errorf("normalizeGCDI(2x+1<=0) = %+v, want x+1<=0", n)
	}
}
