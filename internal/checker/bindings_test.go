package checker

import (
	"context"
	"testing"

	"repro/internal/cminor"
	"repro/internal/qdl"
	"repro/internal/quals"
)

// TestBindingsLargestClause compiles the largest clause the pattern grammar
// allows (the subject's type variable plus two declared operands, each with
// its own type variable), checks that its variables get distinct binding
// slots, fills every slot, and checks that a value copy of the bindings is
// independent of its source.
func TestBindingsLargestClause(t *testing.T) {
	reg, err := qdl.Load(map[string]string{"summed.qdl": summedQDL})
	if err != nil {
		t.Fatal(err)
	}
	d := reg.Lookup("summed")
	c := compileClause(reg, d, d.Cases[0])
	subj := compileTypePat(d.Subject.Type, subjectTypeVars(d))
	if c.kind != patBinop || c.x.slot != 0 || c.y.slot != 1 || subj.tvar != 0 || c.x.typ.tvar != 1 || c.y.typ.tvar != 2 {
		t.Fatalf("slots: kind %d, exprs %d %d, types %d %d %d; want binop, exprs 0 1, types 0 1 2",
			c.kind, c.x.slot, c.y.slot, subj.tvar, c.x.typ.tvar, c.y.typ.tvar)
	}

	e1, e2 := &cminor.IntLit{Value: 1}, &cminor.IntLit{Value: 2}
	ptr := cminor.PointerType{Elem: cminor.IntType{}}
	var b bindings
	b.exprs = [2]cminor.Expr{e1, e2}
	if !matchType(&subj, cminor.IntType{}, &b) || !matchType(&c.x.typ, ptr, &b) || !matchType(&c.y.typ, cminor.CharType{}, &b) {
		t.Fatal("binding the three type variables failed")
	}
	check := func(what string, b *bindings) {
		t.Helper()
		if b.exprs[0] != e1 || b.exprs[1] != e2 {
			t.Errorf("%s: exprs = %v, want %v %v", what, b.exprs, e1, e2)
		}
		for i, want := range []cminor.Type{cminor.IntType{}, ptr, cminor.CharType{}} {
			if got := b.types[i]; got == nil || !cminor.BaseTypeEqual(got, want) {
				t.Errorf("%s: type %d = %v, want %v", what, i, got, want)
			}
		}
	}
	check("original", &b)
	if matchType(&c.x.typ, cminor.CharType{}, &b) {
		t.Error("a bound type variable rebound to another type")
	}

	cp := b
	other := &cminor.IntLit{Value: 3}
	cp.exprs[0] = other
	cp.types[1] = cminor.CharType{}
	check("source after rebinding its copy", &b)
	if cp.exprs[0] != other || !cminor.BaseTypeEqual(cp.types[1], cminor.CharType{}) {
		t.Errorf("copy: %v %v, want %v char", cp.exprs[0], cp.types[1], other)
	}
}

const summedQDL = `
value qualifier summed(T Expr E)
  case E of
    decl U LValue A, V LValue B:
      A + B
`

// TestLargestClauseDerivation runs a case clause that binds the most the
// pattern grammar allows: the subject's type variable plus two declared
// operands, each with its own type variable.
func TestLargestClauseDerivation(t *testing.T) {
	reg, err := qdl.Load(map[string]string{"summed.qdl": summedQDL})
	if err != nil {
		t.Fatal(err)
	}
	wantNoDiags(t, runWith(t, reg, `
void f(int x, int y) {
  int summed s = x + y;
}
`))
	wantDiag(t, runWith(t, reg, `
void f(int x, int y) {
  int summed s = x;
}
`), "qual", "summed")
}

// TestClauseMatchingAllocs guards the stack allocation of bindings and the
// word-sized sets and slice-indexed tables: once a function walk's memo is
// warm, deriving a memoized set, reading recorded types, and matching a case
// (one consulting other expressions' sets included), restrict or assign
// clause must not touch the heap.
func TestClauseMatchingAllocs(t *testing.T) {
	reg := quals.MustStandard()
	prog, err := cminor.Parse("test.c", `
void f(int pos a, int pos b) {
  int x;
  int* unique p;
  x = a * b;
  x = 10 / a;
  p = NULL;
}
`, reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	var mul, div cminor.Expr
	var nullAssign *cminor.Assign
	cminor.Walk(prog, cminor.Visitor{
		Expr: func(e cminor.Expr) {
			if bin, ok := e.(*cminor.Binop); ok {
				switch bin.Op {
				case cminor.BMul:
					mul = bin
				case cminor.BDiv:
					div = bin
				}
			}
		},
		Instr: func(in cminor.Instr) {
			if as, ok := in.(*cminor.Assign); ok && isNullRHS(as.RHS) {
				nullAssign = as
			}
		},
	})
	if mul == nil || div == nil || nullAssign == nil {
		t.Fatal("test program lacks a * b, 10 / a or p = NULL")
	}
	en := newEngine(context.Background(), prog, compileTables(reg), Options{}, nil)
	en.preFuncPasses()
	if len(en.diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", en.diags)
	}
	en = en.childEngine(prog.Funcs[0])
	en.qualSet(mul)

	unique := reg.Lookup("unique")
	dst := en.info.LVTypeOf(nullAssign.LHS)
	et := en.info.TypeOf(mul)
	stripped := cminor.Decay(cminor.StripQuals(et))
	cases := func(name string) *headDefs {
		t.Helper()
		for i, hd := range en.tab.byHead[headOf(mul)] {
			if hd.bit == en.tab.bit(name) {
				return &en.tab.byHead[headOf(mul)][i]
			}
		}
		t.Fatalf("no %s cases for a * b", name)
		return nil
	}
	pos, nonzero := cases("pos"), cases("nonzero")
	var cur qset
	for _, hd := range []*headDefs{pos, nonzero} {
		if !en.matchesAnyCase(hd, mul, et, stripped, cur) {
			t.Fatalf("a * b does not derive the qualifier of bit %#x", hd.bit)
		}
	}
	if !en.matchesAssignClauses(unique, dst, nullAssign.RHS) {
		t.Fatal("p = NULL does not match unique's assign clauses")
	}
	hits := en.stats.MemoHits
	if got := en.qualSet(mul); !got.has(pos.bit) || en.stats.MemoHits != hits+1 {
		t.Fatalf("memoized qualSet of a * b = %#x with %d new hits, want pos and one hit", got, en.stats.MemoHits-hits)
	}
	tests := []struct {
		name string
		fn   func()
	}{
		{"qualSet on memoized a * b", func() { en.qualSet(mul) }},
		{"TypeOf a * b and LVTypeOf p", func() { en.info.TypeOf(mul); en.info.LVTypeOf(nullAssign.LHS) }},
		{"matchesAnyCase pos on a * b", func() { en.matchesAnyCase(pos, mul, et, stripped, cur) }},
		{"matchesAnyCase nonzero on a * b (consults nonzero of a and b)", func() { en.matchesAnyCase(nonzero, mul, et, stripped, cur) }},
		{"restrictExpr on 10 / a", func() { en.restrictExpr(div) }},
		{"matchesAssignClauses unique on p = NULL", func() { en.matchesAssignClauses(unique, dst, nullAssign.RHS) }},
	}
	for _, tc := range tests {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, n)
		}
	}
	if len(en.diags) != 0 || en.stats.RestrictChecks == 0 || en.stats.RestrictFailures != 0 {
		t.Errorf("restrictExpr on 10 / a: diags %v, %d checks, %d failures; want a passing check",
			en.diags, en.stats.RestrictChecks, en.stats.RestrictFailures)
	}
}
