package checker

import (
	"context"
	"testing"

	"repro/internal/cminor"
	"repro/internal/qdl"
	"repro/internal/quals"
)

// TestBindingsLargestClause binds as many variables as one clause can (two
// expressions, three type variables), reads them back, and checks that a
// value copy of the bindings is independent of its source.
func TestBindingsLargestClause(t *testing.T) {
	e1, e2 := &cminor.IntLit{Value: 1}, &cminor.IntLit{Value: 2}
	ptr := cminor.PointerType{Elem: cminor.IntType{}}
	exprs := []struct {
		name string
		e    cminor.Expr
	}{{"A", e1}, {"B", e2}}
	types := []struct {
		name string
		t    cminor.Type
	}{{"T", cminor.IntType{}}, {"U", ptr}, {"V", cminor.CharType{}}}

	var b bindings
	for _, x := range exprs {
		b.setExpr(x.name, x.e)
	}
	for _, x := range types {
		b.setType(x.name, x.t)
	}
	check := func(what string, b *bindings) {
		t.Helper()
		for _, x := range exprs {
			if got, ok := b.getExpr(x.name); !ok || got != x.e {
				t.Errorf("%s: expr %s = %v, %v; want %v", what, x.name, got, ok, x.e)
			}
		}
		for _, x := range types {
			if got, ok := b.getType(x.name); !ok || !cminor.BaseTypeEqual(got, x.t) {
				t.Errorf("%s: type %s = %v, %v; want %v", what, x.name, got, ok, x.t)
			}
		}
		if _, ok := b.getExpr("C"); ok {
			t.Errorf("%s: unbound expr C reads as bound", what)
		}
		if _, ok := b.getType("W"); ok {
			t.Errorf("%s: unbound type W reads as bound", what)
		}
	}
	check("original", &b)

	c := b
	other := &cminor.IntLit{Value: 3}
	c.setExpr("A", other)
	c.setType("U", cminor.CharType{})
	check("source after rebinding its copy", &b)
	if got, _ := c.getExpr("A"); got != other {
		t.Errorf("copy: expr A = %v, want %v", got, other)
	}
	if got, _ := c.getType("U"); !cminor.BaseTypeEqual(got, cminor.CharType{}) {
		t.Errorf("copy: type U = %v, want char", got)
	}
}

// TestLargestClauseDerivation runs a case clause that binds the most the
// pattern grammar allows: the subject's type variable plus two declared
// operands, each with its own type variable.
func TestLargestClauseDerivation(t *testing.T) {
	reg, err := qdl.Load(map[string]string{"summed.qdl": `
value qualifier summed(T Expr E)
  case E of
    decl U LValue A, V LValue B:
      A + B
`})
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

// TestClauseMatchingAllocs guards the stack allocation of bindings: once an
// engine's memo is warm, matching a case, restrict or assign clause must not
// touch the heap.
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
	en := newEngine(context.Background(), prog, reg, Options{}, nil)
	en.preFuncPasses()
	if len(en.diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", en.diags)
	}
	en.qualSet(mul)

	pos, unique := reg.Lookup("pos"), reg.Lookup("unique")
	dst := en.info.LVTypeOf(nullAssign.LHS)
	cur := map[string]bool{}
	if !en.matchesAnyCase(pos, mul, cur) {
		t.Fatal("a * b does not derive pos")
	}
	if !en.matchesAssignClauses(unique, dst, nullAssign.RHS) {
		t.Fatal("p = NULL does not match unique's assign clauses")
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"matchesAnyCase pos on a * b", func() { en.matchesAnyCase(pos, mul, cur) }},
		{"restrictExpr on 10 / a", func() { en.restrictExpr(div) }},
		{"matchesAssignClauses unique on p = NULL", func() { en.matchesAssignClauses(unique, dst, nullAssign.RHS) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, n)
		}
	}
	if len(en.diags) != 0 || en.stats.RestrictChecks == 0 || en.stats.RestrictFailures != 0 {
		t.Errorf("restrictExpr on 10 / a: diags %v, %d checks, %d failures; want a passing check",
			en.diags, en.stats.RestrictChecks, en.stats.RestrictFailures)
	}
}
