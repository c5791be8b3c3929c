package checker

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/qdl"
	"repro/internal/quals"
)

// TestConcurrentChecksShareTypeInfo runs concurrent CheckWith calls on one
// parsed program with one shared TypeInfo, flow sensitivity off and on and
// at one and two workers, and requires every result to equal the serial
// one. Node numbers and TypeInfo are read-only during checking, so run
// under -race this pins that checks may share them.
func TestConcurrentChecksShareTypeInfo(t *testing.T) {
	reg := quals.MustStandard()
	p := corpus.GrepDFA()
	prog, err := cminor.Parse(p.Name+".c", p.Source, reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	info, tdiags := cminor.TypeCheck(prog)
	for _, flow := range []bool{false, true} {
		want := CheckWith(prog, reg, Options{FlowSensitive: flow, Types: info, TypeDiags: tdiags, Concurrency: 1})
		var wg sync.WaitGroup
		results := make([]*Result, 4)
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = CheckWith(prog, reg, Options{FlowSensitive: flow, Types: info, TypeDiags: tdiags, Concurrency: 1 + i%2})
			}(i)
		}
		wg.Wait()
		for i, got := range results {
			if !reflect.DeepEqual(got.Diags, want.Diags) || !reflect.DeepEqual(got.Stats, want.Stats) || got.ValueCasts != want.ValueCasts {
				t.Errorf("flow=%v: concurrent check %d differs from the serial one", flow, i)
			}
		}
	}
}

// handBuiltSource is the source TestHandBuiltProgramChecks builds by hand.
const handBuiltSource = `
int* nonnull g;
void f(int* p, int pos a) {
  int pos y = a * a;
  int x = *p;
  g = p;
}
`

// TestHandBuiltProgramChecks checks a program built without Parse, whose
// nodes carry no numbers, so both the typechecker and the derivation memo
// keep them by node. Its diagnostics and statistics must equal those of the
// parsed source it mirrors.
func TestHandBuiltProgramChecks(t *testing.T) {
	reg := quals.MustStandard()
	intPtr := cminor.PointerType{Elem: cminor.IntType{}}
	pos := cminor.Qualify(cminor.IntType{}, "pos")
	ref := func(name string) *cminor.LVExpr { return &cminor.LVExpr{LV: &cminor.VarLV{Name: name}} }
	hand := &cminor.Program{
		File:    "hand.c",
		Globals: []*cminor.VarDecl{{Name: "g", Type: cminor.Qualify(intPtr, "nonnull")}},
		Funcs: []*cminor.FuncDef{{
			Name:   "f",
			Params: []cminor.Param{{Name: "p", Type: intPtr}, {Name: "a", Type: pos}},
			Result: cminor.VoidType{},
			Body: &cminor.Block{Stmts: []cminor.Stmt{
				&cminor.DeclStmt{Decl: &cminor.VarDecl{Name: "y", Type: pos,
					Init: &cminor.Binop{Op: cminor.BMul, L: ref("a"), R: ref("a")}}},
				&cminor.DeclStmt{Decl: &cminor.VarDecl{Name: "x", Type: cminor.IntType{},
					Init: &cminor.LVExpr{LV: &cminor.DerefLV{Addr: ref("p")}}}},
				&cminor.InstrStmt{Instr: &cminor.Assign{LHS: &cminor.VarLV{Name: "g"}, RHS: ref("p")}},
			}},
		}},
	}
	parsed, err := cminor.Parse("parsed.c", handBuiltSource, reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	got, want := Check(hand, reg), Check(parsed, reg)
	render := func(r *Result) []string {
		var out []string
		for _, d := range r.Diags {
			out = append(out, d.Code+": "+d.Msg)
		}
		return out
	}
	if g, w := render(got), render(want); !reflect.DeepEqual(g, w) || len(w) != 2 {
		t.Errorf("hand-built diagnostics %q, parsed %q (want the restrict and the qual one)", g, w)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("hand-built stats %+v, parsed %+v", got.Stats, want.Stats)
	}
}

// TestSixtyFourValueQualifiers checks against a registry at the value
// qualifier limit: the qualifiers at index 0 and 63, the first and last bit
// of a set, are derived by their case clauses and required on assignment.
func TestSixtyFourValueQualifiers(t *testing.T) {
	srcs := map[string]string{}
	for i := 0; i < qdl.MaxValueQualifiers; i++ {
		srcs[fmt.Sprintf("q%02d.qdl", i)] = fmt.Sprintf(`value qualifier q%02d(int Expr E)
  case E of
    decl int Const C:
      C, where C > %d
  | decl int Expr E1, E2:
      E1 + E2, where q%02d(E1) && q%02d(E2)
  invariant value(E) > %d
`, i, i, i, i, i)
	}
	reg, err := qdl.Load(srcs)
	if err != nil {
		t.Fatalf("loading %d value qualifiers: %v", qdl.MaxValueQualifiers, err)
	}
	res := runWith(t, reg, `
void f() {
  int q63 a = 64;
  int q63 b = a + 70;
  int q00 c = 1;
  int q63 d = 63;
  int q00 e = c + 0;
}
`)
	var got []string
	for _, d := range res.Diags {
		got = append(got, fmt.Sprintf("%d %s", d.Pos.Line, d.Msg))
	}
	want := []string{
		"6 initialization of d: 63 cannot be given qualifier q63 (a cast would insert a run-time check)",
		"7 initialization of e: (c + 0) cannot be given qualifier q00 (a cast would insert a run-time check)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics:\n%q\nwant\n%q", got, want)
	}
}
