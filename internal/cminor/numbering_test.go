package cminor_test

import (
	"fmt"
	"testing"

	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/quals"
)

// numberingSource exercises every node-building form of the parser,
// including the ones that drop or share a node: a[i] and p->f desugaring,
// &x and s.f unwrapping their operand's LVExpr, folded negative literals,
// x++ sharing its l-value, call initializers split into a declaration plus
// a call, and malloc under a cast.
const numberingSource = `
struct s { int f; int* q; };
int* nonnull g = NULL;
int k = -5;
int h(int a, char* s);
int f(int* p, struct s* sp, struct s sv, int n) {
  int x = h(n, "str");
  int y = -x + !n - -3;
  int* m = (int*) malloc(sizeof(int) * n);
  int* r;
  x++;
  y += p[x];
  r = &x;
  r = &p[y];
  r = &sp->f;
  sv.f = (*sp).f + sv.q[0];
  m = malloc(4);
  if (p != NULL && x > 'c') { x = *p; }
  for (y = 0; y < n; y++) { x = x * y; }
  return x;
}
int main(void) { int z; z = f(NULL, NULL, 0); return 0; }
`

// numberedPrograms parses the programs the numbering tests check: the
// corpus programs, two generated tree files, and numberingSource.
func numberedPrograms(t *testing.T) []*cminor.Program {
	t.Helper()
	names := quals.MustStandard().Names()
	taint, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	for n := range taint.Names() {
		names[n] = true
	}
	srcs := map[string]string{"numbering.c": numberingSource}
	for _, p := range corpus.All() {
		srcs[p.Name+".c"] = p.Source
	}
	for _, i := range []int{0, 7} {
		srcs[corpus.TreeFileName(i)] = corpus.TreeFile(0x7ee5eed, i)
	}
	var progs []*cminor.Program
	for name, src := range srcs {
		prog, err := cminor.Parse(name, src, names)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// nodesOf returns every expression and l-value of prog by number, and the
// number of distinct nodes seen. A node shared by two places (x++'s l-value)
// is one node.
func nodesOf(t *testing.T, prog *cminor.Program, within func(cminor.Node, cminor.NodeID)) (map[cminor.NodeID]cminor.Node, int) {
	t.Helper()
	byID := map[cminor.NodeID]cminor.Node{}
	seen := map[cminor.Node]bool{}
	visit := func(n cminor.Node, id cminor.NodeID) {
		if seen[n] {
			return
		}
		seen[n] = true
		if other, dup := byID[id]; dup {
			t.Errorf("%s: number %d given to %T at %s and %T at %s", prog.File, id, other, other.Position(), n, n.Position())
		}
		byID[id] = n
		if within != nil {
			within(n, id)
		}
	}
	cminor.Walk(prog, cminor.Visitor{
		Expr:   func(e cminor.Expr) { visit(e, e.ID()) },
		LValue: func(lv cminor.LValue) { visit(lv, lv.ID()) },
	})
	return byID, len(seen)
}

// TestParseNumbersNodesDensely checks Parse's numbering: every expression
// and l-value has a number in 1..Program.Nodes, no two share one, every
// number is used, and each function body's nodes lie inside the range
// recorded on its FuncDef, with the ranges of different functions disjoint.
func TestParseNumbersNodesDensely(t *testing.T) {
	for _, prog := range numberedPrograms(t) {
		byID, n := nodesOf(t, prog, nil)
		if n != int(prog.Nodes) || len(byID) != n {
			t.Errorf("%s: %d nodes with %d distinct numbers, Program.Nodes %d", prog.File, n, len(byID), prog.Nodes)
		}
		for id := cminor.NodeID(1); id <= prog.Nodes; id++ {
			if byID[id] == nil {
				t.Errorf("%s: number %d unused", prog.File, id)
			}
		}
		inFunc := map[cminor.NodeID]bool{}
		var prev cminor.NodeRange
		for _, f := range prog.Funcs {
			if f.Body == nil {
				if f.Nodes.Len() != 0 {
					t.Errorf("%s: prototype %s has range %v", prog.File, f.Name, f.Nodes)
				}
				continue
			}
			if f.Nodes.Lo < prev.Hi {
				t.Errorf("%s: %s's range %v overlaps the previous function's %v", prog.File, f.Name, f.Nodes, prev)
			}
			prev = f.Nodes
			count := 0
			visit := func(n cminor.Node, id cminor.NodeID) {
				if !f.Nodes.Contains(id) {
					t.Errorf("%s: %T at %s in %s has number %d outside %v", prog.File, n, n.Position(), f.Name, id, f.Nodes)
				}
				inFunc[id] = true
				count++
			}
			seen := map[cminor.Node]bool{}
			cminor.WalkStmt(f.Body, cminor.Visitor{
				Expr: func(e cminor.Expr) {
					if !seen[e] {
						seen[e] = true
						visit(e, e.ID())
					}
				},
				LValue: func(lv cminor.LValue) {
					if !seen[lv] {
						seen[lv] = true
						visit(lv, lv.ID())
					}
				},
			})
			if count != f.Nodes.Len() {
				t.Errorf("%s: %s has %d nodes in a range of %d", prog.File, f.Name, count, f.Nodes.Len())
			}
		}
		for _, g := range prog.Globals {
			if g.Init == nil {
				continue
			}
			cminor.WalkExpr(g.Init, cminor.Visitor{Expr: func(e cminor.Expr) {
				if inFunc[e.ID()] {
					t.Errorf("%s: global %s's initializer node %d lies in a function's range", prog.File, g.Name, e.ID())
				}
			}})
		}
	}
}

// typeFacts renders everything TypeCheck recorded for prog's nodes, by node
// number.
func typeFacts(prog *cminor.Program, info *cminor.TypeInfo) map[cminor.NodeID]string {
	out := map[cminor.NodeID]string{}
	cminor.Walk(prog, cminor.Visitor{
		Expr: func(e cminor.Expr) { out[e.ID()] = fmt.Sprintf("expr %s", info.TypeOf(e)) },
		LValue: func(lv cminor.LValue) {
			s := fmt.Sprintf("lvalue %s", info.LVTypeOf(lv))
			if v, ok := lv.(*cminor.VarLV); ok {
				if d := info.VarDef(v); d != nil {
					s += fmt.Sprintf(" def %s %s %d %s", d.Name, d.Type, d.Kind, d.Pos)
				} else {
					s += " undefined"
				}
			}
			out[lv.ID()] = s
		},
	})
	return out
}

// TestTypeCheckTwiceKeepsNumbers runs TypeCheck twice on each parsed
// program: no node number changes, and both runs give the same types and
// variable definitions for every node.
func TestTypeCheckTwiceKeepsNumbers(t *testing.T) {
	for _, prog := range numberedPrograms(t) {
		before, _ := nodesOf(t, prog, nil)
		info1, _ := cminor.TypeCheck(prog)
		info2, _ := cminor.TypeCheck(prog)
		after, _ := nodesOf(t, prog, nil)
		for id, n := range before {
			if after[id] != n {
				t.Errorf("%s: number %d moved from %T at %s", prog.File, id, n, n.Position())
			}
		}
		f1, f2 := typeFacts(prog, info1), typeFacts(prog, info2)
		for id, s := range f1 {
			if f2[id] != s {
				t.Errorf("%s: node %d: first run %q, second %q", prog.File, id, s, f2[id])
			}
		}
	}
}

// TestTypeCheckUnnumberedNodes typechecks a hand-built program, whose nodes
// carry no numbers, and checks that it records the same facts as the parsed
// form of the same source.
func TestTypeCheckUnnumberedNodes(t *testing.T) {
	intPtr := cminor.PointerType{Elem: cminor.IntType{}}
	pos := cminor.Qualify(cminor.IntType{}, "pos")
	a := func() *cminor.LVExpr { return &cminor.LVExpr{LV: &cminor.VarLV{Name: "a"}} }
	mul := &cminor.Binop{Op: cminor.BMul, L: a(), R: a()}
	deref := &cminor.LVExpr{LV: &cminor.DerefLV{Addr: &cminor.LVExpr{LV: &cminor.VarLV{Name: "p"}}}}
	undef := &cminor.VarLV{Name: "nope"}
	hand := &cminor.Program{File: "hand.c", Funcs: []*cminor.FuncDef{{
		Name:   "f",
		Params: []cminor.Param{{Name: "p", Type: intPtr}, {Name: "a", Type: pos}},
		Result: cminor.VoidType{},
		Body: &cminor.Block{Stmts: []cminor.Stmt{
			&cminor.DeclStmt{Decl: &cminor.VarDecl{Name: "y", Type: pos, Init: mul}},
			&cminor.InstrStmt{Instr: &cminor.Assign{LHS: undef, RHS: deref}},
		}},
	}}}
	info, diags := cminor.TypeCheck(hand)
	if len(diags) != 1 {
		t.Fatalf("diagnostics %v, want the one undefined variable", diags)
	}
	if got := info.TypeOf(mul); !cminor.TypeEqual(got, cminor.IntType{}) {
		t.Errorf("a * a: %s, want int", got)
	}
	if got := info.TypeOf(mul.L); !cminor.TypeEqual(got, pos) {
		t.Errorf("a: %s, want int pos", got)
	}
	if got := info.TypeOf(deref); !cminor.TypeEqual(got, cminor.IntType{}) {
		t.Errorf("*p: %s, want int", got)
	}
	if d := info.VarDef(mul.L.(*cminor.LVExpr).LV.(*cminor.VarLV)); d == nil || d.Kind != cminor.ParamVar {
		t.Errorf("a resolves to %+v, want the parameter", d)
	}
	if d := info.VarDef(undef); d != nil {
		t.Errorf("nope resolves to %+v, want nothing", d)
	}
	if got := info.LVTypeOf(deref.LV); !cminor.TypeEqual(got, cminor.IntType{}) {
		t.Errorf("l-value *p: %s, want int", got)
	}
}
