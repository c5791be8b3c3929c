package cminor_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/quals"
)

// TestParseGolden pins everything Parse builds — every node's kind, number
// and position, every declaration's type, every function's Src and node
// range — on the BenchmarkCheckTree corpus, the four corpus programs and
// numberingSource, plus the exact error string Parse returns for a set of
// malformed inputs, against testdata/parse.golden. The file was generated
// once and is compared byte for byte; a rewrite of the lexer or parser must
// leave it untouched.
func TestParseGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parse.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := parseReport(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from testdata/parse.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// goldenErrorInputs are malformed sources whose Parse error string the
// golden records: the TestParseErrors and TestLexErrors inputs, the
// depth-cap inputs, and one input per remaining error path, several placing
// the error after comments, '#' lines, tabs or CRLF line ends.
var goldenErrorInputs = []string{
	"int;",
	"int f( {",
	"void f() { return }",
	"void f() { x = ; }",
	"void f() { 1 + 2; }",
	"struct S { int x }",
	`"unterminated`,
	"'a",
	"@",
	"/* unterminated",
	"int x = " + strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000) + ";",
	"void f() " + strings.Repeat("{", 100000) + strings.Repeat("}", 100000),
	"int x = " + strings.Repeat("!", 100000) + "1;",
	"int x = " + strings.Repeat("- ", 999) + "1;",
	"int x = " + strings.Repeat("- ", 1000) + "1;",
	"int x = " + strings.Repeat("(", 999) + "1" + strings.Repeat(")", 999) + ";",
	"int x = " + strings.Repeat("(", 1000) + "1" + strings.Repeat(")", 1000) + ";",
	"int x = " + strings.Repeat("1 + (", 600) + "1" + strings.Repeat(")", 600) + ";",
	"void f() " + strings.Repeat("{", 1001) + strings.Repeat("}", 1001),
	"void f() " + strings.Repeat("{", 1002) + strings.Repeat("}", 1002),
	"void f() { " + strings.Repeat("if (1) ", 999) + "return; }",
	"void f() { " + strings.Repeat("if (1) ", 1000) + "return; }",
	"int x = 1; // " + strings.Repeat("a", cminor.MaxSourceBytes),
	"int g(int x);\nint f(int x) { return g(x) + 1; }",
	"void f() { for (int i = 0, j = 1; i; i++) {} }",
	"void f() { int* p; p = malloc(1, 2); }",
	"void f() { int* p; p = (int*)malloc(); }",
	"int g(); void f() { int x; x = (int)g(); }",
	"void f() { 1 = 2; }",
	"void f() { int x; &1; }",
	"void f() { int x; x++ ; 3++; }",
	"int x = 0x;",
	"int x = 99999999999999999999;",
	"char* s = \"ab\\",
	"int c = '\\",
	"int c = 'ab';",
	"int x = 1 | 2;",
	"int x = $;",
	"#include <x.h>\n  // c\n\t/* d\n */ int 3;",
	"int x;\r\n\tint y\r\n\t\t= ;\r\n",
	"int f() {\n  return 1;\n}\n\n",
	"void f() { int x; x.y = 1; }",
	"int g = f(1);",
	"struct s { int a[x]; };",
	"void f() { g(1, 2,); }",
	"int f(int a, int) {}",
	"int f(void, int a) {}",
	"int x = sizeof(3);",
	"void f() { int x; x += g(1); }",
	"int #x;",
	"void f() { while (1) }",
	"struct",
	// Rejected expressions holding two calls: the error names the first in
	// source order, and a parse error later in the declaration comes first.
	"void h() { int x; x = f(1) + g(2); }",
	"void h() { if (f(g(1)) < k(2)) {} }",
	"void h() { int a = f(1), b = 2 * g(3) - k(4); }",
	"int a = 1, b = (f(1))[g(2)];",
	"void h() { return -f(1) * g(2); }",
	"void h() { int x; x += (f(1)) + g(2); }",
	"void h() { while (x < f(1) && g(2)) {} }",
	"int a = f(1) + g(2), b = ;",
	"void h() { for (int i = f(1) + g(2), j = 1; i; i++) {} }",
}

// parseReport renders the golden's contents.
func parseReport(t *testing.T) string {
	t.Helper()
	names := quals.MustStandard().Names()
	taint, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	for n := range taint.Names() {
		names[n] = true
	}
	type input struct{ name, src string }
	var inputs []input
	for i := 0; i < 96; i++ {
		inputs = append(inputs, input{corpus.TreeFileName(i), corpus.TreeFile(0x7ee5eed, i)})
	}
	for _, p := range corpus.All() {
		inputs = append(inputs, input{p.Name + ".c", p.Source})
	}
	inputs = append(inputs, input{"numbering.c", numberingSource})

	var b strings.Builder
	seen := map[string]string{} // dump -> first file with it
	for _, in := range inputs {
		prog, err := cminor.Parse(in.name, in.src, names)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		d := dumpProgram(prog, in.src)
		if first, ok := seen[d]; ok {
			fmt.Fprintf(&b, "== %s nodes=%d: as %s\n", in.name, prog.Nodes, first)
			continue
		}
		seen[d] = in.name
		fmt.Fprintf(&b, "== %s nodes=%d\n%s", in.name, prog.Nodes, d)
	}
	b.WriteString("== errors\n")
	for _, src := range goldenErrorInputs {
		_, err := cminor.Parse("e.c", src, names)
		msg := "<nil>"
		if err != nil {
			msg = err.Error()
		}
		fmt.Fprintf(&b, "%s\n", msg)
	}
	return b.String()
}

// dumper renders a program one node per line, in source order, indented
// by depth. Positions print as line:col, and in full only when their file
// is not the program's.
type dumper struct {
	b    strings.Builder
	file string
}

func dumpProgram(prog *cminor.Program, src string) string {
	d := &dumper{file: prog.File}
	for _, s := range prog.Structs {
		d.line(0, "struct %s %s", s.Name, d.pos(s.Pos))
		for _, f := range s.Fields {
			d.line(1, "field %s %s %s", f.Name, d.pos(f.Pos), f.Type)
		}
	}
	for _, g := range prog.Globals {
		d.decl(0, "global", g)
	}
	for _, f := range prog.Funcs {
		src := srcSpan(src, f.Src)
		d.line(0, "func %s %s %s variadic=%v nodes=[%d,%d) src=%s", f.Name, d.pos(f.Pos), f.Result, f.Variadic, f.Nodes.Lo, f.Nodes.Hi, src)
		for _, p := range f.Params {
			d.line(1, "param %s %s %s", p.Name, d.pos(p.Pos), p.Type)
		}
		if f.Body != nil {
			d.stmt(1, f.Body)
		}
	}
	return d.b.String()
}

// srcSpan places a function's Src in the parsed source as its byte range
// there, so the golden pins its text without repeating it.
func srcSpan(src, s string) string {
	if s == "" {
		return "empty"
	}
	off := strings.Index(src, s)
	if off < 0 {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("[%d,%d)", off, off+len(s))
}

func (d *dumper) pos(p cminor.Pos) string {
	if p.File == d.file {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return p.String()
}

func (d *dumper) line(depth int, format string, args ...interface{}) {
	d.b.WriteString(strings.Repeat(" ", depth))
	fmt.Fprintf(&d.b, format, args...)
	d.b.WriteByte('\n')
}

func (d *dumper) decl(depth int, what string, v *cminor.VarDecl) {
	d.line(depth, "%s %s %s %s", what, v.Name, d.pos(v.Pos), v.Type)
	if v.Init != nil {
		d.expr(depth+1, v.Init)
	}
}

func (d *dumper) stmt(depth int, s cminor.Stmt) {
	switch s := s.(type) {
	case *cminor.Block:
		d.line(depth, "Block %s", d.pos(s.Pos))
		for _, inner := range s.Stmts {
			d.stmt(depth+1, inner)
		}
	case *cminor.DeclStmt:
		d.line(depth, "DeclStmt %s", d.pos(s.Pos))
		d.decl(depth+1, "local", s.Decl)
	case *cminor.InstrStmt:
		d.line(depth, "InstrStmt %s", d.pos(s.Pos))
		d.instr(depth+1, s.Instr)
	case *cminor.If:
		d.line(depth, "If %s else=%v", d.pos(s.Pos), s.Else != nil)
		d.expr(depth+1, s.Cond)
		d.stmt(depth+1, s.Then)
		if s.Else != nil {
			d.stmt(depth+1, s.Else)
		}
	case *cminor.While:
		d.line(depth, "While %s", d.pos(s.Pos))
		d.expr(depth+1, s.Cond)
		d.stmt(depth+1, s.Body)
	case *cminor.For:
		d.line(depth, "For %s init=%v cond=%v post=%v", d.pos(s.Pos), s.Init != nil, s.Cond != nil, s.Post != nil)
		if s.Init != nil {
			d.stmt(depth+1, s.Init)
		}
		if s.Cond != nil {
			d.expr(depth+1, s.Cond)
		}
		if s.Post != nil {
			d.stmt(depth+1, s.Post)
		}
		d.stmt(depth+1, s.Body)
	case *cminor.Return:
		d.line(depth, "Return %s", d.pos(s.Pos))
		if s.X != nil {
			d.expr(depth+1, s.X)
		}
	case *cminor.Break:
		d.line(depth, "Break %s", d.pos(s.Pos))
	case *cminor.Continue:
		d.line(depth, "Continue %s", d.pos(s.Pos))
	default:
		d.line(depth, "stmt %T", s)
	}
}

func (d *dumper) instr(depth int, in cminor.Instr) {
	switch in := in.(type) {
	case *cminor.Assign:
		d.line(depth, "Assign %s", d.pos(in.Pos))
		d.lvalue(depth+1, in.LHS)
		d.expr(depth+1, in.RHS)
	case *cminor.CallInstr:
		d.line(depth, "Call %s %s lhs=%v args=%d", d.pos(in.Pos), in.Fn, in.LHS != nil, len(in.Args))
		if in.LHS != nil {
			d.lvalue(depth+1, in.LHS)
		}
		for _, a := range in.Args {
			d.expr(depth+1, a)
		}
	default:
		d.line(depth, "instr %T", in)
	}
}

func (d *dumper) expr(depth int, e cminor.Expr) {
	head := func(kind string) string { return fmt.Sprintf("%s#%d %s", kind, e.ID(), d.pos(e.Position())) }
	switch e := e.(type) {
	case *cminor.IntLit:
		d.line(depth, "%s %d char=%v", head("Int"), e.Value, e.IsChar)
	case *cminor.StrLit:
		d.line(depth, "%s %q", head("Str"), e.Value)
	case *cminor.NullLit:
		d.line(depth, "%s", head("Null"))
	case *cminor.LVExpr:
		d.line(depth, "%s", head("LVExpr"))
		d.lvalue(depth+1, e.LV)
	case *cminor.AddrOf:
		d.line(depth, "%s", head("AddrOf"))
		d.lvalue(depth+1, e.LV)
	case *cminor.Unop:
		d.line(depth, "%s %s", head("Unop"), e.Op)
		d.expr(depth+1, e.X)
	case *cminor.Binop:
		d.line(depth, "%s %s", head("Binop"), e.Op)
		d.expr(depth+1, e.L)
		d.expr(depth+1, e.R)
	case *cminor.Cast:
		d.line(depth, "%s %s", head("Cast"), e.Type)
		d.expr(depth+1, e.X)
	case *cminor.SizeofExpr:
		d.line(depth, "%s %s", head("Sizeof"), e.Type)
	case *cminor.NewExpr:
		d.line(depth, "%s", head("New"))
		d.expr(depth+1, e.Size)
	default:
		d.line(depth, "%s %T", head("expr"), e)
	}
}

func (d *dumper) lvalue(depth int, lv cminor.LValue) {
	head := func(kind string) string { return fmt.Sprintf("%s#%d %s", kind, lv.ID(), d.pos(lv.Position())) }
	switch lv := lv.(type) {
	case *cminor.VarLV:
		d.line(depth, "%s %s", head("Var"), lv.Name)
	case *cminor.DerefLV:
		d.line(depth, "%s", head("Deref"))
		d.expr(depth+1, lv.Addr)
	case *cminor.FieldLV:
		d.line(depth, "%s .%s", head("Field"), lv.Field)
		d.lvalue(depth+1, lv.Base)
	default:
		d.line(depth, "%s %T", head("lvalue"), lv)
	}
}
