package cminor

import (
	"strings"
	"testing"
	"unsafe"
)

var testQuals = map[string]bool{
	"pos": true, "neg": true, "nonzero": true, "nonnull": true,
	"tainted": true, "untainted": true, "unique": true, "unaliased": true,
}

func mustParseProg(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse("test.c", src, testQuals)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return p
}

func TestParseGlobalAndFunction(t *testing.T) {
	p := mustParseProg(t, `
int counter = 0;
int add(int a, int b) {
  int s = a + b;
  return s;
}
`)
	if len(p.Globals) != 1 || p.Globals[0].Name != "counter" {
		t.Fatalf("globals = %+v", p.Globals)
	}
	fn := p.Func("add")
	if fn == nil || len(fn.Params) != 2 || fn.Body == nil {
		t.Fatalf("add not parsed: %+v", fn)
	}
}

func TestParseQualifiedTypes(t *testing.T) {
	p := mustParseProg(t, `
int pos gcd(int pos n, int pos m);
char * untainted fmt;
int * nonnull * q;
`)
	fn := p.Func("gcd")
	if fn == nil {
		t.Fatal("gcd not parsed")
	}
	if !HasQual(fn.Result, "pos") {
		t.Errorf("result type = %s, want int pos", fn.Result)
	}
	if !HasQual(fn.Params[0].Type, "pos") {
		t.Errorf("param type = %s, want int pos", fn.Params[0].Type)
	}
	// char * untainted: qualifier applies to the pointer type.
	g := p.Globals[0]
	if !HasQual(g.Type, "untainted") || !IsPointer(g.Type) {
		t.Errorf("fmt type = %s, want char* untainted", g.Type)
	}
	// int * nonnull * : pointer to (nonnull pointer to int).
	q := p.Globals[1]
	pt, ok := StripQuals(q.Type).(PointerType)
	if !ok {
		t.Fatalf("q type = %s", q.Type)
	}
	if !HasQual(pt.Elem, "nonnull") {
		t.Errorf("q pointee = %s, want int* nonnull", pt.Elem)
	}
}

func TestParseQualifierNameAsVariable(t *testing.T) {
	// Without a registry entry, "pos" is an ordinary identifier.
	p, err := Parse("t.c", "int pos = 3;", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Globals) != 1 || p.Globals[0].Name != "pos" {
		t.Fatalf("globals = %+v", p.Globals)
	}
}

func TestParseLcmExample(t *testing.T) {
	// Figure 2 of the paper.
	p := mustParseProg(t, `
int pos gcd(int pos n, int pos m);
int pos lcm(int pos a, int pos b) {
  int pos d = gcd(a, b);
  int pos prod = a * b;
  return (int pos) (prod / d);
}
`)
	lcm := p.Func("lcm")
	if lcm == nil || lcm.Body == nil {
		t.Fatal("lcm missing")
	}
	// "int pos d = gcd(a,b)" splits CIL-style into a declaration plus a
	// call instruction, so the body has 4 statements.
	if n := len(lcm.Body.Stmts); n != 4 {
		t.Fatalf("lcm body has %d statements, want 4", n)
	}
	ds, ok := lcm.Body.Stmts[0].(*DeclStmt)
	if !ok {
		t.Fatalf("first stmt = %T", lcm.Body.Stmts[0])
	}
	if ds.Decl.Init != nil {
		t.Fatal("d's call initializer was not split out")
	}
	call, ok := lcm.Body.Stmts[1].(*InstrStmt).Instr.(*CallInstr)
	if !ok || call.Fn != "gcd" || call.LHS == nil {
		t.Fatalf("second stmt = %+v, want d = gcd(a, b)", lcm.Body.Stmts[1])
	}
	ret, ok := lcm.Body.Stmts[3].(*Return)
	if !ok {
		t.Fatalf("fourth stmt = %T", lcm.Body.Stmts[3])
	}
	cast, ok := ret.X.(*Cast)
	if !ok || !HasQual(cast.Type, "pos") {
		t.Fatalf("return expr = %T, want cast to int pos", ret.X)
	}
}

func TestParseMallocBecomesNew(t *testing.T) {
	p := mustParseProg(t, `
int* unique array;
void make_array(int n) {
  array = (int*)malloc(sizeof(int) * n);
  for (int i = 0; i < n; i++) array[i] = i;
}
`)
	fn := p.Func("make_array")
	is := fn.Body.Stmts[0].(*InstrStmt)
	asg := is.Instr.(*Assign)
	cast, ok := asg.RHS.(*Cast)
	if !ok {
		t.Fatalf("rhs = %T, want cast", asg.RHS)
	}
	if _, ok := cast.X.(*NewExpr); !ok {
		t.Fatalf("cast operand = %T, want NewExpr", cast.X)
	}
}

func TestParseArrayIndexDesugar(t *testing.T) {
	p := mustParseProg(t, `
void f(int* a, int i) {
  a[i] = 1;
  int x = a[i + 1];
}
`)
	fn := p.Func("f")
	asg := fn.Body.Stmts[0].(*InstrStmt).Instr.(*Assign)
	d, ok := asg.LHS.(*DerefLV)
	if !ok {
		t.Fatalf("a[i] lhs = %T, want DerefLV", asg.LHS)
	}
	b, ok := d.Addr.(*Binop)
	if !ok || b.Op != BAdd {
		t.Fatalf("a[i] address = %s", ExprString(d.Addr))
	}
}

func TestParseArrowAndDot(t *testing.T) {
	p := mustParseProg(t, `
struct node { int val; struct node* next; };
int get(struct node* n) {
  return n->next->val;
}
`)
	fn := p.Func("get")
	ret := fn.Body.Stmts[0].(*Return)
	lve := ret.X.(*LVExpr)
	f1 := lve.LV.(*FieldLV)
	if f1.Field != "val" {
		t.Fatalf("outer field = %s", f1.Field)
	}
	if _, ok := f1.Base.(*DerefLV); !ok {
		t.Fatalf("n->next->val base = %T", f1.Base)
	}
}

func TestParseControlFlow(t *testing.T) {
	p := mustParseProg(t, `
int f(int n) {
  int s = 0;
  while (n > 0) {
    if (n % 2 == 0) { s = s + n; } else s = s - 1;
    n = n - 1;
  }
  for (int i = 0; i < 3; i++) {
    if (i == 1) continue;
    if (i == 2) break;
    s += i;
  }
  return s;
}
`)
	if p.Func("f") == nil {
		t.Fatal("f missing")
	}
}

func TestParseCallsAreInstructions(t *testing.T) {
	// Calls nested in expressions must be rejected (CIL discipline).
	_, err := Parse("t.c", `
int g(int x);
int f(int x) { return g(x) + 1; }
`, nil)
	if err == nil || !strings.Contains(err.Error(), "expression position") {
		t.Errorf("nested call not rejected: %v", err)
	}
}

func TestParseVariadicPrototype(t *testing.T) {
	p := mustParseProg(t, `int printf(char * untainted format, ...);`)
	fn := p.Func("printf")
	if fn == nil || !fn.Variadic {
		t.Fatalf("printf = %+v", fn)
	}
	if !HasQual(fn.Params[0].Type, "untainted") {
		t.Errorf("format type = %s", fn.Params[0].Type)
	}
}

func TestParseAddressOf(t *testing.T) {
	p := mustParseProg(t, `
void f() {
  int x = 0;
  int* p = &x;
  *p = 5;
}
`)
	fn := p.Func("f")
	ds := fn.Body.Stmts[1].(*DeclStmt)
	if _, ok := ds.Decl.Init.(*AddrOf); !ok {
		t.Fatalf("&x parsed as %T", ds.Decl.Init)
	}
	asg := fn.Body.Stmts[2].(*InstrStmt).Instr.(*Assign)
	if _, ok := asg.LHS.(*DerefLV); !ok {
		t.Fatalf("*p lhs = %T", asg.LHS)
	}
}

func TestParseMultiDeclarators(t *testing.T) {
	p := mustParseProg(t, `void f() { int a = 1, b, c = 2; }`)
	fn := p.Func("f")
	if len(fn.Body.Stmts) != 3 {
		t.Fatalf("got %d stmts, want 3", len(fn.Body.Stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int;",
		"int f( {",
		"void f() { return }",
		"void f() { x = ; }",
		"void f() { 1 + 2; }", // expression statement that is not a call
		"struct S { int x }",  // missing semi
	}
	for _, src := range bad {
		if _, err := Parse("t.c", src, nil); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	src := `
struct dfa { int nstates; int* trans; };
int* unique array;
int pos lcm(int pos a, int pos b);
void f(int n) {
  array = (int*)malloc(sizeof(int) * n);
  int i = 0;
  while (i < n) {
    array[i] = i;
    i = i + 1;
  }
  if (n > 0 && array != NULL) {
    f(n - 1);
  }
}
`
	p1 := mustParseProg(t, src)
	out := Print(p1)
	p2, err := Parse("printed.c", out, testQuals)
	if err != nil {
		t.Fatalf("reparse of printed program failed: %v\n%s", err, out)
	}
	out2 := Print(p2)
	if out != out2 {
		t.Errorf("print not stable:\n--- first\n%s\n--- second\n%s", out, out2)
	}
}

// TestFuncSrc pins FuncDef.Src: the exact source from the start of the line
// holding the function's first token through its closing brace (or a
// prototype's ';'), sliced from the parsed source rather than copied.
func TestFuncSrc(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      map[string]string
	}{
		{
			name: "column 1",
			src:  "int g;\nint f(int a) {\n  return a;\n}\nint h;\n",
			want: map[string]string{"f": "int f(int a) {\n  return a;\n}"},
		},
		{
			name: "indented",
			src:  "int g;\n    int f(int a) {\n      return a;\n    }\n",
			want: map[string]string{"f": "    int f(int a) {\n      return a;\n    }"},
		},
		{
			name: "prototype",
			src:  "int g;\n  int pos f(int pos a, ...);\nint h;\n",
			want: map[string]string{"f": "  int pos f(int pos a, ...);"},
		},
		{
			name: "two on one line",
			src:  "int g;\nint f() { return 1; } int h() { return 2; }\n",
			want: map[string]string{
				"f": "int f() { return 1; }",
				"h": "int f() { return 1; } int h() { return 2; }",
			},
		},
		{
			name: "trailing comment",
			src:  "int f() {\n  return 1;\n} // not part of f\nint g;\n",
			want: map[string]string{"f": "int f() {\n  return 1;\n}"},
		},
		{
			name: "block comment in body",
			src:  "int f() {\n  /* a } and a ;\n     over two lines */\n  return 1;\n}\n",
			want: map[string]string{"f": "int f() {\n  /* a } and a ;\n     over two lines */\n  return 1;\n}"},
		},
		{
			name: "nested blocks and split header",
			src:  "struct s { int x; };\nstruct s* nonnull\nf(int a)\n{\n  if (a) {\n    while (a) { a = a - 1; }\n  }\n  return NULL;\n}",
			want: map[string]string{"f": "struct s* nonnull\nf(int a)\n{\n  if (a) {\n    while (a) { a = a - 1; }\n  }\n  return NULL;\n}"},
		},
		{
			name: "CRLF and tabs",
			src:  "int g;\r\n\tint f() {\r\n\t\treturn 1;\r\n\t}\r\n",
			want: map[string]string{"f": "\tint f() {\r\n\t\treturn 1;\r\n\t}"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustParseProg(t, tc.src)
			if len(p.Funcs) != len(tc.want) {
				t.Fatalf("parsed %d functions, want %d", len(p.Funcs), len(tc.want))
			}
			base := uintptr(unsafe.Pointer(unsafe.StringData(tc.src)))
			for _, fn := range p.Funcs {
				if fn.Src != tc.want[fn.Name] {
					t.Errorf("%s.Src = %q, want %q", fn.Name, fn.Src, tc.want[fn.Name])
				}
				at := uintptr(unsafe.Pointer(unsafe.StringData(fn.Src)))
				if at < base || at+uintptr(len(fn.Src)) > base+uintptr(len(tc.src)) {
					t.Errorf("%s.Src is a copy, not a substring of the parsed source", fn.Name)
				}
			}
		})
	}
}
