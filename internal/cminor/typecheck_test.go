package cminor

import (
	"strings"
	"testing"
)

func checkProg(t *testing.T, src string) (*TypeInfo, []Diagnostic) {
	t.Helper()
	p := mustParseProg(t, src)
	return TypeCheck(p)
}

func wantClean(t *testing.T, src string) *TypeInfo {
	t.Helper()
	info, diags := checkProg(t, src)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	return info
}

func wantDiag(t *testing.T, src, substr string) {
	t.Helper()
	_, diags := checkProg(t, src)
	for _, d := range diags {
		if strings.Contains(d.Msg, substr) {
			return
		}
	}
	t.Errorf("no diagnostic containing %q; got %v", substr, diags)
}

func TestTypeCheckClean(t *testing.T) {
	wantClean(t, `
struct point { int x; int y; };
int origin_dist(struct point* p) {
  int dx = p->x;
  int dy = p->y;
  return dx * dx + dy * dy;
}
void zero(struct point* p) {
  p->x = 0;
  p->y = 0;
}
`)
}

func TestTypeCheckUndefinedVariable(t *testing.T) {
	wantDiag(t, `void f() { x = 1; }`, "undefined variable x")
}

func TestTypeCheckUndefinedFunction(t *testing.T) {
	wantDiag(t, `void f() { g(); }`, "undefined function g")
}

func TestTypeCheckBadAssign(t *testing.T) {
	wantDiag(t, `
struct s { int x; };
void f(struct s* p, int i) { i = *p; }
`, "cannot assign")
}

func TestTypeCheckDerefNonPointer(t *testing.T) {
	wantDiag(t, `void f(int x) { int y = *x; }`, "dereference of non-pointer")
}

func TestTypeCheckFieldOnNonStruct(t *testing.T) {
	wantDiag(t, `void f(int x) { int y = x.val; }`, "field access on non-struct")
}

func TestTypeCheckUnknownField(t *testing.T) {
	wantDiag(t, `
struct s { int x; };
void f(struct s* p) { int y = p->z; }
`, "no field z")
}

func TestTypeCheckArgumentCountAndTypes(t *testing.T) {
	wantDiag(t, `
int g(int a);
void f() { int x; x = g(1, 2); }
`, "expects 1 argument")
	wantDiag(t, `
struct s { int x; };
int g(int a);
void f(struct s* p) { int x; x = g(p); }
`, "cannot pass")
}

func TestTypeCheckVariadicOK(t *testing.T) {
	wantClean(t, `
int printf(char* format, ...);
void f(int n) { printf("%d %d", n, n + 1); }
`)
}

func TestTypeCheckReturnMismatch(t *testing.T) {
	wantDiag(t, `
struct s { int x; };
struct s* g();
int f() {
  struct s* p;
  p = g();
  return p;
}
`, "cannot return")
	wantDiag(t, `int f() { return; }`, "missing return value")
}

func TestTypeCheckPointerArithmeticLogicalModel(t *testing.T) {
	// p + i has p's type (section 3.3).
	info := wantClean(t, `
void f(int* p, int i) {
  int x = p[i];
  int* q = p + i;
}
`)
	if info == nil {
		t.Fatal("no info")
	}
}

func TestTypeCheckNullAssignable(t *testing.T) {
	wantClean(t, `
struct s { int x; };
void f() {
  struct s* p = NULL;
  int* q = NULL;
  if (p == NULL && q != NULL) { return; }
}
`)
}

func TestTypeCheckVoidPointerCompat(t *testing.T) {
	wantClean(t, `
void f(int n) {
  int* p;
  p = malloc(sizeof(int) * n);
}
`)
}

func TestTypeCheckQualifiedTypesRecorded(t *testing.T) {
	prog := mustParseProg(t, `
int pos lcm(int pos a, int pos b) {
  int pos prod = a * b;
  return prod;
}
`)
	info, diags := TypeCheck(prog)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	// Find the recorded type of some expression mentioning a.
	found := false
	Walk(prog, Visitor{Expr: func(e Expr) {
		if lve, ok := e.(*LVExpr); ok {
			if v, ok := lve.LV.(*VarLV); ok && v.Name == "a" {
				if typ := info.TypeOf(e); !HasQual(typ, "pos") {
					t.Errorf("type of a = %s, want int pos", typ)
				}
				found = true
			}
		}
	}})
	if !found {
		t.Error("no occurrence of a recorded")
	}
}

func TestTypeCheckStructRedefinition(t *testing.T) {
	wantDiag(t, `
struct s { int x; };
struct s { int y; };
`, "redefined")
}

func TestTypeCheckConflictingPrototypes(t *testing.T) {
	wantDiag(t, `
int f(int a);
char* f(int a);
`, "conflicting signatures")
}

func TestTypeCheckRedeclaration(t *testing.T) {
	wantDiag(t, `void f() { int x; int x; }`, "redeclared")
}

func TestTypeCheckShadowingAllowed(t *testing.T) {
	wantClean(t, `
int x;
void f(int n) {
  int x = n;
  if (n > 0) {
    int x = 2;
    n = x;
  }
}
`)
}

func TestTypeCheckUndefinedStruct(t *testing.T) {
	wantDiag(t, `void f(struct nosuch* p) { }`, "undefined struct")
}

func TestTypeCheckArraysDecay(t *testing.T) {
	wantClean(t, `
int sum(int* a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  return s;
}
void f() {
  int buf[8];
  for (int i = 0; i < 8; i++) buf[i] = i;
  int t;
  t = sum(buf, 8);
}
`)
}

func TestTypeCheckCharAndStrings(t *testing.T) {
	wantClean(t, `
int strlen2(char* s) {
  int n = 0;
  while (s[n] != '\0') n++;
  return n;
}
void f() {
  char* msg = "hello";
  int n;
  n = strlen2(msg);
}
`)
}
