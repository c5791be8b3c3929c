package checker

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cminor"
	"repro/internal/quals"
)

func inferOn(t *testing.T, src string, qualNames []string) ([]InferredAnnotation, *cminor.Program) {
	t.Helper()
	reg := quals.MustStandard()
	prog, err := cminor.Parse("test.c", src, reg.Names())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	inferred, err := Infer(prog, reg, qualNames)
	if err != nil {
		t.Fatal(err)
	}
	return inferred, prog
}

func hasInferred(inferred []InferredAnnotation, name, qual string) bool {
	for _, a := range inferred {
		if a.Var == name && a.Qual == qual {
			return true
		}
	}
	return false
}

func TestInferSimpleConstants(t *testing.T) {
	inferred, _ := inferOn(t, `
void f() {
  int a = 5;
  int b = -3;
  int c = 0;
}
`, []string{"pos", "neg", "nonzero"})
	if !hasInferred(inferred, "a", "pos") || !hasInferred(inferred, "a", "nonzero") {
		t.Errorf("a should infer pos+nonzero: %v", inferred)
	}
	if !hasInferred(inferred, "b", "neg") {
		t.Errorf("b should infer neg: %v", inferred)
	}
	if hasInferred(inferred, "c", "pos") || hasInferred(inferred, "c", "neg") || hasInferred(inferred, "c", "nonzero") {
		t.Errorf("c must infer nothing: %v", inferred)
	}
}

func TestInferThroughDerivation(t *testing.T) {
	// m = a * b is pos only if a and b stay pos: a mutually dependent
	// fixpoint.
	inferred, _ := inferOn(t, `
void f() {
  int a = 2;
  int b = 3;
  int m = a * b;
}
`, []string{"pos"})
	for _, v := range []string{"a", "b", "m"} {
		if !hasInferred(inferred, v, "pos") {
			t.Errorf("%s should infer pos: %v", inferred, v)
		}
	}
}

func TestInferRetractsOnBadAssignment(t *testing.T) {
	// a is reassigned to a non-positive value: the assumption must retract,
	// and m (depending on a) must lose pos transitively.
	inferred, _ := inferOn(t, `
void f(int unknown) {
  int a = 2;
  int m = a * a;
  a = unknown;
}
`, []string{"pos"})
	if hasInferred(inferred, "a", "pos") {
		t.Errorf("a is reassigned arbitrarily; pos must retract: %v", inferred)
	}
	if hasInferred(inferred, "m", "pos") {
		// m's initializer uses a; after retraction the derivation fails.
		t.Errorf("m depends on a; pos must retract transitively: %v", inferred)
	}
}

func TestInferParametersClosedWorld(t *testing.T) {
	// Every call site passes a positive value, so the parameter infers pos
	// and the body's product becomes derivable.
	inferred, prog := inferOn(t, `
int square(int x) {
  return x * x;
}
void main2() {
  int r;
  r = square(3);
  r = square(7);
}
`, []string{"pos"})
	if !hasInferred(inferred, "x", "pos") {
		t.Errorf("parameter x should infer pos: %v", inferred)
	}
	// The program with applied annotations still checks cleanly.
	reg := quals.MustStandard()
	res := Check(prog, reg)
	for _, d := range res.Diags {
		t.Errorf("after inference: %s", d)
	}
}

func TestInferParameterRetractsOnOneBadCall(t *testing.T) {
	inferred, _ := inferOn(t, `
int square(int x) {
  return x * x;
}
void main2(int anything) {
  int r;
  r = square(3);
  r = square(anything);
}
`, []string{"pos"})
	if hasInferred(inferred, "x", "pos") {
		t.Errorf("one call site passes an arbitrary value; x must not infer pos: %v", inferred)
	}
}

func TestInferAddressTakenExcluded(t *testing.T) {
	inferred, _ := inferOn(t, `
void f() {
  int a = 5;
  int* p = &a;
  *p = -1;
}
`, []string{"pos"})
	if hasInferred(inferred, "a", "pos") {
		t.Errorf("address-taken a must be excluded: %v", inferred)
	}
}

func TestInferPreservesUserAnnotations(t *testing.T) {
	_, prog := inferOn(t, `
void f(int pos given) {
  int d = given * given;
}
`, []string{"pos"})
	// The user's annotation must survive on the parameter.
	fn := prog.Func("f")
	if !cminor.HasQual(fn.Params[0].Type, "pos") {
		t.Errorf("user annotation lost: %s", fn.Params[0].Type)
	}
}

func TestInferNeverIntroducesWarnings(t *testing.T) {
	// Inference on a program that checks cleanly keeps it clean.
	reg := quals.MustStandard()
	src := `
int pos gcd(int pos n, int pos m);
int pos lcm(int pos a, int pos b) {
  int pos d;
  d = gcd(a, b);
  int pos prod = a * b;
  return (int pos) (prod / d);
}
`
	prog, err := cminor.Parse("lcm.c", src, reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	before := Check(prog, reg)
	if len(before.Diags) != 0 {
		t.Fatalf("baseline not clean: %v", before.Diags)
	}
	if _, err := Infer(prog, reg, []string{"pos", "neg", "nonzero"}); err != nil {
		t.Fatal(err)
	}
	after := Check(prog, reg)
	for _, d := range after.Diags {
		t.Errorf("inference introduced: %s", d)
	}
}

func TestInferReducesAnnotationBurden(t *testing.T) {
	// The section 8 motivation: a program that FAILS to check without
	// manual annotations checks cleanly after inference.
	reg := quals.MustStandard()
	src := `
int pos area(int pos w, int pos h);
void f() {
  int w = 3;
  int h = 4;
  int a;
  a = area(w, h);
}
`
	prog, err := cminor.Parse("area.c", src, reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	before := Check(prog, reg)
	if len(before.Errors("qual")) == 0 {
		t.Fatal("expected missing-qualifier warnings before inference")
	}
	prog2, err := cminor.Parse("area.c", src, reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := Infer(prog2, reg, []string{"pos"})
	if err != nil {
		t.Fatal(err)
	}
	if len(inferred) == 0 {
		t.Fatal("nothing inferred")
	}
	after := Check(prog2, reg)
	for _, d := range after.Diags {
		t.Errorf("after inference: %s", d)
	}
}

func TestInferRejectsRefQualifiers(t *testing.T) {
	reg := quals.MustStandard()
	prog, err := cminor.Parse("t.c", "void f() { }", reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Infer(prog, reg, []string{"unique"}); err == nil || !strings.Contains(err.Error(), "reference qualifier") {
		t.Errorf("expected rejection of reference qualifiers, got %v", err)
	}
}

// TestCheckWithCacheAfterInfer pins the CheckWithCache contract across
// Infer, which rewrites declarations in place: checking the inferred program
// through a cache, fresh or primed on the program before inference, gives
// what Check gives. Inference here changes only a local, so the context key
// does not move: only Infer dropping the rewritten function's source text
// keeps the primed entry from replaying.
func TestCheckWithCacheAfterInfer(t *testing.T) {
	const src = `
int pos f() {
  int x = 5;
  int pos y = x;
  return y;
}
`
	reg := quals.MustStandard()
	before := Check(parseWith(t, reg, src), reg)
	for _, primed := range []bool{false, true} {
		fc := NewFuncCache(0)
		if primed {
			checkCached(t, reg, src, fc)
		}
		prog := parseWith(t, reg, src)
		if _, err := Infer(prog, reg, []string{"pos"}); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(Check(prog, reg).Diags)
		if want == fmt.Sprint(before.Diags) {
			t.Fatalf("inference left the diagnostics unchanged (%s); the test needs a change to catch", want)
		}
		if got := fmt.Sprint(CheckWithCache(context.Background(), prog, reg, Options{}, fc).Diags); got != want {
			t.Errorf("primed=%v: CheckWithCache after Infer = %s, Check = %s", primed, got, want)
		}
	}
}
