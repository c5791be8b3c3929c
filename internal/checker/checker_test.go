package checker

import (
	"strings"
	"testing"

	"repro/internal/cminor"
	"repro/internal/qdl"
	"repro/internal/quals"
)

func run(t *testing.T, src string) *Result {
	t.Helper()
	reg := quals.MustStandard()
	prog, err := cminor.Parse("test.c", src, reg.Names())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog, reg)
}

func runWith(t *testing.T, reg *qdl.Registry, src string) *Result {
	t.Helper()
	prog, err := cminor.Parse("test.c", src, reg.Names())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog, reg)
}

// refRegistry loads only the reference qualifiers, as the paper's section
// 6.2 experiment does (nonnull's program-wide dereference restrict would
// otherwise demand annotations unrelated to the uniqueness checks).
func refRegistry(t *testing.T) *qdl.Registry {
	t.Helper()
	reg, err := qdl.Load(map[string]string{
		"unique.qdl":    quals.Unique,
		"unaliased.qdl": quals.Unaliased,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func wantNoDiags(t *testing.T, r *Result) {
	t.Helper()
	for _, d := range r.Diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func wantDiag(t *testing.T, r *Result, code, substr string) {
	t.Helper()
	for _, d := range r.Diags {
		if d.Code == code && strings.Contains(d.Msg, substr) {
			return
		}
	}
	t.Errorf("no [%s] diagnostic containing %q; got %v", code, substr, r.Diags)
}

const lcmSrc = `
int pos gcd(int pos n, int pos m);
int pos lcm(int pos a, int pos b) {
  int pos d;
  d = gcd(a, b);
  int pos prod = a * b;
  return (int pos) (prod / d);
}
`

func TestLcmChecksCleanly(t *testing.T) {
	// Figure 2: with the cast, lcm typechecks with no warnings.
	r := run(t, lcmSrc)
	wantNoDiags(t, r)
	if r.ValueCasts != 1 {
		t.Errorf("got %d value-qualified casts, want 1", r.ValueCasts)
	}
}

func TestLcmWithoutCastFails(t *testing.T) {
	// The type rules for pos cannot derive int pos for prod/d; without the
	// cast the return fails (section 2.1.1).
	r := run(t, `
int pos gcd(int pos n, int pos m);
int pos lcm(int pos a, int pos b) {
  int pos d;
  d = gcd(a, b);
  int pos prod = a * b;
  return prod / d;
}
`)
	wantDiag(t, r, "qual", "pos")
}

func TestValueQualifierSubtyping(t *testing.T) {
	// tau q <= tau: int pos flows to int (section 2.1.2).
	r := run(t, `
void f() {
  int pos x = 3;
  int y = x;
}
`)
	wantNoDiags(t, r)
}

func TestNoSubtypingUnderPointers(t *testing.T) {
	// The unsound example of section 2.1.2: int pos* is not int*.
	r := run(t, `
void f() {
  int pos x = 3;
  int* p = &x;
  *p = -1;
}
`)
	wantDiag(t, r, "qual", "pointee types")
}

func TestConstantRules(t *testing.T) {
	r := run(t, `
void f() {
  int pos a = 5;
  int neg b = -7;
  int nonzero c = -3;
  int nonzero d = 4;
}
`)
	wantNoDiags(t, r)
	r2 := run(t, `void f() { int pos a = 0; }`)
	wantDiag(t, r2, "qual", "pos")
	r3 := run(t, `void f() { int nonzero c = 0; }`)
	wantDiag(t, r3, "qual", "nonzero")
}

func TestRecursiveCaseRules(t *testing.T) {
	// pos via multiplication and mutual recursion with neg via negation.
	r := run(t, `
void f(int pos a, int pos b, int neg c) {
  int pos m = a * b;
  int pos n = -c;
  int neg o = -m;
  int pos s = a + b;
}
`)
	wantNoDiags(t, r)
}

func TestPosSubtractionNotDerivable(t *testing.T) {
	r := run(t, `
void f(int pos a, int pos b) {
  int pos d = a - b;
}
`)
	wantDiag(t, r, "qual", "pos")
}

func TestNonzeroRestrictDivision(t *testing.T) {
	// Divisions require nonzero denominators; pos implies nonzero via the
	// case rule that encodes the subtype relationship (section 2.1.2).
	r := run(t, `
int f(int x, int pos d) {
  return x / d;
}
`)
	wantNoDiags(t, r)
	r2 := run(t, `
int f(int x, int d) {
  return x / d;
}
`)
	wantDiag(t, r2, "restrict", "nonzero")
}

func TestNonnullRestrictAndAddressOf(t *testing.T) {
	r := run(t, `
void f() {
  int x = 1;
  int* nonnull p = &x;
  int y = *p;
}
`)
	wantNoDiags(t, r)
	r2 := run(t, `
void f(int* p) {
  int y = *p;
}
`)
	wantDiag(t, r2, "restrict", "nonnull")
}

func TestNonnullPropagatesThroughAnnotatedParams(t *testing.T) {
	r := run(t, `
int deref(int* nonnull p) {
  return *p;
}
void g() {
  int x = 3;
  int r;
  r = deref(&x);
}
`)
	wantNoDiags(t, r)
}

func TestUntaintedFormatStrings(t *testing.T) {
	// Figure 4 usage: an untainted cast is required for the format string;
	// an arbitrary buffer fails.
	r := run(t, `
int printf(char * untainted format, ...);
void f(char* buf) {
  char * untainted fmt = (char * untainted) "%s";
  printf(fmt, buf);
}
`)
	wantNoDiags(t, r)
	r2 := run(t, `
int printf(char * untainted format, ...);
void f(char* buf) {
  printf(buf);
}
`)
	wantDiag(t, r2, "qual", "untainted")
}

func TestUntaintedConstCase(t *testing.T) {
	// Section 6.3: with the constants-are-trusted clause, string literals
	// are untainted without casts.
	reg, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	r := runWith(t, reg, `
int printf(char * untainted format, ...);
void f(int n) {
  printf("%d", n);
}
`)
	wantNoDiags(t, r)
}

func TestTaintedAcceptsAnything(t *testing.T) {
	r := run(t, `
void f(char* buf) {
  char * tainted t = buf;
  char* u = t;
}
`)
	wantNoDiags(t, r)
}

func TestUniqueAssignRules(t *testing.T) {
	// Figure 6: NULL and malloc establish uniqueness.
	r := runWith(t, refRegistry(t), `
int* unique array;
void make_array(int n) {
  array = (int*)malloc(sizeof(int) * n);
  for (int i = 0; i < n; i++) array[i] = i;
  array = NULL;
}
`)
	wantNoDiags(t, r)
}

func TestUniqueDisallowReferral(t *testing.T) {
	// Section 2.2.1: int* q = p violates p's uniqueness.
	r := runWith(t, refRegistry(t), `
void f() {
  int* unique p;
  p = (int*)malloc(sizeof(int));
  int* q = p;
}
`)
	wantDiag(t, r, "disallow", "unique")
}

func TestUniqueDereferenceAllowed(t *testing.T) {
	r := runWith(t, refRegistry(t), `
void f() {
  int* unique p;
  p = (int*)malloc(sizeof(int));
  *p = 4;
  int i = *p;
}
`)
	wantNoDiags(t, r)
}

func TestUniquePassedAsArgumentRejected(t *testing.T) {
	// Section 6.2: passing a unique global to a procedure violates the
	// disallow clause.
	r := runWith(t, refRegistry(t), `
int* unique dfa;
void helper(int* d);
void f() {
  helper(dfa);
}
`)
	wantDiag(t, r, "disallow", "unique")
}

func TestUniqueCallResultRejected(t *testing.T) {
	// Section 6.2: dfa initialized from a procedure result cannot be
	// validated by the assign rules.
	r := runWith(t, refRegistry(t), `
int* parser_result();
int* unique dfa;
void init() {
  dfa = parser_result();
}
`)
	wantDiag(t, r, "assign", "unique")
}

func TestUniqueArbitraryAssignRejected(t *testing.T) {
	r := runWith(t, refRegistry(t), `
void f(int* q) {
  int* unique p;
  p = q;
}
`)
	wantDiag(t, r, "assign", "unique")
}

func TestUniqueAddressOfRejected(t *testing.T) {
	r := runWith(t, refRegistry(t), `
void f() {
  int* unique p;
  p = NULL;
  int** pp = &p;
}
`)
	wantDiag(t, r, "addrof", "unique")
}

func TestUnaliasedOndecl(t *testing.T) {
	r := runWith(t, refRegistry(t), `
void f() {
  int unaliased x = 3;
  x = x + 1;
  int y = x;
}
`)
	wantNoDiags(t, r)
	r2 := run(t, `
void f() {
  int unaliased x = 3;
  int* p = &x;
}
`)
	wantDiag(t, r2, "addrof", "unaliased")
}

func TestAnnotationValidation(t *testing.T) {
	// pos applies to int, not pointers.
	r := run(t, `char* pos s;`)
	wantDiag(t, r, "annotation", "pos")
	// unaliased (Var-classified) cannot annotate struct fields.
	r2 := run(t, `
struct s { int unaliased x; };
`)
	wantDiag(t, r2, "annotation", "unaliased")
}

func TestQualifierOrderIrrelevant(t *testing.T) {
	r := run(t, `
void f(int pos nonzero a, int nonzero pos b) {
  int pos nonzero c = b;
  int nonzero pos d = a;
}
`)
	wantNoDiags(t, r)
}

func TestStatsCounting(t *testing.T) {
	r := run(t, `
int* unique dfa;
void f(int* nonnull p, int n) {
  int x = *p;
  dfa = (int*)malloc(sizeof(int) * n);
  for (int i = 0; i < n; i++) dfa[i] = 0;
  int y = (int pos) 3;
}
`)
	if r.Stats.Dereferences != 2 {
		t.Errorf("dereferences = %d, want 2", r.Stats.Dereferences)
	}
	if r.Stats.Annotations["nonnull"] != 1 || r.Stats.Annotations["unique"] != 1 {
		t.Errorf("annotations = %v", r.Stats.Annotations)
	}
	if r.Stats.QualCasts["pos"] != 1 {
		t.Errorf("casts = %v", r.Stats.QualCasts)
	}
	if r.Stats.RefUses["dfa"] == 0 {
		t.Errorf("ref uses = %v", r.Stats.RefUses)
	}
}

func TestCastCollectionForInstrumentation(t *testing.T) {
	r := run(t, `
void f(int x) {
  int pos p = (int pos) x;
  int* q = (int*) NULL;
}
`)
	// Only the value-qualified cast counts; the (int*) cast shows in
	// neither count.
	if r.ValueCasts != 1 {
		t.Fatalf("got %d value-qualified casts, want 1", r.ValueCasts)
	}
	if r.Stats.QualCasts["pos"] != 1 || len(r.Stats.QualCasts) != 1 {
		t.Errorf("qualified casts = %v, want pos=1", r.Stats.QualCasts)
	}
}

func TestFlowInsensitivityRequiresCast(t *testing.T) {
	// The grep idiom from section 6.1: the NULL test does not refine the
	// type, so a cast is needed.
	r := run(t, `
struct dfa_state { int* trans; };
int f(struct dfa_state* nonnull d, int works) {
  int* t;
  t = (d->trans) + works;
  if (t != NULL) {
    return *t;
  }
  return 0;
}
`)
	wantDiag(t, r, "restrict", "nonnull")
	r2 := run(t, `
struct dfa_state { int* trans; };
int f(struct dfa_state* nonnull d, int works) {
  int* nonnull t;
  t = (int* nonnull)((d->trans) + works);
  if (t != NULL) {
    return *t;
  }
  return 0;
}
`)
	wantNoDiags(t, r2)
}

func TestStructFieldQualifiers(t *testing.T) {
	r := run(t, `
struct config { char * untainted fmt; };
int printf(char * untainted format, ...);
void f(struct config* nonnull c) {
  printf(c->fmt);
}
`)
	wantNoDiags(t, r)
}

func TestLogicalMemoryModelQualPropagation(t *testing.T) {
	// Section 3.3: p+i has p's type, so indexing a nonnull array does not
	// produce spurious dereference errors.
	r := run(t, `
int sum(int* nonnull a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  return s;
}
`)
	wantNoDiags(t, r)
}

func TestUserKernelPointerAnalysis(t *testing.T) {
	// The Johnson/Wagner analysis the paper cites (section 2.1.4): a
	// user-space pointer must not be dereferenced in kernel code.
	reg, err := quals.UserKernel()
	if err != nil {
		t.Fatal(err)
	}
	r := runWith(t, reg, `
int syscall_read(int* user ubuf) {
  return *ubuf;
}
`)
	wantDiag(t, r, "restrict", "kernel")
	// The checked copy idiom: a cast models copyin()'s validation.
	r2 := runWith(t, reg, `
int syscall_read(int* user ubuf) {
  int* kernel kbuf;
  kbuf = (int* kernel) ubuf;
  return *kbuf;
}
`)
	wantNoDiags(t, r2)
	// Kernel-space pointers (address-of locals) dereference freely.
	r3 := runWith(t, reg, `
int f() {
  int x = 3;
  int* kernel p = &x;
  return *p;
}
`)
	wantNoDiags(t, r3)
}

func TestNonnegExtraQualifier(t *testing.T) {
	reg, err := quals.WithExtras()
	if err != nil {
		t.Fatal(err)
	}
	r := runWith(t, reg, `
void f(int pos p, int nonneg a, int nonneg b) {
  int nonneg zero = 0;
  int nonneg fromPos = p;
  int nonneg sum = a + b;
  int nonneg prod = a * b;
}
`)
	wantNoDiags(t, r)
	r2 := runWith(t, reg, `
void f(int nonneg a, int nonneg b) {
  int nonneg d = a - b;
}
`)
	wantDiag(t, r2, "qual", "nonneg")
}

func TestBytevalExtraQualifier(t *testing.T) {
	reg, err := quals.WithExtras()
	if err != nil {
		t.Fatal(err)
	}
	r := runWith(t, reg, `
void f() {
  int byteval b = 255;
  int byteval z = 0;
}
`)
	wantNoDiags(t, r)
	r2 := runWith(t, reg, `void f() { int byteval b = 256; }`)
	wantDiag(t, r2, "qual", "byteval")
}

func TestHeaderReplacementPrecedence(t *testing.T) {
	// Section 3.3: annotated library signatures prepended as a header take
	// precedence over the program's own unannotated prototypes, so library
	// calls are checked against the annotated types.
	header := `int printf(char * untainted format, ...);`
	program := `
int printf(char* format, ...);
void f(char* buf) {
  printf(buf);
}
`
	reg, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cminor.Parse("prog.c", header+"\n"+program, reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	r := Check(prog, reg)
	wantDiag(t, r, "qual", "untainted")
	// Without the header, the unannotated prototype checks nothing.
	prog2, err := cminor.Parse("prog.c", program, reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	r2 := Check(prog2, reg)
	wantNoDiags(t, r2)
}

func TestConstqQualifier(t *testing.T) {
	// The const-style extension: a constq variable is fixed at declaration.
	reg, err := quals.WithExtras()
	if err != nil {
		t.Fatal(err)
	}
	r := runWith(t, reg, `
void f() {
  int constq limit = 100;
  int x = limit * 2;
}
`)
	wantNoDiags(t, r)
	r2 := runWith(t, reg, `
void f() {
  int constq limit = 100;
  limit = 50;
}
`)
	wantDiag(t, r2, "assign", "constq")
	// Assignment through a call result is also rejected.
	r3 := runWith(t, reg, `
int compute();
void f() {
  int constq limit = 100;
  limit = compute();
}
`)
	wantDiag(t, r3, "assign", "constq")
	// Taking its address is rejected (disallow &X).
	r4 := runWith(t, reg, `
void f() {
  int constq limit = 100;
  int* p = &limit;
}
`)
	wantDiag(t, r4, "addrof", "constq")
}

// freshRegistry loads the fresh-extended unique.
func freshRegistry(t *testing.T) *qdl.Registry {
	t.Helper()
	reg, err := qdl.Load(map[string]string{"unique.qdl": quals.UniqueFresh})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// The section 2.2.1/6.2 wish granted: a unique local returned from a
// procedure is fresh, so dfa = parse_dfa() now validates.
func TestFreshReturnValidatesCallResult(t *testing.T) {
	r := runWith(t, freshRegistry(t), `
struct dfastate { int n; };
struct dfastate* unique dfa;
struct dfastate* parse_dfa() {
  struct dfastate* unique d;
  d = (struct dfastate*)malloc(sizeof(struct dfastate));
  return d;
}
void init() {
  dfa = parse_dfa();
}
`)
	wantNoDiags(t, r)
}

func TestFreshRejectsNonFreshCallee(t *testing.T) {
	// The callee returns a parameter, not a unique local: not fresh.
	r := runWith(t, freshRegistry(t), `
int* identity(int* p) {
  return p;
}
void f(int* q) {
  int* unique u;
  u = identity(q);
}
`)
	wantDiag(t, r, "assign", "unique")
	// A prototype gives no body to analyze: not fresh.
	r2 := runWith(t, freshRegistry(t), `
int* outside();
void f() {
  int* unique u;
  u = outside();
}
`)
	wantDiag(t, r2, "assign", "unique")
	// Returning an unqualified local: not fresh.
	r3 := runWith(t, freshRegistry(t), `
int* make() {
  int* p;
  p = (int*)malloc(sizeof(int));
  return p;
}
void f() {
  int* unique u;
  u = make();
}
`)
	wantDiag(t, r3, "assign", "unique")
}

func TestFreshTransitiveThroughWrapper(t *testing.T) {
	// wrapper() returns a unique local assigned from make(), which itself
	// returns a unique local: freshness chains.
	r := runWith(t, freshRegistry(t), `
int* make() {
  int* unique p;
  p = (int*)malloc(sizeof(int) * 4);
  return p;
}
int* wrapper() {
  int* unique q;
  q = make();
  return q;
}
void f() {
  int* unique u;
  u = wrapper();
}
`)
	wantNoDiags(t, r)
}

func TestFreshRecursiveVacuouslySound(t *testing.T) {
	// A self-recursive "fresh" function is accepted: every value it could
	// return is justified inductively through its unique local, and the
	// only unjustified execution never returns at all (nontermination), so
	// partial correctness holds. The returned local's own assignment is
	// still validated by the normal assign rules.
	r := runWith(t, freshRegistry(t), `
int* loopy() {
  int* unique p;
  p = loopy();
  return p;
}
void f() {
  int* unique u;
  u = loopy();
}
`)
	wantNoDiags(t, r)
	// But a recursive function whose local is NOT unique stays rejected:
	// the inner assignment to the plain local is unrestricted, so nothing
	// justifies freshness.
	r2 := runWith(t, freshRegistry(t), `
int* sneaky(int* q) {
  int* p;
  p = q;
  return p;
}
void f(int* q) {
  int* unique u;
  u = sneaky(q);
}
`)
	wantDiag(t, r2, "assign", "unique")
}

func TestFreshReturnStillChecksValueQuals(t *testing.T) {
	// The ownership-transfer exemption covers only the disallow rule: the
	// result type's value qualifiers are still demanded.
	reg, err := qdl.Load(map[string]string{
		"unique.qdl":  quals.UniqueFresh,
		"nonnull.qdl": quals.Nonnull,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := runWith(t, reg, `
int* nonnull make() {
  int* unique p;
  p = (int*)malloc(sizeof(int));
  return p;
}
`)
	wantDiag(t, r, "qual", "nonnull")
}
