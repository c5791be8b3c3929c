package qdl

import (
	"fmt"
	"strings"
	"testing"
)

// The paper's figures, verbatim modulo whitespace.
const posSrc = `
value qualifier pos(int Expr E)
  case E of
    decl int Const C:
      C, where C > 0
  | decl int Expr E1, E2:
      E1 * E2, where pos(E1) && pos(E2)
  | decl int Expr E1:
      -E1, where neg(E1)
  invariant value(E) > 0
`

const negSrc = `
value qualifier neg(int Expr E)
  case E of
    decl int Const C:
      C, where C < 0
  | decl int Expr E1:
      -E1, where pos(E1)
  invariant value(E) < 0
`

const nonzeroSrc = `
value qualifier nonzero(int Expr E)
  case E of
    decl int Const C:
      C, where C != 0
  | decl int Expr E1:
      E1, where pos(E1)
  | decl int Expr E1, E2:
      E1 * E2, where nonzero(E1) && nonzero(E2)
  restrict
    decl int Expr E1, E2:
      E1 / E2, where nonzero(E2)
  invariant value(E) != 0
`

const nonnullSrc = `
value qualifier nonnull(T* Expr E)
  case E of
    decl T LValue L:
      &L
  restrict
    decl T* Expr E1:
      *E1, where nonnull(E1)
  invariant value(E) != NULL
`

const taintedSrc = `
value qualifier untainted(T Expr E)

value qualifier tainted(T Expr E)
  case E of
    E
`

const uniqueSrc = `
ref qualifier unique(T* LValue L)
  assign L
    NULL
  | new
  disallow L
  invariant value(L) == NULL || (isHeapLoc(value(L)) && forall T** P: *P == value(L) => P == location(L))
`

const unaliasedSrc = `
ref qualifier unaliased(T Var X)
  ondecl
  disallow &X
  invariant forall T** P: *P != location(X)
`

func TestParsePos(t *testing.T) {
	d, err := ParseOne("pos.qdl", posSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "pos" || d.Kind != ValueQualifier {
		t.Fatalf("def = %+v", d)
	}
	if d.Subject.Name != "E" || d.Subject.Classifier != ClassExpr {
		t.Fatalf("subject = %+v", d.Subject)
	}
	if len(d.Cases) != 3 {
		t.Fatalf("got %d case clauses, want 3", len(d.Cases))
	}
	// Clause 1: decl int Const C: C, where C > 0
	c0 := d.Cases[0]
	if len(c0.Decls) != 1 || c0.Decls[0].Classifier != ClassConst {
		t.Errorf("clause 0 decls = %+v", c0.Decls)
	}
	if _, ok := c0.Pat.(PVar); !ok {
		t.Errorf("clause 0 pattern = %T", c0.Pat)
	}
	if c0.Where == nil {
		t.Error("clause 0 missing where")
	}
	// Clause 2: E1 * E2 with two Expr decls.
	c1 := d.Cases[1]
	if len(c1.Decls) != 2 {
		t.Fatalf("clause 1 decls = %+v", c1.Decls)
	}
	b, ok := c1.Pat.(PBinop)
	if !ok || b.Op != "*" {
		t.Errorf("clause 1 pattern = %v", c1.Pat)
	}
	// Clause 3: -E1 where neg(E1).
	c2 := d.Cases[2]
	u, ok := c2.Pat.(PUnop)
	if !ok || u.Op != "-" {
		t.Errorf("clause 2 pattern = %v", c2.Pat)
	}
	q, ok := c2.Where.(PQual)
	if !ok || q.Qual != "neg" {
		t.Errorf("clause 2 where = %v", c2.Where)
	}
	// Invariant: value(E) > 0.
	inv, ok := d.Invariant.(PCmp)
	if !ok || inv.Op != ">" {
		t.Fatalf("invariant = %v", d.Invariant)
	}
	if _, ok := inv.L.(TValue); !ok {
		t.Errorf("invariant lhs = %v", inv.L)
	}
}

func TestParseNonzeroRestrict(t *testing.T) {
	d, err := ParseOne("nonzero.qdl", nonzeroSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cases) != 3 || len(d.Restricts) != 1 {
		t.Fatalf("cases=%d restricts=%d", len(d.Cases), len(d.Restricts))
	}
	r := d.Restricts[0]
	b, ok := r.Pat.(PBinop)
	if !ok || b.Op != "/" {
		t.Errorf("restrict pattern = %v", r.Pat)
	}
	q, ok := r.Where.(PQual)
	if !ok || q.Qual != "nonzero" || q.Arg != "E2" {
		t.Errorf("restrict where = %v", r.Where)
	}
}

func TestParseNonnull(t *testing.T) {
	d, err := ParseOne("nonnull.qdl", nonnullSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Subject.Type.Ptr != 1 || d.Subject.Type.Var != "T" {
		t.Errorf("subject type = %v", d.Subject.Type)
	}
	if _, ok := d.Cases[0].Pat.(PAddrOf); !ok {
		t.Errorf("case pattern = %v", d.Cases[0].Pat)
	}
	if _, ok := d.Restricts[0].Pat.(PDeref); !ok {
		t.Errorf("restrict pattern = %v", d.Restricts[0].Pat)
	}
	inv := d.Invariant.(PCmp)
	if inv.Op != "!=" {
		t.Errorf("invariant op = %v", inv.Op)
	}
	if _, ok := inv.R.(TNull); !ok {
		t.Errorf("invariant rhs = %v", inv.R)
	}
}

func TestParseTaintedPair(t *testing.T) {
	defs, err := Parse("taint.qdl", taintedSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 {
		t.Fatalf("got %d defs, want 2", len(defs))
	}
	unt, tnt := defs[0], defs[1]
	if unt.Name != "untainted" || len(unt.Cases) != 0 || unt.Invariant != nil {
		t.Errorf("untainted = %v", unt)
	}
	if !unt.IsFlow() || !tnt.IsFlow() {
		t.Error("taintedness qualifiers should be flow qualifiers")
	}
	// tainted's single clause: pattern is the subject variable (matches any
	// expression).
	if len(tnt.Cases) != 1 {
		t.Fatalf("tainted cases = %d", len(tnt.Cases))
	}
	pv, ok := tnt.Cases[0].Pat.(PVar)
	if !ok || pv.Name != "E" {
		t.Errorf("tainted pattern = %v", tnt.Cases[0].Pat)
	}
}

func TestParseUnique(t *testing.T) {
	d, err := ParseOne("unique.qdl", uniqueSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != RefQualifier || d.Subject.Classifier != ClassLValue {
		t.Fatalf("def header = %+v", d.Subject)
	}
	if len(d.Assigns) != 2 {
		t.Fatalf("assign clauses = %d, want 2", len(d.Assigns))
	}
	if _, ok := d.Assigns[0].Pat.(PNull); !ok {
		t.Errorf("assign[0] = %v", d.Assigns[0].Pat)
	}
	if _, ok := d.Assigns[1].Pat.(PNew); !ok {
		t.Errorf("assign[1] = %v", d.Assigns[1].Pat)
	}
	if !d.Disallow.Refer || d.Disallow.AddrOf {
		t.Errorf("disallow = %+v", d.Disallow)
	}
	// Invariant shape: Or(Eq(value(L), NULL), And(isHeapLoc, forall)).
	or, ok := d.Invariant.(POr)
	if !ok {
		t.Fatalf("invariant = %T", d.Invariant)
	}
	and, ok := or.R.(PAnd)
	if !ok {
		t.Fatalf("invariant rhs = %T", or.R)
	}
	if _, ok := and.L.(PIsHeapLoc); !ok {
		t.Errorf("expected isHeapLoc, got %T", and.L)
	}
	fa, ok := and.R.(PForall)
	if !ok {
		t.Fatalf("expected forall, got %T", and.R)
	}
	if fa.Type.Ptr != 2 {
		t.Errorf("forall type = %v, want T**", fa.Type)
	}
	if _, ok := fa.Body.(PImp); !ok {
		t.Errorf("forall body = %T, want implication", fa.Body)
	}
}

func TestParseUnaliased(t *testing.T) {
	d, err := ParseOne("unaliased.qdl", unaliasedSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OnDecl || !d.Disallow.AddrOf || d.Disallow.Refer {
		t.Errorf("ondecl=%v disallow=%+v", d.OnDecl, d.Disallow)
	}
	fa, ok := d.Invariant.(PForall)
	if !ok {
		t.Fatalf("invariant = %T", d.Invariant)
	}
	cmp, ok := fa.Body.(PCmp)
	if !ok || cmp.Op != "!=" {
		t.Fatalf("forall body = %v", fa.Body)
	}
	if _, ok := cmp.L.(TDeref); !ok {
		t.Errorf("body lhs = %v", cmp.L)
	}
	if _, ok := cmp.R.(TLocation); !ok {
		t.Errorf("body rhs = %v", cmp.R)
	}
}

func TestRegistryLoadAll(t *testing.T) {
	r, err := Load(map[string]string{
		"pos.qdl": posSrc, "neg.qdl": negSrc, "nonzero.qdl": nonzeroSrc,
		"nonnull.qdl": nonnullSrc, "taint.qdl": taintedSrc,
		"unique.qdl": uniqueSrc, "unaliased.qdl": unaliasedSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"neg", "nonnull", "nonzero", "pos", "tainted", "unaliased", "unique", "untainted"}
	got := r.SortedNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("names = %v, want %v", got, want)
	}
	if r.Lookup("pos") == nil || r.Lookup("missing") != nil {
		t.Error("Lookup misbehaves")
	}
}

func TestRegistryMutualRecursionOK(t *testing.T) {
	// pos references neg and vice versa; loading both must validate.
	if _, err := Load(map[string]string{"pos.qdl": posSrc, "neg.qdl": negSrc}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryUndefinedQualifierCheck(t *testing.T) {
	_, err := Load(map[string]string{"pos.qdl": posSrc})
	if err == nil || !strings.Contains(err.Error(), "undefined qualifier neg") {
		t.Errorf("expected undefined-qualifier error, got %v", err)
	}
}

func TestRegistryDuplicate(t *testing.T) {
	r := NewRegistry()
	d1, _ := ParseOne("a.qdl", posSrc)
	d2, _ := ParseOne("b.qdl", posSrc)
	if err := r.Add(d1); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(d2); err == nil {
		t.Error("duplicate definition accepted")
	}
}

func TestValidateValueQualifierMisuse(t *testing.T) {
	bad := []string{
		// value qualifier with assign block
		`value qualifier q(int Expr E)
		 assign E NULL
		 invariant value(E) > 0`,
		// ref qualifier with case block
		`ref qualifier q(T* LValue L)
		 case L of L
		 invariant value(L) == NULL`,
		// ref qualifier without invariant
		`ref qualifier q(T* LValue L)
		 disallow L`,
		// ondecl with LValue subject
		`ref qualifier q(T* LValue L)
		 ondecl
		 invariant value(L) == NULL`,
		// undeclared pattern variable
		`value qualifier q(int Expr E)
		 case E of
		   decl int Expr E1: E1 * E2
		 invariant value(E) > 0`,
		// arithmetic on non-Const variable in where
		`value qualifier q(int Expr E)
		 case E of
		   decl int Expr E1: E1, where E1 > 0
		 invariant value(E) > 0`,
		// invariant naming the wrong variable
		`value qualifier q(int Expr E)
		 invariant value(F) > 0`,
	}
	for i, src := range bad {
		d, err := ParseOne("bad.qdl", src)
		if err != nil {
			continue // parse-time rejection also acceptable
		}
		if err := NewRegistry().Add(d); err == nil {
			t.Errorf("case %d: invalid definition accepted:\n%s", i, src)
		}
	}
}

const constqSrc = `
ref qualifier constq(T Var X)
  ondecl
  noassign
  disallow &X
  invariant value(X) == initvalue(X)
`

func TestParseConstqNoassignInitvalue(t *testing.T) {
	d, err := ParseOne("constq.qdl", constqSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !d.NoAssign || !d.OnDecl || !d.Disallow.AddrOf {
		t.Errorf("constq header flags = noassign:%v ondecl:%v disallow:%+v", d.NoAssign, d.OnDecl, d.Disallow)
	}
	cmp, ok := d.Invariant.(PCmp)
	if !ok {
		t.Fatalf("invariant = %T", d.Invariant)
	}
	if _, ok := cmp.R.(TInitValue); !ok {
		t.Errorf("invariant rhs = %v, want initvalue", cmp.R)
	}
	if err := NewRegistry().Add(d); err != nil {
		t.Errorf("constq failed validation: %v", err)
	}
}

func TestNoassignValidation(t *testing.T) {
	bad := []string{
		// noassign on a value qualifier
		`value qualifier q(int Expr E)
  noassign
  invariant value(E) > 0`,
		// noassign with an assign block
		`ref qualifier q(T* LValue L)
  ondecl
  noassign
  assign L NULL
  invariant value(L) == NULL`,
		// noassign without ondecl
		`ref qualifier q(T* LValue L)
  noassign
  invariant value(L) == NULL`,
		// initvalue on the wrong variable
		`ref qualifier q(T Var X)
  ondecl
  noassign
  invariant value(X) == initvalue(Y)`,
	}
	for i, src := range bad {
		d, err := ParseOne("bad.qdl", src)
		if err != nil {
			continue
		}
		if err := NewRegistry().Add(d); err == nil {
			t.Errorf("case %d accepted:\n%s", i, src)
		}
	}
}

func TestDefStringRoundTrips(t *testing.T) {
	freshSrc := `
ref qualifier uniquef(T* LValue L)
  assign L
    NULL
  | new
  | fresh
  disallow L
  invariant value(L) == NULL || isHeapLoc(value(L))
`
	for _, src := range []string{posSrc, negSrc, nonzeroSrc, nonnullSrc, uniqueSrc, unaliasedSrc, constqSrc, freshSrc} {
		defs, err := Parse("t.qdl", src)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range defs {
			printed := d.String()
			defs2, err := Parse("printed.qdl", printed)
			if err != nil {
				t.Errorf("reparse of printed %s failed: %v\n%s", d.Name, err, printed)
				continue
			}
			if len(defs2) != 1 || defs2[0].String() != printed {
				t.Errorf("print of %s not stable", d.Name)
			}
		}
	}
}

func TestTypePatMatches(t *testing.T) {
	intPat := TypePat{Base: intBase()}
	ptrPat := TypePat{Var: "T", Ptr: 1}
	ptr2Pat := TypePat{Var: "T", Ptr: 2}
	cases := []struct {
		pat  TypePat
		typ  string
		want bool
	}{
		{intPat, "int", true},
		{intPat, "char", false},
		{intPat, "int*", false},
		{ptrPat, "int*", true},
		{ptrPat, "char**", true},
		{ptrPat, "int", false},
		{ptr2Pat, "int**", true},
		{ptr2Pat, "int*", false},
	}
	for _, c := range cases {
		typ := typeFromString(t, c.typ)
		if got := c.pat.Matches(typ); got != c.want {
			t.Errorf("%v.Matches(%s) = %v, want %v", c.pat, c.typ, got, c.want)
		}
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	src := `
// a commented qualifier definition
value qualifier q(int Expr E)   // trailing comment
  case E of
    decl int Const C:   // the constant rule
      C, where C > 0
  invariant value(E) > 0
`
	d, err := ParseOne("c.qdl", src)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "q" || len(d.Cases) != 1 {
		t.Errorf("def = %v", d)
	}
}

func TestParseWherePrecedence(t *testing.T) {
	// && binds tighter than ||.
	src := `
value qualifier q(int Expr E)
  case E of
    decl int Expr E1, E2:
      E1 * E2, where q(E1) && q(E2) || q(E1)
  invariant value(E) != 0
`
	d, err := ParseOne("p.qdl", src)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := d.Cases[0].Where.(POr)
	if !ok {
		t.Fatalf("where = %T, want POr at top", d.Cases[0].Where)
	}
	if _, ok := or.L.(PAnd); !ok {
		t.Errorf("left of || = %T, want PAnd", or.L)
	}
}

func TestParseImplicationRightAssoc(t *testing.T) {
	src := `
ref qualifier q(T* LValue L)
  invariant forall T** P: *P == value(L) => *P == value(L) => P == location(L)
`
	d, err := ParseOne("i.qdl", src)
	if err != nil {
		t.Fatal(err)
	}
	fa := d.Invariant.(PForall)
	imp := fa.Body.(PImp)
	if _, ok := imp.R.(PImp); !ok {
		t.Errorf("=> should be right-associative, got %T", imp.R)
	}
}

func TestParseConstArithmeticWhere(t *testing.T) {
	src := `
value qualifier q(int Expr E)
  case E of
    decl int Const C:
      C, where C * 2 + 1 > 10 - 3
  invariant value(E) > 0
`
	d, err := ParseOne("a.qdl", src)
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := d.Cases[0].Where.(PCmp)
	if !ok {
		t.Fatalf("where = %T", d.Cases[0].Where)
	}
	// C * 2 + 1: '+' at top with '*' underneath.
	add, ok := cmp.L.(TArith)
	if !ok || add.Op != "+" {
		t.Fatalf("lhs = %v", cmp.L)
	}
	if mul, ok := add.L.(TArith); !ok || mul.Op != "*" {
		t.Errorf("precedence broken: %v", cmp.L)
	}
}

func TestParseSyntaxErrors(t *testing.T) {
	bad := []string{
		"value qualifier",                                                // truncated header
		"value qualifier q(int Expr)",                                    // missing variable name
		"value qualifier q(int Bogus E)",                                 // unknown classifier
		"value qualifier q(int Expr E) case F of F",                      // case subject mismatch
		"value qualifier q(int Expr E)\n case E of\n decl int Expr X: *", // truncated pattern
		"ref qualifier q(T* LValue L)\n invariant value(L) ==",           // truncated invariant
		"value qualifier q(int Expr E)\n invariant value(E) $ 0",         // bad character
	}
	for _, src := range bad {
		if _, err := ParseOne("bad.qdl", src); err == nil {
			t.Errorf("accepted invalid source: %q", src)
		}
	}
}

func TestParseMultipleDisallowForms(t *testing.T) {
	src := `
ref qualifier q(T* LValue L)
  disallow L | &L
  invariant value(L) == NULL
`
	d, err := ParseOne("d.qdl", src)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Disallow.Refer || !d.Disallow.AddrOf {
		t.Errorf("disallow = %+v, want both forms", d.Disallow)
	}
}

func TestParseNegativeConstants(t *testing.T) {
	src := `
value qualifier q(int Expr E)
  case E of
    decl int Const C:
      C, where C > -5 && C < -1
  invariant value(E) < 0
`
	d, err := ParseOne("n.qdl", src)
	if err != nil {
		t.Fatal(err)
	}
	and := d.Cases[0].Where.(PAnd)
	gt := and.L.(PCmp)
	if lit, ok := gt.R.(TInt); !ok || lit.Value != -5 {
		t.Errorf("negative literal parsed as %v", gt.R)
	}
}

func TestNegatedQualifierCheckRejected(t *testing.T) {
	src := `
value qualifier q(int Expr E)
  case E of
    decl int Expr E1:
      E1, where !q(E1)
  invariant value(E) > 0
`
	d, err := ParseOne("neg.qdl", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRegistry().Add(d); err == nil {
		t.Error("negated qualifier check accepted (breaks fixpoint monotonicity)")
	}
	// Negating a constant comparison stays legal.
	ok := `
value qualifier q(int Expr E)
  case E of
    decl int Const C:
      C, where !(C <= 0)
  invariant value(E) > 0
`
	d2, err := ParseOne("ok.qdl", ok)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRegistry().Add(d2); err != nil {
		t.Errorf("negated comparison rejected: %v", err)
	}
}

// valueQualSources generates n value qualifiers q00, q01, ... in files that
// Load registers in index order.
func valueQualSources(n int) map[string]string {
	srcs := map[string]string{}
	for i := 0; i < n; i++ {
		srcs[fmt.Sprintf("q%02d.qdl", i)] = fmt.Sprintf(`value qualifier q%02d(int Expr E)
  case E of
    decl int Const C:
      C, where C > %d
  invariant value(E) > %d
`, i, i, i)
	}
	return srcs
}

// TestValueQualifierLimit pins MaxValueQualifiers: a registry of exactly 64
// value qualifiers loads with dense indexes in registration order, and a
// 65th is rejected by an error that names the limit. Reference qualifiers do
// not count toward it.
func TestValueQualifierLimit(t *testing.T) {
	srcs := valueQualSources(MaxValueQualifiers)
	srcs["unique.qdl"] = uniqueSrc
	reg, err := Load(srcs)
	if err != nil {
		t.Fatalf("64 value qualifiers: %v", err)
	}
	if n := len(reg.ValueDefs()); n != MaxValueQualifiers {
		t.Fatalf("%d value defs, want %d", n, MaxValueQualifiers)
	}
	for i, d := range reg.ValueDefs() {
		if idx, ok := reg.ValueIndex(d.Name); !ok || idx != i || d.Name != fmt.Sprintf("q%02d", i) {
			t.Errorf("value def %d is %s with index %d, %v", i, d.Name, idx, ok)
		}
	}
	if _, ok := reg.ValueIndex("unique"); ok {
		t.Error("reference qualifier unique has a value index")
	}
	_, err = Load(valueQualSources(MaxValueQualifiers + 1))
	if err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("65 value qualifiers: err = %v, want one naming the limit of 64", err)
	}
}
