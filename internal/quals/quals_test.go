package quals

import (
	"testing"

	"repro/internal/qdl"
	"repro/internal/soundness"
)

func TestStandardLoads(t *testing.T) {
	reg, err := Standard()
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Defs()) != 8 {
		t.Errorf("standard library has %d qualifiers, want 8", len(reg.Defs()))
	}
}

// TestLoadPicksSources: explicit sources win over the taint flag, and
// without sources the flag picks the shared taint configuration over the
// shared standard library.
func TestLoadPicksSources(t *testing.T) {
	std, _ := Standard()
	taint, _ := TaintWithConstants()
	for _, tc := range []struct {
		sources map[string]string
		taint   bool
		want    []string
		shared  *qdl.Registry
	}{
		{nil, false, []string{"pos", "neg", "nonzero", "nonnull", "untainted", "tainted", "unique", "unaliased"}, std},
		{nil, true, []string{"untainted", "tainted"}, taint},
		{map[string]string{"pos.qdl": Pos, "neg.qdl": Neg}, true, []string{"pos", "neg"}, nil},
	} {
		reg, err := Load(tc.sources, tc.taint)
		if err != nil {
			t.Fatal(err)
		}
		if tc.shared != nil && reg != tc.shared {
			t.Errorf("Load(no sources, taint=%t) built a fresh registry instead of the shared one", tc.taint)
		}
		if len(reg.Defs()) != len(tc.want) {
			t.Errorf("Load(%d sources, taint=%t) has %d qualifiers, want %v", len(tc.sources), tc.taint, len(reg.Defs()), tc.want)
		}
		for _, name := range tc.want {
			if reg.Lookup(name) == nil {
				t.Errorf("Load(%d sources, taint=%t) lacks %s", len(tc.sources), tc.taint, name)
			}
		}
	}
}

func TestExtrasLoadAndProveSound(t *testing.T) {
	reg, err := WithExtras()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"nonneg", "byteval", "kernel", "user"} {
		d := reg.Lookup(name)
		if d == nil {
			t.Fatalf("%s missing", name)
		}
		rep, err := soundness.Prove(d, reg, soundness.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Sound() {
			t.Errorf("%s not proven sound:\n%s", name, rep)
		}
	}
}

func TestBytevalBrokenBoundCaught(t *testing.T) {
	// Off-by-one in the constant rule (C <= 256) must fail the obligation.
	broken := map[string]string{"byteval.qdl": `
value qualifier byteval(int Expr E)
  case E of
    decl int Const C:
      C, where C >= 0 && C <= 256
  invariant value(E) >= 0 && value(E) <= 255
`}
	reg, err := qdl.Load(broken)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := soundness.Prove(reg.Lookup("byteval"), reg, soundness.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound() {
		t.Error("byteval with C <= 256 proven sound")
	}
}

func TestNonnegBrokenSubtractionCaught(t *testing.T) {
	broken := map[string]string{"nonneg.qdl": `
value qualifier nonneg(int Expr E)
  case E of
    decl int Const C:
      C, where C >= 0
  | decl int Expr E1, E2:
      E1 - E2, where nonneg(E1) && nonneg(E2)
  invariant value(E) >= 0
`}
	reg, err := qdl.Load(broken)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := soundness.Prove(reg.Lookup("nonneg"), reg, soundness.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound() {
		t.Error("nonneg with subtraction proven sound")
	}
}

func TestConstqSound(t *testing.T) {
	reg, err := WithExtras()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := soundness.Prove(reg.Lookup("constq"), reg, soundness.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound() {
		t.Errorf("constq not proven sound:\n%s", rep)
	}
}

func TestConstqWithoutNoassignRejectedOrUnsound(t *testing.T) {
	// Without noassign, constq must either fail validation or fail its
	// unrestricted-assignment obligations — it must NOT silently prove.
	broken := map[string]string{"constq.qdl": `
ref qualifier constq(T Var X)
  ondecl
  disallow &X
  invariant value(X) == initvalue(X)
`}
	reg, err := qdl.Load(broken)
	if err != nil {
		return // rejected at validation: acceptable
	}
	rep, err := soundness.Prove(reg.Lookup("constq"), reg, soundness.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound() {
		t.Error("constq without noassign was proven sound")
	}
}

func TestUniqueFreshSound(t *testing.T) {
	reg, err := qdl.Load(map[string]string{"unique.qdl": UniqueFresh})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := soundness.Prove(reg.Lookup("unique"), reg, soundness.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound() {
		t.Errorf("unique with fresh not proven sound:\n%s", rep)
	}
	// 3 assign clauses + 5 preservation forms.
	if len(rep.Results) != 8 {
		t.Errorf("obligations = %d, want 8", len(rep.Results))
	}
}
