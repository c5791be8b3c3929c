package soundness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/qdl"
	"repro/internal/quals"
)

// goldenRegistries lists the registries whose every obligation
// testdata/obligations.golden pins: the shipped library, the extras, the
// taint and user/kernel configurations, UniqueFresh, and the six Table 6
// mutations, built with the same source edits experiments.MutationsContext
// makes.
func goldenRegistries(t testing.TB) []struct {
	label string
	reg   *qdl.Registry
} {
	t.Helper()
	must := func(reg *qdl.Registry, err error) *qdl.Registry {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	load := func(sources map[string]string) *qdl.Registry {
		t.Helper()
		return must(qdl.Load(sources))
	}
	return []struct {
		label string
		reg   *qdl.Registry
	}{
		{"standard", must(quals.Standard())},
		{"extras", must(quals.WithExtras())},
		{"taint", must(quals.TaintWithConstants())},
		{"userkernel", must(quals.UserKernel())},
		{"uniquefresh", load(map[string]string{"unique.qdl": quals.UniqueFresh})},
		{"mut-pos-minus", load(map[string]string{
			"pos.qdl": strings.Replace(quals.Pos, "E1 * E2", "E1 - E2", 1),
			"neg.qdl": quals.Neg,
		})},
		{"mut-pos-nonneg-const", load(map[string]string{
			"pos.qdl": strings.Replace(quals.Pos, "C > 0", "C >= 0", 1),
			"neg.qdl": quals.Neg,
		})},
		{"mut-neg-times", load(map[string]string{
			"pos.qdl": quals.Pos,
			"neg.qdl": strings.Replace(quals.Neg, "E1 + E2", "E1 * E2", 1),
		})},
		{"mut-unique-no-disallow", load(map[string]string{
			"unique.qdl": strings.Replace(quals.Unique, "disallow L\n", "", 1),
		})},
		{"mut-unaliased-no-disallow", load(map[string]string{
			"unaliased.qdl": strings.Replace(quals.Unaliased, "disallow &X\n", "", 1),
		})},
		{"mut-constq-no-noassign", load(map[string]string{
			"constq.qdl": strings.Replace(quals.Constq, "  noassign\n", "", 1),
		})},
	}
}

// obligationsReport renders one line per obligation of every golden
// registry: registry label, qualifier, kind, clause index, vacuous flag,
// description and formula.
func obligationsReport(t *testing.T) string {
	var sb strings.Builder
	for _, r := range goldenRegistries(t) {
		for _, d := range r.reg.Defs() {
			obls, err := Obligations(d, r.reg)
			if err != nil {
				t.Fatalf("%s/%s: %v", r.label, d.Name, err)
			}
			for _, o := range obls {
				fmt.Fprintf(&sb, "%s\t%s\t%s\t%d\t%v\t%s\t%s\n",
					r.label, o.Qualifier, o.Kind, o.ClauseIndex, o.Vacuous, o.Description, o.Formula)
			}
		}
	}
	return sb.String()
}

// TestObligationsGolden pins every obligation the soundness checker
// generates for the golden registries against testdata/obligations.golden.
// The file was generated once and is compared byte for byte; a change to
// the translation from QDL to logic must leave it untouched.
func TestObligationsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "obligations.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := obligationsReport(t)
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
			t.Fatalf("output differs from testdata/obligations.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestTranslationLimits pins the errors for the forms qdl.Load accepts but
// the prover's theories cannot state: division and remainder, and
// arithmetic over a reference invariant's store.
func TestTranslationLimits(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`
value qualifier q(int Expr E)
  case E of
    decl int Const C:
      C, where C > 0
  invariant value(E) / 2 > 0
`, `soundness: unsupported arithmetic "/" in invariant`},
		{`
value qualifier q(int Expr E)
  case E of
    decl int Const C:
      C, where C % 2 == 1
  invariant value(E) > 0
`, `soundness: unsupported constant arithmetic "%"`},
		{`
ref qualifier q(int* LValue L)
  assign L
    NULL
  invariant value(L) + 1 == 1
`, `soundness: term (value(L) + 1) not supported in reference invariants`},
	} {
		d, reg := mustDef(t, c.src)
		_, err := Obligations(d, reg)
		if err == nil || err.Error() != c.want {
			t.Errorf("Obligations error = %v, want %q\n%s", err, c.want, c.src)
		}
	}
}

// BenchmarkObligations generates every obligation of the standard library
// plus the extras.
func BenchmarkObligations(b *testing.B) {
	reg, err := quals.WithExtras()
	if err != nil {
		b.Fatal(err)
	}
	defs := reg.Defs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range defs {
			if _, err := Obligations(d, reg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
