package corpus

import (
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/interp"
	"repro/internal/quals"
)

func parseWith(t *testing.T, p Program, names map[string]bool) *cminor.Program {
	t.Helper()
	prog, err := cminor.Parse(p.Name+".c", p.Source, names)
	if err != nil {
		t.Fatalf("parse %s: %v", p.Name, err)
	}
	return prog
}

func taintReg(t *testing.T) map[string]bool {
	t.Helper()
	reg, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	return reg.Names()
}

func TestLookupFindsEveryProgram(t *testing.T) {
	for _, want := range append(All(), BftpdFixed(), BftpdExploit()) {
		if p, ok := Lookup(want.Name); !ok || p.Source != want.Source {
			t.Errorf("Lookup(%q) = %q, %t", want.Name, p.Name, ok)
		}
	}
	if _, ok := Lookup("no-such-program"); ok {
		t.Error("Lookup found an unknown program")
	}
}

func TestGrepDFATypechecksCleanly(t *testing.T) {
	reg := quals.MustStandard()
	p := GrepDFA()
	prog, err := cminor.Parse(p.Name+".c", p.Source, reg.Names())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res := checker.Check(prog, reg)
	for _, d := range res.Diags {
		t.Errorf("diagnostic: %s", d)
	}
}

func TestGrepDFARuns(t *testing.T) {
	reg := quals.MustStandard()
	p := GrepDFA()
	prog, err := cminor.Parse(p.Name+".c", p.Source, reg.Names())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := interp.Run(prog, reg, interp.Options{RuntimeChecks: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Failure != nil {
		t.Fatalf("runtime check failed: %v", res.Failure)
	}
	if res.Exit != 0 {
		t.Errorf("dfa self-checks failed (exit %d):\n%s", res.Exit, res.Output)
	}
	if !strings.Contains(res.Output, "dfa: 0 failures") {
		t.Errorf("output = %q", res.Output)
	}
}

func TestBftpdHasExactlyTheKnownBug(t *testing.T) {
	reg, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	prog := parseWith(t, Bftpd(), reg.Names())
	res := checker.Check(prog, reg)
	var errs []checker.Diagnostic
	for _, d := range res.Diags {
		errs = append(errs, d)
	}
	if len(errs) != 1 {
		t.Fatalf("bftpd diagnostics = %v, want exactly 1", errs)
	}
	if !strings.Contains(errs[0].Msg, "untainted") || !strings.Contains(errs[0].Msg, "d_name") {
		t.Errorf("diagnostic = %s, want the d_name format-string error", errs[0])
	}
}

func TestBftpdFixedIsClean(t *testing.T) {
	reg, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	prog := parseWith(t, BftpdFixed(), reg.Names())
	res := checker.Check(prog, reg)
	for _, d := range res.Diags {
		t.Errorf("diagnostic: %s", d)
	}
}

func TestMingettyAndIdentdClean(t *testing.T) {
	reg, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Program{Mingetty(), Identd()} {
		prog := parseWith(t, p, reg.Names())
		res := checker.Check(prog, reg)
		for _, d := range res.Diags {
			t.Errorf("%s: %s", p.Name, d)
		}
		if res.Stats.QualCasts["untainted"] != 0 {
			t.Errorf("%s required %d untainted casts, want 0", p.Name, res.Stats.QualCasts["untainted"])
		}
	}
}

func TestTaintSubjectsRun(t *testing.T) {
	reg, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Program{Bftpd(), BftpdFixed(), Mingetty(), Identd()} {
		prog := parseWith(t, p, reg.Names())
		res, err := interp.Run(prog, reg, interp.Options{})
		if err != nil {
			t.Errorf("%s: run failed: %v", p.Name, err)
			continue
		}
		if res.Exit != 0 {
			t.Errorf("%s: exit %d\n%s", p.Name, res.Exit, res.Output)
		}
	}
}

func TestBftpdExploitCrashesAtRuntime(t *testing.T) {
	// The statically-detected bug is a real runtime vulnerability: with a
	// malicious file name planted, LIST crashes reading absent varargs.
	reg, err := quals.TaintWithConstants()
	if err != nil {
		t.Fatal(err)
	}
	prog := parseWith(t, BftpdExploit(), reg.Names())
	_, err = interp.Run(prog, reg, interp.Options{})
	if err == nil || !strings.Contains(err.Error(), "format-string vulnerability") {
		t.Errorf("expected the exploit to crash, got %v", err)
	}
	// The fixed server survives the same malicious file name.
	fixed := BftpdFixed()
	fixed.Source = strings.Replace(fixed.Source, "int exploit_mode = 0;", "int exploit_mode = 1;", 1)
	prog2 := parseWith(t, fixed, reg.Names())
	res, err := interp.Run(prog2, reg, interp.Options{})
	if err != nil {
		t.Fatalf("fixed server crashed: %v", err)
	}
	if !strings.Contains(res.Output, "%s%s%s-exploit") {
		t.Errorf("fixed server should print the hostile name literally:\n%s", res.Output)
	}
}

func TestCorpusLineCounts(t *testing.T) {
	// Shape check: the corpus subjects are substantial programs, ordered
	// like the paper's (grep >> bftpd > mingetty ~ identd).
	g, b, m, i := GrepDFA().Lines(), Bftpd().Lines(), Mingetty().Lines(), Identd().Lines()
	if g < 300 {
		t.Errorf("grep-dfa has %d lines, want a substantial program", g)
	}
	if b < 150 || m < 60 || i < 60 {
		t.Errorf("subject sizes: bftpd=%d mingetty=%d identd=%d", b, m, i)
	}
	if !(g > b && b > m) {
		t.Errorf("size ordering violated: grep=%d bftpd=%d mingetty=%d", g, b, m)
	}
}

func TestNonBlankLines(t *testing.T) {
	src := "\n// comment\nint x;\n\n/* block\n comment */\nint y; /* tail */\n"
	if n := NonBlankLines(src); n != 2 {
		t.Errorf("NonBlankLines = %d, want 2", n)
	}
}

// TestUniqueInvariantHoldsDynamically validates the unique invariant over
// the interpreter's entire final store: the dfa global points to a heap
// object to which no other live cell points. The paper cannot check this at
// run time (section 2.2.3); the interpreter's store is fully inspectable,
// so the reproduction can.
func TestUniqueInvariantHoldsDynamically(t *testing.T) {
	reg := quals.MustStandard()
	p := GrepDFA()
	prog := parseWith(t, p, reg.Names())
	var violation string
	res, err := interp.Run(prog, reg, interp.Options{
		RuntimeChecks: true,
		Inspect: func(in *interp.Inspection) {
			v, ok := in.Global("dfa")
			if !ok {
				violation = "dfa global missing"
				return
			}
			if v.Kind != interp.VPtr || v.Addr.IsNull() {
				violation = "dfa is not a live pointer at exit"
				return
			}
			if !in.IsHeap(v.Addr.Base) {
				violation = "dfa does not point to the heap"
				return
			}
			self, _ := in.GlobalAddr("dfa")
			if n := in.ReferenceCount(v.Addr.Base, self); n != 0 {
				violation = "uniqueness violated: other cells reference dfa's object"
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 0 {
		t.Fatalf("dfa self-checks failed:\n%s", res.Output)
	}
	if violation != "" {
		t.Error(violation)
	}
}

// TestUniquenessViolationObservableDynamically: the aliasing program the
// checker rejects really does break the invariant at run time — evidence
// that the static rule prevents real violations, not stylistic ones.
func TestUniquenessViolationObservableDynamically(t *testing.T) {
	reg := quals.MustStandard()
	src := `
int* unique p;
int* leak;
int main() {
  p = (int*)malloc(sizeof(int) * 2);
  leak = p;   /* rejected by the checker; run it anyway */
  return 0;
}
`
	prog, err := cminor.Parse("violate.c", src, reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	res := checker.Check(prog, reg)
	if len(res.Errors("disallow")) == 0 {
		t.Fatal("checker did not reject the aliasing program")
	}
	var refs int
	if _, err := interp.Run(prog, reg, interp.Options{
		Inspect: func(in *interp.Inspection) {
			v, _ := in.Global("p")
			self, _ := in.GlobalAddr("p")
			refs = in.ReferenceCount(v.Addr.Base, self)
		},
	}); err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Error("expected the rejected program to actually violate uniqueness at run time")
	}
}
