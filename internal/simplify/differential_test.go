package simplify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/logic"
)

// This file is the prover's differential oracle: random ground EUF+LA
// formulas are proved by the full search stack (DPLL + congruence closure +
// Fourier-Motzkin + case splits) and cross-checked against a brute-force
// model enumerator over a small bounded domain. The prover is sound and
// incomplete, so the checkable direction is: whenever Prove says Valid, no
// interpretation in the bounded family may falsify the formula. A single
// discrepancy is an unsoundness bug.
//
// The interpretation family is a genuine sub-family of first-order models
// over the integers: the constants a, b, c take values in {-1, 0, 1},
// arithmetic is true integer arithmetic, and the uninterpreted symbols f
// (unary function) and P (unary predicate) are interpreted by arbitrary
// mod-3-periodic tables — legitimate functions on ℤ, so validity implies
// truth in every one of them.

// diffRNG is a tiny deterministic LCG so the corpus is identical on every
// run and across platforms.
type diffRNG struct{ s uint64 }

func (r *diffRNG) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// diffConsts are the ground constant symbols formulas are built from.
var diffConsts = []string{"a", "b", "c"}

// genGroundTerm builds a random ground term of the given depth.
func genGroundTerm(r *diffRNG, depth int) logic.Term {
	if depth <= 0 {
		if r.intn(2) == 0 {
			return logic.Const(diffConsts[r.intn(len(diffConsts))])
		}
		return logic.IntLit{Value: int64(r.intn(3) - 1)}
	}
	switch r.intn(6) {
	case 0:
		return logic.Const(diffConsts[r.intn(len(diffConsts))])
	case 1:
		return logic.IntLit{Value: int64(r.intn(3) - 1)}
	case 2:
		return logic.Fn("f", genGroundTerm(r, depth-1))
	case 3:
		return logic.Fn("+", genGroundTerm(r, depth-1), genGroundTerm(r, depth-1))
	case 4:
		return logic.Fn("-", genGroundTerm(r, depth-1), genGroundTerm(r, depth-1))
	default:
		return logic.Fn("*", genGroundTerm(r, depth-1), genGroundTerm(r, depth-1))
	}
}

// genGroundAtom builds a random comparison or predicate atom.
func genGroundAtom(r *diffRNG, depth int) logic.Formula {
	if r.intn(4) == 0 {
		return logic.P("P", genGroundTerm(r, depth))
	}
	ops := []logic.CmpOp{logic.EqOp, logic.NeOp, logic.LtOp, logic.LeOp, logic.GtOp, logic.GeOp}
	return logic.Cmp{Op: ops[r.intn(len(ops))], L: genGroundTerm(r, depth), R: genGroundTerm(r, depth)}
}

// genGroundFormula builds a random ground formula. The distribution is
// biased toward valid shapes (φ⇒φ, φ∨¬φ, (φ∧ψ)⇒φ) so the prover answers
// Valid often enough for the oracle check to have teeth.
func genGroundFormula(r *diffRNG, depth int) logic.Formula {
	if depth <= 0 {
		return genGroundAtom(r, 1)
	}
	switch r.intn(10) {
	case 0, 1:
		return genGroundAtom(r, depth)
	case 2:
		return logic.Not{F: genGroundFormula(r, depth-1)}
	case 3:
		return logic.Conj(genGroundFormula(r, depth-1), genGroundFormula(r, depth-1))
	case 4:
		return logic.Disj(genGroundFormula(r, depth-1), genGroundFormula(r, depth-1))
	case 5:
		return logic.Imp(genGroundFormula(r, depth-1), genGroundFormula(r, depth-1))
	case 6, 7: // φ ⇒ φ and (φ ∧ ψ) ⇒ φ
		phi := genGroundFormula(r, depth-1)
		if r.intn(2) == 0 {
			return logic.Imp(phi, phi)
		}
		return logic.Imp(logic.Conj(phi, genGroundFormula(r, depth-1)), phi)
	default: // φ ∨ ¬φ
		phi := genGroundFormula(r, depth-1)
		return logic.Disj(phi, logic.Not{F: phi})
	}
}

// diffInterp is one bounded-domain interpretation.
type diffInterp struct {
	consts map[string]int64
	fTable [3]int64
	pTable [3]bool
}

func mod3(v int64) int { return int(((v % 3) + 3) % 3) }

func (in *diffInterp) evalTerm(t logic.Term) int64 {
	switch t := t.(type) {
	case logic.IntLit:
		return t.Value
	case logic.App:
		switch t.Fn {
		case "+":
			var s int64
			for _, a := range t.Args {
				s += in.evalTerm(a)
			}
			return s
		case "-":
			if len(t.Args) == 1 {
				return -in.evalTerm(t.Args[0])
			}
			return in.evalTerm(t.Args[0]) - in.evalTerm(t.Args[1])
		case "~":
			return -in.evalTerm(t.Args[0])
		case "*":
			return in.evalTerm(t.Args[0]) * in.evalTerm(t.Args[1])
		case "f":
			return in.fTable[mod3(in.evalTerm(t.Args[0]))]
		default:
			if v, ok := in.consts[t.Fn]; ok && len(t.Args) == 0 {
				return v
			}
			panic("differential oracle: unexpected term " + t.String())
		}
	}
	panic("differential oracle: unexpected term kind")
}

func (in *diffInterp) evalFormula(f logic.Formula) bool {
	switch f := f.(type) {
	case logic.TrueF:
		return true
	case logic.FalseF:
		return false
	case logic.Cmp:
		l, r := in.evalTerm(f.L), in.evalTerm(f.R)
		switch f.Op {
		case logic.EqOp:
			return l == r
		case logic.NeOp:
			return l != r
		case logic.LtOp:
			return l < r
		case logic.LeOp:
			return l <= r
		case logic.GtOp:
			return l > r
		case logic.GeOp:
			return l >= r
		}
	case logic.Pred:
		return in.pTable[mod3(in.evalTerm(f.Args[0]))]
	case logic.Not:
		return !in.evalFormula(f.F)
	case logic.And:
		for _, g := range f.Fs {
			if !in.evalFormula(g) {
				return false
			}
		}
		return true
	case logic.Or:
		for _, g := range f.Fs {
			if in.evalFormula(g) {
				return true
			}
		}
		return false
	case logic.Implies:
		return !in.evalFormula(f.Hyp) || in.evalFormula(f.Concl)
	case logic.Iff:
		return in.evalFormula(f.L) == in.evalFormula(f.R)
	}
	panic("differential oracle: unexpected formula kind")
}

// diffSymbols records which interpreted-by-table symbols a formula mentions,
// so the enumeration only ranges over dimensions that matter.
type diffSymbols struct {
	consts map[string]bool
	usesF  bool
	usesP  bool
}

func collectSymbols(f logic.Formula, out *diffSymbols) {
	var walkTerm func(t logic.Term)
	walkTerm = func(t logic.Term) {
		if app, ok := t.(logic.App); ok {
			switch app.Fn {
			case "f":
				out.usesF = true
			case "+", "-", "~", "*":
			default:
				if len(app.Args) == 0 {
					out.consts[app.Fn] = true
				}
			}
			for _, a := range app.Args {
				walkTerm(a)
			}
		}
	}
	switch f := f.(type) {
	case logic.Cmp:
		walkTerm(f.L)
		walkTerm(f.R)
	case logic.Pred:
		out.usesP = true
		for _, a := range f.Args {
			walkTerm(a)
		}
	case logic.Not:
		collectSymbols(f.F, out)
	case logic.And:
		for _, g := range f.Fs {
			collectSymbols(g, out)
		}
	case logic.Or:
		for _, g := range f.Fs {
			collectSymbols(g, out)
		}
	case logic.Implies:
		collectSymbols(f.Hyp, out)
		collectSymbols(f.Concl, out)
	case logic.Iff:
		collectSymbols(f.L, out)
		collectSymbols(f.R, out)
	}
}

// findCounterModel enumerates every interpretation in the bounded family
// (restricted to the symbols f mentions) and returns one falsifying f, or
// nil when f holds in all of them.
func findCounterModel(f logic.Formula) *diffInterp {
	syms := diffSymbols{consts: map[string]bool{}}
	collectSymbols(f, &syms)
	var names []string
	for _, c := range diffConsts {
		if syms.consts[c] {
			names = append(names, c)
		}
	}
	fTables := 1
	if syms.usesF {
		fTables = 27
	}
	pTables := 1
	if syms.usesP {
		pTables = 8
	}
	constAssignments := 1
	for range names {
		constAssignments *= 3
	}
	for ci := 0; ci < constAssignments; ci++ {
		consts := map[string]int64{}
		v := ci
		for _, n := range names {
			consts[n] = int64(v%3 - 1)
			v /= 3
		}
		for fi := 0; fi < fTables; fi++ {
			var fTable [3]int64
			fv := fi
			for k := 0; k < 3; k++ {
				fTable[k] = int64(fv%3 - 1)
				fv /= 3
			}
			for pi := 0; pi < pTables; pi++ {
				var pTable [3]bool
				pv := pi
				for k := 0; k < 3; k++ {
					pTable[k] = pv%2 == 1
					pv /= 2
				}
				in := &diffInterp{consts: consts, fTable: fTable, pTable: pTable}
				if !in.evalFormula(f) {
					return in
				}
			}
		}
	}
	return nil
}

// diffProver builds the prover used by the differential tests: no background
// axioms (the formulas are self-contained), default budgets.
func diffProver() *Prover {
	return New(nil, DefaultOptions())
}

// checkAgainstOracle proves f and, when the prover claims validity, verifies
// that claim against the bounded-model enumeration. Returns whether the
// prover said Valid.
func checkAgainstOracle(t *testing.T, prover *Prover, f logic.Formula) bool {
	t.Helper()
	out := prover.Prove(f)
	if out.Result != Valid {
		return false
	}
	if cm := findCounterModel(f); cm != nil {
		t.Fatalf("prover unsound: claimed Valid but counter-model exists\n  formula: %s\n  consts: %v  f-table: %v  P-table: %v",
			f, cm.consts, cm.fTable, cm.pTable)
	}
	return true
}

// TestDifferentialProveGround runs the fixed-seed corpus: 10k random ground
// formulas, every Valid verdict checked against the oracle, plus a sampling
// floor asserting the corpus actually exercises the Valid path.
func TestDifferentialProveGround(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	r := &diffRNG{s: groundCorpusSeed}
	prover := diffProver()
	valid := 0
	for i := 0; i < n; i++ {
		f := genGroundFormula(r, 2+r.intn(2))
		if checkAgainstOracle(t, prover, f) {
			valid++
		}
	}
	// The generator is biased toward tautological shapes; if the prover
	// stopped proving them, the differential check would be vacuous.
	floor := n / 10
	if valid < floor {
		t.Fatalf("only %d/%d corpus formulas proved Valid (floor %d); the differential check lost its teeth", valid, n, floor)
	}
	t.Logf("differential corpus: %d/%d Valid, zero discrepancies", valid, n)
}

// groundCorpusSeed seeds the fixed 10k-formula corpus that the
// differential, golden, and certificate-replay tests share.
const groundCorpusSeed = 0x5eed5eed5eed5eed

// groundGoldenPath holds the corpus's frozen verdicts: one V (Valid) or U
// (Unknown) per formula, recorded when three independent search engines
// (CDCL, a chronological non-learning trail search, and a recursive
// string-keyed DPLL) agreed on every formula. The file has no update mode on
// purpose: regenerating it from the engine under test would make the check a
// tautology. A change that proves more goals edits the flipped verdicts by
// hand and shows that each passes the bounded-model oracle.
const groundGoldenPath = "testdata/ground10k.golden"

// groundGolden is the parsed golden file: the regenerated corpus and its
// frozen verdicts.
type groundGolden struct {
	formulas []logic.Formula
	valid    []bool
	nValid   int
}

// loadGroundGolden parses the golden file and regenerates the corpus its
// header names. It fails loudly when the regenerated formulas no longer hash
// to the header's sha256 (genGroundFormula or diffRNG changed, so the frozen
// verdicts would pair with different formulas), or when the verdict count or
// Valid count disagrees with the header.
func loadGroundGolden(t testing.TB) groundGolden {
	t.Helper()
	data, err := os.ReadFile(groundGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	hdr := map[string]string{}
	var verdicts []byte
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "#"); ok {
			if k, v, ok := strings.Cut(strings.TrimSpace(rest), ": "); ok {
				hdr[k] = v
			}
			continue
		}
		verdicts = append(verdicts, strings.TrimSpace(line)...)
	}
	seed, err := strconv.ParseUint(hdr["seed"], 0, 64)
	if err != nil {
		t.Fatalf("golden header seed: %v", err)
	}
	n, err := strconv.Atoi(hdr["formulas"])
	if err != nil || n != len(verdicts) {
		t.Fatalf("golden header formulas=%q, but the file holds %d verdicts", hdr["formulas"], len(verdicts))
	}
	wantValid, err := strconv.Atoi(hdr["valid"])
	if err != nil {
		t.Fatalf("golden header valid: %v", err)
	}
	g := groundGolden{formulas: make([]logic.Formula, n), valid: make([]bool, n)}
	r := &diffRNG{s: seed}
	h := sha256.New()
	for i := range g.formulas {
		f := genGroundFormula(r, 2+r.intn(2))
		fmt.Fprintf(h, "%s\n", f)
		g.formulas[i] = f
		switch verdicts[i] {
		case 'V':
			g.valid[i] = true
			g.nValid++
		case 'U':
		default:
			t.Fatalf("golden verdict %d is %q, want V or U", i, verdicts[i])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != hdr["sha256"] {
		t.Fatalf("the regenerated corpus hashes to %s, but %s froze verdicts for %s: the corpus generator changed, so the verdicts no longer pair with their formulas",
			got, groundGoldenPath, hdr["sha256"])
	}
	if g.nValid != wantValid {
		t.Fatalf("golden file holds %d Valid verdicts, header says %d", g.nValid, wantValid)
	}
	return g
}

// TestDifferentialThreeEngines holds CDCL to the verdicts the three
// historical engines agreed on (testdata/ground10k.golden), formula for
// formula, with every Valid double-checked against the bounded-model oracle.
// The prover has a cache attached, so corpus formulas that repeat (up to
// alpha-renaming) are served from it and checked against the golden file
// like fresh ones. Under -short a prefix of the corpus is checked.
func TestDifferentialThreeEngines(t *testing.T) {
	g := loadGroundGolden(t)
	n := len(g.formulas)
	if testing.Short() {
		n = 2000
	}
	cdcl := New(nil, DefaultOptions()).WithCache(NewCache(0))
	valid := 0
	for i, f := range g.formulas[:n] {
		out := cdcl.Prove(f)
		if (out.Result == Valid) != g.valid[i] {
			t.Fatalf("corpus formula %d: cdcl says %v (%s), golden says Valid=%t\n  formula: %s",
				i, out.Result, out.Reason, g.valid[i], f)
		}
		if out.Result == Valid {
			valid++
			if cm := findCounterModel(f); cm != nil {
				t.Fatalf("cdcl unsound: claimed Valid but counter-model exists\n  formula: %s\n  consts: %v  f-table: %v  P-table: %v",
					f, cm.consts, cm.fTable, cm.pTable)
			}
		}
	}
	t.Logf("golden differential: %d formulas, %d Valid, all matching %s", n, valid, groundGoldenPath)
}

// TestCDCLDeterministicTrace: runs of the CDCL engine over the same corpus
// must produce identical verdicts, reasons, trace hashes and Stats (wall
// time aside) — two runs with fresh provers and fresh caches, and one with
// no cache at all. The hash digests every decision, conflict, learned
// clause, backjump, and restart, so equality pins the entire search event
// stream, not just the outcome; the uncached run pins that an outcome
// depends only on the axioms, the options and the goal, never on which
// goals the cache saw before.
func TestCDCLDeterministicTrace(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 400
	}
	run := func(cache *Cache) []string {
		r := &diffRNG{s: 0xdecaf1e57}
		p := New(nil, DefaultOptions()).WithCache(cache)
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			f := genGroundFormula(r, 2+r.intn(2))
			o := p.Prove(f)
			st := o.Stats
			st.WallTime = 0
			out = append(out, fmt.Sprintf("%s|%s|%s|%+v", o.Result, o.Reason, o.TraceHash, st))
		}
		return out
	}
	a, b, uncached := run(NewCache(0)), run(NewCache(0)), run(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CDCL run diverged at corpus formula %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
		if a[i] != uncached[i] {
			t.Fatalf("cached and uncached runs diverged at corpus formula %d:\n  cached:   %s\n  uncached: %s", i, a[i], uncached[i])
		}
	}
	if len(a) > 0 && a[0] == "" {
		t.Fatal("empty trace records")
	}
}

// FuzzProveGround is the native fuzz target behind the same oracle: the
// fuzzer mutates the generator seed and shape, and every Valid verdict is
// checked for a bounded counter-model.
func FuzzProveGround(f *testing.F) {
	f.Add(uint64(1), uint8(2))
	f.Add(uint64(0x5eed5eed5eed5eed), uint8(3))
	f.Add(uint64(0xdeadbeef), uint8(1))
	f.Add(uint64(42), uint8(4))
	prover := diffProver()
	f.Fuzz(func(t *testing.T, seed uint64, depth uint8) {
		r := &diffRNG{s: seed}
		d := int(depth%4) + 1
		formula := genGroundFormula(r, d)
		checkAgainstOracle(t, prover, formula)
	})
}
