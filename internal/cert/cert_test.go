package cert

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"
)

// Handcrafted certificate builders. Every valid seed here is "lean":
// each step is load-bearing, so any mutation that changes a step must
// be rejected — the property the mutation sweep and fuzz target rely
// on.

// app builds a certificate application term.
func app(fn string, args ...int32) Term {
	return Term{Fn: fn, Args: args}
}

func intT(v int64) Term { return Term{Int: v, IsInt: true} }

// certResolution: pure propositional proof.
// Terms: x, y (nullary apps). Atoms: a=pred(x), b=pred(y).
// Clauses: {a,b} {a,¬b} {¬a,b} {¬a,¬b}.
// Steps: RUP {a}; RUP {} — both load-bearing.
func certResolution() *Certificate {
	a := MkLit(0, false)
	b := MkLit(1, false)
	return &Certificate{
		Terms: []Term{app("x"), app("y")},
		Atoms: []Atom{{Op: PredOp, L: 0, R: -1}, {Op: PredOp, L: 1, R: -1}},
		Clauses: [][]Lit{
			{a, b}, {a, b.Neg()}, {a.Neg(), b}, {a.Neg(), b.Neg()},
		},
		Steps: []Step{
			{Kind: StepRUP, Lits: []Lit{a}},
			{Kind: StepRUP, Lits: nil},
		},
	}
}

// certCongruence: x=y ∧ p(x) ∧ ¬p(y) is T-unsat.
// Terms: x, y, p(x), p(y). Atoms: e=(x=y), px=pred p(x), py=pred p(y).
// Clauses assert each; one theory step derives the empty clause... the
// theory lemma {¬e,¬px,py} plus RUP resolution finishes.
func certCongruence() *Certificate {
	e := MkLit(0, false)
	px := MkLit(1, false)
	py := MkLit(2, false)
	return &Certificate{
		Terms: []Term{app("x"), app("y"), app("p", 0), app("p", 1)},
		Atoms: []Atom{
			{Op: OpEq, L: 0, R: 1},
			{Op: PredOp, L: 2, R: -1},
			{Op: PredOp, L: 3, R: -1},
		},
		Clauses: [][]Lit{{e}, {px}, {py.Neg()}},
		Steps: []Step{
			{Kind: StepTheory, Expl: ExplTheory, Lits: []Lit{e.Neg(), px.Neg(), py}},
			{Kind: StepRUP, Lits: nil},
		},
	}
}

// certFM: x <= 0 ∧ x >= 1 is LA-unsat.
func certFM() *Certificate {
	le := MkLit(0, false)
	ge := MkLit(1, false)
	return &Certificate{
		Terms: []Term{app("x"), intT(0), intT(1)},
		Atoms: []Atom{
			{Op: OpLe, L: 0, R: 1}, // x <= 0
			{Op: OpGe, L: 0, R: 2}, // x >= 1
		},
		Clauses: [][]Lit{{le}, {ge}},
		Steps: []Step{
			{Kind: StepTheory, Expl: ExplTheory, Lits: []Lit{le.Neg(), ge.Neg()}},
			{Kind: StepRUP, Lits: nil},
		},
	}
}

// certIntMerge: a=1 ∧ a=2 merges distinct integers.
func certIntMerge() *Certificate {
	e1 := MkLit(0, false)
	e2 := MkLit(1, false)
	return &Certificate{
		Terms: []Term{app("a"), intT(1), intT(2)},
		Atoms: []Atom{
			{Op: OpEq, L: 0, R: 1},
			{Op: OpEq, L: 0, R: 2},
		},
		Clauses: [][]Lit{{e1}, {e2}},
		Steps: []Step{
			{Kind: StepTheory, Expl: ExplTheory, Lits: []Lit{e1.Neg(), e2.Neg()}},
			{Kind: StepRUP, Lits: nil},
		},
	}
}

// certTrueFalse: pred(x) ∧ ¬pred(x) via the virtual true/false nodes.
func certTrueFalse() *Certificate {
	p := MkLit(0, false)
	return &Certificate{
		Terms:   []Term{app("x")},
		Atoms:   []Atom{{Op: PredOp, L: 0, R: -1}},
		Clauses: [][]Lit{{p}, {p.Neg()}},
		Steps: []Step{
			{Kind: StepRUP, Lits: nil},
		},
	}
}

func validSeeds() map[string]*Certificate {
	return map[string]*Certificate{
		"resolution": certResolution(),
		"congruence": certCongruence(),
		"fm":         certFM(),
		"intmerge":   certIntMerge(),
		"truefalse":  certTrueFalse(),
	}
}

func TestVerifyValidSeeds(t *testing.T) {
	for name, c := range validSeeds() {
		if err := Verify(c); err != nil {
			t.Errorf("%s: valid certificate rejected: %v", name, err)
		}
	}
}

func TestVerifyDroppedPremise(t *testing.T) {
	// certResolution's first step resolves clauses 0 and 1; handing the
	// verifier only clause 0 models a dropped resolution premise.
	c := certResolution()
	c.Steps[0].Premises = []int32{0}
	err := Verify(c)
	if !errors.Is(err, ErrNotRUP) {
		t.Fatalf("dropped premise: got %v, want ErrNotRUP", err)
	}
	// With both premises restored the step checks again.
	c.Steps[0].Premises = []int32{0, 1}
	if err := Verify(c); err != nil {
		t.Fatalf("restored premises: %v", err)
	}
}

func TestVerifyCircularPremise(t *testing.T) {
	c := certResolution()
	nc := int32(len(c.Clauses))
	// Step 0 citing itself.
	c.Steps[0].Premises = []int32{nc + 0}
	if err := Verify(c); !errors.Is(err, ErrForwardPremise) {
		t.Fatalf("self premise: got %v, want ErrForwardPremise", err)
	}
	// Step 0 citing step 1.
	c.Steps[0].Premises = []int32{nc + 1}
	if err := Verify(c); !errors.Is(err, ErrForwardPremise) {
		t.Fatalf("forward premise: got %v, want ErrForwardPremise", err)
	}
	// Premise index past the end of the step list.
	c.Steps[0].Premises = []int32{nc + 99}
	if err := Verify(c); !errors.Is(err, ErrBadPremise) {
		t.Fatalf("out-of-range premise: got %v, want ErrBadPremise", err)
	}
}

func TestVerifyUnexplainedTheory(t *testing.T) {
	// x <= 0 alone is satisfiable: the lemma {¬(x<=0)} has no
	// theory explanation.
	c := certFM()
	c.Steps[0].Lits = []Lit{MkLit(0, true)} // {¬le}: asserts x <= 0 only
	err := Verify(c)
	if !errors.Is(err, ErrUnexplainedTheory) {
		t.Fatalf("consistent theory step: got %v, want ErrUnexplainedTheory", err)
	}
}

func TestVerifyStructuralRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(c *Certificate)
		want error
	}{
		{"nil-cert", nil, ErrMalformed},
		{"no-steps", func(c *Certificate) { c.Steps = nil }, ErrNoEmptyClause},
		{"no-empty-clause", func(c *Certificate) { c.Steps = c.Steps[:1] }, ErrNoEmptyClause},
		{"lit-out-of-range", func(c *Certificate) { c.Steps[0].Lits = []Lit{MkLit(99, false)} }, ErrMalformed},
		{"negative-lit", func(c *Certificate) { c.Steps[0].Lits = []Lit{-2} }, ErrMalformed},
		{"dup-atom-step", func(c *Certificate) {
			c.Steps[0].Lits = []Lit{MkLit(0, false), MkLit(0, true)}
		}, ErrMalformed},
		{"term-forward-arg", func(c *Certificate) { c.Terms[0].Args = []int32{1} }, ErrMalformed},
		{"int-term-with-args", func(c *Certificate) {
			c.Terms = append(c.Terms, Term{Int: 3, IsInt: true, Args: []int32{0}})
		}, ErrMalformed},
		{"atom-term-out-of-range", func(c *Certificate) { c.Atoms[0].L = 99 }, ErrMalformed},
		{"pred-with-right-term", func(c *Certificate) { c.Atoms[0].R = 0 }, ErrMalformed},
		{"unknown-op", func(c *Certificate) { c.Atoms[0].Op = 42 }, ErrMalformed},
		{"unknown-step-kind", func(c *Certificate) { c.Steps[0].Kind = 9 }, ErrMalformed},
		{"unknown-expl", func(c *Certificate) {
			c.Steps[0].Kind = StepTheory
			c.Steps[0].Expl = 7
		}, ErrMalformed},
		// Kind 1 was the retired interval explanation; no checker
		// replays it any more.
		{"retired-interval-expl", func(c *Certificate) {
			c.Steps[0].Kind = StepTheory
			c.Steps[0].Expl = 1
		}, ErrMalformed},
		{"theory-step-with-premises", func(c *Certificate) {
			c.Steps[0].Kind = StepTheory
			c.Steps[0].Premises = []int32{0}
		}, ErrMalformed},
	}
	for _, tc := range cases {
		var c *Certificate
		if tc.mut != nil {
			c = certResolution()
			tc.mut(c)
		}
		if err := Verify(c); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestVerifyRejectsBogusEmptyClause(t *testing.T) {
	// A satisfiable problem with a claimed empty clause must not check.
	a := MkLit(0, false)
	c := &Certificate{
		Terms:   []Term{app("x")},
		Atoms:   []Atom{{Op: PredOp, L: 0, R: -1}},
		Clauses: [][]Lit{{a}},
		Steps:   []Step{{Kind: StepRUP, Lits: nil}},
	}
	if err := Verify(c); !errors.Is(err, ErrNotRUP) {
		t.Fatalf("bogus empty clause: got %v, want ErrNotRUP", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, c := range validSeeds() {
		c.Key = "goal-" + name
		data := Encode(c)
		c2, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(normalize(c), normalize(c2)) {
			t.Fatalf("%s: round trip mismatch:\n%#v\n%#v", name, c, c2)
		}
		if err := Verify(c2); err != nil {
			t.Fatalf("%s: decoded certificate rejected: %v", name, err)
		}
	}
}

// normalize maps nil and empty slices to one form for DeepEqual.
func normalize(c *Certificate) *Certificate {
	out := &Certificate{Key: c.Key}
	for _, tm := range c.Terms {
		if len(tm.Args) == 0 {
			tm.Args = nil
		}
		out.Terms = append(out.Terms, tm)
	}
	out.Atoms = append(out.Atoms, c.Atoms...)
	for _, cl := range c.Clauses {
		if len(cl) == 0 {
			cl = nil
		}
		out.Clauses = append(out.Clauses, cl)
	}
	for _, st := range c.Steps {
		if len(st.Lits) == 0 {
			st.Lits = nil
		}
		if len(st.Premises) == 0 {
			st.Premises = nil
		}
		out.Steps = append(out.Steps, st)
	}
	return out
}

func TestDecodeRejectsCorruption(t *testing.T) {
	c := certResolution()
	data := Encode(c)

	short := data[:len(data)-9]
	if _, err := Decode(short); err == nil {
		t.Fatal("truncated body accepted")
	}
	if _, err := Decode(data[:4]); !errors.Is(err, ErrTruncated) {
		t.Fatal("tiny input accepted")
	}

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); !errors.Is(err, ErrMalformed) {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
		t.Fatal("checksum flip accepted")
	}

	// Trailing garbage shifts the trailer: checksum mismatch.
	if _, err := Decode(append(append([]byte(nil), data...), 0xAB)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// fixChecksum recomputes the trailer after a body mutation, so the
// mutation reaches the structural decoder and the verifier.
func fixChecksum(data []byte) []byte {
	body := data[:len(data)-8]
	h := fnv.New64a()
	h.Write(body)
	return binary.BigEndian.AppendUint64(append([]byte(nil), body...), h.Sum64())
}

// bruteUnsat is an independent propositional oracle: truth-table
// unsatisfiability of a clause set over nAtoms atoms. Only usable for
// tiny certificates, which the seeds are by construction.
func bruteUnsat(clauses [][]Lit, nAtoms int) bool {
	for mask := 0; mask < 1<<nAtoms; mask++ {
		sat := true
		for _, cl := range clauses {
			clSat := false
			for _, l := range cl {
				bit := mask>>uint(l.Atom())&1 == 1
				if bit != l.Negated() {
					clSat = true
					break
				}
			}
			if !clSat {
				sat = false
				break
			}
		}
		if sat {
			return false
		}
	}
	return true
}

// checkMutant is the shared mutation oracle. A mutated step can
// legitimately become an alternative valid derivation (the verifier
// is self-contained, so any accepted certificate is a genuine proof
// of its own clause set); the soundness property we can check
// independently is that every *accepted* purely-propositional mutant
// really has an unsatisfiable clause set, by truth table.
func checkMutant(t *testing.T, mutant []byte) {
	t.Helper()
	c2, err := Decode(mutant)
	if err != nil {
		return
	}
	if err := Verify(c2); err != nil {
		return
	}
	pureRUP := true
	for i := range c2.Steps {
		if c2.Steps[i].Kind != StepRUP {
			pureRUP = false
			break
		}
	}
	if pureRUP && len(c2.Atoms) <= 16 {
		if !bruteUnsat(c2.Clauses, len(c2.Atoms)) {
			t.Fatalf("verifier accepted a certificate for a satisfiable clause set: %#v", c2)
		}
	}
}

// TestMutationSweep exhaustively applies single-byte corruptions —
// with and without a fixed-up checksum — to every valid seed and
// asserts the oracle. This is the deterministic superset of the fuzz
// target's search space for two xor patterns.
func TestMutationSweep(t *testing.T) {
	for name, c := range validSeeds() {
		c.Key = "goal-" + name
		data := Encode(c)
		for pos := 0; pos < len(data); pos++ {
			for _, x := range []byte{0x01, 0xFF} {
				mut := append([]byte(nil), data...)
				mut[pos] ^= x
				// Without fixup the checksum must catch every change.
				if _, err := Decode(mut); err == nil {
					t.Fatalf("%s: mutation at %d xor %#x decoded without checksum error", name, pos, x)
				}
				checkMutant(t, fixChecksum(mut))
			}
		}
	}
}
