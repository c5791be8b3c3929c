// Package cert defines proof certificates emitted by the simplify
// prover and a deliberately dumb, zero-search replay verifier.
//
// A certificate is a self-contained transcript of a refutation: the
// clausified problem (over interned terms and atoms), followed by a
// sequence of derivation steps, ending in the empty clause. The
// verifier (Verify) checks every step by reverse unit propagation
// (RUP) or by replaying a literal-level theory explanation against a
// small built-in congruence-closure / Fourier–Motzkin checker. It
// never searches: a step either checks in one bounded pass or the
// certificate is rejected.
//
// The package intentionally depends only on the standard library so
// that the trusted computing base for a replayed verdict is this
// package plus the clausifier that produced the problem clauses.
package cert

import "errors"

// Lit is a literal over certificate atoms: atom<<1 | sign, where
// sign 1 means negated. This mirrors the prover's internal ilit
// encoding but is independent of it.
type Lit int32

// MkLit builds a literal for atom a, negated if neg.
func MkLit(a int32, neg bool) Lit {
	l := Lit(a << 1)
	if neg {
		l |= 1
	}
	return l
}

// Atom returns the atom index of the literal.
func (l Lit) Atom() int32 { return int32(l >> 1) }

// Negated reports whether the literal is negative.
func (l Lit) Negated() bool { return l&1 == 1 }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Comparison operators for atoms, mirroring logic.CmpOp values.
// Canonical certificates only use OpEq, OpLt, OpLe, and PredOp,
// but the verifier accepts all six.
const (
	OpEq int8 = 0
	OpNe int8 = 1
	OpLt int8 = 2
	OpLe int8 = 3
	OpGt int8 = 4
	OpGe int8 = 5
)

// PredOp marks an atom that is a predicate application rather than a
// comparison: the atom is "term L is true".
const PredOp int8 = -1

// Term is a hash-consed term in the certificate's term table. Args
// index strictly earlier entries, so the table is a DAG in
// topological order. Integer literals have IsInt set and no Args;
// all other terms are applications (a nullary application doubles as
// a variable or constant).
type Term struct {
	Fn    string
	Args  []int32
	Int   int64
	IsInt bool
}

// Atom is either a comparison L op R over certificate terms, or,
// when Op == PredOp, the predicate assertion "L holds" (R must be -1).
type Atom struct {
	Op   int8
	L, R int32
}

// Step kinds.
const (
	// StepRUP asserts that the step's clause is implied by the
	// problem clauses plus all earlier steps, checkable by reverse
	// unit propagation: assert the negation of every literal in the
	// clause, unit-propagate, and reach a falsified clause.
	StepRUP uint8 = 0
	// StepTheory asserts that the step's clause is a theory lemma:
	// the conjunction of the negations of its literals is
	// theory-unsatisfiable, checkable by the built-in explanation
	// checker named by Expl.
	StepTheory uint8 = 1
)

// ExplTheory is the only theory explanation kind for StepTheory steps:
// it replays the negated literals through a small congruence closure
// plus Fourier–Motzkin elimination and requires a conflict. Verify
// rejects any other kind as malformed.
const ExplTheory uint8 = 0

// Step is one derivation. Lits is the derived clause (empty for the
// final contradiction). For StepRUP, Premises optionally restricts
// the clause database used for propagation: each value v indexes a
// problem clause when v < len(Clauses), otherwise step v-len(Clauses),
// which must precede this step. A nil Premises means the whole
// database (all problem clauses and all earlier steps). For
// StepTheory, Premises must be empty and Expl names the checker.
type Step struct {
	Kind     uint8
	Lits     []Lit
	Premises []int32
	Expl     uint8
}

// Certificate is a complete replayable refutation of the clausified
// negated goal. Key optionally records the canonical goal string the
// certificate was minted for, so cache layers can cross-check
// identity; Verify does not interpret it.
type Certificate struct {
	Terms   []Term
	Atoms   []Atom
	Clauses [][]Lit
	Steps   []Step
	Key     string
}

// Named rejection reasons. Verify wraps these with step context;
// test with errors.Is.
var (
	// ErrMalformed covers structural violations: out-of-range term,
	// atom, or literal references, a non-topological term table, a
	// bad operator, or a step clause mentioning one atom twice.
	ErrMalformed = errors.New("cert: malformed certificate")
	// ErrForwardPremise is a premise reference to this step or a
	// later one (a circular step reference).
	ErrForwardPremise = errors.New("cert: premise references this or a later step")
	// ErrBadPremise is a premise reference outside the clause/step
	// index space.
	ErrBadPremise = errors.New("cert: premise index out of range")
	// ErrNotRUP is a RUP step whose clause does not follow by unit
	// propagation from its premises (e.g. a dropped resolution
	// premise).
	ErrNotRUP = errors.New("cert: step is not RUP")
	// ErrUnexplainedTheory is a theory step whose negated literals
	// are consistent under the named explanation checker.
	ErrUnexplainedTheory = errors.New("cert: theory lemma not explained")
	// ErrNoEmptyClause means the certificate never derives the empty
	// clause, so it proves nothing.
	ErrNoEmptyClause = errors.New("cert: no empty clause derived")
)
