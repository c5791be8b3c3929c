package simplify

import (
	"sort"
	"strings"

	"repro/internal/logic"
)

// This file maps ground literals onto dense propositional atom IDs. The
// search engine (search2.go) never touches a printed string on its hot
// path: terms are hash-consed logic.TermIDs, atoms are (op, L, R) triples
// over those IDs, and literals are atom IDs with a sign bit.

// atomID identifies a canonical propositional atom in an atomTable.
type atomID int32

// predOp marks a predicate atom in an atomKey (the Cmp ops are >= 0).
const predOp int8 = -1

// atomKey is the canonical identity of an atom: a comparison op over two
// interned terms, or a predicate atom (op == predOp, l = the predicate's
// term encoding, r unused). Canonicalization (canonCmp) makes complementary
// literals share one atom: NeOp folds to a negated EqOp, Gt/Ge swap into
// Lt/Le, and Eq keeps its argument order (Eq(a,b) and Eq(b,a) are distinct
// atoms; the e-graph, not the atom table, knows they coincide).
type atomKey struct {
	op   int8
	l, r logic.TermID
}

// ilit is a literal over interned atoms: atomID<<1 | sign (1 = negated).
type ilit int32

func mkLit(a atomID, neg bool) ilit {
	l := ilit(a) << 1
	if neg {
		l |= 1
	}
	return l
}

func (l ilit) atom() atomID  { return atomID(l >> 1) }
func (l ilit) negated() bool { return l&1 == 1 }

// atomTable interns canonical atoms to dense atomIDs.
type atomTable struct {
	keys  []atomKey
	index map[atomKey]atomID
}

func newAtomTable() *atomTable {
	return &atomTable{index: make(map[atomKey]atomID, 64)}
}

func (at *atomTable) intern(k atomKey) atomID {
	if id, ok := at.index[k]; ok {
		return id
	}
	id := atomID(len(at.keys))
	at.keys = append(at.keys, k)
	at.index[k] = id
	return id
}

// len returns the number of interned atoms.
func (at *atomTable) len() int { return len(at.keys) }

// canonCmp normalizes a comparison to its canonical atom: returns the
// canonical (op, L, R) plus whether the literal flips sign.
func canonCmp(op logic.CmpOp, l, r logic.TermID) (logic.CmpOp, logic.TermID, logic.TermID, bool) {
	switch op {
	case logic.NeOp:
		return logic.EqOp, l, r, true
	case logic.GtOp:
		return logic.LtOp, r, l, false
	case logic.GeOp:
		return logic.LeOp, r, l, false
	}
	return op, l, r, false
}

// internLit interns a ground literal, returning its signed interned form.
func (at *atomTable) internLit(l logic.Literal, tt *logic.TermTable) ilit {
	if !l.IsCmp {
		pid := tt.Intern(predAsTerm(l.Pred))
		return mkLit(at.intern(atomKey{op: predOp, l: pid}), l.Neg)
	}
	op, L, R, flip := canonCmp(l.Cmp.Op, tt.Intern(l.Cmp.L), tt.Intern(l.Cmp.R))
	return mkLit(at.intern(atomKey{op: int8(op), l: L, r: R}), l.Neg != flip)
}

// internLitSubst interns a quantified clause's literal under a trigger
// substitution. It reports false when some variable is unbound (the
// instantiation is not fully ground), in which case no atom is interned —
// though subterms interned before the failure harmlessly remain in the term
// table (they join no clause, no bank, and no trichotomy scan).
func (at *atomTable) internLitSubst(l logic.Literal, sub map[string]logic.TermID, tt *logic.TermTable) (ilit, bool) {
	if !l.IsCmp {
		pid, ok := tt.InternSubst(predAsTerm(l.Pred), sub)
		if !ok {
			return 0, false
		}
		return mkLit(at.intern(atomKey{op: predOp, l: pid}), l.Neg), true
	}
	lid, ok := tt.InternSubst(l.Cmp.L, sub)
	if !ok {
		return 0, false
	}
	rid, ok := tt.InternSubst(l.Cmp.R, sub)
	if !ok {
		return 0, false
	}
	op, L, R, flip := canonCmp(l.Cmp.Op, lid, rid)
	return mkLit(at.intern(atomKey{op: int8(op), l: L, r: R}), l.Neg != flip), true
}

// literal reconstructs the positive logic.Literal for an atom (for model
// reporting and diagnostics; never on the search hot path).
func (at *atomTable) literal(a atomID, tt *logic.TermTable) logic.Literal {
	k := at.keys[a]
	if k.op == predOp {
		t := tt.Term(k.l).(logic.App)
		return logic.Literal{Pred: logic.Pred{
			Name: strings.TrimPrefix(t.Fn, predTermFn),
			Args: t.Args,
		}}
	}
	return logic.Literal{IsCmp: true, Cmp: logic.Cmp{
		Op: logic.CmpOp(k.op),
		L:  tt.Term(k.l),
		R:  tt.Term(k.r),
	}}
}

// clauseKey builds a content key for an interned clause: the sorted literal
// list encoded as raw bytes. Clauses equal as literal *sets* share a key;
// dropping a permuted duplicate never changes satisfiability.
func clauseKey(lits []ilit) string {
	sorted := make([]ilit, len(lits))
	copy(sorted, lits)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	buf := make([]byte, 0, 4*len(sorted))
	for _, l := range sorted {
		buf = append(buf, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(buf)
}

// dedupLits removes exact duplicate literals preserving first-occurrence
// order (tautological clauses — both polarities present — are kept; they
// are simply always satisfiable).
func dedupLits(lits []ilit) []ilit {
	out := lits[:0]
	for _, l := range lits {
		dup := false
		for _, p := range out {
			if p == l {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out
}
