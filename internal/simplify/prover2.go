package simplify

import (
	"fmt"

	"repro/internal/logic"
)

// This file is the prover's outer loop: rounds of trichotomy splits, a CDCL
// refutation search, and e-matching saturation over the hash-consed clause
// database. Clause and trichotomy dedup are integer-keyed, the term bank
// persists across rounds (catching up on newly added clauses only), and the
// theory solvers are created once per goal and rewound to their base marks
// between rounds.
//
// Every goal goes through this one engine. Learned clauses carry from round
// to round within a goal (they stay implied as the clause set only grows);
// nothing carries from one goal to the next.

// clauseDB is the interned ground clause set, deduplicated by literal-set
// content keys.
type clauseDB struct {
	tt      *logic.TermTable
	at      *atomTable
	clauses [][]ilit
	seen    map[string]bool
}

func newClauseDB(tt *logic.TermTable, at *atomTable) *clauseDB {
	return &clauseDB{tt: tt, at: at, seen: make(map[string]bool, 64)}
}

// add dedups and appends one interned clause, reporting whether it was new.
func (db *clauseDB) add(lits []ilit) bool {
	lits = dedupLits(lits)
	k := clauseKey(lits)
	if db.seen[k] {
		return false
	}
	db.seen[k] = true
	db.clauses = append(db.clauses, lits)
	return true
}

// addGround interns and adds one ground logic.Clause.
func (db *clauseDB) addGround(c logic.Clause) bool {
	lits := make([]ilit, len(c.Lits))
	for i, l := range c.Lits {
		lits[i] = db.at.internLit(l, db.tt)
	}
	return db.add(lits)
}

// trichotomy2 adds (l < r) || (l = r) || (l > r) for every equality atom
// over numeric terms, enabling the case splits the integer theory needs
// (e.g. x != 0 |- x < 0 or x > 0). A term is numeric if it appears under an
// order comparison or an arithmetic operator (its opaque atoms and the full
// term are both marked), closed over equality pairs, with integer literals
// numeric by construction. Returns the number of clauses added.
func trichotomy2(db *clauseDB, ar *arithSolver2, seenTri map[[2]logic.TermID]bool, tk *ticker) int {
	tt, at := db.tt, db.at
	numeric := map[logic.TermID]bool{}
	markArith := func(t logic.TermID) {
		for _, a := range ar.atomsOf(t) {
			numeric[a] = true
		}
		numeric[t] = true
	}
	var eqs [][2]logic.TermID
	for _, cl := range db.clauses {
		for _, l := range cl {
			k := at.keys[l.atom()]
			switch k.op {
			case int8(logic.LtOp), int8(logic.LeOp):
				markArith(k.l)
				markArith(k.r)
			case int8(logic.EqOp):
				eqs = append(eqs, [2]logic.TermID{k.l, k.r})
			}
		}
	}
	isInt := func(t logic.TermID) bool { return tt.Kind(t) == logic.KindInt }
	// Close numeric-ness over equality pairs until fixpoint.
	for changed := true; changed && !tk.stop(); {
		changed = false
		for _, pr := range eqs {
			ln := numeric[pr[0]] || isInt(pr[0])
			rn := numeric[pr[1]] || isInt(pr[1])
			if ln && !numeric[pr[1]] {
				numeric[pr[1]] = true
				changed = true
			}
			if rn && !numeric[pr[0]] {
				numeric[pr[0]] = true
				changed = true
			}
		}
	}
	added := 0
	for _, pr := range eqs {
		if !(numeric[pr[0]] || isInt(pr[0])) || !(numeric[pr[1]] || isInt(pr[1])) {
			continue
		}
		if seenTri[pr] {
			continue
		}
		seenTri[pr] = true
		lits := []ilit{
			mkLit(at.intern(atomKey{op: int8(logic.LtOp), l: pr[0], r: pr[1]}), false),
			mkLit(at.intern(atomKey{op: int8(logic.EqOp), l: pr[0], r: pr[1]}), false),
			// l > r canonicalizes to r < l.
			mkLit(at.intern(atomKey{op: int8(logic.LtOp), l: pr[1], r: pr[0]}), false),
		}
		if db.add(lits) {
			added++
		}
	}
	return added
}

// prove2 runs one refutation search over a private clause database seeded
// from the clausified axiom base plus the negated goal.
func (p *Prover) prove2(goal logic.Formula, tk *ticker) Outcome {
	sk := p.baseSk.Clone()
	quant := make([]logic.Clause, len(p.baseQuant), len(p.baseQuant)+16)
	copy(quant, p.baseQuant)

	tt := logic.NewTermTable()
	at := newAtomTable()
	db := newClauseDB(tt, at)
	for _, c := range p.baseGround {
		db.addGround(c)
	}
	{
		cs, err := logic.Clausify(logic.Not{F: goal}, sk)
		if err != nil {
			return Outcome{Result: Unknown, Reason: err.Error()}
		}
		for _, c := range cs {
			if c.IsGround() {
				db.addGround(c)
			} else {
				if len(c.Triggers) == 0 {
					c.Triggers = inferTriggers(c)
				}
				quant = append(quant, c)
			}
		}
	}

	out := Outcome{}
	stopped := func() Outcome {
		out.Result = Unknown
		out.Reason = tk.reason
		out.Stats.GroundClauses = len(db.clauses)
		return out
	}
	p.installLimits(tk, tt.Len, func() int { return len(db.clauses) })

	// Certificate emission: the builder shadows the search, transcribing
	// theory conflict explanations and learned clauses into a
	// self-contained proof that cert.Verify replays before any Valid
	// verdict is returned.
	var cb *certBuilder
	if p.opts.EmitCertificates {
		cb = newCertBuilder(tt, at)
	}

	// hash chains the per-round search event hashes into Outcome.TraceHash.
	hash := uint64(hashOffset)
	mix := func(x uint64) { hash = (hash ^ x) * hashPrime }
	setHash := func() { out.TraceHash = fmt.Sprintf("%016x", hash) }

	eg := newEgraph2(tt)
	egBase := eg.mark()
	ar := newArithSolver2(tt)
	ar.tick = tk
	bank := newBank2(tt)
	banked := 0
	seenTri := map[[2]logic.TermID]bool{}

	// The learned arena and unit lemmas carry from one round into the next.
	var carryCl [][]ilit
	var carryAct []float64
	var carryUnits []ilit

	var lastModel []string
	var s *search2
	// Recycle the search's per-goal scratch block on every exit path. By
	// then only the escaping fields (learned arena, unit lemmas, model) are
	// read — the carry slices never touch the pooled arrays.
	defer func() {
		if s != nil {
			s.releaseScratch()
		}
	}()
	for round := 0; round <= p.opts.MaxRounds; round++ {
		out.Stats.Rounds = round + 1
		if proveRoundHook != nil {
			proveRoundHook()
		}
		fireInto(fpProveRound, tk)
		if tk.reason != "" {
			return stopped()
		}
		out.Stats.CaseSplits += trichotomy2(db, ar, seenTri, tk)
		out.Stats.GroundClauses = len(db.clauses)
		// Rewind the theory solvers to their base state; the search asserts
		// this round's trail into them incrementally.
		eg.undoTo(egBase)
		ar.undoTo(0, 0)
		if s != nil {
			s.releaseScratch() // the superseded round's arrays feed this one
		}
		s = newSearch2(tt, at, db.clauses, eg, ar, p.opts.MaxDecisions, tk)
		s.cb = cb
		for i, cl := range carryCl {
			s.importLearned(cl, carryAct[i])
		}
		for _, u := range carryUnits {
			s.importUnit(u)
		}
		unsat := s.refute()
		out.Stats.Decisions += s.decisions
		out.Stats.CongruenceMerges = eg.merges
		out.Stats.FMEliminations = ar.elims
		out.Stats.TheoryChecks += s.theoryChecks
		out.Stats.LearnedClauses += s.learnedTotal
		out.Stats.ForgottenClauses += s.forgotten
		out.Stats.Restarts += s.restarts
		if s.learnedTotal > 0 {
			lemLearned.Add(uint64(s.learnedTotal))
		}
		if s.forgotten > 0 {
			lemForgotten.Add(uint64(s.forgotten))
		}
		mix(s.hash)
		carryCl, carryAct = s.learned, s.lAct
		carryUnits = s.unitLemmas
		lastModel = s.model
		if tk.reason != "" {
			// A stopped search unwinds as "consistent", so unsat can never be
			// a cancellation artifact; still, report the stop, not a verdict.
			return stopped()
		}
		if unsat {
			out.Result = Valid
			setHash()
			if cb != nil {
				// A rejected certificate degrades out in place to a
				// transient Unknown.
				p.sealCert(cb, db, goal, &out, tk)
			}
			return out
		}
		if round == p.opts.MaxRounds {
			break
		}
		// Saturate: instantiate quantified clauses against the term bank,
		// caught up on the clauses added since the previous round.
		fireInto(fpInternGrowth, tk)
		if tk.reason != "" {
			return stopped()
		}
		for ; banked < len(db.clauses); banked++ {
			for _, l := range db.clauses[banked] {
				bank.addLit(l, at)
			}
		}
		fireInto(fpEmatchRound, tk)
		if tk.reason != "" {
			return stopped()
		}
		added := 0
		for _, qc := range quant {
			for _, trig := range qc.Triggers {
				subs := matchTrigger2(trig, bank, tk)
				if tk.reason != "" {
					return stopped()
				}
				for _, sub := range subs {
					// Interning grows the term table between the search's own
					// ticks, so poll the budgets per instantiation.
					if tk.stop() {
						return stopped()
					}
					lits := make([]ilit, 0, len(qc.Lits))
					groundInst := true
					for _, l := range qc.Lits {
						il, ok := at.internLitSubst(l, sub, tt)
						if !ok {
							groundInst = false
							break
						}
						lits = append(lits, il)
					}
					if !groundInst || !db.add(lits) {
						continue
					}
					added++
					out.Stats.Instantiations++
					if out.Stats.Instantiations >= p.opts.MaxInstances {
						tk.trip(ReasonBudget)
						return stopped()
					}
				}
			}
		}
		if added == 0 {
			out.Result = Unknown
			out.Reason = "saturated without contradiction"
			out.CounterExample = s.model
			setHash()
			return out
		}
	}
	out.Result = Unknown
	out.Reason = "round budget exhausted"
	out.CounterExample = lastModel
	setHash()
	return out
}
