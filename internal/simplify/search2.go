package simplify

import (
	"sort"
	"sync"

	"repro/internal/logic"
)

// This file is the search engine: conflict-driven clause learning
// (CDCL) over ID-indexed clauses with two-watched-literal unit propagation
// and an explicit trail. Theory literals are asserted into the backtrackable
// e-graph and the incremental arithmetic solver as they join the trail;
// backjumping rolls both theories to the target level's mark instead of
// rebuilding them per branch.
//
// The CDCL loop learns a 1UIP clause from every conflict (propositional
// conflicts from the watched clause, theory conflicts explained as the
// negation of the asserted trail), backjumps non-chronologically to the
// clause's assertion level, orders decisions by VSIDS activity with the
// smallest atom ID as a deterministic tie-break, and forgets low-activity
// learned clauses at Luby-scheduled restarts. Everything is seed-free, so
// identical inputs produce identical decision traces (hashEvent folds the
// event stream into a replay-checkable fingerprint).

// search2 is one refutation attempt over a fixed interned clause set.
type search2 struct {
	tt *logic.TermTable
	at *atomTable
	// clauses is shared with the caller's clause database; the watch scheme
	// permutes literals within a clause (clauses are sets, so callers are
	// insensitive to the order).
	clauses  [][]ilit
	nProblem int

	// learned is the clause arena appended by conflict analysis (and by
	// lemmas carried from the previous round). A clause reference cr
	// addresses clauses[cr] when cr < nProblem and learned[cr-nProblem]
	// otherwise.
	learned [][]ilit
	lAct    []float64

	// watches[l] lists the references of clauses currently watching literal l.
	watches [][]int32
	// assign[a] is 0 (unassigned), +1 (true) or -1 (false).
	assign []int8
	// trail holds the asserted-true literals in assertion order.
	trail []ilit
	// qhead is the propagation frontier: trail[:qhead] has been processed
	// (watch lists visited, theories updated).
	qhead int

	// Per-atom CDCL bookkeeping: the decision level an atom was assigned at
	// and the clause that propagated it (-1 for decisions and imported
	// units).
	level    []int32
	reasonCl []int32
	seen     []bool

	// trailLim[l] is the trail length when level l+1's decision was made;
	// levEg/levArC/levArA are the theory marks captured at the same instant.
	trailLim []int
	levEg    []int
	levArC   []int
	levArA   []int

	// VSIDS: per-atom activities bumped on conflict participation, with the
	// usual exponential decay implemented as a growing increment. Clause
	// activities drive forgetting.
	activity []float64
	varInc   float64
	claInc   float64

	// Deterministic seed-free restart schedule: restart after
	// lubyUnit*luby(restarts+1) conflicts, forgetting half the learned DB
	// (keeping binaries and the most active half) when it exceeds maxLearned.
	sinceRestart int
	restartLimit int
	restarts     int
	maxLearned   int

	// Unit lemmas learned (or imported) at level 0, tracked apart from the
	// arena so they survive rounds.
	unitLemmas []ilit
	unitSeen   map[ilit]bool

	learntBuf []ilit
	clearBuf  []atomID

	conflicts    int
	learnedTotal int
	forgotten    int
	hash         uint64

	eg *egraph2
	ar *arithSolver2

	// cb, when non-nil, transcribes the refutation into a proof
	// certificate: theory conflicts become explained lemma steps, learned
	// clauses become RUP steps, and a successful refutation ends with the
	// empty clause.
	cb *certBuilder

	decisions    int
	maxDecisions int
	theoryChecks int
	tick         *ticker

	// unsatAtSetup records a contradiction found while installing watches
	// (an empty clause or contradictory unit clauses).
	unsatAtSetup bool

	// model captures the satisfying assignment of the last consistent
	// branch (the countermodel candidate reported on Unknown).
	model []string

	// scratch is the pooled backing store of the per-goal index arrays and
	// trail machinery above; releaseScratch returns it for the next goal.
	scratch *searchScratch
}

// searchScratch is the recyclable allocation block of one search: every
// per-atom array, the trail machinery, and the analysis buffers. These grow
// with the problem but hold nothing a caller reads after refute returns, so
// a pool turns the per-goal burst of slice allocations into a steady state
// of one block per concurrent prover. The escaping state — learned clauses,
// unit lemmas, the model — is deliberately NOT here: prover2 carries the
// lemmas into the next round and reports the model.
type searchScratch struct {
	watches   [][]int32
	assign    []int8
	level     []int32
	reasonCl  []int32
	seen      []bool
	activity  []float64
	trail     []ilit
	trailLim  []int
	levEg     []int
	levArC    []int
	levArA    []int
	learntBuf []ilit
	clearBuf  []atomID
	unitSeen  map[ilit]bool
}

var searchScratchPool = sync.Pool{New: func() any {
	return &searchScratch{unitSeen: map[ilit]bool{}}
}}

// growPerAtom resizes a pooled per-atom slice to n zeroed elements, reusing
// its capacity when possible.
func growPerAtom[T int8 | int32 | bool | float64](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	var zero T
	for i := range b {
		b[i] = zero
	}
	return b
}

// growWatches resizes the pooled watch table to n empty lists, keeping both
// the outer slice and each inner list's capacity.
func growWatches(w [][]int32, n int) [][]int32 {
	if cap(w) < n {
		nw := make([][]int32, n)
		copy(nw, w) // retain the old inner lists' capacity
		w = nw
	} else {
		w = w[:n]
	}
	for i := range w {
		w[i] = w[i][:0]
	}
	return w
}

// releaseScratch returns the search's recyclable arrays to the pool. Callers
// invoke it once refute has returned and only the escaping fields (learned,
// unitLemmas, model) are still needed; the pooled fields are nilled so a
// stale use fails loudly instead of racing the next goal.
func (s *search2) releaseScratch() {
	sc := s.scratch
	if sc == nil {
		return
	}
	s.scratch = nil
	sc.watches = s.watches
	sc.assign = s.assign
	sc.level = s.level
	sc.reasonCl = s.reasonCl
	sc.seen = s.seen
	sc.activity = s.activity
	sc.trail = s.trail
	sc.trailLim = s.trailLim
	sc.levEg = s.levEg
	sc.levArC = s.levArC
	sc.levArA = s.levArA
	sc.learntBuf = s.learntBuf
	sc.clearBuf = s.clearBuf
	clear(s.unitSeen)
	sc.unitSeen = s.unitSeen
	s.watches, s.assign, s.activity = nil, nil, nil
	s.level, s.reasonCl, s.seen = nil, nil, nil
	s.trail, s.trailLim, s.levEg, s.levArC, s.levArA = nil, nil, nil, nil, nil
	s.learntBuf, s.clearBuf, s.unitSeen = nil, nil, nil
	searchScratchPool.Put(sc)
}

// fnv64 constants for the deterministic trace hash.
const (
	hashOffset = 14695981039346656037
	hashPrime  = 1099511628211
)

// Trace-hash event kinds.
const (
	evDecision = 1 + iota
	evConflict
	evLearn
	evBackjump
	evRestart
)

// lubyUnit scales the Luby restart sequence into conflict counts.
const lubyUnit = 64

func newSearch2(tt *logic.TermTable, at *atomTable, clauses [][]ilit, eg *egraph2, ar *arithSolver2, maxDecisions int, tk *ticker) *search2 {
	n := at.len()
	sc := searchScratchPool.Get().(*searchScratch)
	s := &search2{
		tt: tt, at: at, clauses: clauses,
		nProblem:     len(clauses),
		scratch:      sc,
		watches:      growWatches(sc.watches, 2*n),
		assign:       growPerAtom(sc.assign, n),
		level:        growPerAtom(sc.level, n),
		reasonCl:     growPerAtom(sc.reasonCl, n),
		seen:         growPerAtom(sc.seen, n),
		activity:     growPerAtom(sc.activity, n),
		trail:        sc.trail[:0],
		trailLim:     sc.trailLim[:0],
		levEg:        sc.levEg[:0],
		levArC:       sc.levArC[:0],
		levArA:       sc.levArA[:0],
		learntBuf:    sc.learntBuf[:0],
		clearBuf:     sc.clearBuf[:0],
		varInc:       1,
		claInc:       1,
		restartLimit: lubyUnit,
		maxLearned:   2048 + len(clauses),
		unitSeen:     sc.unitSeen,
		eg:           eg,
		ar:           ar,
		maxDecisions: maxDecisions,
		tick:         tk,
		hash:         hashOffset,
	}
	for ci, cl := range clauses {
		switch len(cl) {
		case 0:
			s.unsatAtSetup = true
		case 1:
			if s.litFalse(cl[0]) {
				s.unsatAtSetup = true
			} else {
				s.enqueue(cl[0], int32(ci))
			}
		default:
			s.watches[cl[0]] = append(s.watches[cl[0]], int32(ci))
			s.watches[cl[1]] = append(s.watches[cl[1]], int32(ci))
		}
	}
	return s
}

// clauseOf resolves a clause reference into its literal slice.
func (s *search2) clauseOf(cr int32) []ilit {
	if int(cr) < s.nProblem {
		return s.clauses[cr]
	}
	return s.learned[int(cr)-s.nProblem]
}

// importLearned installs one lemma carried from the previous round before
// the search starts: unit lemmas assert at level 0, longer ones join the
// learned arena with the given activity. A lemma contradicted at level 0
// refutes the set outright (the lemma is implied by the clause set, so the
// set is UNSAT).
func (s *search2) importLearned(cl []ilit, act float64) {
	cl = dedupLits(cl)
	switch len(cl) {
	case 0:
		s.unsatAtSetup = true
	case 1:
		s.importUnit(cl[0])
	default:
		s.learned = append(s.learned, cl)
		s.lAct = append(s.lAct, act)
		cr := int32(s.nProblem + len(s.learned) - 1)
		s.watches[cl[0]] = append(s.watches[cl[0]], cr)
		s.watches[cl[1]] = append(s.watches[cl[1]], cr)
	}
}

// importUnit asserts one unit lemma at level 0 and records it for the next
// round.
func (s *search2) importUnit(u ilit) {
	if s.litFalse(u) {
		s.unsatAtSetup = true
	} else {
		s.enqueue(u, -1)
	}
	if !s.unitSeen[u] {
		s.unitSeen[u] = true
		s.unitLemmas = append(s.unitLemmas, u)
	}
}

func (s *search2) litTrue(l ilit) bool {
	v := s.assign[l.atom()]
	return v != 0 && (v == 1) != l.negated()
}

func (s *search2) litFalse(l ilit) bool {
	v := s.assign[l.atom()]
	return v != 0 && (v == 1) == l.negated()
}

// enqueue asserts l true with the given reason clause reference (-1 for
// decisions and imported units). No-op when already assigned; callers check
// the false case themselves.
func (s *search2) enqueue(l ilit, from int32) {
	a := l.atom()
	if s.assign[a] != 0 {
		return
	}
	if l.negated() {
		s.assign[a] = -1
	} else {
		s.assign[a] = 1
	}
	s.trail = append(s.trail, l)
	s.level[a] = int32(len(s.trailLim))
	s.reasonCl[a] = from
}

// assertTheory pushes one trail literal into the e-graph and the arithmetic
// solver: equalities merge and constrain, disequalities assert an EUF diseq
// only,
// order comparisons constrain and register their opaque atoms (also
// interning them into the e-graph so congruence relates them before the
// EUF->LA propagation reads their classes).
func (s *search2) assertTheory(p ilit) {
	k := s.at.keys[p.atom()]
	val := !p.negated()
	if k.op == predOp {
		s.eg.assertPredID(k.l, val)
		return
	}
	op := logic.CmpOp(k.op)
	if !val {
		op = op.Negate()
	}
	switch op {
	case logic.EqOp:
		s.eg.mergeTerms(k.l, k.r)
		s.ar.assertCmp(logic.EqOp, k.l, k.r)
	case logic.NeOp:
		s.eg.assertDiseq(k.l, k.r, "")
	default:
		s.ar.assertCmp(op, k.l, k.r)
		s.registerArithAtoms(k.l)
		s.registerArithAtoms(k.r)
	}
}

func (s *search2) registerArithAtoms(t logic.TermID) {
	for _, a := range s.ar.atomsOf(t) {
		s.ar.registerAtom(a)
		s.eg.internNode(a)
	}
}

// propagate runs two-watched-literal unit propagation (and the incremental
// theory assertions) until fixpoint, returning the reference of a falsified
// clause or -1 when no propositional conflict arose.
func (s *search2) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.assertTheory(p)
		nl := p ^ 1 // the literal that just became false
		ws := s.watches[nl]
		i, j := 0, 0
		for i < len(ws) {
			ci := ws[i]
			i++
			cl := s.clauseOf(ci)
			if cl[0] == nl {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if s.litTrue(cl[0]) {
				ws[j] = ci
				j++
				continue
			}
			moved := false
			for k := 2; k < len(cl); k++ {
				if !s.litFalse(cl[k]) {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[cl[1]] = append(s.watches[cl[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[j] = ci
			j++
			if s.litFalse(cl[0]) {
				// Conflict: keep the remaining watches and bail out.
				for i < len(ws) {
					ws[j] = ws[i]
					j++
					i++
				}
				s.watches[nl] = ws[:j]
				return ci
			}
			s.enqueue(cl[0], ci)
		}
		s.watches[nl] = ws[:j]
	}
	return -1
}

// theoryConflict checks the incremental theory state at a propagation
// fixpoint: e-graph conflicts (violated disequalities, distinct integers
// equated), then Fourier-Motzkin over the asserted constraints plus the
// per-check EUF->LA propagation facts.
func (s *search2) theoryConflict() bool {
	s.theoryChecks++
	if s.eg.check() {
		return true
	}
	return s.ar.infeasible(s.eufLA())
}

// theoryClause explains a theory conflict as a conflict clause: the negation
// of every asserted trail literal. The disjunction is theory-valid (the
// conjunction is T-inconsistent); level-0 literals are dropped during
// analysis.
func (s *search2) theoryClause() []ilit {
	out := make([]ilit, len(s.trail))
	for i, p := range s.trail {
		out[i] = p ^ 1
	}
	return out
}

// eufLA derives the ephemeral EUF->LA constraints: equalities between
// registered arithmetic atoms that congruence closure has put in one class,
// and integer pinnings for atoms whose class contains an integer literal.
// These are recomputed per check (class structure changes with the trail)
// and passed to the solver without joining its persistent stack.
func (s *search2) eufLA() []linExprI {
	if len(s.ar.atomTerms) == 0 {
		return nil
	}
	var uniq []logic.TermID
	groups := map[enodeID][]logic.TermID{}
	seen := map[logic.TermID]bool{}
	for _, t := range s.ar.atomTerms {
		if seen[t] {
			continue
		}
		seen[t] = true
		uniq = append(uniq, t)
	}
	for _, t := range uniq {
		r := s.eg.find(s.eg.nodeOf[t])
		groups[r] = append(groups[r], t)
	}
	var extra []linExprI
	for r, ts := range groups {
		for i := 1; i < len(ts); i++ {
			extra = append(extra, newLinExprI().addAtom(ts[0], 1).addAtom(ts[i], -1))
			extra = append(extra, newLinExprI().addAtom(ts[i], 1).addAtom(ts[0], -1))
		}
		if s.eg.hasInt[r] {
			v := s.eg.intVal[r]
			for _, t := range ts {
				e1 := newLinExprI().addAtom(t, 1)
				e1.consts = -v
				e2 := newLinExprI().addAtom(t, -1)
				e2.consts = v
				extra = append(extra, e1, e2)
			}
		}
	}
	return extra
}

// captureModel snapshots the current assignment as readable literals.
func (s *search2) captureModel() {
	out := make([]string, 0, len(s.trail))
	for _, p := range s.trail {
		lit := s.at.literal(p.atom(), s.tt)
		if p.negated() {
			lit = lit.Negated()
		}
		out = append(out, lit.String())
	}
	sort.Strings(out)
	s.model = out
}

// hashEvent folds one search event into the deterministic trace hash.
func (s *search2) hashEvent(kind, a, b uint64) {
	h := s.hash
	h = (h ^ kind) * hashPrime
	h = (h ^ a) * hashPrime
	h = (h ^ b) * hashPrime
	s.hash = h
}

// refute returns true when the clause set is unsatisfiable modulo theories.
func (s *search2) refute() bool {
	if s.unsatAtSetup {
		// The contradiction is already in the clause set (an empty clause,
		// or units falsified by propagation-free assertion): the empty
		// clause is directly RUP.
		if s.cb != nil {
			s.cb.emptyStep()
		}
		return true
	}
	return s.refuteCDCL()
}

// --- CDCL engine ---

func (s *search2) decisionLevel() int { return len(s.trailLim) }

// newDecisionLevel opens a level, capturing the trail length and theory
// marks. Callers only open levels at propagation fixpoints, so the marks
// cover every assertion of the enclosing level.
func (s *search2) newDecisionLevel() {
	cm, am := s.ar.mark()
	s.trailLim = append(s.trailLim, len(s.trail))
	s.levEg = append(s.levEg, s.eg.mark())
	s.levArC = append(s.levArC, cm)
	s.levArA = append(s.levArA, am)
}

// undoToLevel rolls the assignment, the propagation frontier, and both
// theory solvers back to the end of level l.
func (s *search2) undoToLevel(l int) {
	if s.decisionLevel() <= l {
		return
	}
	for len(s.trail) > s.trailLim[l] {
		p := s.trail[len(s.trail)-1]
		s.assign[p.atom()] = 0
		s.trail = s.trail[:len(s.trail)-1]
	}
	s.qhead = s.trailLim[l]
	s.eg.undoTo(s.levEg[l])
	s.ar.undoTo(s.levArC[l], s.levArA[l])
	s.trailLim = s.trailLim[:l]
	s.levEg = s.levEg[:l]
	s.levArC = s.levArC[:l]
	s.levArA = s.levArA[:l]
}

// bumpVar raises an atom's VSIDS activity, rescaling everything when the
// growing increment approaches overflow.
func (s *search2) bumpVar(a atomID) {
	s.activity[a] += s.varInc
	if s.activity[a] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// bumpClause raises a learned clause's activity (li indexes the arena).
func (s *search2) bumpClause(li int32) {
	s.lAct[li] += s.claInc
	if s.lAct[li] > 1e20 {
		for i := range s.lAct {
			s.lAct[i] *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// decayActivities implements exponential decay by growing the increments.
func (s *search2) decayActivities() {
	s.varInc *= 1 / 0.95
	s.claInc *= 1 / 0.999
}

// analyze derives the 1UIP learned clause from a conflict: walk the trail
// backwards resolving reasons of current-level literals until exactly one
// remains (the unique implication point), collecting lower-level literals as
// the clause tail. Level-0 literals are absorbed (their negations are
// implied). Returns the learned clause (index 0 is the asserting literal,
// index 1 the deepest tail literal) and the backjump level.
func (s *search2) analyze(confl []ilit) ([]ilit, int) {
	curLevel := int32(s.decisionLevel())
	learnt := append(s.learntBuf[:0], 0) // index 0 reserved for the UIP
	counter := 0
	idx := len(s.trail) - 1
	reason := confl
	s.clearBuf = s.clearBuf[:0]
	for {
		for _, q := range reason {
			a := q.atom()
			// seen stays set for resolved-away atoms until the final
			// cleanup, so an atom re-mentioned by a later reason clause is
			// never double-counted.
			if s.seen[a] {
				continue
			}
			switch {
			case s.level[a] == curLevel:
				s.seen[a] = true
				counter++
				s.bumpVar(a)
			case s.level[a] > 0:
				s.seen[a] = true
				learnt = append(learnt, q)
				s.bumpVar(a)
			}
		}
		for !s.seen[s.trail[idx].atom()] {
			idx--
		}
		p := s.trail[idx]
		pa := p.atom()
		s.clearBuf = append(s.clearBuf, pa)
		idx--
		counter--
		if counter == 0 {
			learnt[0] = p ^ 1
			break
		}
		// A non-decision current-level literal always has a reason clause:
		// the decision itself is the lowest current-level trail entry, so it
		// is only popped when counter reaches zero.
		cr := s.reasonCl[pa]
		reason = s.clauseOf(cr)
		if int(cr) >= s.nProblem {
			s.bumpClause(cr - int32(s.nProblem))
		}
	}
	// Backjump level: the deepest level among the tail literals, with that
	// literal swapped into the second watch position.
	bt := 0
	if len(learnt) > 1 {
		mi := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].atom()] > s.level[learnt[mi].atom()] {
				mi = i
			}
		}
		learnt[1], learnt[mi] = learnt[mi], learnt[1]
		bt = int(s.level[learnt[1].atom()])
	}
	for _, q := range learnt {
		s.seen[q.atom()] = false
	}
	for _, a := range s.clearBuf {
		s.seen[a] = false
	}
	s.learntBuf = learnt
	return learnt, bt
}

// record installs the learned clause after the backjump and asserts its UIP
// literal. Unit lemmas assert at level 0 and are tracked for the next round.
func (s *search2) record(learnt []ilit) {
	s.learnedTotal++
	if len(learnt) == 1 {
		u := learnt[0]
		s.enqueue(u, -1)
		if !s.unitSeen[u] {
			s.unitSeen[u] = true
			s.unitLemmas = append(s.unitLemmas, u)
		}
		return
	}
	cl := make([]ilit, len(learnt))
	copy(cl, learnt)
	s.learned = append(s.learned, cl)
	s.lAct = append(s.lAct, 0)
	cr := int32(s.nProblem + len(s.learned) - 1)
	s.watches[cl[0]] = append(s.watches[cl[0]], cr)
	s.watches[cl[1]] = append(s.watches[cl[1]], cr)
	s.bumpClause(cr - int32(s.nProblem))
	s.enqueue(cl[0], cr)
}

// luby is the reluctant-doubling restart sequence 1,1,2,1,1,2,4,... (i is
// 1-indexed).
func luby(i int) int {
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// restartNow backtracks to level 0 and forgets low-activity lemmas when the
// arena has outgrown its cap. The schedule is seed-free, so restarts land at
// identical conflict counts across runs.
func (s *search2) restartNow() {
	s.undoToLevel(0)
	s.restarts++
	s.sinceRestart = 0
	s.restartLimit = lubyUnit * luby(s.restarts+1)
	s.hashEvent(evRestart, uint64(s.restarts), uint64(len(s.learned)))
	if len(s.learned) > s.maxLearned {
		s.reduceDB()
	}
}

// reduceDB forgets the low-activity half of the learned arena (binary
// clauses are always kept) and rebuilds every watch list. Forgetting learned
// clauses is safe: each is implied by the problem set, so dropping one never
// changes satisfiability — only how much re-derivation later conflicts pay.
// Runs only at level 0, where no arena clause is a pending reason.
func (s *search2) reduceDB() {
	type ranked struct {
		idx int
		act float64
	}
	var long []ranked
	for i, cl := range s.learned {
		if len(cl) > 2 {
			long = append(long, ranked{i, s.lAct[i]})
		}
	}
	sort.SliceStable(long, func(a, b int) bool {
		if long[a].act != long[b].act {
			return long[a].act > long[b].act
		}
		return long[a].idx < long[b].idx
	})
	drop := make(map[int]bool, len(long)/2)
	for _, r := range long[len(long)/2:] {
		drop[r.idx] = true
	}
	if len(drop) == 0 {
		return
	}
	kept := s.learned[:0]
	keptAct := s.lAct[:0]
	for i, cl := range s.learned {
		if drop[i] {
			s.forgotten++
			continue
		}
		kept = append(kept, cl)
		keptAct = append(keptAct, s.lAct[i])
	}
	s.learned, s.lAct = kept, keptAct
	s.rebuildWatches()
}

// rebuildWatches reinstalls every watch list from scratch after the arena
// was compacted, choosing two non-false literals per clause (or a true
// literal first) so the watching invariant holds at the current (level-0)
// assignment.
func (s *search2) rebuildWatches() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	install := func(cl []ilit, cr int32) {
		w := 0
		for i := 0; i < len(cl) && w < 2; i++ {
			if !s.litFalse(cl[i]) {
				cl[w], cl[i] = cl[i], cl[w]
				w++
			}
		}
		if w < 2 {
			// At most one non-false literal: the clause is satisfied at level
			// 0 (a fully-false clause would have conflicted already), so any
			// second watch is inert.
			for i := 0; i < len(cl); i++ {
				if s.litTrue(cl[i]) {
					cl[0], cl[i] = cl[i], cl[0]
					break
				}
			}
		}
		s.watches[cl[0]] = append(s.watches[cl[0]], cr)
		s.watches[cl[1]] = append(s.watches[cl[1]], cr)
	}
	for ci, cl := range s.clauses {
		if len(cl) >= 2 {
			install(cl, int32(ci))
		}
	}
	for li, cl := range s.learned {
		install(cl, int32(s.nProblem+li))
	}
}

// pickBranchVSIDS returns the unassigned atom with the highest activity
// among the literals of unsatisfied problem clauses (ties break toward the
// smallest atom ID, keeping the order deterministic), or -1 when every
// problem clause is satisfied. Scanning problem clauses only keeps the
// termination contract: all problem clauses satisfied plus a consistent
// theory state is a countermodel, whether or not some learned clause is
// still open (learned clauses are implied, so they constrain no genuine
// model).
func (s *search2) pickBranchVSIDS() atomID {
	best := atomID(-1)
	bestAct := -1.0
	for _, cl := range s.clauses {
		sat := false
		for _, l := range cl {
			if s.litTrue(l) {
				sat = true
				break
			}
		}
		if sat {
			continue
		}
		for _, l := range cl {
			a := l.atom()
			if s.assign[a] != 0 {
				continue
			}
			if s.activity[a] > bestAct || (s.activity[a] == bestAct && a < best) {
				best, bestAct = a, s.activity[a]
			}
		}
	}
	return best
}

// refuteCDCL is the learning engine's main loop: propagate, explain
// conflicts via 1UIP, backjump, learn, restart on the Luby schedule, and
// decide by VSIDS. A tripped ticker or an exhausted decision budget unwinds
// as "consistent" (sound: Unknown is never a wrong verdict).
func (s *search2) refuteCDCL() bool {
	for {
		confl := s.propagate()
		var conflLits []ilit
		if confl >= 0 {
			conflLits = s.clauseOf(confl)
			if int(confl) >= s.nProblem {
				s.bumpClause(confl - int32(s.nProblem))
			}
		} else {
			if s.tick.stop() {
				return false // deadline/cancel: unwind as consistent (sound)
			}
			if s.theoryConflict() {
				if s.decisionLevel() == 0 {
					// The level-0 trail is jointly theory-inconsistent:
					// record its explanation, from which the empty clause
					// propagates.
					if s.cb != nil {
						s.cb.theoryStep(s.theoryClause())
						s.cb.emptyStep()
					}
					return true
				}
				conflLits = s.theoryClause()
				if s.cb != nil {
					s.cb.theoryStep(conflLits)
				}
			}
		}
		if conflLits != nil {
			if s.decisionLevel() == 0 {
				// A clause falsified by the level-0 assignment alone: the
				// empty clause is RUP from the database.
				if s.cb != nil {
					s.cb.emptyStep()
				}
				return true
			}
			s.conflicts++
			s.sinceRestart++
			s.hashEvent(evConflict, uint64(s.conflicts), uint64(len(conflLits)))
			fireInto(fpSearchLearn, s.tick)
			if s.tick.stop() {
				return false
			}
			learnt, bt := s.analyze(conflLits)
			// The 1UIP clause is derived by trail resolution from the
			// conflict clause and reason clauses — all problem clauses or
			// earlier steps — so it is RUP against them. (analyze reuses
			// its buffer; the builder copies the literals out here.)
			if s.cb != nil {
				s.cb.rupStep(learnt)
			}
			lh := uint64(hashOffset)
			for _, q := range learnt {
				lh = (lh ^ uint64(q)) * hashPrime
			}
			s.hashEvent(evLearn, uint64(len(learnt)), lh)
			fireInto(fpSearchBackjump, s.tick)
			if s.tick.stop() {
				return false
			}
			s.hashEvent(evBackjump, uint64(bt), uint64(s.decisionLevel()))
			s.undoToLevel(bt)
			s.record(learnt)
			s.decayActivities()
			if s.sinceRestart >= s.restartLimit {
				s.restartNow()
			}
			continue
		}
		if s.decisions > s.maxDecisions {
			return false // budget: treat as consistent (sound)
		}
		pick := s.pickBranchVSIDS()
		if pick < 0 {
			// All problem clauses satisfied and theories consistent:
			// countermodel.
			s.captureModel()
			return false
		}
		s.decisions++
		fireInto(fpSearchDecision, s.tick)
		s.hashEvent(evDecision, uint64(pick), uint64(s.decisionLevel()))
		s.newDecisionLevel()
		s.enqueue(mkLit(pick, false), -1) // try atom=true first
	}
}
