package simplify

import (
	"repro/internal/logic"
)

// This file implements the backtrackable congruence-closure engine used by
// the search (search2.go). Rather than being rebuilt at every branch,
// egraph2 is asserted into incrementally as literals join the trail, and
// rolled back to a mark on backtrack via an explicit undo trail. Three
// design choices make the rollback cheap:
//
//   - union-find WITHOUT path compression (union by rank only): undoing a
//     union is a single parent-pointer reset, and find stays O(log n);
//   - stale-tolerant signature buckets: congruence signatures are hashed
//     under the representatives at insertion time and never deleted; lookups
//     re-verify candidates under the *current* representatives, so outdated
//     bucket entries can cause a miss (and a harmless re-append) but never a
//     wrong merge, and rollback just truncates the appends;
//   - a per-root integer value (hasInt/intVal) instead of a whole-graph scan,
//     so "two distinct integer literals equated" is detected in O(1) at merge
//     time and recorded in a restorable conflict flag.
type egraph2 struct {
	tt *logic.TermTable

	// nodeOf maps an interned term to its e-node; e-nodes are dense and
	// created on demand (the term table also holds terms that never reach
	// the e-graph).
	nodeOf map[logic.TermID]enodeID
	terms  []logic.TermID // e-node -> term

	parent []enodeID
	rank   []int32
	// uses[n] lists e-nodes that have a member of n's class as an argument
	// (consulted at n only while n is a representative). Merges append the
	// child's list onto the winner's and leave the child's intact, so undo
	// is a truncation.
	uses [][]enodeID

	// sigs buckets e-nodes by congruence-signature hash. Entries are only
	// appended; lookups compare under current representatives.
	sigs map[uint64][]enodeID

	// hasInt/intVal: the integer literal known for a class, tracked at the
	// representative.
	hasInt []bool
	intVal []int64

	diseqs []diseq2

	// conflict is set when two distinct integer literals merge; it is part
	// of the undo-restored state.
	conflict bool

	// merges counts class unions (telemetry: Stats.CongruenceMerges).
	merges int

	trail []egUndo

	trueID, falseID enodeID
}

// enodeID identifies an e-node in one egraph2.
type enodeID int32

type diseq2 struct {
	a, b   enodeID
	reason string
}

// egUndo is one reversible mutation. kind selects which fields matter.
type egUndo struct {
	kind uint8
	// uCreate: no fields (pop the last node).
	// uUses: a = root whose uses list grew by one.
	// uSig: h = bucket that grew by one.
	// uUnion: a = winner root, b = absorbed root, n = #uses moved,
	//         flag = rank bumped, hadInt/iv = winner's prior int state.
	// uDiseq: no fields (pop the last diseq).
	// uConflict: flag = prior conflict value.
	a, b   enodeID
	n      int32
	h      uint64
	flag   bool
	hadInt bool
	iv     int64
}

const (
	uCreate uint8 = iota
	uUses
	uSig
	uUnion
	uDiseq
	uConflict
)

func newEgraph2(tt *logic.TermTable) *egraph2 {
	e := &egraph2{
		tt:     tt,
		nodeOf: make(map[logic.TermID]enodeID, 64),
		sigs:   make(map[uint64][]enodeID, 64),
	}
	e.trueID = e.internNode(tt.InternApp("@true", nil))
	e.falseID = e.internNode(tt.InternApp("@false", nil))
	e.diseqs = append(e.diseqs, diseq2{e.trueID, e.falseID, "true != false"})
	// The constructor's trail entries are below every mark the search takes,
	// so the base state is never rolled back.
	return e
}

// mark returns the current undo-trail position.
func (e *egraph2) mark() int { return len(e.trail) }

// undoTo rolls every mutation after mark back, newest first.
func (e *egraph2) undoTo(mark int) {
	for len(e.trail) > mark {
		u := e.trail[len(e.trail)-1]
		e.trail = e.trail[:len(e.trail)-1]
		switch u.kind {
		case uCreate:
			last := enodeID(len(e.terms) - 1)
			delete(e.nodeOf, e.terms[last])
			e.terms = e.terms[:last]
			e.parent = e.parent[:last]
			e.rank = e.rank[:last]
			e.uses = e.uses[:last]
			e.hasInt = e.hasInt[:last]
			e.intVal = e.intVal[:last]
		case uUses:
			l := e.uses[u.a]
			e.uses[u.a] = l[:len(l)-1]
		case uSig:
			b := e.sigs[u.h]
			e.sigs[u.h] = b[:len(b)-1]
		case uUnion:
			e.parent[u.b] = u.b
			if u.flag {
				e.rank[u.a]--
			}
			l := e.uses[u.a]
			e.uses[u.a] = l[:len(l)-int(u.n)]
			e.hasInt[u.a] = u.hadInt
			e.intVal[u.a] = u.iv
		case uDiseq:
			e.diseqs = e.diseqs[:len(e.diseqs)-1]
		case uConflict:
			e.conflict = u.flag
		}
	}
}

// find returns the representative of x. No path compression: the parent
// chain is exactly the union history, which is what makes undo a pointer
// reset.
func (e *egraph2) find(x enodeID) enodeID {
	for e.parent[x] != x {
		x = e.parent[x]
	}
	return x
}

// internNode ensures t (and its subterms) have e-nodes, returning t's.
func (e *egraph2) internNode(t logic.TermID) enodeID {
	if id, ok := e.nodeOf[t]; ok {
		return id
	}
	var args []logic.TermID
	isInt := false
	var iv int64
	switch e.tt.Kind(t) {
	case logic.KindInt:
		isInt = true
		iv = e.tt.IntVal(t)
	case logic.KindApp:
		args = e.tt.Args(t)
	case logic.KindVar:
		panic("simplify: variable term asserted into egraph2: " + e.tt.Fn(t))
	}
	argNodes := make([]enodeID, len(args))
	for i, a := range args {
		argNodes[i] = e.internNode(a)
	}
	id := enodeID(len(e.terms))
	e.nodeOf[t] = id
	e.terms = append(e.terms, t)
	e.parent = append(e.parent, id)
	e.rank = append(e.rank, 0)
	e.uses = append(e.uses, nil)
	e.hasInt = append(e.hasInt, isInt)
	e.intVal = append(e.intVal, iv)
	e.trail = append(e.trail, egUndo{kind: uCreate})
	for _, a := range argNodes {
		r := e.find(a)
		e.uses[r] = append(e.uses[r], id)
		e.trail = append(e.trail, egUndo{kind: uUses, a: r})
	}
	if len(argNodes) > 0 {
		e.addSig(id)
	}
	return id
}

// sigHash hashes a node's congruence signature under current reps.
func (e *egraph2) sigHash(id enodeID) uint64 {
	t := e.terms[id]
	fn := e.tt.Fn(t)
	h := uint64(14695981209792364933)
	for i := 0; i < len(fn); i++ {
		h ^= uint64(fn[i])
		h *= 1099511628211
	}
	for _, a := range e.tt.Args(t) {
		h ^= uint64(uint32(e.find(e.nodeOf[a])))
		h *= 1099511628211
	}
	return h
}

// congruent reports whether two application nodes have the same function
// symbol and pairwise-equal argument classes under current reps.
func (e *egraph2) congruent(x, y enodeID) bool {
	tx, ty := e.terms[x], e.terms[y]
	if e.tt.Fn(tx) != e.tt.Fn(ty) {
		return false
	}
	ax, ay := e.tt.Args(tx), e.tt.Args(ty)
	if len(ax) != len(ay) {
		return false
	}
	for i := range ax {
		if e.find(e.nodeOf[ax[i]]) != e.find(e.nodeOf[ay[i]]) {
			return false
		}
	}
	return true
}

// addSig looks id's current signature up in the bucket table, merging with a
// congruent existing node or appending a fresh entry.
func (e *egraph2) addSig(id enodeID) {
	h := e.sigHash(id)
	for _, c := range e.sigs[h] {
		if c == id {
			return
		}
		if e.congruent(c, id) {
			if e.find(c) != e.find(id) {
				e.merge(c, id)
			}
			return
		}
	}
	e.sigs[h] = append(e.sigs[h], id)
	e.trail = append(e.trail, egUndo{kind: uSig, h: h})
}

// merge unions the classes of a and b and repropagates congruences.
func (e *egraph2) merge(a, b enodeID) {
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return
	}
	e.merges++
	if e.rank[ra] < e.rank[rb] {
		ra, rb = rb, ra
	}
	e.parent[rb] = ra
	bump := false
	if e.rank[ra] == e.rank[rb] {
		e.rank[ra]++
		bump = true
	}
	hadInt, iv := e.hasInt[ra], e.intVal[ra]
	if e.hasInt[rb] {
		if hadInt && iv != e.intVal[rb] {
			e.trail = append(e.trail, egUndo{kind: uConflict, flag: e.conflict})
			e.conflict = true
		} else if !hadInt {
			e.hasInt[ra] = true
			e.intVal[ra] = e.intVal[rb]
		}
	}
	moved := e.uses[rb]
	e.uses[ra] = append(e.uses[ra], moved...)
	e.trail = append(e.trail, egUndo{
		kind: uUnion, a: ra, b: rb, n: int32(len(moved)),
		flag: bump, hadInt: hadInt, iv: iv,
	})
	// Re-examine every user of the merged class: its signature changed, so
	// it may now be congruent to an existing node. addSig may recurse into
	// merge, which appends to e.uses[ra]; iterate over a snapshot (exactly
	// the users present at merge time — later additions get their own
	// addSig when they are created or moved).
	users := make([]enodeID, len(e.uses[ra]))
	copy(users, e.uses[ra])
	for _, u := range users {
		e.addSig(u)
	}
}

// mergeTerms asserts t1 = t2.
func (e *egraph2) mergeTerms(t1, t2 logic.TermID) {
	e.merge(e.internNode(t1), e.internNode(t2))
}

// assertDiseq asserts t1 != t2.
func (e *egraph2) assertDiseq(t1, t2 logic.TermID, reason string) {
	a, b := e.internNode(t1), e.internNode(t2)
	e.diseqs = append(e.diseqs, diseq2{a, b, reason})
	e.trail = append(e.trail, egUndo{kind: uDiseq})
}

// assertPredID asserts the truth value of a predicate atom given its term
// encoding (an application of "@pred$<name>").
func (e *egraph2) assertPredID(t logic.TermID, val bool) {
	id := e.internNode(t)
	if val {
		e.merge(id, e.trueID)
	} else {
		e.merge(id, e.falseID)
	}
}

// check reports whether the asserted facts are contradictory: an integer
// conflict recorded at merge time, or a violated disequality.
func (e *egraph2) check() bool {
	if e.conflict {
		return true
	}
	for i := range e.diseqs {
		d := &e.diseqs[i]
		if e.find(d.a) == e.find(d.b) {
			return true
		}
	}
	return false
}
