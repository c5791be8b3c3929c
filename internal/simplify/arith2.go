package simplify

import (
	"sort"

	"repro/internal/logic"
)

// This file is the search's arithmetic theory: Fourier-Motzkin elimination
// over linear expressions keyed by hash-consed logic.TermID, with push/pop
// levels so constraints asserted on the CDCL trail roll back by truncation
// instead of rebuilding the solver per branch. Sound for refutation: the
// rational relaxation of the integer-tightened system being infeasible
// implies the integer system is.

// linExprI is a linear expression over opaque atoms identified by TermID.
type linExprI struct {
	consts int64
	coeffs map[logic.TermID]int64
}

func newLinExprI() linExprI { return linExprI{coeffs: map[logic.TermID]int64{}} }

func (l linExprI) addAtom(id logic.TermID, c int64) linExprI {
	l.coeffs[id] += c
	if l.coeffs[id] == 0 {
		delete(l.coeffs, id)
	}
	return l
}

func (l linExprI) add(o linExprI, scale int64) linExprI {
	l.consts += o.consts * scale
	for k, c := range o.coeffs {
		l.coeffs[k] += c * scale
		if l.coeffs[k] == 0 {
			delete(l.coeffs, k)
		}
	}
	return l
}

func (l linExprI) clone() linExprI {
	c := linExprI{consts: l.consts, coeffs: make(map[logic.TermID]int64, len(l.coeffs))}
	for k, v := range l.coeffs {
		c.coeffs[k] = v
	}
	return c
}

// linearizeID decomposes an interned ground term into a linear expression:
// +, - and ~ are interpreted, a product is interpreted only when one side
// linearizes to a constant, and everything else (an uninterpreted
// application, a non-linear product, ...) is an opaque atom keyed by its
// TermID. The sign axioms reason about non-linear products.
func linearizeID(t logic.TermID, tt *logic.TermTable) linExprI {
	switch tt.Kind(t) {
	case logic.KindInt:
		l := newLinExprI()
		l.consts = tt.IntVal(t)
		return l
	case logic.KindApp:
		args := tt.Args(t)
		switch tt.Fn(t) {
		case "+":
			l := newLinExprI()
			for _, a := range args {
				l = l.add(linearizeID(a, tt), 1)
			}
			return l
		case "-":
			if len(args) == 2 {
				l := linearizeID(args[0], tt)
				return l.add(linearizeID(args[1], tt), -1)
			}
			if len(args) == 1 {
				return newLinExprI().add(linearizeID(args[0], tt), -1)
			}
		case "~":
			if len(args) == 1 {
				return newLinExprI().add(linearizeID(args[0], tt), -1)
			}
		case "*":
			if len(args) == 2 {
				l0 := linearizeID(args[0], tt)
				l1 := linearizeID(args[1], tt)
				if len(l0.coeffs) == 0 {
					return newLinExprI().add(l1, l0.consts)
				}
				if len(l1.coeffs) == 0 {
					return newLinExprI().add(l0, l1.consts)
				}
				return newLinExprI().addAtom(t, 1)
			}
		}
		return newLinExprI().addAtom(t, 1)
	case logic.KindVar:
		panic("simplify: variable in ground arithmetic term: " + tt.Fn(t))
	}
	panic("simplify: unknown term kind in linearizeID")
}

// collectOpaqueAtomsID calls visit on each opaque (non-arithmetic) maximal
// subterm of t, following linearizeID's decomposition. The callback form
// avoids a slice allocation per theory assertion.
func collectOpaqueAtomsID(t logic.TermID, tt *logic.TermTable, visit func(logic.TermID)) {
	if tt.Kind(t) != logic.KindApp {
		return
	}
	args := tt.Args(t)
	switch tt.Fn(t) {
	case "+", "-", "~":
		for _, a := range args {
			collectOpaqueAtomsID(a, tt, visit)
		}
	case "*":
		if len(args) == 2 {
			l0 := linearizeID(args[0], tt)
			l1 := linearizeID(args[1], tt)
			if len(l0.coeffs) == 0 || len(l1.coeffs) == 0 {
				collectOpaqueAtomsID(args[0], tt, visit)
				collectOpaqueAtomsID(args[1], tt, visit)
				return
			}
		}
		visit(t)
	default:
		visit(t)
	}
}

// arithSolver2 is the incremental Fourier-Motzkin solver. Constraints and
// registered atom occurrences live on parallel stacks; a mark is a pair of
// lengths and popping is truncation. Linearizations are memoized per TermID
// (terms re-asserted across branches pay the decomposition once).
type arithSolver2 struct {
	tt          *logic.TermTable
	constraints []linExprI
	// atomTerms records the opaque atoms of every asserted order constraint
	// (with duplicates; the consumer dedups per check). The theory check
	// uses them for EUF->LA propagation.
	atomTerms []logic.TermID
	// linCache memoizes linearizeID; entries are immutable (always cloned
	// before mutation).
	linCache map[logic.TermID]linExprI
	// oaCache memoizes each term's opaque-atom list (terms re-asserted
	// across branches pay the walk once).
	oaCache map[logic.TermID][]logic.TermID
	// elims counts eliminated atoms (telemetry: Stats.FMEliminations).
	elims int
	tick  *ticker
}

func newArithSolver2(tt *logic.TermTable) *arithSolver2 {
	return &arithSolver2{
		tt:       tt,
		linCache: make(map[logic.TermID]linExprI, 64),
		oaCache:  make(map[logic.TermID][]logic.TermID, 64),
	}
}

// atomsOf returns t's opaque-atom list, memoized.
func (s *arithSolver2) atomsOf(t logic.TermID) []logic.TermID {
	if atoms, ok := s.oaCache[t]; ok {
		return atoms
	}
	var atoms []logic.TermID
	collectOpaqueAtomsID(t, s.tt, func(a logic.TermID) { atoms = append(atoms, a) })
	s.oaCache[t] = atoms
	return atoms
}

// mark returns the solver's current level as (constraints, atomTerms) depth.
func (s *arithSolver2) mark() (int, int) {
	return len(s.constraints), len(s.atomTerms)
}

// undoTo pops every constraint and atom registration after a mark.
func (s *arithSolver2) undoTo(cm, am int) {
	s.constraints = s.constraints[:cm]
	s.atomTerms = s.atomTerms[:am]
}

func (s *arithSolver2) lin(t logic.TermID) linExprI {
	if e, ok := s.linCache[t]; ok {
		return e
	}
	e := linearizeID(t, s.tt)
	s.linCache[t] = e
	return e
}

// assertCmp asserts l op r (EqOp contributes two inequalities; NeOp is a
// no-op here, handled by EUF and trichotomy splits).
func (s *arithSolver2) assertCmp(op logic.CmpOp, l, r logic.TermID) {
	le := s.lin(l)
	re := s.lin(r)
	switch op {
	case logic.LeOp: // l - r <= 0
		s.push(le.clone().add(re, -1))
	case logic.LtOp: // l - r <= -1
		e := le.clone().add(re, -1)
		e.consts++
		s.push(e)
	case logic.GeOp: // r - l <= 0
		s.push(re.clone().add(le, -1))
	case logic.GtOp: // r - l <= -1
		e := re.clone().add(le, -1)
		e.consts++
		s.push(e)
	case logic.EqOp:
		s.push(le.clone().add(re, -1))
		s.push(re.clone().add(le, -1))
	case logic.NeOp:
	}
}

// registerAtom records one opaque-atom occurrence for EUF->LA propagation.
func (s *arithSolver2) registerAtom(t logic.TermID) {
	s.atomTerms = append(s.atomTerms, t)
}

func (s *arithSolver2) push(e linExprI) {
	s.constraints = append(s.constraints, e)
}

// infeasible reports whether the asserted constraints plus the ephemeral
// extra ones (the per-check EUF->LA propagation facts) are infeasible, by
// Fourier-Motzkin elimination: each step eliminates the atom minimizing
// pos*neg + pos + neg (ties broken by TermID, so the order is
// deterministic), integer tightening via GCD normalization, and a blowup
// cap past which the system is reported feasible.
func (s *arithSolver2) infeasible(extra []linExprI) bool {
	work := make([]linExprI, 0, len(s.constraints)+len(extra))
	for i := range s.constraints {
		work = append(work, s.constraints[i].clone())
	}
	for i := range extra {
		work = append(work, extra[i].clone())
	}
	for {
		rest := work[:0]
		for _, e := range work {
			if len(e.coeffs) == 0 {
				if e.consts > 0 {
					return true
				}
				continue
			}
			rest = append(rest, e)
		}
		work = rest
		if len(work) == 0 {
			return false
		}
		// Pick the atom minimizing pos*neg + pos + neg.
		counts := map[logic.TermID][2]int{}
		for _, e := range work {
			for k, c := range e.coeffs {
				pc := counts[k]
				if c > 0 {
					pc[0]++
				} else {
					pc[1]++
				}
				counts[k] = pc
			}
		}
		keys := make([]logic.TermID, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		bestKey := logic.NoTerm
		bestCost := -1
		for _, k := range keys {
			pc := counts[k]
			cost := pc[0]*pc[1] + pc[0] + pc[1]
			if bestCost == -1 || cost < bestCost {
				bestCost = cost
				bestKey = k
			}
		}
		var pos, neg, keep []linExprI
		for _, e := range work {
			c := e.coeffs[bestKey]
			switch {
			case c > 0:
				pos = append(pos, e)
			case c < 0:
				neg = append(neg, e)
			default:
				keep = append(keep, e)
			}
		}
		s.elims++
		fireInto(fpArithPivot, s.tick)
		next := keep
		for _, p := range pos {
			cp := p.coeffs[bestKey]
			if s.tick.stop() {
				return false // deadline: treat as consistent (sound)
			}
			for _, n := range neg {
				cn := -n.coeffs[bestKey]
				comb := newLinExprI()
				comb = comb.add(p, cn)
				comb = comb.add(n, cp)
				delete(comb.coeffs, bestKey)
				comb = normalizeGCDI(comb)
				next = append(next, comb)
				if len(next) > maxFMConstraints {
					return false
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		work = next
	}
}

// maxFMConstraints caps Fourier-Motzkin blowup; past the cap the solver
// reports "consistent" (sound: the prover then simply fails to close this
// branch).
const maxFMConstraints = 20000

// normalizeGCDI divides e <= 0 through by the gcd of its coefficients,
// rounding the constant up, which is sound for integer feasibility:
// sum(g*ci*xi) + k <= 0  <=>  sum(ci*xi) + ceil(k/g) <= 0.
func normalizeGCDI(e linExprI) linExprI {
	g := int64(0)
	for _, c := range e.coeffs {
		if c < 0 {
			c = -c
		}
		g = gcd64(g, c)
	}
	if g <= 1 {
		return e
	}
	for k, c := range e.coeffs {
		e.coeffs[k] = c / g
	}
	e.consts = ceilDiv(e.consts, g)
	return e
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}
