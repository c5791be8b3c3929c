package cert

import "sort"

// The theory explanation checker. A StepTheory clause claims that the
// conjunction of the negations of its literals is theory-unsatisfiable;
// checkTheory replays that conjunction through small, search-free
// re-implementations of the prover's theories — congruence closure with
// integer-literal semantics and Fourier–Motzkin elimination with EUF→LA
// propagation — and demands a conflict. It is deliberately at least as
// strong as the engine's incremental solvers (every extra fact it
// derives is entailed by the asserted literals), so a genuine engine
// conflict always replays, while a consistent literal set never does.

// miniFMCap bounds Fourier–Motzkin blowup. It is deliberately higher
// than the engine's cap: the mini checker registers more atoms than the
// engine did, so its eliminations can be larger, and hitting the cap
// here would reject a genuine certificate.
const miniFMCap = 200000

// linT is a linear constraint over certificate terms meaning
// coeffs·terms + consts <= 0, mirroring the prover's linExprI.
type linT struct {
	consts int64
	coeffs map[int32]int64
}

func newLinT() linT { return linT{coeffs: map[int32]int64{}} }

func (l linT) addAtom(id int32, c int64) linT {
	l.coeffs[id] += c
	if l.coeffs[id] == 0 {
		delete(l.coeffs, id)
	}
	return l
}

func (l linT) add(o linT, scale int64) linT {
	l.consts += o.consts * scale
	for k, c := range o.coeffs {
		l.coeffs[k] += c * scale
		if l.coeffs[k] == 0 {
			delete(l.coeffs, k)
		}
	}
	return l
}

func (l linT) clone() linT {
	c := linT{consts: l.consts, coeffs: make(map[int32]int64, len(l.coeffs))}
	for k, v := range l.coeffs {
		c.coeffs[k] = v
	}
	return c
}

// mini is the replay theory state: a union-find over certificate terms
// (plus virtual true/false nodes), disequalities, and accumulated
// linear constraints.
type mini struct {
	c        *Certificate
	parent   []int32
	rank     []int8
	hasInt   []bool
	intv     []int64
	diseqs   [][2]int32
	conflict bool
	cons     []linT
	atoms    map[int32]bool // registered opaque arithmetic atoms
	lins     []linT         // memoized linearization per term
	linDone  []bool
}

func newMini(c *Certificate) *mini {
	n := len(c.Terms) + 2 // + virtual @true / @false
	m := &mini{
		c:       c,
		parent:  make([]int32, n),
		rank:    make([]int8, n),
		hasInt:  make([]bool, n),
		intv:    make([]int64, n),
		atoms:   map[int32]bool{},
		lins:    make([]linT, len(c.Terms)),
		linDone: make([]bool, len(c.Terms)),
	}
	for i := range m.parent {
		m.parent[i] = int32(i)
	}
	for i := range c.Terms {
		t := &c.Terms[i]
		switch {
		case t.IsInt:
			m.hasInt[i] = true
			m.intv[i] = t.Int
		case len(t.Args) == 0 && t.Fn == "@true":
			m.union(int32(i), m.trueNode())
		case len(t.Args) == 0 && t.Fn == "@false":
			m.union(int32(i), m.falseNode())
		}
	}
	m.diseqs = append(m.diseqs, [2]int32{m.trueNode(), m.falseNode()})
	return m
}

func (m *mini) trueNode() int32  { return int32(len(m.c.Terms)) }
func (m *mini) falseNode() int32 { return int32(len(m.c.Terms)) + 1 }

func (m *mini) find(x int32) int32 {
	for m.parent[x] != x {
		m.parent[x] = m.parent[m.parent[x]]
		x = m.parent[x]
	}
	return x
}

// union merges two classes, combining integer values; merging classes
// pinned to distinct integers is a conflict.
func (m *mini) union(a, b int32) {
	ra, rb := m.find(a), m.find(b)
	if ra == rb {
		return
	}
	if m.rank[ra] < m.rank[rb] {
		ra, rb = rb, ra
	}
	if m.rank[ra] == m.rank[rb] {
		m.rank[ra]++
	}
	m.parent[rb] = ra
	if m.hasInt[rb] {
		if m.hasInt[ra] && m.intv[ra] != m.intv[rb] {
			m.conflict = true
		}
		m.hasInt[ra] = true
		m.intv[ra] = m.intv[rb]
	}
}

// lin linearizes a certificate term, mirroring the prover's
// linearizeID: integer literals are constants; +, - and ~ are
// interpreted; a product is interpreted only when one side is
// constant; everything else is an opaque atom. Every opaque atom is
// registered for EUF→LA propagation (a superset of what the engine
// registers — sound, the extra facts are entailed).
func (m *mini) lin(t int32) linT {
	if m.linDone[t] {
		return m.lins[t]
	}
	e := m.lin1(t)
	m.lins[t] = e
	m.linDone[t] = true
	return e
}

func (m *mini) lin1(t int32) linT {
	tm := &m.c.Terms[t]
	if tm.IsInt {
		e := newLinT()
		e.consts = tm.Int
		return e
	}
	args := tm.Args
	switch tm.Fn {
	case "+":
		e := newLinT()
		for _, a := range args {
			e = e.add(m.lin(a), 1)
		}
		return e
	case "-":
		if len(args) == 2 {
			return m.lin(args[0]).clone().add(m.lin(args[1]), -1)
		}
		if len(args) == 1 {
			return newLinT().add(m.lin(args[0]), -1)
		}
	case "~":
		if len(args) == 1 {
			return newLinT().add(m.lin(args[0]), -1)
		}
	case "*":
		if len(args) == 2 {
			l0 := m.lin(args[0])
			l1 := m.lin(args[1])
			if len(l0.coeffs) == 0 {
				return newLinT().add(l1, l0.consts)
			}
			if len(l1.coeffs) == 0 {
				return newLinT().add(l0, l1.consts)
			}
			m.atoms[t] = true
			return newLinT().addAtom(t, 1)
		}
	}
	m.atoms[t] = true
	return newLinT().addAtom(t, 1)
}

// addCmp pushes the constraint l - r <= bound.
func (m *mini) addCmp(l, r int32, bound int64) {
	e := m.lin(l).clone().add(m.lin(r), -1)
	e.consts -= bound
	m.cons = append(m.cons, e)
}

// negOp mirrors logic.CmpOp.Negate.
func negOp(op int8) int8 {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return op
}

// assertLit asserts one literal into the theory state, mirroring the
// engine's assertTheory: predicates merge with true/false, equalities
// merge and constrain both directions, disequalities record an EUF
// diseq only, and order comparisons add their FM constraint.
func (m *mini) assertLit(l Lit) {
	at := &m.c.Atoms[l.Atom()]
	if at.Op == PredOp {
		if l.Negated() {
			m.union(at.L, m.falseNode())
		} else {
			m.union(at.L, m.trueNode())
		}
		return
	}
	op := at.Op
	if l.Negated() {
		op = negOp(op)
	}
	switch op {
	case OpEq:
		m.union(at.L, at.R)
		m.addCmp(at.L, at.R, 0)
		m.addCmp(at.R, at.L, 0)
	case OpNe:
		m.diseqs = append(m.diseqs, [2]int32{at.L, at.R})
	case OpLe:
		m.addCmp(at.L, at.R, 0)
	case OpLt:
		m.addCmp(at.L, at.R, -1)
	case OpGe:
		m.addCmp(at.R, at.L, 0)
	case OpGt:
		m.addCmp(at.R, at.L, -1)
	}
}

// congruence runs naive congruence closure to fixpoint: any two
// applications with the same symbol and pairwise-equal arguments are
// merged. Quadratic per pass over a small table; no search.
func (m *mini) congruence() {
	for {
		merged := false
		for i := range m.c.Terms {
			ti := &m.c.Terms[i]
			if ti.IsInt || len(ti.Args) == 0 {
				continue
			}
			for j := i + 1; j < len(m.c.Terms); j++ {
				tj := &m.c.Terms[j]
				if tj.IsInt || tj.Fn != ti.Fn || len(tj.Args) != len(ti.Args) {
					continue
				}
				if m.find(int32(i)) == m.find(int32(j)) {
					continue
				}
				eq := true
				for k := range ti.Args {
					if m.find(ti.Args[k]) != m.find(tj.Args[k]) {
						eq = false
						break
					}
				}
				if eq {
					m.union(int32(i), int32(j))
					merged = true
				}
			}
		}
		if !merged {
			return
		}
	}
}

// egConflict reports an e-graph conflict: a distinct-integer merge or
// a violated disequality.
func (m *mini) egConflict() bool {
	if m.conflict {
		return true
	}
	for _, d := range m.diseqs {
		if m.find(d[0]) == m.find(d[1]) {
			return true
		}
	}
	return false
}

// eufLA derives the per-check EUF→LA facts: equalities between
// registered atoms in one congruence class, and integer pinnings for
// atoms whose class carries an integer literal.
func (m *mini) eufLA() []linT {
	if len(m.atoms) == 0 {
		return nil
	}
	uniq := make([]int32, 0, len(m.atoms))
	for t := range m.atoms {
		uniq = append(uniq, t)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	groups := map[int32][]int32{}
	for _, t := range uniq {
		r := m.find(t)
		groups[r] = append(groups[r], t)
	}
	var extra []linT
	for r, ts := range groups {
		for i := 1; i < len(ts); i++ {
			extra = append(extra, newLinT().addAtom(ts[0], 1).addAtom(ts[i], -1))
			extra = append(extra, newLinT().addAtom(ts[i], 1).addAtom(ts[0], -1))
		}
		if m.hasInt[r] {
			v := m.intv[r]
			for _, t := range ts {
				e1 := newLinT().addAtom(t, 1)
				e1.consts = -v
				e2 := newLinT().addAtom(t, -1)
				e2.consts = v
				extra = append(extra, e1, e2)
			}
		}
	}
	return extra
}

// gcd64 and ceilDiv are local copies of the prover's helpers; the
// verifier must not import it.
func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
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

func normalizeGCD(e linT) linT {
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

// fmInfeasible runs Fourier–Motzkin elimination with deterministic
// pivot order and GCD integer tightening, mirroring the engine's
// arithSolver2.infeasible (with a higher blowup cap).
func fmInfeasible(cons []linT) bool {
	work := make([]linT, 0, len(cons))
	for i := range cons {
		work = append(work, cons[i].clone())
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
		counts := map[int32][2]int{}
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
		keys := make([]int32, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		bestKey := int32(-1)
		bestCost := -1
		for _, k := range keys {
			pc := counts[k]
			cost := pc[0]*pc[1] + pc[0] + pc[1]
			if bestCost == -1 || cost < bestCost {
				bestCost = cost
				bestKey = k
			}
		}
		var pos, neg, keep []linT
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
		next := keep
		for _, p := range pos {
			cp := p.coeffs[bestKey]
			for _, n := range neg {
				cn := -n.coeffs[bestKey]
				comb := newLinT()
				comb = comb.add(p, cn)
				comb = comb.add(n, cp)
				delete(comb.coeffs, bestKey)
				comb = normalizeGCD(comb)
				next = append(next, comb)
				if len(next) > miniFMCap {
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

// checkTheory validates an ExplTheory step: assert the negations of
// its literals, close under congruence, and require either an e-graph
// conflict or Fourier–Motzkin infeasibility.
func checkTheory(c *Certificate, st *Step) error {
	m := newMini(c)
	for _, l := range st.Lits {
		m.assertLit(l.Neg())
	}
	m.congruence()
	if m.egConflict() {
		return nil
	}
	all := append(m.cons, m.eufLA()...)
	if fmInfeasible(all) {
		return nil
	}
	return ErrUnexplainedTheory
}
