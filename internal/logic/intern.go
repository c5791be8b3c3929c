package logic

// This file implements hash-consed term interning: a TermTable maps
// structurally equal terms to one dense TermID, so downstream engines (the
// simplify prover's search, e-graph, arithmetic solver, and e-matcher) can
// key their tables by int32 instead of by printed term strings. Structural
// equality becomes an integer compare, and per-term metadata lives in flat
// slices indexed by TermID.

// TermID is a dense identifier for a hash-consed term in a TermTable. IDs
// are allocated consecutively from 0, so they index flat side tables.
type TermID int32

// NoTerm is the sentinel "no term" id.
const NoTerm TermID = -1

// TermKind discriminates the three term shapes a TermTable stores.
type TermKind uint8

const (
	// KindApp is a function application (constants are 0-ary applications).
	KindApp TermKind = iota
	// KindInt is an integer literal.
	KindInt
	// KindVar is a variable (only pattern terms contain these; ground
	// engines never intern them).
	KindVar
)

// termNode is one interned term. fn doubles as the variable name for
// KindVar nodes; val is meaningful only for KindInt.
type termNode struct {
	kind TermKind
	fn   string
	val  int64
	args []TermID
	hash uint64
	// term caches the reconstructed Term, built on first Term() call.
	term Term
}

// TermTable hash-conses terms to dense TermIDs. It is not safe for
// concurrent use; every prover search builds its own.
type TermTable struct {
	nodes   []termNode
	buckets map[uint64][]TermID
}

// NewTermTable returns an empty table.
func NewTermTable() *TermTable {
	return &TermTable{buckets: make(map[uint64][]TermID, 256)}
}

const (
	hashSeed  uint64 = 1469598103934665603 // FNV-64 offset basis
	hashPrime uint64 = 1099511628211       // FNV-64 prime
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= hashPrime
	}
	return h
}

func hashUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= hashPrime
		v >>= 8
	}
	return h
}

// lookup finds an existing node structurally equal to n, or inserts it.
func (tt *TermTable) lookup(n termNode) TermID {
	for _, id := range tt.buckets[n.hash] {
		c := &tt.nodes[id]
		if c.kind != n.kind || c.fn != n.fn || c.val != n.val || len(c.args) != len(n.args) {
			continue
		}
		same := true
		for i := range c.args {
			if c.args[i] != n.args[i] {
				same = false
				break
			}
		}
		if same {
			return id
		}
	}
	id := TermID(len(tt.nodes))
	tt.nodes = append(tt.nodes, n)
	tt.buckets[n.hash] = append(tt.buckets[n.hash], id)
	return id
}

// InternInt interns an integer literal.
func (tt *TermTable) InternInt(v int64) TermID {
	h := hashUint(hashSeed^0x1, uint64(v))
	return tt.lookup(termNode{kind: KindInt, val: v, hash: h})
}

// InternVar interns a variable by name.
func (tt *TermTable) InternVar(name string) TermID {
	h := hashString(hashSeed^0x2, name)
	return tt.lookup(termNode{kind: KindVar, fn: name, hash: h})
}

// InternApp interns fn applied to already-interned arguments.
func (tt *TermTable) InternApp(fn string, args []TermID) TermID {
	h := hashString(hashSeed^0x3, fn)
	for _, a := range args {
		h = hashUint(h, uint64(uint32(a)))
	}
	return tt.lookup(termNode{kind: KindApp, fn: fn, args: args, hash: h})
}

// Intern hash-conses t (and all its subterms), returning its id.
func (tt *TermTable) Intern(t Term) TermID {
	switch t := t.(type) {
	case IntLit:
		return tt.InternInt(t.Value)
	case Var:
		return tt.InternVar(t.Name)
	case App:
		if len(t.Args) == 0 {
			return tt.InternApp(t.Fn, nil)
		}
		args := make([]TermID, len(t.Args))
		for i, a := range t.Args {
			args[i] = tt.Intern(a)
		}
		return tt.InternApp(t.Fn, args)
	}
	panic("logic: unknown term kind in Intern")
}

// InternSubst interns pattern t with its variables replaced per sub. The
// second result is false when t contains a variable missing from sub (the
// instantiation is not fully ground).
func (tt *TermTable) InternSubst(t Term, sub map[string]TermID) (TermID, bool) {
	switch t := t.(type) {
	case IntLit:
		return tt.InternInt(t.Value), true
	case Var:
		id, ok := sub[t.Name]
		return id, ok
	case App:
		if len(t.Args) == 0 {
			return tt.InternApp(t.Fn, nil), true
		}
		args := make([]TermID, len(t.Args))
		for i, a := range t.Args {
			id, ok := tt.InternSubst(a, sub)
			if !ok {
				return NoTerm, false
			}
			args[i] = id
		}
		return tt.InternApp(t.Fn, args), true
	}
	panic("logic: unknown term kind in InternSubst")
}

// Kind returns the shape of an interned term.
func (tt *TermTable) Kind(id TermID) TermKind { return tt.nodes[id].kind }

// Fn returns the function symbol of a KindApp term (or the name of a
// KindVar term).
func (tt *TermTable) Fn(id TermID) string { return tt.nodes[id].fn }

// IntVal returns the value of a KindInt term.
func (tt *TermTable) IntVal(id TermID) int64 { return tt.nodes[id].val }

// IsInt reports whether id is an integer literal, returning its value.
func (tt *TermTable) IsInt(id TermID) (int64, bool) {
	n := &tt.nodes[id]
	return n.val, n.kind == KindInt
}

// Args returns the argument ids of a KindApp term. The slice is owned by
// the table; callers must not mutate it.
func (tt *TermTable) Args(id TermID) []TermID { return tt.nodes[id].args }

// Term reconstructs the logic.Term for id. The result is cached, so
// repeated rendering of the same id is cheap and shares structure.
func (tt *TermTable) Term(id TermID) Term {
	n := &tt.nodes[id]
	if n.term != nil {
		return n.term
	}
	var t Term
	switch n.kind {
	case KindInt:
		t = IntLit{Value: n.val}
	case KindVar:
		t = Var{Name: n.fn}
	case KindApp:
		args := make([]Term, len(n.args))
		for i, a := range n.args {
			args[i] = tt.Term(a)
		}
		t = App{Fn: n.fn, Args: args}
	}
	n.term = t
	return t
}
