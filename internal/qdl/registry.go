package qdl

import (
	"fmt"
	"sort"
	"sync"
)

// Registry holds the qualifier definitions in scope. It is the single
// source of qualifier truth: the cminor parser consults it to resolve
// postfix annotations, the extensible typechecker executes its type rules,
// and the soundness checker proves its invariants. A Def must not change
// after Add: Fingerprint hashes the definitions once and reuses the hash.
type Registry struct {
	byName map[string]*Def
	order  []*Def
	// values lists the value qualifiers in registration order; a value
	// qualifier's index into it is its dense index (see ValueIndex).
	values   []*Def
	valueIdx map[string]int

	fpMu sync.Mutex
	fp   string // Fingerprint's hash; "" until computed and after Add

	memoMu sync.Mutex
	memo   map[any]any // Memo's values; nil until computed and after Add
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Def{}, valueIdx: map[string]int{}}
}

// MaxValueQualifiers bounds the value qualifiers one registry may declare:
// the checker represents a set of them as one 64-bit word. Add rejects a
// value qualifier past the bound.
const MaxValueQualifiers = 64

// Add validates the definition's local well-formedness and registers it,
// giving a value qualifier the next dense index (see ValueIndex); a registry
// holds at most MaxValueQualifiers value qualifiers. Cross-definition
// references (qualifier checks naming other qualifiers)
// are validated by Validate once all definitions are added, so mutually
// recursive definitions like pos/neg work.
func (r *Registry) Add(d *Def) error {
	if _, dup := r.byName[d.Name]; dup {
		return fmt.Errorf("%s: qualifier %s redefined", d.Pos, d.Name)
	}
	if err := validateLocal(d); err != nil {
		return err
	}
	if d.Kind == ValueQualifier && len(r.values) == MaxValueQualifiers {
		return fmt.Errorf("%s: qualifier %s: a registry may declare at most %d value qualifiers", d.Pos, d.Name, MaxValueQualifiers)
	}
	r.byName[d.Name] = d
	r.order = append(r.order, d)
	if d.Kind == ValueQualifier {
		r.valueIdx[d.Name] = len(r.values)
		r.values = append(r.values, d)
	}
	r.fpMu.Lock()
	r.fp = ""
	r.fpMu.Unlock()
	r.memoMu.Lock()
	r.memo = nil
	r.memoMu.Unlock()
	return nil
}

// Memo returns build's result for key, calling build once per key while the
// registry is unchanged (Add discards the results). Consumers keep forms
// compiled from the definitions here, such as the checker's clause tables,
// so a registry shared by many checks is compiled once and a registry built
// for one request is compiled with it and collected with it. Concurrent
// callers share one build; build must not call Memo.
func (r *Registry) Memo(key any, build func() any) any {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	if v, ok := r.memo[key]; ok {
		return v
	}
	v := build()
	if r.memo == nil {
		r.memo = map[any]any{}
	}
	r.memo[key] = v
	return v
}

// Lookup returns the named definition, or nil.
func (r *Registry) Lookup(name string) *Def { return r.byName[name] }

// Defs returns the definitions in registration order.
func (r *Registry) Defs() []*Def { return r.order }

// ValueDefs returns the value qualifiers in index order (registration order).
func (r *Registry) ValueDefs() []*Def { return r.values }

// ValueIndex returns the dense index Add gave the named value qualifier:
// value qualifiers are numbered 0, 1, ... in registration order. ok is false
// for reference qualifiers and unknown names.
func (r *Registry) ValueIndex(name string) (int, bool) {
	i, ok := r.valueIdx[name]
	return i, ok
}

// Names returns the qualifier name set, in the form the cminor parser
// consumes.
func (r *Registry) Names() map[string]bool {
	out := make(map[string]bool, len(r.byName))
	for n := range r.byName {
		out[n] = true
	}
	return out
}

// SortedNames returns the qualifier names sorted.
func (r *Registry) SortedNames() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks cross-definition references: every qualifier check names
// a registered qualifier of the right kind.
func (r *Registry) Validate() error {
	for _, d := range r.order {
		check := func(p Pred, where string) error {
			return walkPred(p, func(q PQual) error {
				ref, ok := r.byName[q.Qual]
				if !ok {
					return fmt.Errorf("%s: qualifier %s's %s references undefined qualifier %s", d.Pos, d.Name, where, q.Qual)
				}
				if ref.Kind != ValueQualifier {
					return fmt.Errorf("%s: qualifier %s's %s checks %s, which is a reference qualifier (only value qualifiers may be checked in predicates)", d.Pos, d.Name, where, q.Qual)
				}
				return nil
			})
		}
		for _, c := range d.Cases {
			if c.Where != nil {
				if err := check(c.Where, "case clause"); err != nil {
					return err
				}
			}
		}
		for _, c := range d.Restricts {
			if c.Where != nil {
				if err := check(c.Where, "restrict clause"); err != nil {
					return err
				}
			}
		}
		for _, c := range d.Assigns {
			if c.Where != nil {
				if err := check(c.Where, "assign clause"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Load parses the named sources, adds every definition, and validates
// cross-references. The map key is used as the file name in positions.
func Load(sources map[string]string) (*Registry, error) {
	r := NewRegistry()
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		defs, err := Parse(n, sources[n])
		if err != nil {
			return nil, err
		}
		for _, d := range defs {
			if err := r.Add(d); err != nil {
				return nil, err
			}
		}
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// walkPred visits every qualifier check in p.
func walkPred(p Pred, visit func(PQual) error) error {
	switch p := p.(type) {
	case PQual:
		return visit(p)
	case PAnd:
		if err := walkPred(p.L, visit); err != nil {
			return err
		}
		return walkPred(p.R, visit)
	case POr:
		if err := walkPred(p.L, visit); err != nil {
			return err
		}
		return walkPred(p.R, visit)
	case PImp:
		if err := walkPred(p.L, visit); err != nil {
			return err
		}
		return walkPred(p.R, visit)
	case PNot:
		return walkPred(p.P, visit)
	case PForall:
		return walkPred(p.Body, visit)
	}
	return nil
}

// containsQualCheck reports whether p contains a qualifier check.
func containsQualCheck(p Pred) bool {
	found := false
	walkPred(p, func(PQual) error {
		found = true
		return nil
	})
	return found
}

// validateLocal enforces per-definition well-formedness.
func validateLocal(d *Def) error {
	errf := func(format string, args ...interface{}) error {
		return fmt.Errorf("%s: qualifier %s: %s", d.Pos, d.Name, fmt.Sprintf(format, args...))
	}
	switch d.Kind {
	case ValueQualifier:
		if d.Subject.Classifier != ClassExpr {
			return errf("value qualifiers apply to expressions; subject classifier is %s", d.Subject.Classifier)
		}
		if len(d.Assigns) > 0 || d.OnDecl || d.NoAssign || d.Disallow.Refer || d.Disallow.AddrOf {
			return errf("assign/disallow/ondecl/noassign blocks are only for reference qualifiers")
		}
	case RefQualifier:
		if d.NoAssign && len(d.Assigns) > 0 {
			return errf("noassign conflicts with an assign block")
		}
		if d.NoAssign && !d.OnDecl {
			return errf("noassign requires ondecl (the value is fixed at declaration)")
		}
		if d.Subject.Classifier != ClassLValue && d.Subject.Classifier != ClassVar {
			return errf("reference qualifiers apply to l-values or variables; subject classifier is %s", d.Subject.Classifier)
		}
		if len(d.Cases) > 0 || len(d.Restricts) > 0 {
			return errf("case/restrict blocks are only for value qualifiers")
		}
		if d.OnDecl && d.Subject.Classifier != ClassVar {
			return errf("ondecl requires a Var-classified subject")
		}
		if d.Invariant == nil {
			return errf("reference qualifiers must declare an invariant")
		}
	}
	// Clause-level checks.
	checkClause := func(c Clause, kind string) error {
		declared := map[string]VarPat{d.Subject.Name: d.Subject}
		for _, vp := range c.Decls {
			if _, dup := declared[vp.Name]; dup {
				return errf("%s clause at %s redeclares %s", kind, c.Pos, vp.Name)
			}
			declared[vp.Name] = vp
		}
		for _, v := range c.Pat.Vars() {
			if _, ok := declared[v]; !ok {
				return errf("%s clause at %s uses undeclared pattern variable %s", kind, c.Pos, v)
			}
		}
		if c.Where != nil {
			if err := checkWherePred(c.Where, declared, errf, kind, c.Pos); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range d.Cases {
		if err := checkClause(c, "case"); err != nil {
			return err
		}
		if _, isFresh := c.Pat.(PFresh); isFresh {
			return errf("case clause at %s: fresh is only valid in assign clauses", c.Pos)
		}
	}
	for _, c := range d.Restricts {
		if err := checkClause(c, "restrict"); err != nil {
			return err
		}
	}
	for _, c := range d.Assigns {
		if err := checkClause(c, "assign"); err != nil {
			return err
		}
		if _, isAddr := c.Pat.(PAddrOf); isAddr {
			return errf("assign clause at %s: address-of patterns are not allowed on assignment right-hand sides", c.Pos)
		}
	}
	if d.Invariant != nil {
		if err := checkInvariant(d, d.Invariant, map[string]bool{}); err != nil {
			return err
		}
	}
	return nil
}

// checkWherePred validates a where-predicate: qualifier checks apply to
// declared variables; arithmetic comparisons apply only to Const-classified
// variables and literals (section 2.1.1).
func checkWherePred(p Pred, declared map[string]VarPat, errf func(string, ...interface{}) error, kind string, pos Pos) error {
	var checkTerm func(t Term) error
	checkTerm = func(t Term) error {
		switch t := t.(type) {
		case TVar:
			vp, ok := declared[t.Name]
			if !ok {
				return errf("%s clause at %s: undeclared variable %s in predicate", kind, pos, t.Name)
			}
			if vp.Classifier != ClassConst {
				return errf("%s clause at %s: variable %s used in arithmetic must have classifier Const", kind, pos, t.Name)
			}
			return nil
		case TArith:
			if err := checkTerm(t.L); err != nil {
				return err
			}
			return checkTerm(t.R)
		case TValue, TLocation, TDeref:
			return errf("%s clause at %s: %s is only allowed in invariants", kind, pos, t)
		}
		return nil
	}
	switch p := p.(type) {
	case PQual:
		if _, ok := declared[p.Arg]; !ok {
			return errf("%s clause at %s: qualifier check on undeclared variable %s", kind, pos, p.Arg)
		}
		return nil
	case PCmp:
		if err := checkTerm(p.L); err != nil {
			return err
		}
		return checkTerm(p.R)
	case PAnd:
		if err := checkWherePred(p.L, declared, errf, kind, pos); err != nil {
			return err
		}
		return checkWherePred(p.R, declared, errf, kind, pos)
	case POr:
		if err := checkWherePred(p.L, declared, errf, kind, pos); err != nil {
			return err
		}
		return checkWherePred(p.R, declared, errf, kind, pos)
	case PNot:
		// Negated qualifier checks would make the checker's derivation
		// fixpoint non-monotone (a clause could fire and then have its
		// premise invalidated by a later derivation), so only comparisons
		// may be negated.
		if containsQualCheck(p.P) {
			return errf("%s clause at %s: qualifier checks may not be negated", kind, pos)
		}
		return checkWherePred(p.P, declared, errf, kind, pos)
	case PImp:
		return errf("%s clause at %s: implication is only allowed in invariants", kind, pos)
	case PForall:
		return errf("%s clause at %s: forall is only allowed in invariants", kind, pos)
	case PIsHeapLoc:
		return errf("%s clause at %s: isHeapLoc is only allowed in invariants", kind, pos)
	}
	return nil
}

// checkInvariant validates an invariant predicate: terms refer to the
// subject or to forall-bound location variables; qualifier checks are not
// allowed (invariants are self-contained predicates over execution states).
func checkInvariant(d *Def, p Pred, bound map[string]bool) error {
	errf := func(format string, args ...interface{}) error {
		return fmt.Errorf("%s: qualifier %s invariant: %s", d.Pos, d.Name, fmt.Sprintf(format, args...))
	}
	var checkTerm func(t Term) error
	checkTerm = func(t Term) error {
		switch t := t.(type) {
		case TValue:
			if t.Name != d.Subject.Name {
				return errf("value(%s) does not name the subject %s", t.Name, d.Subject.Name)
			}
		case TLocation:
			if t.Name != d.Subject.Name {
				return errf("location(%s) does not name the subject %s", t.Name, d.Subject.Name)
			}
			if d.Kind != RefQualifier {
				return errf("location() is only meaningful for reference qualifiers")
			}
		case TDeref:
			if !bound[t.Name] {
				return errf("*%s dereferences an unbound variable", t.Name)
			}
		case TInitValue:
			if t.Name != d.Subject.Name {
				return errf("initvalue(%s) does not name the subject %s", t.Name, d.Subject.Name)
			}
			if d.Kind != RefQualifier {
				return errf("initvalue() is only meaningful for reference qualifiers")
			}
		case TVar:
			if !bound[t.Name] {
				return errf("unbound variable %s", t.Name)
			}
		case TArith:
			if err := checkTerm(t.L); err != nil {
				return err
			}
			return checkTerm(t.R)
		}
		return nil
	}
	switch p := p.(type) {
	case PCmp:
		if err := checkTerm(p.L); err != nil {
			return err
		}
		return checkTerm(p.R)
	case PIsHeapLoc:
		return checkTerm(p.T)
	case PQual:
		return errf("qualifier checks are not allowed in invariants")
	case PAnd:
		if err := checkInvariant(d, p.L, bound); err != nil {
			return err
		}
		return checkInvariant(d, p.R, bound)
	case POr:
		if err := checkInvariant(d, p.L, bound); err != nil {
			return err
		}
		return checkInvariant(d, p.R, bound)
	case PImp:
		if err := checkInvariant(d, p.L, bound); err != nil {
			return err
		}
		return checkInvariant(d, p.R, bound)
	case PNot:
		return checkInvariant(d, p.P, bound)
	case PForall:
		if d.Kind != RefQualifier {
			return errf("forall is only allowed in reference qualifier invariants")
		}
		inner := make(map[string]bool, len(bound)+1)
		for k := range bound {
			inner[k] = true
		}
		inner[p.Var] = true
		return checkInvariant(d, p.Body, inner)
	}
	return nil
}
