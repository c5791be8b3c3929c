package soundness

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/qdl"
)

// helpers for building semantics terms.

func sel(m, k logic.Term) logic.Term       { return logic.Fn("select", m, k) }
func sto(m, k, v logic.Term) logic.Term    { return logic.Fn("store", m, k, v) }
func eval(r, e logic.Term) logic.Term      { return logic.Fn("evalExpr", r, e) }
func getStore(r logic.Term) logic.Term     { return logic.Fn("getStore", r) }
func getEnv(r logic.Term) logic.Term       { return logic.Fn("getEnv", r) }
func isHeapLoc(t logic.Term) logic.Formula { return logic.P("isHeapLoc", t) }

var nullT = logic.Const("NULL")

// noPointerTo states that no location of store sigma holds v.
func noPointerTo(sigma, v logic.Term) logic.Formula {
	return logic.AllPats([]string{"p"}, [][]logic.Term{{sel(sigma, logic.V("p"))}},
		logic.Ne(sel(sigma, logic.V("p")), v))
}

func cmpFormula(op qdl.PatOp, l, r logic.Term) (logic.Formula, error) {
	switch op {
	case "==":
		return logic.Eq(l, r), nil
	case "!=":
		return logic.Ne(l, r), nil
	case "<":
		return logic.Lt(l, r), nil
	case "<=":
		return logic.Le(l, r), nil
	case ">":
		return logic.Gt(l, r), nil
	case ">=":
		return logic.Ge(l, r), nil
	}
	return nil, fmt.Errorf("soundness: unsupported comparison %q", op)
}

// place is where a QDL predicate stands, which decides what its terms
// refer to.
type place uint8

const (
	valueInv    place = iota // a value qualifier's invariant
	refInv                   // a reference qualifier's invariant
	whereClause              // a clause's where-predicate
)

func (p place) String() string {
	return [...]string{"value invariants", "reference invariants", "where clauses"}[p]
}

// scope is one translation of a predicate. qdl.Load refuses every form a
// place cannot hold, so the translator enforces only the prover's theory
// limits: no division or remainder, and no arithmetic over a reference
// invariant's store.
type scope struct {
	place place
	// state is the execution state a value invariant or a where-clause is
	// read in, and the explicit store of a reference invariant. subj is the
	// value invariant's subject expression, or the reference invariant's
	// subject location.
	state, subj logic.Term
	// forallVar is the variable of the innermost forall around the
	// reference invariant's term being translated, and forallTerm its logic
	// variable. qdl.Load binds every variable of an invariant by an
	// enclosing forall, and each forall quantifies p!X for its variable X,
	// so an outer forall's variable translates to p!X too.
	forallVar  string
	forallTerm logic.Term
	// initValue records that a reference invariant named initvalue.
	initValue bool
	// reg and cv resolve a where-clause's qualifier checks and Const
	// variables.
	reg *qdl.Registry
	cv  *clauseVars
}

// valueInvariant translates a value qualifier's invariant for subject
// expression term subj in state. A qualifier without an invariant (a flow
// qualifier) translates to TRUE.
func valueInvariant(d *qdl.Def, state, subj logic.Term) (logic.Formula, error) {
	if d.Invariant == nil {
		return logic.TrueF{}, nil
	}
	s := scope{place: valueInv, state: state, subj: subj}
	return s.pred(d.Invariant)
}

// refInvariant translates a reference qualifier's invariant over an explicit
// store term and subject location term, and reports whether it named the
// initvalue ghost. Writing post states as explicit store(...) terms keeps
// the select/store triggers matchable.
func refInvariant(d *qdl.Def, store, loc logic.Term) (logic.Formula, bool, error) {
	s := scope{place: refInv, state: store, subj: loc}
	f, err := s.pred(d.Invariant)
	return f, s.initValue, err
}

// whereHypothesis translates a clause's where-predicate into logic: a
// qualifier check becomes the checked qualifier's invariant (definition
// 5.1), and constant comparisons become arithmetic over the Const variables.
func whereHypothesis(reg *qdl.Registry, p qdl.Pred, cv *clauseVars, state logic.Term) (logic.Formula, error) {
	if p == nil {
		return logic.TrueF{}, nil
	}
	s := scope{place: whereClause, state: state, reg: reg, cv: cv}
	return s.pred(p)
}

func (s *scope) pred(p qdl.Pred) (logic.Formula, error) {
	switch p := p.(type) {
	case qdl.PCmp:
		l, err := s.term(p.L)
		if err != nil {
			return nil, err
		}
		r, err := s.term(p.R)
		if err != nil {
			return nil, err
		}
		return cmpFormula(p.Op, l, r)
	case qdl.PIsHeapLoc:
		t, err := s.term(p.T)
		if err != nil {
			return nil, err
		}
		return isHeapLoc(t), nil
	case qdl.PAnd:
		return s.connective('&', p.L, p.R)
	case qdl.POr:
		return s.connective('|', p.L, p.R)
	case qdl.PImp:
		return s.connective('>', p.L, p.R)
	case qdl.PNot:
		inner, err := s.pred(p.P)
		if err != nil {
			return nil, err
		}
		return logic.Not{F: inner}, nil
	case qdl.PForall:
		// Quantification over all locations of the appropriate type
		// (typing predicates elided, as in the paper).
		v := "p!" + p.Var
		outerVar, outerTerm := s.forallVar, s.forallTerm
		s.forallVar, s.forallTerm = p.Var, logic.V(v)
		body, err := s.pred(p.Body)
		s.forallVar, s.forallTerm = outerVar, outerTerm
		if err != nil {
			return nil, err
		}
		return logic.All([]string{v}, body), nil
	case qdl.PQual:
		qd := s.reg.Lookup(p.Qual)
		if qd == nil {
			return nil, fmt.Errorf("soundness: unknown qualifier %s in where clause", p.Qual)
		}
		return valueInvariant(qd, s.state, s.cv.expr[p.Arg])
	}
	return nil, fmt.Errorf("soundness: predicate %s not supported in %s", p, s.place)
}

// connective translates l and r and joins them with op: '&' conjunction,
// '|' disjunction, '>' implication.
func (s *scope) connective(op byte, l, r qdl.Pred) (logic.Formula, error) {
	lf, err := s.pred(l)
	if err != nil {
		return nil, err
	}
	rf, err := s.pred(r)
	if err != nil {
		return nil, err
	}
	switch op {
	case '&':
		return logic.Conj(lf, rf), nil
	case '|':
		return logic.Disj(lf, rf), nil
	}
	return logic.Imp(lf, rf), nil
}

func (s *scope) term(t qdl.Term) (logic.Term, error) {
	switch t := t.(type) {
	case qdl.TInt:
		return logic.Num(t.Value), nil
	case qdl.TNull:
		return nullT, nil
	case qdl.TValue:
		if s.place == refInv {
			return sel(s.state, s.subj), nil
		}
		return eval(s.state, s.subj), nil
	case qdl.TLocation:
		return s.subj, nil
	case qdl.TInitValue:
		// Ghost state (section 8's trace-to-state conversion): the value the
		// subject held at its declaration, a function of the location only.
		s.initValue = true
		return logic.Fn("initValue", s.subj), nil
	case qdl.TVar:
		return s.variable(t.Name), nil
	case qdl.TDeref:
		return sel(s.state, s.variable(t.Name)), nil
	case qdl.TArith:
		if s.place == refInv {
			break // arithmetic over a reference invariant's store is not translated
		}
		l, err := s.term(t.L)
		if err != nil {
			return nil, err
		}
		r, err := s.term(t.R)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "+":
			return logic.Add(l, r), nil
		case "-":
			return logic.Sub(l, r), nil
		case "*":
			return logic.Mul(l, r), nil
		}
		if s.place == whereClause {
			return nil, fmt.Errorf("soundness: unsupported constant arithmetic %q", t.Op)
		}
		return nil, fmt.Errorf("soundness: unsupported arithmetic %q in invariant", t.Op)
	}
	return nil, fmt.Errorf("soundness: term %s not supported in %s", t, s.place)
}

// variable is the logic term of a variable: a where-clause's Const
// variable, or a reference invariant's forall variable.
func (s *scope) variable(name string) logic.Term {
	switch {
	case s.place == whereClause:
		return s.cv.cval[name]
	case name == s.forallVar:
		return s.forallTerm
	}
	return logic.V("p!" + name)
}
