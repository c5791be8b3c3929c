package soundness

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/qdl"
)

// ObligationKind classifies the type rule an obligation verifies.
type ObligationKind int

// Obligation kinds.
const (
	// CaseClause is definition 5.1's local soundness of a value qualifier's
	// case clause.
	CaseClause ObligationKind = iota
	// AssignClause establishes a reference qualifier's invariant when its
	// subject is assigned a matching right-hand side.
	AssignClause
	// OnDecl establishes the invariant at variable declaration.
	OnDecl
	// Preservation shows the invariant survives an assignment to a
	// different l-value, per right-hand-side form (section 2.2.3).
	Preservation
)

func (k ObligationKind) String() string {
	switch k {
	case CaseClause:
		return "case"
	case AssignClause:
		return "assign"
	case OnDecl:
		return "ondecl"
	case Preservation:
		return "preservation"
	}
	return "?"
}

// Obligation is one proof obligation generated from a qualifier definition.
type Obligation struct {
	Kind        ObligationKind
	Qualifier   string
	ClauseIndex int // clause index for case/assign; form index for preservation
	Description string
	Formula     logic.Formula
	// Vacuous marks obligations that are trivially true because the
	// qualifier declares no invariant (flow qualifiers, section 2.1.4).
	Vacuous bool
}

// clauseVars carries the logic terms introduced for a clause's pattern
// variables.
type clauseVars struct {
	names []string              // quantified variable names
	expr  map[string]logic.Term // pattern var -> expression term
	lval  map[string]logic.Term // pattern var -> l-value term
	cval  map[string]logic.Term // Const pattern var -> integer value term
}

// introduceVars creates logic variables for a clause's declared pattern
// variables (and the subject, for patterns that mention it).
func introduceVars(d *qdl.Def, cl qdl.Clause) *clauseVars {
	cv := &clauseVars{
		expr: map[string]logic.Term{},
		lval: map[string]logic.Term{},
		cval: map[string]logic.Term{},
	}
	add := func(vp qdl.VarPat) {
		switch vp.Classifier {
		case qdl.ClassConst:
			v := "c!" + vp.Name
			cv.names = append(cv.names, v)
			cv.cval[vp.Name] = logic.V(v)
			cv.expr[vp.Name] = logic.Fn("constE", logic.V(v))
		case qdl.ClassExpr:
			v := "e!" + vp.Name
			cv.names = append(cv.names, v)
			cv.expr[vp.Name] = logic.V(v)
		case qdl.ClassLValue:
			v := "l!" + vp.Name
			cv.names = append(cv.names, v)
			cv.lval[vp.Name] = logic.V(v)
			cv.expr[vp.Name] = logic.Fn("lvExpr", logic.V(v))
		case qdl.ClassVar:
			v := "x!" + vp.Name
			cv.names = append(cv.names, v)
			cv.lval[vp.Name] = logic.Fn("varL", logic.V(v))
			cv.expr[vp.Name] = logic.Fn("lvExpr", logic.Fn("varL", logic.V(v)))
		}
	}
	for _, vp := range cl.Decls {
		add(vp)
	}
	// The subject may appear as a pattern variable ("case E of E").
	if _, ok := cv.expr[d.Subject.Name]; !ok {
		add(d.Subject)
	}
	return cv
}

var binopExprFn = map[qdl.PatOp]string{
	"*": "multE", "+": "plusE", "-": "minusE", "/": "divE", "%": "modE",
	"==": "eqE", "!=": "neE", "<": "ltE", "<=": "leE", ">": "gtE", ">=": "geE",
	"&&": "andE", "||": "orE",
}

// patternTerm builds the expression term for a clause's pattern.
func patternTerm(cl qdl.Clause, cv *clauseVars) (logic.Term, error) {
	switch pat := cl.Pat.(type) {
	case qdl.PVar:
		t, ok := cv.expr[pat.Name]
		if !ok {
			return nil, fmt.Errorf("soundness: unbound pattern variable %s", pat.Name)
		}
		return t, nil
	case qdl.PDeref:
		t, ok := cv.expr[pat.Name]
		if !ok {
			return nil, fmt.Errorf("soundness: unbound pattern variable %s", pat.Name)
		}
		return logic.Fn("lvExpr", logic.Fn("derefL", t)), nil
	case qdl.PAddrOf:
		t, ok := cv.lval[pat.Name]
		if !ok {
			return nil, fmt.Errorf("soundness: &%s requires an LValue or Var variable", pat.Name)
		}
		return logic.Fn("addrE", t), nil
	case qdl.PUnop:
		t, ok := cv.expr[pat.Name]
		if !ok {
			return nil, fmt.Errorf("soundness: unbound pattern variable %s", pat.Name)
		}
		if pat.Op == "-" {
			return logic.Fn("negE", t), nil
		}
		return logic.Fn("notE", t), nil
	case qdl.PBinop:
		l, ok := cv.expr[pat.L]
		if !ok {
			return nil, fmt.Errorf("soundness: unbound pattern variable %s", pat.L)
		}
		r, ok := cv.expr[pat.R]
		if !ok {
			return nil, fmt.Errorf("soundness: unbound pattern variable %s", pat.R)
		}
		fn, ok := binopExprFn[pat.Op]
		if !ok {
			return nil, fmt.Errorf("soundness: unsupported pattern operator %q", pat.Op)
		}
		return logic.Fn(fn, l, r), nil
	case qdl.PNull:
		return logic.Const("nullE"), nil
	case qdl.PNew:
		return nil, fmt.Errorf("soundness: new is only valid in assign clauses")
	}
	return nil, fmt.Errorf("soundness: unknown pattern %v", cl.Pat)
}

// Obligations generates every proof obligation for a qualifier definition.
func Obligations(d *qdl.Def, reg *qdl.Registry) ([]Obligation, error) {
	switch d.Kind {
	case qdl.ValueQualifier:
		return valueObligations(d, reg)
	case qdl.RefQualifier:
		return refObligations(d, reg)
	}
	return nil, fmt.Errorf("soundness: unknown qualifier kind")
}

// valueObligations: one obligation per case clause (definition 5.1).
// Restrict clauses do not affect soundness and generate none (section
// 2.1.3).
func valueObligations(d *qdl.Def, reg *qdl.Registry) ([]Obligation, error) {
	var out []Obligation
	for i, cl := range d.Cases {
		desc := fmt.Sprintf("%s case %d: %s", d.Name, i+1, cl)
		if d.Invariant == nil {
			out = append(out, Obligation{
				Kind: CaseClause, Qualifier: d.Name, ClauseIndex: i,
				Description: desc + " (no invariant: vacuously sound)",
				Formula:     logic.TrueF{}, Vacuous: true,
			})
			continue
		}
		cv := introduceVars(d, cl)
		rho := logic.V("rho")
		pat, err := patternTerm(cl, cv)
		if err != nil {
			return nil, err
		}
		hyp, err := whereHypothesis(reg, cl.Where, cv, rho)
		if err != nil {
			return nil, err
		}
		goal, err := valueInvariant(d, rho, pat)
		if err != nil {
			return nil, err
		}
		vars := append([]string{"rho"}, cv.names...)
		out = append(out, Obligation{
			Kind: CaseClause, Qualifier: d.Name, ClauseIndex: i,
			Description: desc,
			Formula:     logic.All(vars, logic.Imp(hyp, goal)),
		})
	}
	if len(out) == 0 {
		// A flow qualifier with no case block at all (untainted): sound for
		// free via subtyping.
		out = append(out, Obligation{
			Kind: CaseClause, Qualifier: d.Name, ClauseIndex: 0,
			Description: d.Name + ": no case clauses and no invariant (flow qualifier, vacuously sound)",
			Formula:     logic.TrueF{}, Vacuous: true,
		})
	}
	return out, nil
}

// preservationForms enumerates the right-hand-side forms of the
// preservation case analysis. Under the paper's logical memory model,
// pointer arithmetic has its base pointer's value, so arithmetic forms fold
// into varRead.
var preservationForms = []string{"NULL", "new", "varRead", "derefRead", "addrOfVar"}

func refObligations(d *qdl.Def, reg *qdl.Registry) ([]Obligation, error) {
	var out []Obligation
	rho := logic.Const("RHO")
	sigma := getStore(rho)
	env := getEnv(rho)

	// The subject's location: variables locate through the environment;
	// abstract l-values get an abstract location constant.
	var locL logic.Term
	var subjectHyps []logic.Formula
	if d.Subject.Classifier == qdl.ClassVar {
		locL = sel(env, logic.Const("x!subj"))
	} else {
		locL = logic.Const("LOC_L")
		// Subject locations are locations of l-values: never NULL.
		subjectHyps = append(subjectHyps, logic.Ne(locL, nullT))
	}
	// stored is the obligation that hyps (and the subject's hypotheses)
	// imply the invariant after v is stored at target.
	stored := func(hyps []logic.Formula, target, v logic.Term) (logic.Formula, error) {
		goal, _, err := refInvariant(d, sto(sigma, target, v), locL)
		if err != nil {
			return nil, err
		}
		return logic.Imp(logic.Conj(append(hyps, subjectHyps...)...), goal), nil
	}

	// Establishment: assign clauses.
	for i, cl := range d.Assigns {
		desc := fmt.Sprintf("%s assign %d: %s", d.Name, i+1, cl)
		v, hyps, err := rhsValue(d, reg, cl, rho, sigma)
		if err != nil {
			return nil, err
		}
		f, err := stored(hyps, locL, v)
		if err != nil {
			return nil, err
		}
		out = append(out, Obligation{
			Kind: AssignClause, Qualifier: d.Name, ClauseIndex: i,
			Description: desc,
			Formula:     f,
		})
	}

	// Establishment: ondecl.
	if d.OnDecl {
		fresh := logic.Const("FRESH_LOC")
		xname := logic.Const("x!subj")
		postEnv := sto(env, xname, fresh)
		goal, initValue, err := refInvariant(d, sigma, sel(postEnv, xname))
		if err != nil {
			return nil, err
		}
		// The new variable's location is fresh: nothing stored points to it.
		hyps := []logic.Formula{noPointerTo(sigma, fresh), logic.Ne(fresh, nullT)}
		if initValue {
			// Ghost definition: initValue records the declared variable's
			// value at this point.
			hyps = append(hyps, logic.Eq(logic.Fn("initValue", fresh), sel(sigma, fresh)))
		}
		out = append(out, Obligation{
			Kind: OnDecl, Qualifier: d.Name,
			Description: d.Name + " ondecl: invariant holds at declaration",
			Formula:     logic.Imp(logic.Conj(hyps...), goal),
		})
	}

	// Preservation: an assignment to a different l-value, with a right-hand
	// side consistent with the disallow clause, preserves the invariant.
	preInv, _, err := refInvariant(d, sigma, locL)
	if err != nil {
		return nil, err
	}
	// formValue builds the stored value and per-form hypotheses for one
	// right-hand-side form of the case analysis.
	formValue := func(form string) (logic.Term, []logic.Formula) {
		var hyps []logic.Formula
		var v logic.Term
		switch form {
		case "NULL":
			v = nullT
		case "new":
			v, hyps = newLoc(rho, sigma)
		case "varRead":
			yloc := logic.Const("Y_LOC")
			v = sel(sigma, yloc)
			if d.Disallow.Refer {
				// The disallow clause forbids the right-hand side from
				// referring to the subject, so the read location differs.
				hyps = append(hyps, logic.Ne(yloc, locL))
			}
		case "derefRead":
			yloc := logic.Const("Y_LOC")
			v = sel(sigma, sel(sigma, yloc))
		case "addrOfVar":
			yname := logic.Const("y!other")
			v = sel(env, yname)
			if d.Disallow.AddrOf && d.Subject.Classifier == qdl.ClassVar {
				// disallow &X: the address taken is of a different variable.
				hyps = append(hyps, logic.Ne(yname, logic.Const("x!subj")))
			}
		}
		return v, hyps
	}
	// Frame condition (see DESIGN.md): no stored pointer to the subject
	// exists; the extensible typechecker enforces this by rejecting
	// address-of on reference-qualified l-values.
	frame := noPointerTo(sigma, locL)
	locPrime := logic.Const("LOC_PRIME")
	for i, form := range preservationForms {
		v, formHyps := formValue(form)
		// Assignments to the subject itself are covered by the assign
		// obligations (or the unrestricted-assignment obligations below);
		// preservation considers other targets.
		f, err := stored(append([]logic.Formula{preInv, logic.Ne(locPrime, locL), frame}, formHyps...), locPrime, v)
		if err != nil {
			return nil, err
		}
		out = append(out, Obligation{
			Kind: Preservation, Qualifier: d.Name, ClauseIndex: i,
			Description: fmt.Sprintf("%s preservation: assignment of form %s to another l-value", d.Name, form),
			Formula:     f,
		})
	}
	// A reference qualifier with no assign block and no noassign implicitly
	// allows any type-correct assignment to the subject (the paper's
	// unaliased, section 2.2.1). That implicit claim must itself be sound:
	// one obligation per right-hand-side form, targeting the subject.
	// (For unaliased these all prove — the invariant is address-only; for a
	// value-dependent invariant like constq's they would fail, which is why
	// constq needs noassign.)
	if len(d.Assigns) == 0 && !d.NoAssign {
		for i, form := range preservationForms {
			v, formHyps := formValue(form)
			f, err := stored(append([]logic.Formula{preInv, frame}, formHyps...), locL, v)
			if err != nil {
				return nil, err
			}
			out = append(out, Obligation{
				Kind: AssignClause, Qualifier: d.Name, ClauseIndex: i,
				Description: fmt.Sprintf("%s unrestricted assignment of form %s to the subject", d.Name, form),
				Formula:     f,
			})
		}
	}
	return out, nil
}

// newLoc is the location an allocation in state rho returns and its facts:
// a non-NULL heap location that nothing in store sigma references (section
// 4.1: "we explicitly model memory allocation via a new function symbol").
func newLoc(rho, sigma logic.Term) (logic.Term, []logic.Formula) {
	v := logic.Fn("newLoc", rho)
	return v, []logic.Formula{isHeapLoc(v), logic.Ne(v, nullT), noPointerTo(sigma, v)}
}

// rhsValue builds the stored value and hypotheses for an assign clause's
// right-hand-side pattern.
func rhsValue(d *qdl.Def, reg *qdl.Registry, cl qdl.Clause, rho, sigma logic.Term) (logic.Term, []logic.Formula, error) {
	var hyps []logic.Formula
	switch cl.Pat.(type) {
	case qdl.PNull:
		return nullT, hyps, nil
	case qdl.PFresh:
		// A fresh reference (the section 2.2.1 extension): the callee
		// returned a unique-qualified local, whose invariant allowed only
		// its own stack cell to reference the value — and that cell died
		// with the callee's frame. So the value is NULL or an unreferenced
		// heap location.
		v := logic.Const("FRESH_RET")
		hyps = append(hyps, logic.Disj(
			logic.Eq(v, nullT),
			logic.Conj(isHeapLoc(v), noPointerTo(sigma, v)),
		))
		return v, hyps, nil
	case qdl.PNew:
		v, hyps := newLoc(rho, sigma)
		return v, hyps, nil
	default:
		cv := introduceVars(d, cl)
		pt, err := patternTerm(cl, cv)
		if err != nil {
			return nil, nil, err
		}
		where, err := whereHypothesis(reg, cl.Where, cv, rho)
		if err != nil {
			return nil, nil, err
		}
		if _, isTrue := where.(logic.TrueF); !isTrue {
			hyps = append(hyps, where)
		}
		// The clause variables become skolem constants: replace variables
		// with constants of the same name.
		sub := map[string]logic.Term{}
		for _, n := range cv.names {
			sub[n] = logic.Const("k!" + n)
		}
		v := logic.SubstTerm(eval(rho, pt), sub)
		for i, h := range hyps {
			hyps[i] = logic.Subst(h, sub)
		}
		return v, hyps, nil
	}
}
