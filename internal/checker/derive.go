// Package checker implements the paper's extensible typechecker (section 3):
// qualifier checking of cminor programs directed by user-defined type rules.
// It consumes the base type information from cminor.TypeCheck and the
// qualifier registry from qdl, enforces case/restrict/assign/disallow rules,
// applies the implicit subtyping of value qualifiers (tau q <= tau), strips
// reference qualifiers from r-types, and collects the value-qualified casts
// that the instrumenter turns into run-time checks.
package checker

import (
	"repro/internal/cminor"
	"repro/internal/qdl"
)

// bindings is the result of matching a clause pattern: pattern variables
// bound to expressions, and type variables bound to cminor types. One clause
// binds at most two expressions, because the pattern grammar
// P ::= X | *X | &X | new | NULL | uop X | X bop X names at most two
// variables, and at most three type variables: the subject's and one for
// each declared operand. So the bindings are fixed arrays with counts and
// linear-scan lookups. They hold no pointer into themselves, which keeps
// every local on the stack and makes a value copy independent of its source.
type bindings struct {
	exprs  [2]exprBind
	types  [3]typeBind
	nexprs int
	ntypes int
}

type exprBind struct {
	name string
	e    cminor.Expr
}

type typeBind struct {
	name string
	t    cminor.Type
}

func (b *bindings) setExpr(name string, e cminor.Expr) {
	for i := 0; i < b.nexprs; i++ {
		if b.exprs[i].name == name {
			b.exprs[i].e = e
			return
		}
	}
	b.exprs[b.nexprs] = exprBind{name, e}
	b.nexprs++
}

func (b *bindings) getExpr(name string) (cminor.Expr, bool) {
	for i := 0; i < b.nexprs; i++ {
		if b.exprs[i].name == name {
			return b.exprs[i].e, true
		}
	}
	return nil, false
}

func (b *bindings) setType(name string, t cminor.Type) {
	for i := 0; i < b.ntypes; i++ {
		if b.types[i].name == name {
			b.types[i].t = t
			return
		}
	}
	b.types[b.ntypes] = typeBind{name, t}
	b.ntypes++
}

func (b *bindings) getType(name string) (cminor.Type, bool) {
	for i := 0; i < b.ntypes; i++ {
		if b.types[i].name == name {
			return b.types[i].t, true
		}
	}
	return nil, false
}

// matchTypePat unifies a type pattern with a cminor type, binding type
// variables in b.types. Qualifiers are stripped at every level for matching.
func (en *engine) matchTypePat(tp qdl.TypePat, t cminor.Type, b *bindings) bool {
	cur := cminor.Decay(cminor.StripQuals(t))
	for i := 0; i < tp.Ptr; i++ {
		pt, ok := cur.(cminor.PointerType)
		if !ok {
			return false
		}
		cur = cminor.Decay(cminor.StripQuals(pt.Elem))
	}
	if tp.Var != "" {
		if prev, ok := b.getType(tp.Var); ok {
			return cminor.BaseTypeEqual(prev, cur)
		}
		b.setType(tp.Var, cur)
		return true
	}
	return cminor.BaseTypeEqual(tp.Base, cur)
}

// declOf resolves a pattern variable to its declaration (clause decls, then
// the qualifier's subject).
func declOf(d *qdl.Def, cl qdl.Clause, name string) (qdl.VarPat, bool) {
	for _, vp := range cl.Decls {
		if vp.Name == name {
			return vp, true
		}
	}
	if d.Subject.Name == name {
		return d.Subject, true
	}
	return qdl.VarPat{}, false
}

// bindExpr checks classifier and type-pattern constraints for binding
// pattern variable vp to expression e, recording the binding.
func (en *engine) bindExpr(vp qdl.VarPat, e cminor.Expr, b *bindings) bool {
	switch vp.Classifier {
	case qdl.ClassConst:
		switch e.(type) {
		case *cminor.IntLit, *cminor.StrLit, *cminor.NullLit:
		default:
			return false
		}
	case qdl.ClassLValue:
		lve, ok := e.(*cminor.LVExpr)
		if !ok {
			return false
		}
		if !en.matchTypePat(vp.Type, en.info.LVTypeOf(lve.LV), b) {
			return false
		}
		b.setExpr(vp.Name, e)
		return true
	case qdl.ClassVar:
		lve, ok := e.(*cminor.LVExpr)
		if !ok {
			return false
		}
		if _, isVar := lve.LV.(*cminor.VarLV); !isVar {
			return false
		}
		if !en.matchTypePat(vp.Type, en.info.LVTypeOf(lve.LV), b) {
			return false
		}
		b.setExpr(vp.Name, e)
		return true
	}
	if !en.matchTypePat(vp.Type, en.info.TypeOf(e), b) {
		return false
	}
	b.setExpr(vp.Name, e)
	return true
}

// bindLValue checks classifier and type-pattern constraints for binding
// pattern variable vp to an l-value (for &L patterns), recording only the
// type variables.
func (en *engine) bindLValue(vp qdl.VarPat, lv cminor.LValue, b *bindings) bool {
	if vp.Classifier == qdl.ClassVar {
		if _, isVar := lv.(*cminor.VarLV); !isVar {
			return false
		}
	}
	if vp.Classifier == qdl.ClassConst {
		return false
	}
	return en.matchTypePat(vp.Type, en.info.LVTypeOf(lv), b)
}

var binopByPatOp = map[qdl.PatOp]cminor.BinopKind{
	"+": cminor.BAdd, "-": cminor.BSub, "*": cminor.BMul,
	"/": cminor.BDiv, "%": cminor.BMod,
	"==": cminor.BEq, "!=": cminor.BNe,
	"<": cminor.BLt, "<=": cminor.BLe, ">": cminor.BGt, ">=": cminor.BGe,
	"&&": cminor.BAnd, "||": cminor.BOr,
}

// matchPattern matches a clause pattern against an expression, extending b.
func (en *engine) matchPattern(d *qdl.Def, cl qdl.Clause, pat qdl.Pattern, e cminor.Expr, b *bindings) bool {
	switch pat := pat.(type) {
	case qdl.PVar:
		vp, ok := declOf(d, cl, pat.Name)
		if !ok {
			return false
		}
		return en.bindExpr(vp, e, b)
	case qdl.PDeref:
		lve, ok := e.(*cminor.LVExpr)
		if !ok {
			return false
		}
		dlv, ok := lve.LV.(*cminor.DerefLV)
		if !ok {
			return false
		}
		vp, ok := declOf(d, cl, pat.Name)
		if !ok {
			return false
		}
		return en.bindExpr(vp, dlv.Addr, b)
	case qdl.PAddrOf:
		ao, ok := e.(*cminor.AddrOf)
		if !ok {
			return false
		}
		vp, ok := declOf(d, cl, pat.Name)
		if !ok {
			return false
		}
		return en.bindLValue(vp, ao.LV, b)
	case qdl.PNew:
		switch e := e.(type) {
		case *cminor.NewExpr:
			return true
		case *cminor.Cast:
			// "The cast to int* is ignored for the purposes of pattern
			// matching" (section 2.2.1).
			_, ok := e.X.(*cminor.NewExpr)
			return ok
		}
		return false
	case qdl.PNull:
		return isNullRHS(e)
	case qdl.PFresh:
		// fresh matches call results only, which are handled at the
		// instruction level (checkCallResult); no expression matches.
		return false
	case qdl.PUnop:
		un, ok := e.(*cminor.Unop)
		if !ok {
			return false
		}
		if (pat.Op == "-" && un.Op != cminor.UNeg) || (pat.Op == "!" && un.Op != cminor.UNot) {
			return false
		}
		vp, ok := declOf(d, cl, pat.Name)
		if !ok {
			return false
		}
		return en.bindExpr(vp, un.X, b)
	case qdl.PBinop:
		bin, ok := e.(*cminor.Binop)
		if !ok {
			return false
		}
		want, ok := binopByPatOp[pat.Op]
		if !ok || bin.Op != want {
			return false
		}
		lvp, ok := declOf(d, cl, pat.L)
		if !ok {
			return false
		}
		rvp, ok := declOf(d, cl, pat.R)
		if !ok {
			return false
		}
		return en.bindExpr(lvp, bin.L, b) && en.bindExpr(rvp, bin.R, b)
	}
	return false
}

func isNullRHS(e cminor.Expr) bool {
	switch e := e.(type) {
	case *cminor.NullLit:
		return true
	case *cminor.IntLit:
		return e.Value == 0
	case *cminor.Cast:
		return isNullRHS(e.X)
	}
	return false
}

// evalWhere evaluates a clause's where-predicate under bindings. subject is
// the expression the whole clause was matched against; cur is its
// in-progress qualifier set, consulted for self-referential checks (e.g.
// nonzero's "E1, where pos(E1)" where E1 is the subject itself).
func (en *engine) evalWhere(p qdl.Pred, b *bindings, subject cminor.Expr, cur map[string]bool) bool {
	switch p := p.(type) {
	case qdl.PQual:
		sub, ok := b.getExpr(p.Arg)
		if !ok {
			return false
		}
		if sub == subject {
			return cur[p.Qual]
		}
		return en.qualSet(sub)[p.Qual]
	case qdl.PCmp:
		// NULL comparisons over constants test pointer-ness of the bound
		// literal (string literals and non-zero constants are not NULL).
		if isNullTerm(p.L) || isNullTerm(p.R) {
			ln, lok := en.nullness(p.L, b)
			rn, rok := en.nullness(p.R, b)
			if !lok || !rok {
				return false
			}
			switch p.Op {
			case "==":
				return ln == rn
			case "!=":
				return ln != rn
			}
			return false
		}
		lv, lok := en.evalConstTerm(p.L, b)
		rv, rok := en.evalConstTerm(p.R, b)
		if !lok || !rok {
			return false
		}
		switch p.Op {
		case "==":
			return lv == rv
		case "!=":
			return lv != rv
		case "<":
			return lv < rv
		case "<=":
			return lv <= rv
		case ">":
			return lv > rv
		case ">=":
			return lv >= rv
		}
		return false
	case qdl.PAnd:
		return en.evalWhere(p.L, b, subject, cur) && en.evalWhere(p.R, b, subject, cur)
	case qdl.POr:
		return en.evalWhere(p.L, b, subject, cur) || en.evalWhere(p.R, b, subject, cur)
	case qdl.PNot:
		return !en.evalWhere(p.P, b, subject, cur)
	}
	return false
}

func isNullTerm(t qdl.Term) bool {
	_, ok := t.(qdl.TNull)
	return ok
}

// nullness evaluates whether a constant term denotes the NULL pointer.
func (en *engine) nullness(t qdl.Term, b *bindings) (bool, bool) {
	switch t := t.(type) {
	case qdl.TNull:
		return true, true
	case qdl.TVar:
		e, ok := b.getExpr(t.Name)
		if !ok {
			return false, false
		}
		switch e := e.(type) {
		case *cminor.NullLit:
			return true, true
		case *cminor.StrLit:
			return false, true
		case *cminor.IntLit:
			return e.Value == 0, true
		}
		return false, false
	}
	return false, false
}

// evalConstTerm evaluates a term over Const-classified bindings.
func (en *engine) evalConstTerm(t qdl.Term, b *bindings) (int64, bool) {
	switch t := t.(type) {
	case qdl.TInt:
		return t.Value, true
	case qdl.TVar:
		e, ok := b.getExpr(t.Name)
		if !ok {
			return 0, false
		}
		lit, ok := e.(*cminor.IntLit)
		if !ok {
			return 0, false
		}
		return lit.Value, true
	case qdl.TArith:
		l, lok := en.evalConstTerm(t.L, b)
		r, rok := en.evalConstTerm(t.R, b)
		if !lok || !rok {
			return 0, false
		}
		switch t.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case "%":
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

// qualSet computes the set of value qualifiers derivable for expression e:
// its statically declared qualifiers closed under the case rules of every
// value qualifier, iterated to fixpoint (definitions may be mutually
// recursive, section 2.1.1). Results are memoized per AST node.
func (en *engine) qualSet(e cminor.Expr) map[string]bool {
	if s, ok := en.memo[e]; ok {
		en.stats.MemoHits++
		return s
	}
	en.stats.MemoMisses++
	set := en.staticQuals(e)
	en.memo[e] = set // registered before iterating so cycles see the growing set
	// Logical memory model (section 3.3): p+i has p's type, qualifiers
	// included, so array indexing does not produce spurious errors.
	if b, ok := e.(*cminor.Binop); ok && (b.Op == cminor.BAdd || b.Op == cminor.BSub) {
		var ptr cminor.Expr
		if cminor.IsPointer(en.info.TypeOf(b.L)) {
			ptr = b.L
		} else if b.Op == cminor.BAdd && cminor.IsPointer(en.info.TypeOf(b.R)) {
			ptr = b.R
		}
		if ptr != nil {
			for q := range en.qualSet(ptr) {
				set[q] = true
			}
		}
	}
	for round := 0; ; round++ {
		changed := false
		for i, d := range en.valueDefs {
			if set[d.Name] {
				continue
			}
			// A definition whose where-clauses never consult qualifier sets
			// matches deterministically: its round-0 failure cannot turn into
			// a success, so later rounds skip it.
			if round > 0 && !en.defCurDep[i] {
				continue
			}
			if en.matchesAnyCase(d, e, set) {
				set[d.Name] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return set
}

// prepareDerive precomputes the case-bearing value-qualifier definitions and,
// for each, whether any case's where-clause consults qualifier sets (directly
// on the subject or via another expression's derivation). Pattern and type
// matching depend only on the fixed AST, so a definition without such a
// clause is evaluated once per expression instead of once per fixpoint round.
func (en *engine) prepareDerive() {
	defs := en.reg.Defs()
	en.valueDefs = make([]*qdl.Def, 0, len(defs))
	en.defCurDep = make([]bool, 0, len(defs))
	for _, d := range defs {
		if d.Kind != qdl.ValueQualifier || len(d.Cases) == 0 {
			continue
		}
		dep := false
		for _, cl := range d.Cases {
			if cl.Where != nil && predConsultsQuals(cl.Where) {
				dep = true
				break
			}
		}
		en.valueDefs = append(en.valueDefs, d)
		en.defCurDep = append(en.defCurDep, dep)
	}
}

// predConsultsQuals reports whether p contains a qualifier check.
func predConsultsQuals(p qdl.Pred) bool {
	switch p := p.(type) {
	case qdl.PQual:
		return true
	case qdl.PAnd:
		return predConsultsQuals(p.L) || predConsultsQuals(p.R)
	case qdl.POr:
		return predConsultsQuals(p.L) || predConsultsQuals(p.R)
	case qdl.PImp:
		return predConsultsQuals(p.L) || predConsultsQuals(p.R)
	case qdl.PNot:
		return predConsultsQuals(p.P)
	case qdl.PForall:
		return predConsultsQuals(p.Body)
	}
	return false
}

// matchesAnyCase reports whether any case clause of d gives e the qualifier.
func (en *engine) matchesAnyCase(d *qdl.Def, e cminor.Expr, cur map[string]bool) bool {
	// The subject's type pattern must match e's type. It is the same check
	// for every case, so one probe serves them all: a failed probe rejects
	// the whole definition, and each case starts from a copy of it.
	var probe bindings
	if !en.matchTypePat(d.Subject.Type, en.info.TypeOf(e), &probe) {
		return false
	}
	for _, cl := range d.Cases {
		b := probe
		if !en.matchPattern(d, cl, cl.Pat, e, &b) {
			continue
		}
		if cl.Where != nil && !en.evalWhere(cl.Where, &b, e, cur) {
			continue
		}
		return true
	}
	return false
}

// staticQuals returns the value qualifiers e carries by declaration: the
// r-type of an l-value keeps its value qualifiers (reference qualifiers are
// stripped, section 2.2.1), and a cast asserts its target's qualifiers.
func (en *engine) staticQuals(e cminor.Expr) map[string]bool {
	set := map[string]bool{}
	var from cminor.Type
	switch e := e.(type) {
	case *cminor.LVExpr:
		from = en.info.LVTypeOf(e.LV)
		// Flow-sensitivity (section 8 extension): the current branch's
		// condition may have refined this variable.
		if en.flow {
			if v, ok := e.LV.(*cminor.VarLV); ok {
				for q := range en.env[v.Name] {
					set[q] = true
				}
			}
		}
	case *cminor.Cast:
		from = e.Type
	default:
		return set
	}
	for _, q := range cminor.QualsOf(from) {
		if d := en.reg.Lookup(q); d != nil && d.Kind == qdl.ValueQualifier {
			set[q] = true
		}
	}
	return set
}

// valueQualsOf filters a type's top-level qualifiers to value qualifiers.
func (en *engine) valueQualsOf(t cminor.Type) []string {
	var out []string
	for _, q := range cminor.QualsOf(t) {
		if d := en.reg.Lookup(q); d != nil && d.Kind == qdl.ValueQualifier {
			out = append(out, q)
		}
	}
	return out
}

// refQualsOf filters a type's top-level qualifiers to reference qualifiers.
func (en *engine) refQualsOf(t cminor.Type) []string {
	var out []string
	for _, q := range cminor.QualsOf(t) {
		if d := en.reg.Lookup(q); d != nil && d.Kind == qdl.RefQualifier {
			out = append(out, q)
		}
	}
	return out
}
