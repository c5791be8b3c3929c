// Package checker implements the paper's extensible typechecker (section 3):
// qualifier checking of cminor programs directed by user-defined type rules.
// It consumes the base type information from cminor.TypeCheck and the
// qualifier registry from qdl, enforces case/restrict/assign/disallow rules,
// applies the implicit subtyping of value qualifiers (tau q <= tau), strips
// reference qualifiers from r-types, and counts the value-qualified casts,
// which the interpreter checks at run time.
//
// This file is qualifier derivation. Each registry is compiled once into
// tables (tablesFor): every case, restrict and assign clause has its
// pattern variables resolved to binding slots, its operator to a cminor
// kind and each qualifier check to the checked qualifier's bit, and the
// case clauses are grouped by the pattern head they can match. A set of value
// qualifiers is one machine word (qset), and the derivation memo is a slice
// indexed by node number over the function being walked (memo).
package checker

import (
	"repro/internal/cminor"
	"repro/internal/qdl"
)

// qset is a set of value qualifiers: bit i stands for the value qualifier
// with registry index i (qdl.Registry.ValueIndex). qdl.Registry.Add caps a
// registry at qdl.MaxValueQualifiers, so one word holds any set.
type qset uint64

// has reports whether s and t share a qualifier; with a one-bit t it is a
// membership test.
func (s qset) has(t qset) bool { return s&t != 0 }

// bindings is the result of matching a clause pattern: expressions bound to
// the clause's pattern-variable slots and types bound to its type-variable
// slots (nil when unbound). The pattern grammar
// P ::= X | *X | &X | new | NULL | uop X | X bop X names at most two
// variables, and a clause has at most three type variables: the subject's and
// one for each declared operand. compileClause numbers the slots, so matching
// compares no names. A bindings holds no pointer into itself, which keeps
// every local on the stack and makes a value copy independent of its source.
type bindings struct {
	exprs [2]cminor.Expr
	types [3]cminor.Type
}

// head classifies an expression by what a pattern can see at its root: the
// operator of a binary or unary operation, or the node kind.
type head uint8

const (
	hBinop   head = iota                          // hBinop + BinopKind: E1 op E2
	hUnop         = hBinop + head(cminor.BOr) + 1 // hUnop + UnopKind: -E, !E
	hDeref        = hUnop + 2                     // *E as an r-value
	hVar          = hDeref + 1
	hField        = hVar + 1
	hAddrOf       = hField + 1
	hNew          = hAddrOf + 1
	hCast         = hNew + 1
	hInt          = hCast + 1
	hStr          = hInt + 1
	hNull         = hStr + 1
	hOther        = hNull + 1 // sizeof, and any node no pattern names
	numHeads      = hOther + 1
)

// headMask is a set of heads.
type headMask uint32

const allHeads = headMask(1)<<numHeads - 1

func (m headMask) has(h head) bool { return m&(1<<h) != 0 }

func headsOf(hs ...head) headMask {
	var m headMask
	for _, h := range hs {
		m |= 1 << h
	}
	return m
}

// headOf returns e's head.
func headOf(e cminor.Expr) head {
	switch e := e.(type) {
	case *cminor.Binop:
		if e.Op >= cminor.BAdd && e.Op <= cminor.BOr {
			return hBinop + head(e.Op)
		}
	case *cminor.Unop:
		if e.Op == cminor.UNeg || e.Op == cminor.UNot {
			return hUnop + head(e.Op)
		}
	case *cminor.LVExpr:
		switch e.LV.(type) {
		case *cminor.DerefLV:
			return hDeref
		case *cminor.VarLV:
			return hVar
		case *cminor.FieldLV:
			return hField
		}
	case *cminor.AddrOf:
		return hAddrOf
	case *cminor.NewExpr:
		return hNew
	case *cminor.Cast:
		return hCast
	case *cminor.IntLit:
		return hInt
	case *cminor.StrLit:
		return hStr
	case *cminor.NullLit:
		return hNull
	}
	return hOther
}

// tables is a registry compiled for checking. It is immutable once built and
// shared by every engine checking against the registry.
type tables struct {
	reg *qdl.Registry
	// qualNames is reg.Names(), the qualifier names Parse recognizes.
	qualNames map[string]bool
	// byHead[h] lists, in registration order, each case-bearing value
	// qualifier that has a case whose pattern can match head h, with just
	// those cases in declaration order. A case an expression's head rules
	// out would fail to match it, so derivation tries only e's group.
	byHead [numHeads][]headDefs
	// rExpr[h] lists the restrict clauses (other than *E ones) whose pattern
	// can match head h, and rDeref the *E restrict clauses, each in
	// registration then declaration order.
	rExpr  [numHeads][]*clause
	rDeref []*clause
	// assigns holds each reference qualifier's compiled assign clauses.
	assigns map[*qdl.Def]*assignDef
	// shapes lists the value qualifiers whose invariant is a comparison of
	// the value with a constant, for flow refinement.
	shapes []invShape
}

// headDefs is one value qualifier's cases for one head.
type headDefs struct {
	bit   qset
	subj  typePat // the qualifier's subject type pattern
	cases []*clause
	// quals is set when a where-clause of these cases consults qualifier
	// sets; without one, a case that fails in the first fixpoint round fails
	// in every later one, so later rounds skip the qualifier.
	quals bool
}

// assignDef is a reference qualifier's assign clauses.
type assignDef struct {
	subj  typePat // the qualifier's subject type pattern
	cases []*clause
}

// invShape is a value qualifier whose invariant is "value(E) OP k".
type invShape struct {
	bit   qset
	shape cmpShape
}

// tablesKey is the registry memo key of its compiled tables.
type tablesKey struct{}

// tablesFor returns reg's compiled tables, compiling them on first use: one
// registry checks any number of files against the same tables.
func tablesFor(reg *qdl.Registry) *tables {
	return reg.Memo(tablesKey{}, func() any { return compileTables(reg) }).(*tables)
}

// compileTables compiles reg's clauses and invariants for checking.
func compileTables(reg *qdl.Registry) *tables {
	tab := &tables{reg: reg, qualNames: reg.Names(), assigns: map[*qdl.Def]*assignDef{}}
	for _, d := range reg.Defs() {
		var groups [numHeads]headDefs
		for _, cl := range d.Cases {
			c := compileClause(reg, d, cl)
			for h := head(0); h < numHeads; h++ {
				if c.heads.has(h) {
					groups[h].cases = append(groups[h].cases, c)
					groups[h].quals = groups[h].quals || c.quals
				}
			}
		}
		if d.Kind == qdl.ValueQualifier {
			bit := tab.bit(d.Name)
			subj := compileTypePat(d.Subject.Type, subjectTypeVars(d))
			for h := range groups {
				if g := groups[h]; len(g.cases) > 0 {
					g.bit, g.subj = bit, subj
					tab.byHead[h] = append(tab.byHead[h], g)
				}
			}
			if d.Invariant != nil {
				if shape, ok := invariantShape(d); ok {
					tab.shapes = append(tab.shapes, invShape{bit, shape})
				}
			}
		}
		for _, cl := range d.Restricts {
			c := compileClause(reg, d, cl)
			if _, ok := cl.Pat.(qdl.PDeref); ok {
				tab.rDeref = append(tab.rDeref, c)
				continue
			}
			for h := head(0); h < numHeads; h++ {
				if c.heads.has(h) {
					tab.rExpr[h] = append(tab.rExpr[h], c)
				}
			}
		}
		if len(d.Assigns) > 0 {
			ad := &assignDef{subj: compileTypePat(d.Subject.Type, subjectTypeVars(d))}
			for _, cl := range d.Assigns {
				ad.cases = append(ad.cases, compileClause(reg, d, cl))
			}
			tab.assigns[d] = ad
		}
	}
	return tab
}

// bit returns the one-qualifier set of the named value qualifier; it is
// empty for a reference qualifier or an unknown name.
func (tab *tables) bit(name string) qset {
	if i, ok := tab.reg.ValueIndex(name); ok {
		return 1 << uint(i)
	}
	return 0
}

// valueSet returns t's top-level value qualifiers.
func (tab *tables) valueSet(t cminor.Type) qset {
	var s qset
	for _, q := range cminor.QualsOf(t) {
		s |= tab.bit(q)
	}
	return s
}

// names returns the names of the value qualifiers in s, in index order.
func (tab *tables) names(s qset) []string {
	var out []string
	for i, d := range tab.reg.ValueDefs() {
		if s.has(1 << uint(i)) {
			out = append(out, d.Name)
		}
	}
	return out
}

// typePat is a compiled qdl.TypePat: the type variable is a slot of the
// clause's bindings (-1 when base is set).
type typePat struct {
	tvar int
	base cminor.Type
	ptr  int
}

func compileTypePat(tp qdl.TypePat, tvars *[]string) typePat {
	if tp.Var == "" {
		return typePat{tvar: -1, base: tp.Base, ptr: tp.Ptr}
	}
	return typePat{tvar: slotOf(tvars, tp.Var), ptr: tp.Ptr}
}

// subjectTypeVars starts a clause's type-variable slots: the subject's type
// variable, when it has one, takes slot 0.
func subjectTypeVars(d *qdl.Def) *[]string {
	var tvars []string
	if d.Subject.Type.Var != "" {
		tvars = append(tvars, d.Subject.Type.Var)
	}
	return &tvars
}

// slotOf returns name's slot in names, adding it when new.
func slotOf(names *[]string, name string) int {
	for i, n := range *names {
		if n == name {
			return i
		}
	}
	*names = append(*names, name)
	return len(*names) - 1
}

// patKind is the shape of a compiled pattern.
type patKind uint8

const (
	patNone patKind = iota // matches nothing (fresh, or an unresolvable variable)
	patBind                // X
	patDeref
	patAddrOf
	patNew
	patNull
	patUnop
	patBinop
)

// clause is a case, restrict or assign clause compiled against its
// definition.
type clause struct {
	def   *qdl.Def
	src   qdl.Clause // as written, for diagnostics
	kind  patKind
	heads headMask // the heads the pattern can match
	unop  cminor.UnopKind
	binop cminor.BinopKind
	// x and y are the pattern's variables: x for every form that has one, y
	// for the right operand of X bop Y.
	x, y  patVar
	where *pred // nil when absent
	quals bool  // where consults qualifier sets
}

// patVar is a pattern variable resolved to its declaration.
type patVar struct {
	slot  int
	class qdl.Classifier
	typ   typePat
}

var unopByPatOp = map[qdl.PatOp]cminor.UnopKind{"-": cminor.UNeg, "!": cminor.UNot}

var binopByPatOp = map[qdl.PatOp]cminor.BinopKind{
	"+": cminor.BAdd, "-": cminor.BSub, "*": cminor.BMul,
	"/": cminor.BDiv, "%": cminor.BMod,
	"==": cminor.BEq, "!=": cminor.BNe,
	"<": cminor.BLt, "<=": cminor.BLe, ">": cminor.BGt, ">=": cminor.BGe,
	"&&": cminor.BAnd, "||": cminor.BOr,
}

// compileClause resolves cl's pattern variables (clause declarations first,
// then d's subject), numbers their binding slots, and compiles its
// where-predicate.
func compileClause(reg *qdl.Registry, d *qdl.Def, cl qdl.Clause) *clause {
	c := &clause{def: d, src: cl}
	tvars := subjectTypeVars(d)
	var evars []string
	resolve := func(name string, v *patVar) bool {
		vp, ok := declOf(d, cl, name)
		if !ok {
			return false
		}
		*v = patVar{slot: slotOf(&evars, name), class: vp.Classifier, typ: compileTypePat(vp.Type, tvars)}
		return true
	}
	switch pat := cl.Pat.(type) {
	case qdl.PVar:
		if resolve(pat.Name, &c.x) {
			c.kind = patBind
			switch c.x.class {
			case qdl.ClassConst:
				c.heads = headsOf(hInt, hStr, hNull)
			case qdl.ClassLValue:
				c.heads = headsOf(hDeref, hVar, hField)
			case qdl.ClassVar:
				c.heads = headsOf(hVar)
			default:
				c.heads = allHeads
			}
		}
	case qdl.PDeref:
		if resolve(pat.Name, &c.x) {
			c.kind, c.heads = patDeref, headsOf(hDeref)
		}
	case qdl.PAddrOf:
		if resolve(pat.Name, &c.x) {
			c.kind, c.heads = patAddrOf, headsOf(hAddrOf)
		}
	case qdl.PNew:
		c.kind, c.heads = patNew, headsOf(hNew, hCast)
	case qdl.PNull:
		c.kind, c.heads = patNull, headsOf(hNull, hInt, hCast)
	case qdl.PUnop:
		op, ok := unopByPatOp[pat.Op]
		if ok && resolve(pat.Name, &c.x) {
			c.kind, c.unop, c.heads = patUnop, op, headsOf(hUnop+head(op))
		}
	case qdl.PBinop:
		op, ok := binopByPatOp[pat.Op]
		if ok && resolve(pat.L, &c.x) && resolve(pat.R, &c.y) {
			c.kind, c.binop, c.heads = patBinop, op, headsOf(hBinop+head(op))
		}
	}
	if cl.Where != nil {
		c.where = compilePred(reg, cl.Where, evars)
		c.quals = predConsultsQuals(cl.Where)
	}
	return c
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

// predOp is the operator of a compiled where-predicate.
type predOp uint8

const (
	predFalse   predOp = iota // a form where-clauses may not use
	predQual                  // q(X)
	predCmp                   // comparison of constant terms
	predNullCmp               // comparison with NULL
	predAnd
	predOr
	predNot
)

// pred is a compiled where-predicate. Variables are binding slots, -1 for a
// declared variable the pattern does not bind (which satisfies nothing).
type pred struct {
	op   predOp
	bit  qset // predQual: the checked qualifier (empty when unknown)
	slot int  // predQual: the checked variable
	cmp  cminor.BinopKind
	ok   bool // predCmp, predNullCmp: cmp is a comparison operator
	l, r *term
	p, q *pred // predAnd, predOr; predNot uses p
}

// termOp is the form of a compiled where-clause term.
type termOp uint8

const (
	termOther termOp = iota // an invariant-only term: never constant
	termInt
	termVar
	termNull
	termArith
)

type term struct {
	op    termOp
	val   int64 // termInt
	slot  int   // termVar
	arith qdl.PatOp
	l, r  *term // termArith
}

var cmpByOp = map[string]cminor.BinopKind{
	"==": cminor.BEq, "!=": cminor.BNe,
	"<": cminor.BLt, "<=": cminor.BLe, ">": cminor.BGt, ">=": cminor.BGe,
}

func compilePred(reg *qdl.Registry, p qdl.Pred, evars []string) *pred {
	switch p := p.(type) {
	case qdl.PQual:
		out := &pred{op: predQual, slot: slotIn(evars, p.Arg)}
		if i, ok := reg.ValueIndex(p.Qual); ok {
			out.bit = 1 << uint(i)
		}
		return out
	case qdl.PCmp:
		op, ok := cmpByOp[string(p.Op)]
		out := &pred{op: predCmp, cmp: op, ok: ok, l: compileTerm(p.L, evars), r: compileTerm(p.R, evars)}
		if isNullTerm(p.L) || isNullTerm(p.R) {
			// NULL comparisons over constants test pointer-ness of the bound
			// literal (string literals and non-zero constants are not NULL).
			out.op = predNullCmp
			out.ok = ok && (op == cminor.BEq || op == cminor.BNe)
		}
		return out
	case qdl.PAnd:
		return &pred{op: predAnd, p: compilePred(reg, p.L, evars), q: compilePred(reg, p.R, evars)}
	case qdl.POr:
		return &pred{op: predOr, p: compilePred(reg, p.L, evars), q: compilePred(reg, p.R, evars)}
	case qdl.PNot:
		return &pred{op: predNot, p: compilePred(reg, p.P, evars)}
	}
	return &pred{op: predFalse}
}

func compileTerm(t qdl.Term, evars []string) *term {
	switch t := t.(type) {
	case qdl.TInt:
		return &term{op: termInt, val: t.Value}
	case qdl.TVar:
		return &term{op: termVar, slot: slotIn(evars, t.Name)}
	case qdl.TNull:
		return &term{op: termNull}
	case qdl.TArith:
		return &term{op: termArith, arith: t.Op, l: compileTerm(t.L, evars), r: compileTerm(t.R, evars)}
	}
	return &term{op: termOther}
}

// slotIn returns name's slot among the pattern-bound variables, or -1.
func slotIn(evars []string, name string) int {
	for i, n := range evars {
		if n == name {
			return i
		}
	}
	return -1
}

func isNullTerm(t qdl.Term) bool {
	_, ok := t.(qdl.TNull)
	return ok
}

// matchType unifies a compiled type pattern with a cminor type, binding its
// type variable. Qualifiers are stripped at every level for matching.
func matchType(tp *typePat, t cminor.Type, b *bindings) bool {
	return matchStripped(tp, cminor.Decay(cminor.StripQuals(t)), b)
}

// matchStripped is matchType on a type already stripped of its top-level
// qualifiers and decayed.
func matchStripped(tp *typePat, cur cminor.Type, b *bindings) bool {
	for i := 0; i < tp.ptr; i++ {
		pt, ok := cur.(cminor.PointerType)
		if !ok {
			return false
		}
		cur = cminor.Decay(cminor.StripQuals(pt.Elem))
	}
	if tp.tvar < 0 {
		return cminor.BaseTypeEqual(tp.base, cur)
	}
	if prev := b.types[tp.tvar]; prev != nil {
		return cminor.BaseTypeEqual(prev, cur)
	}
	b.types[tp.tvar] = cur
	return true
}

// bindExpr checks classifier and type-pattern constraints for binding
// pattern variable v to expression e, recording the binding. et is e's
// recorded type when the caller has it, nil otherwise.
func (en *engine) bindExpr(v *patVar, e cminor.Expr, et cminor.Type, b *bindings) bool {
	switch v.class {
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
		et = en.info.LVTypeOf(lve.LV)
	case qdl.ClassVar:
		lve, ok := e.(*cminor.LVExpr)
		if !ok {
			return false
		}
		if _, isVar := lve.LV.(*cminor.VarLV); !isVar {
			return false
		}
		et = en.info.LVTypeOf(lve.LV)
	}
	if et == nil {
		et = en.info.TypeOf(e)
	}
	if !matchType(&v.typ, et, b) {
		return false
	}
	b.exprs[v.slot] = e
	return true
}

// bindLValue checks classifier and type-pattern constraints for binding
// pattern variable v to an l-value (for &L patterns), recording only the
// type variables.
func (en *engine) bindLValue(v *patVar, lv cminor.LValue, b *bindings) bool {
	if v.class == qdl.ClassVar {
		if _, isVar := lv.(*cminor.VarLV); !isVar {
			return false
		}
	}
	if v.class == qdl.ClassConst {
		return false
	}
	return matchType(&v.typ, en.info.LVTypeOf(lv), b)
}

// matchClause matches c's pattern against e, whose recorded type is et (nil
// when the caller does not have it), extending b.
func (en *engine) matchClause(c *clause, e cminor.Expr, et cminor.Type, b *bindings) bool {
	switch c.kind {
	case patBind:
		return en.bindExpr(&c.x, e, et, b)
	case patDeref:
		lve, ok := e.(*cminor.LVExpr)
		if !ok {
			return false
		}
		dlv, ok := lve.LV.(*cminor.DerefLV)
		if !ok {
			return false
		}
		return en.bindExpr(&c.x, dlv.Addr, nil, b)
	case patAddrOf:
		ao, ok := e.(*cminor.AddrOf)
		if !ok {
			return false
		}
		return en.bindLValue(&c.x, ao.LV, b)
	case patNew:
		switch e := e.(type) {
		case *cminor.NewExpr:
			return true
		case *cminor.Cast:
			// "The cast to int* is ignored for the purposes of pattern
			// matching" (section 2.2.1).
			_, ok := e.X.(*cminor.NewExpr)
			return ok
		}
	case patNull:
		return isNullRHS(e)
	case patUnop:
		un, ok := e.(*cminor.Unop)
		if !ok || un.Op != c.unop {
			return false
		}
		return en.bindExpr(&c.x, un.X, nil, b)
	case patBinop:
		bin, ok := e.(*cminor.Binop)
		if !ok || bin.Op != c.binop {
			return false
		}
		return en.bindExpr(&c.x, bin.L, nil, b) && en.bindExpr(&c.y, bin.R, nil, b)
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

// evalWhere evaluates a compiled where-predicate under bindings. subject is
// the expression the whole clause was matched against; cur is its
// in-progress qualifier set, consulted for self-referential checks (e.g.
// nonzero's "E1, where pos(E1)" where E1 is the subject itself).
func (en *engine) evalWhere(p *pred, b *bindings, subject cminor.Expr, cur qset) bool {
	switch p.op {
	case predQual:
		if p.slot < 0 {
			return false
		}
		sub := b.exprs[p.slot]
		if sub == nil {
			return false
		}
		if sub == subject {
			return cur.has(p.bit)
		}
		return en.qualSet(sub).has(p.bit)
	case predNullCmp:
		ln, lok := nullness(p.l, b)
		rn, rok := nullness(p.r, b)
		if !lok || !rok || !p.ok {
			return false
		}
		if p.cmp == cminor.BEq {
			return ln == rn
		}
		return ln != rn
	case predCmp:
		lv, lok := evalConstTerm(p.l, b)
		rv, rok := evalConstTerm(p.r, b)
		if !lok || !rok || !p.ok {
			return false
		}
		return cmpHolds(p.cmp, lv, rv)
	case predAnd:
		return en.evalWhere(p.p, b, subject, cur) && en.evalWhere(p.q, b, subject, cur)
	case predOr:
		return en.evalWhere(p.p, b, subject, cur) || en.evalWhere(p.q, b, subject, cur)
	case predNot:
		return !en.evalWhere(p.p, b, subject, cur)
	}
	return false
}

// boundExpr returns the expression bound to a term's variable, or nil.
func boundExpr(t *term, b *bindings) cminor.Expr {
	if t.slot < 0 {
		return nil
	}
	return b.exprs[t.slot]
}

// nullness evaluates whether a constant term denotes the NULL pointer.
func nullness(t *term, b *bindings) (bool, bool) {
	switch t.op {
	case termNull:
		return true, true
	case termVar:
		switch e := boundExpr(t, b).(type) {
		case *cminor.NullLit:
			return true, true
		case *cminor.StrLit:
			return false, true
		case *cminor.IntLit:
			return e.Value == 0, true
		}
	}
	return false, false
}

// evalConstTerm evaluates a term over Const-classified bindings.
func evalConstTerm(t *term, b *bindings) (int64, bool) {
	switch t.op {
	case termInt:
		return t.val, true
	case termVar:
		lit, ok := boundExpr(t, b).(*cminor.IntLit)
		if !ok {
			return 0, false
		}
		return lit.Value, true
	case termArith:
		l, lok := evalConstTerm(t.l, b)
		r, rok := evalConstTerm(t.r, b)
		if !lok || !rok {
			return 0, false
		}
		switch t.arith {
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

// memo is a derivation memo: the qualifier set of each expression derived so
// far. Sets of the nodes numbered in range r live in a slice indexed by node
// number, allocated on first use; any other node (an unnumbered one, or a
// global initializer derived on the file-level engine) is kept in a map.
type memo struct {
	r     cminor.NodeRange
	slots []memoSlot
	other map[cminor.Expr]*memoSlot
}

type memoSlot struct {
	set  qset
	done bool
}

// slot returns e's memo slot. Slots never move, so a caller may keep the
// pointer across derivations of other expressions.
func (m *memo) slot(e cminor.Expr) *memoSlot {
	if id := e.ID(); m.r.Contains(id) {
		if m.slots == nil {
			m.slots = make([]memoSlot, m.r.Len())
		}
		return &m.slots[id-m.r.Lo]
	}
	s := m.other[e]
	if s == nil {
		if m.other == nil {
			m.other = map[cminor.Expr]*memoSlot{}
		}
		s = &memoSlot{}
		m.other[e] = s
	}
	return s
}

// qualSet computes the set of value qualifiers derivable for expression e:
// its statically declared qualifiers closed under the case rules of every
// value qualifier, iterated to fixpoint (definitions may be mutually
// recursive, section 2.1.1). Results are memoized per AST node.
func (en *engine) qualSet(e cminor.Expr) qset {
	m := en.memo.slot(e)
	if m.done {
		en.stats.MemoHits++
		return m.set
	}
	en.stats.MemoMisses++
	// Registered before iterating, so a cycle sees the growing set.
	m.done, m.set = true, en.staticQuals(e)
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
			m.set |= en.qualSet(ptr)
		}
	}
	defs := en.tab.byHead[headOf(e)]
	if len(defs) == 0 {
		return m.set
	}
	et := en.info.TypeOf(e)
	stripped := cminor.Decay(cminor.StripQuals(et))
	for round := 0; ; round++ {
		changed := false
		for i := range defs {
			hd := &defs[i]
			if m.set.has(hd.bit) || (round > 0 && !hd.quals) {
				continue
			}
			if en.matchesAnyCase(hd, e, et, stripped, m.set) {
				m.set |= hd.bit
				changed = true
			}
		}
		if !changed {
			return m.set
		}
	}
}

// matchesAnyCase reports whether any of hd's cases gives e the qualifier.
// et is e's recorded type and stripped that type without top-level
// qualifiers, decayed; cur is e's set so far.
func (en *engine) matchesAnyCase(hd *headDefs, e cminor.Expr, et, stripped cminor.Type, cur qset) bool {
	// The subject's type pattern must match e's type. It is the same check
	// for every case, so one probe serves them all: a failed probe rejects
	// the whole definition, and each case starts from a copy of it.
	var probe bindings
	if !matchStripped(&hd.subj, stripped, &probe) {
		return false
	}
	for _, c := range hd.cases {
		b := probe
		if !en.matchClause(c, e, et, &b) {
			continue
		}
		if c.where != nil && !en.evalWhere(c.where, &b, e, cur) {
			continue
		}
		return true
	}
	return false
}

// staticQuals returns the value qualifiers e carries by declaration: the
// r-type of an l-value keeps its value qualifiers (reference qualifiers are
// stripped, section 2.2.1), and a cast asserts its target's qualifiers.
func (en *engine) staticQuals(e cminor.Expr) qset {
	switch e := e.(type) {
	case *cminor.LVExpr:
		set := en.tab.valueSet(en.info.LVTypeOf(e.LV))
		// Flow-sensitivity (section 8 extension): the current branch's
		// condition may have refined this variable.
		if en.flow && len(en.env) > 0 {
			if v, ok := e.LV.(*cminor.VarLV); ok {
				set |= en.env[v.Name]
			}
		}
		return set
	case *cminor.Cast:
		return en.tab.valueSet(e.Type)
	}
	return 0
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
