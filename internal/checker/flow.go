package checker

import (
	"repro/internal/cminor"
	"repro/internal/qdl"
)

// This file implements the flow-sensitivity extension the paper's section 8
// plans ("we plan to extend our typechecking algorithm to incorporate
// flow-sensitivity, borrowing ideas from CQUAL"): branch conditions refine
// the qualifiers of tested variables within the guarded branch, eliminating
// casts for idioms like grep's
//
//	if ((t = d->trans[works]) != NULL) { works = t[*p]; ... }
//
// Refinements are conservative:
//   - only variables whose address is never taken are refined;
//   - an assignment to the variable kills its refinement;
//   - any call kills refinements of globals (the callee may write them);
//   - loop conditions do not refine (the body may invalidate the test).
//
// A refinement maps a variable to extra value qualifiers whose declared
// invariant is IMPLIED by the branch condition, so soundness follows from
// the same invariants the soundness checker proved.

// refEnv maps variable names to the set of refined-in qualifiers.
type refEnv map[string]qset

func (e refEnv) clone() refEnv {
	out := make(refEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// merge adds refinements (union per variable).
func (e refEnv) merge(add refEnv) refEnv {
	if len(add) == 0 {
		return e
	}
	out := e.clone()
	for name, qs := range add {
		out[name] |= qs
	}
	return out
}

// terminates reports whether a statement never falls through (every path
// ends in return, break, or continue), enabling the early-exit refinement:
// after "if (p == NULL) return;" the negated condition holds.
func terminates(s cminor.Stmt) bool {
	switch s := s.(type) {
	case *cminor.Return, *cminor.Break, *cminor.Continue:
		return true
	case *cminor.Block:
		for _, inner := range s.Stmts {
			if terminates(inner) {
				return true // anything after it is dead
			}
		}
		return false
	case *cminor.If:
		return s.Else != nil && terminates(s.Then) && terminates(s.Else)
	}
	return false
}

// cmpShape is a one-variable comparison "x OP k" with k an integer or NULL.
type cmpShape struct {
	op     cminor.BinopKind
	isNull bool
	k      int64
}

// negateCmp returns the complementary comparison.
func negateCmp(s cmpShape) cmpShape {
	switch s.op {
	case cminor.BEq:
		s.op = cminor.BNe
	case cminor.BNe:
		s.op = cminor.BEq
	case cminor.BLt:
		s.op = cminor.BGe
	case cminor.BLe:
		s.op = cminor.BGt
	case cminor.BGt:
		s.op = cminor.BLe
	case cminor.BGe:
		s.op = cminor.BLt
	}
	return s
}

// swapCmp mirrors "k OP x" into "x OP' k".
func swapCmp(op cminor.BinopKind) cminor.BinopKind {
	switch op {
	case cminor.BLt:
		return cminor.BGt
	case cminor.BLe:
		return cminor.BGe
	case cminor.BGt:
		return cminor.BLt
	case cminor.BGe:
		return cminor.BLe
	}
	return op // ==, != are symmetric
}

func cmpHolds(op cminor.BinopKind, x, k int64) bool {
	switch op {
	case cminor.BEq:
		return x == k
	case cminor.BNe:
		return x != k
	case cminor.BLt:
		return x < k
	case cminor.BLe:
		return x <= k
	case cminor.BGt:
		return x > k
	case cminor.BGe:
		return x >= k
	}
	return false
}

// impliesCmp reports whether "x condOp ck" implies "x invOp ik" over the
// integers. Both predicates only change truth at their boundaries, so
// testing boundary witnesses (plus far points) is exact.
func impliesCmp(condOp cminor.BinopKind, ck int64, invOp cminor.BinopKind, ik int64) bool {
	witnesses := []int64{ck - 1, ck, ck + 1, ik - 1, ik, ik + 1, -1 << 40, 1 << 40}
	for _, x := range witnesses {
		if cmpHolds(condOp, x, ck) && !cmpHolds(invOp, x, ik) {
			return false
		}
	}
	return true
}

// invariantShape extracts "value(E) OP k" from a value qualifier's
// invariant; ok is false for any other shape.
func invariantShape(d *qdl.Def) (cmpShape, bool) {
	cmp, ok := d.Invariant.(qdl.PCmp)
	if !ok {
		return cmpShape{}, false
	}
	if _, ok := cmp.L.(qdl.TValue); !ok {
		return cmpShape{}, false
	}
	var op cminor.BinopKind
	switch cmp.Op {
	case "==":
		op = cminor.BEq
	case "!=":
		op = cminor.BNe
	case "<":
		op = cminor.BLt
	case "<=":
		op = cminor.BLe
	case ">":
		op = cminor.BGt
	case ">=":
		op = cminor.BGe
	default:
		return cmpShape{}, false
	}
	switch r := cmp.R.(type) {
	case qdl.TNull:
		return cmpShape{op: op, isNull: true}, true
	case qdl.TInt:
		return cmpShape{op: op, k: r.Value}, true
	}
	return cmpShape{}, false
}

// condImpliesInvariant reports whether the tested condition implies the
// qualifier's invariant.
func condImpliesInvariant(cond, inv cmpShape) bool {
	if cond.isNull != inv.isNull {
		return false
	}
	if cond.isNull {
		// Over pointers only equality forms appear: x != NULL implies
		// value != NULL; x == NULL implies nothing useful here.
		return cond.op == cminor.BNe && inv.op == cminor.BNe
	}
	return impliesCmp(cond.op, cond.k, inv.op, inv.k)
}

// refinableVar returns the variable name when lv is a refinable variable:
// its address is never taken (writes through pointers would invalidate the
// refinement invisibly).
func (en *engine) refinableVar(e cminor.Expr) (string, bool) {
	lve, ok := e.(*cminor.LVExpr)
	if !ok {
		return "", false
	}
	v, ok := lve.LV.(*cminor.VarLV)
	if !ok {
		return "", false
	}
	if en.addrTaken[v.Name] {
		return "", false
	}
	return v.Name, true
}

// refinementsFromCond extracts qualifier refinements implied by a branch
// condition (negate selects the else-branch sense).
func (en *engine) refinementsFromCond(cond cminor.Expr, negate bool) refEnv {
	out := refEnv{}
	var walk func(e cminor.Expr, neg bool)
	addShape := func(name string, shape cmpShape) {
		for _, inv := range en.tab.shapes {
			if condImpliesInvariant(shape, inv.shape) {
				out[name] |= inv.bit
			}
		}
	}
	constShape := func(e cminor.Expr) (int64, bool, bool) { // value, isNull, ok
		switch e := e.(type) {
		case *cminor.IntLit:
			return e.Value, false, true
		case *cminor.NullLit:
			return 0, true, true
		}
		return 0, false, false
	}
	walk = func(e cminor.Expr, neg bool) {
		switch e := e.(type) {
		case *cminor.Binop:
			switch e.Op {
			case cminor.BAnd:
				if !neg {
					walk(e.L, false)
					walk(e.R, false)
				}
				return
			case cminor.BOr:
				if neg { // !(a || b) == !a && !b
					walk(e.L, true)
					walk(e.R, true)
				}
				return
			case cminor.BEq, cminor.BNe, cminor.BLt, cminor.BLe, cminor.BGt, cminor.BGe:
				op := e.Op
				varSide, constSide := e.L, e.R
				if _, _, ok := constShape(e.L); ok {
					varSide, constSide = e.R, e.L
					op = swapCmp(op)
				}
				name, ok := en.refinableVar(varSide)
				if !ok {
					return
				}
				k, isNull, ok := constShape(constSide)
				if !ok {
					return
				}
				shape := cmpShape{op: op, isNull: isNull, k: k}
				// A zero literal compared against a pointer is NULL.
				if !isNull && k == 0 && cminor.IsPointer(en.info.TypeOf(varSide)) {
					shape.isNull = true
				}
				if neg {
					shape = negateCmp(shape)
				}
				addShape(name, shape)
			}
		case *cminor.Unop:
			if e.Op == cminor.UNot {
				walk(e.X, !neg)
			}
		case *cminor.LVExpr:
			// Truthiness of a pointer: if (p) means p != NULL.
			if name, ok := en.refinableVar(e); ok && cminor.IsPointer(en.info.TypeOf(e)) && !neg {
				addShape(name, cmpShape{op: cminor.BNe, isNull: true})
			}
		}
	}
	walk(cond, negate)
	return out
}

// collectKills gathers the refinement kills of a statement subtree:
// variables assigned within it, plus the "*globals*" marker when a call may
// write globals.
func collectKills(s cminor.Stmt, info *cminor.TypeInfo) map[string]bool {
	kills := map[string]bool{}
	cminor.WalkStmt(s, cminor.Visitor{Instr: func(in cminor.Instr) {
		switch in := in.(type) {
		case *cminor.Assign:
			if v, ok := in.LHS.(*cminor.VarLV); ok {
				kills[v.Name] = true
			}
		case *cminor.CallInstr:
			kills["*globals*"] = true
			if in.LHS != nil {
				if v, ok := in.LHS.(*cminor.VarLV); ok {
					kills[v.Name] = true
				}
			}
		}
	}})
	return kills
}

// applyKills removes killed refinements from env, honoring the globals
// marker.
func (en *engine) applyKills(env refEnv, kills map[string]bool) refEnv {
	if len(kills) == 0 {
		return env
	}
	out := make(refEnv, len(env))
	for name, qs := range env {
		if kills[name] {
			continue
		}
		if kills["*globals*"] && en.globalNames[name] {
			continue
		}
		out[name] = qs
	}
	return out
}
