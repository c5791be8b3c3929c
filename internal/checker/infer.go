package checker

import (
	"fmt"
	"sort"

	"repro/internal/cminor"
	"repro/internal/qdl"
)

// This file implements qualifier inference, the first extension the paper's
// section 8 calls for ("support for qualifier inference to decrease the
// annotation burden"). Inference computes a greatest fixpoint: every
// variable and parameter that COULD carry a value qualifier is assumed to,
// and assumptions are retracted whenever some assignment's right-hand side
// cannot be given the qualifier under the remaining assumptions. What
// survives is a consistent annotation set, which Infer applies to the
// program's declared types.
//
// Inference is whole-program (closed world): parameters are constrained by
// the call sites present in the program. It inherits the checker's
// deliberate unsoundnesses (section 3.3), most notably that variables used
// before initialization are unconstrained; address-taken variables are
// excluded because writes through pointers are not tracked.

// InferredAnnotation is one qualifier inference result.
type InferredAnnotation struct {
	Pos   cminor.Pos
	Var   string
	Where string // "global", "local", or "parameter of <fn>"
	Qual  string
}

func (a InferredAnnotation) String() string {
	return fmt.Sprintf("%s: %s %s may be annotated %s", a.Pos, a.Where, a.Var, a.Qual)
}

// inferCandidate is a declaration site whose type may gain a qualifier.
type inferCandidate struct {
	key     string // position key, matching VarDef.Pos
	name    string
	where   string
	pos     cminor.Pos
	orig    cminor.Type // declared type before inference
	getType func() cminor.Type
	setType func(cminor.Type)
	assumed qset
}

func posKey(p cminor.Pos) string { return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col) }

// Infer computes and APPLIES the maximal consistent set of value-qualifier
// annotations for the given qualifier names, returning what was added. The
// program's declared types are mutated, and when anything was inferred every
// FuncDef.Src is cleared; re-run Check afterwards to validate (inference
// never introduces new warnings on a program that previously checked).
func Infer(prog *cminor.Program, reg *qdl.Registry, qualNames []string) ([]InferredAnnotation, error) {
	tab := tablesFor(reg)
	var defs []*qdl.Def
	for _, q := range qualNames {
		d := reg.Lookup(q)
		if d == nil {
			return nil, fmt.Errorf("checker: cannot infer unknown qualifier %s", q)
		}
		if d.Kind != qdl.ValueQualifier {
			return nil, fmt.Errorf("checker: only value qualifiers can be inferred (%s is a reference qualifier)", q)
		}
		defs = append(defs, d)
	}

	// Collect candidate declaration sites.
	var candidates []*inferCandidate
	byKey := map[string]*inferCandidate{}
	addCandidate := func(pos cminor.Pos, name, where string, get func() cminor.Type, set func(cminor.Type)) {
		c := &inferCandidate{
			key: posKey(pos), name: name, where: where, pos: pos,
			orig: get(), getType: get, setType: set,
		}
		candidates = append(candidates, c)
		byKey[c.key] = c
	}
	for _, g := range prog.Globals {
		g := g
		addCandidate(g.Pos, g.Name, "global", func() cminor.Type { return g.Type }, func(t cminor.Type) { g.Type = t })
	}
	for _, f := range prog.Funcs {
		f := f
		for i := range f.Params {
			p := &f.Params[i]
			addCandidate(p.Pos, p.Name, "parameter of "+f.Name,
				func() cminor.Type { return p.Type }, func(t cminor.Type) { p.Type = t })
		}
		if f.Body != nil {
			cminor.WalkStmt(f.Body, cminor.Visitor{Decl: func(d *cminor.VarDecl) {
				addCandidate(d.Pos, d.Name, "local", func() cminor.Type { return d.Type }, func(t cminor.Type) { d.Type = t })
			}})
		}
	}

	// Seed assumptions: the qualifier's subject type pattern must match the
	// declared type, and the site must not already carry the qualifier.
	for _, c := range candidates {
		for _, d := range defs {
			t := c.getType()
			if cminor.HasQual(t, d.Name) || !d.Subject.Type.Matches(t) {
				continue
			}
			c.assumed |= tab.bit(d.Name)
		}
	}

	// Exclude parameters of functions with no call site in the program:
	// they are entry points callable with arbitrary values, so the closed
	// world does not cover them.
	{
		called := map[string]bool{}
		cminor.Walk(prog, cminor.Visitor{Instr: func(in cminor.Instr) {
			if c, ok := in.(*cminor.CallInstr); ok {
				called[c.Fn] = true
			}
		}})
		for _, f := range prog.Funcs {
			if called[f.Name] {
				continue
			}
			for i := range f.Params {
				if c := byKey[posKey(f.Params[i].Pos)]; c != nil {
					c.assumed = 0
				}
			}
		}
	}

	// Exclude address-taken variables: writes through pointers are not
	// tracked, so assumptions about their contents would be unsound.
	{
		info, _ := cminor.TypeCheck(prog)
		cminor.Walk(prog, cminor.Visitor{Expr: func(e cminor.Expr) {
			ao, ok := e.(*cminor.AddrOf)
			if !ok {
				return
			}
			if v, isVar := ao.LV.(*cminor.VarLV); isVar {
				if def := info.VarDef(v); def != nil {
					if c := byKey[posKey(def.Pos)]; c != nil {
						c.assumed = 0
					}
				}
			}
		}})
	}

	apply := func() {
		for _, c := range candidates {
			// Rebuild from the original declared type plus the surviving
			// assumptions, so user-written annotations are never touched.
			add := tab.names(c.assumed)
			sort.Strings(add)
			c.setType(cminor.Qualify(c.orig, add...))
		}
	}

	// Greatest fixpoint: apply assumptions, re-derive, retract whatever an
	// assignment cannot justify.
	for round := 0; round < len(candidates)*len(defs)+2; round++ {
		apply()
		info, _ := cminor.TypeCheck(prog)
		en := &engine{reg: reg, tab: tab, info: info, prog: prog, memo: memo{r: cminor.NodeRange{Lo: 1, Hi: prog.Nodes + 1}}}
		changed := false
		// keep retracts every assumption of c that have lacks.
		keep := func(c *inferCandidate, have qset) {
			if kept := c.assumed & have; kept != c.assumed {
				c.assumed = kept
				changed = true
			}
		}
		retract := func(def *cminor.VarDef, have qset) {
			if def == nil {
				return
			}
			if c := byKey[posKey(def.Pos)]; c != nil {
				keep(c, have)
			}
		}
		defOfLV := func(lv cminor.LValue) *cminor.VarDef {
			v, ok := lv.(*cminor.VarLV)
			if !ok {
				return nil
			}
			return info.VarDef(v)
		}
		handleInstr := func(in cminor.Instr) {
			switch in := in.(type) {
			case *cminor.Assign:
				retract(defOfLV(in.LHS), en.qualSet(in.RHS))
			case *cminor.CallInstr:
				fn, ok := info.Funcs[in.Fn]
				if !ok {
					return
				}
				for i, a := range in.Args {
					if i >= len(fn.Params) {
						break
					}
					if c := byKey[posKey(fn.Params[i].Pos)]; c != nil && c.assumed != 0 {
						keep(c, en.qualSet(a))
					}
				}
				if in.LHS != nil {
					retract(defOfLV(in.LHS), tab.valueSet(fn.Signature().Result))
				}
			}
		}
		// Declaration initializers and instructions are the assignment
		// sinks; a declaration WITHOUT an initializer leaves its candidate
		// unconstrained (the section 3.3 use-before-init unsoundness, which
		// the paper's checker shares).
		cminor.Walk(prog, cminor.Visitor{
			Instr: handleInstr,
			Decl: func(d *cminor.VarDecl) {
				if d.Init == nil {
					return
				}
				if c := byKey[posKey(d.Pos)]; c != nil && c.assumed != 0 {
					keep(c, en.qualSet(d.Init))
				}
			},
		})
		if !changed {
			break
		}
	}
	apply()

	var out []InferredAnnotation
	for _, c := range candidates {
		qs := tab.names(c.assumed)
		sort.Strings(qs)
		for _, q := range qs {
			out = append(out, InferredAnnotation{Pos: c.pos, Var: c.name, Where: c.where, Qual: q})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Qual < out[j].Qual
	})
	if len(out) > 0 {
		// The rewritten declarations no longer match the source text Parse
		// recorded; drop it so a function cache walks these functions
		// instead of replaying results keyed by the old text.
		for _, f := range prog.Funcs {
			f.Src = ""
		}
	}
	return out, nil
}
