package simplify

import (
	"sort"

	"repro/internal/logic"
)

// This file implements trigger-based instantiation (e-matching) of
// quantified clauses against the prover's ground term bank. The bank is
// deduplicated by TermID and indexed by head symbol, so matching a pattern
// headed by f scans only the f-terms instead of the whole bank. The bank
// persists across instantiation rounds; prove2 catches it up on newly added
// clauses only.

// predTermFn is the function-symbol prefix used to encode predicate atoms
// as terms, so that predicate applications can serve as triggers, match
// against the bank, and join congruence classes in the e-graph.
const predTermFn = "@pred$"

// predAsTerm encodes a predicate atom as a term.
func predAsTerm(p logic.Pred) logic.Term {
	return logic.App{Fn: predTermFn + p.Name, Args: p.Args}
}

type bank2 struct {
	tt *logic.TermTable
	// byHead indexes application terms by function symbol, in insertion
	// order, so substitutions come out in a deterministic order (only
	// same-head terms can match an application pattern).
	byHead map[string][]logic.TermID
	// seen is indexed by TermID (grown on demand).
	seen []bool
}

func newBank2(tt *logic.TermTable) *bank2 {
	return &bank2{tt: tt, byHead: make(map[string][]logic.TermID, 64)}
}

func (b *bank2) has(t logic.TermID) bool {
	return int(t) < len(b.seen) && b.seen[t]
}

// add inserts t and all its subterms.
func (b *bank2) add(t logic.TermID) {
	if b.has(t) {
		return
	}
	for int(t) >= len(b.seen) {
		b.seen = append(b.seen, false)
	}
	b.seen[t] = true
	if b.tt.Kind(t) == logic.KindApp {
		fn := b.tt.Fn(t)
		b.byHead[fn] = append(b.byHead[fn], t)
		for _, a := range b.tt.Args(t) {
			b.add(a)
		}
	}
}

// addLit inserts the terms of one interned clause literal.
func (b *bank2) addLit(l ilit, at *atomTable) {
	k := at.keys[l.atom()]
	b.add(k.l)
	if k.op != predOp {
		b.add(k.r)
	}
}

// matchTermID matches pattern against interned ground term t, extending sub.
// Bound-variable consistency is an integer compare.
func matchTermID(pattern logic.Term, t logic.TermID, sub map[string]logic.TermID, tt *logic.TermTable) (map[string]logic.TermID, bool) {
	switch p := pattern.(type) {
	case logic.Var:
		if bound, ok := sub[p.Name]; ok {
			if bound == t {
				return sub, true
			}
			return nil, false
		}
		ext := make(map[string]logic.TermID, len(sub)+1)
		for k, v := range sub {
			ext[k] = v
		}
		ext[p.Name] = t
		return ext, true
	case logic.IntLit:
		if v, ok := tt.IsInt(t); ok && v == p.Value {
			return sub, true
		}
		return nil, false
	case logic.App:
		if tt.Kind(t) != logic.KindApp || tt.Fn(t) != p.Fn {
			return nil, false
		}
		args := tt.Args(t)
		if len(args) != len(p.Args) {
			return nil, false
		}
		cur := sub
		for i := range p.Args {
			next, ok := matchTermID(p.Args[i], args[i], cur, tt)
			if !ok {
				return nil, false
			}
			cur = next
		}
		return cur, true
	}
	return nil, false
}

// matchPattern2 returns all substitutions matching one pattern against the
// bank. Application patterns probe only the pattern head's index bucket.
func matchPattern2(pattern logic.Term, bank *bank2, base map[string]logic.TermID, tk *ticker) []map[string]logic.TermID {
	var out []map[string]logic.TermID
	if app, ok := pattern.(logic.App); ok {
		for _, t := range bank.byHead[app.Fn] {
			if tk.stop() {
				return out
			}
			if sub, ok := matchTermID(pattern, t, base, bank.tt); ok {
				out = append(out, sub)
			}
		}
		return out
	}
	// Non-application patterns (bare variables, integer literals) never
	// occur in inferred triggers; scan the whole bank for completeness.
	for t := logic.TermID(0); int(t) < len(bank.seen); t++ {
		if !bank.seen[t] {
			continue
		}
		if tk.stop() {
			return out
		}
		if sub, ok := matchTermID(pattern, t, base, bank.tt); ok {
			out = append(out, sub)
		}
	}
	return out
}

// matchTrigger2 matches a multi-pattern trigger against the bank, all
// patterns sharing variable bindings.
func matchTrigger2(trigger []logic.Term, bank *bank2, tk *ticker) []map[string]logic.TermID {
	subs := []map[string]logic.TermID{{}}
	for _, pat := range trigger {
		var next []map[string]logic.TermID
		for _, base := range subs {
			if tk.stop() {
				return next
			}
			next = append(next, matchPattern2(pat, bank, base, tk)...)
		}
		subs = next
		if len(subs) == 0 {
			return nil
		}
	}
	return subs
}

// inferTriggers selects trigger patterns for a quantified clause that has no
// explicit ones: the smallest non-arithmetic application subterms of the
// clause's literals that cover all clause variables, preferring a single
// covering term, falling back to a greedy multi-pattern.
func inferTriggers(c logic.Clause) [][]logic.Term {
	vars := map[string]bool{}
	for _, v := range c.Vars() {
		vars[v] = true
	}
	if len(vars) == 0 {
		return nil
	}
	var candidates []logic.Term
	var collect func(t logic.Term)
	collect = func(t logic.Term) {
		app, ok := t.(logic.App)
		if !ok {
			return
		}
		if !isArithFn(app.Fn) && len(app.Args) > 0 && !logic.TermIsGround(t) {
			candidates = append(candidates, t)
		}
		for _, a := range app.Args {
			collect(a)
		}
	}
	for _, l := range c.Lits {
		if l.IsCmp {
			collect(l.Cmp.L)
			collect(l.Cmp.R)
		} else {
			collect(predAsTerm(l.Pred))
		}
	}
	// Dedup, smallest first.
	seen := map[string]bool{}
	uniq := candidates[:0]
	for _, t := range candidates {
		k := t.String()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, t)
		}
	}
	sort.SliceStable(uniq, func(i, j int) bool {
		return logic.TermSize(uniq[i]) < logic.TermSize(uniq[j])
	})
	covered := func(t logic.Term) map[string]bool {
		out := map[string]bool{}
		for _, v := range logic.TermVars(t) {
			if vars[v] {
				out[v] = true
			}
		}
		return out
	}
	// Single covering term?
	for _, t := range uniq {
		if len(covered(t)) == len(vars) {
			return [][]logic.Term{{t}}
		}
	}
	// Greedy multi-pattern.
	var multi []logic.Term
	remaining := map[string]bool{}
	for v := range vars {
		remaining[v] = true
	}
	for len(remaining) > 0 {
		best := -1
		bestGain := 0
		for i, t := range uniq {
			gain := 0
			for v := range covered(t) {
				if remaining[v] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain = gain
				best = i
			}
		}
		if best < 0 {
			// Some variable occurs in no candidate subterm; cannot build a
			// trigger, so the clause will never instantiate.
			return nil
		}
		multi = append(multi, uniq[best])
		for v := range covered(uniq[best]) {
			delete(remaining, v)
		}
	}
	return [][]logic.Term{multi}
}

func isArithFn(fn string) bool {
	switch fn {
	case "+", "-", "*", "~":
		return true
	}
	return false
}
