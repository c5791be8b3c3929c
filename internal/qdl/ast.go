// Package qdl implements the qualifier definition language of the paper
// (section 2): declarations of value and reference qualifiers together with
// their type rules (case, restrict, assign, disallow, ondecl blocks) and
// their run-time invariants.
package qdl

import (
	"fmt"
	"strings"

	"repro/internal/cminor"
)

// Kind distinguishes value qualifiers (pertaining to an expression's value)
// from reference qualifiers (pertaining additionally to an l-value's
// address).
type Kind int

// Qualifier kinds.
const (
	ValueQualifier Kind = iota
	RefQualifier
)

func (k Kind) String() string {
	if k == ValueQualifier {
		return "value"
	}
	return "ref"
}

// Classifier restricts which program fragments a pattern variable may match
// (section 2.1): side-effect-free expressions, constants, l-values, or
// variables.
type Classifier int

// Classifiers.
const (
	ClassExpr Classifier = iota
	ClassConst
	ClassLValue
	ClassVar
)

var classifierNames = map[Classifier]string{
	ClassExpr: "Expr", ClassConst: "Const", ClassLValue: "LValue", ClassVar: "Var",
}

func (c Classifier) String() string { return classifierNames[c] }

// TypePat is a type pattern: a base type or a type variable, under Ptr
// levels of pointer. E.g. "int" (Base=int, Ptr=0), "T*" (Var="T", Ptr=1),
// "T**" (Var="T", Ptr=2).
type TypePat struct {
	Var  string      // type variable name, or "" when Base is set
	Base cminor.Type // nil when Var is set
	Ptr  int
}

func (tp TypePat) String() string {
	var s string
	if tp.Var != "" {
		s = tp.Var
	} else {
		s = tp.Base.String()
	}
	return s + strings.Repeat("*", tp.Ptr)
}

// Matches reports whether a (qualifier-stripped) cminor type matches the
// pattern. Type variables match anything at their pointer depth.
func (tp TypePat) Matches(t cminor.Type) bool {
	cur := cminor.Decay(cminor.StripQuals(t))
	for i := 0; i < tp.Ptr; i++ {
		pt, ok := cur.(cminor.PointerType)
		if !ok {
			return false
		}
		cur = cminor.Decay(cminor.StripQuals(pt.Elem))
	}
	if tp.Var != "" {
		return true
	}
	return cminor.BaseTypeEqual(tp.Base, cur)
}

// VarPat is a pattern variable declaration: a type pattern, classifier, and
// name (e.g. "int Expr E1").
type VarPat struct {
	Type       TypePat
	Classifier Classifier
	Name       string
}

func (v VarPat) String() string {
	return fmt.Sprintf("%s %s %s", v.Type, v.Classifier, v.Name)
}

// PatOp enumerates operators usable in patterns.
type PatOp string

// Pattern is a syntactic expression pattern from the grammar
//
//	P ::= X | *X | &X | new | NULL | uop X | X bop X
type Pattern interface {
	fmt.Stringer
	isPattern()
	// Vars returns the pattern variable names used.
	Vars() []string
}

// PVar matches the fragment bound to a declared pattern variable.
type PVar struct{ Name string }

// PDeref matches *X.
type PDeref struct{ Name string }

// PAddrOf matches &X.
type PAddrOf struct{ Name string }

// PNew matches memory allocation (malloc).
type PNew struct{}

// PFresh (extension, section 2.2.1's wished-for rule) matches a call whose
// callee provably returns a fresh reference: a unique-qualified local
// variable (or, transitively, another fresh-returning call). Only valid in
// assign clauses.
type PFresh struct{}

// PNull matches the NULL constant.
type PNull struct{}

// PUnop matches uop X.
type PUnop struct {
	Op   PatOp // "-" or "!"
	Name string
}

// PBinop matches X bop Y.
type PBinop struct {
	Op   PatOp
	L, R string
}

func (PVar) isPattern()    {}
func (PDeref) isPattern()  {}
func (PAddrOf) isPattern() {}
func (PNew) isPattern()    {}
func (PFresh) isPattern()  {}
func (PNull) isPattern()   {}
func (PUnop) isPattern()   {}
func (PBinop) isPattern()  {}

func (p PVar) String() string    { return p.Name }
func (p PDeref) String() string  { return "*" + p.Name }
func (p PAddrOf) String() string { return "&" + p.Name }
func (PNew) String() string      { return "new" }
func (PFresh) String() string    { return "fresh" }
func (PNull) String() string     { return "NULL" }
func (p PUnop) String() string   { return string(p.Op) + p.Name }
func (p PBinop) String() string  { return fmt.Sprintf("%s %s %s", p.L, p.Op, p.R) }

func (p PVar) Vars() []string    { return []string{p.Name} }
func (p PDeref) Vars() []string  { return []string{p.Name} }
func (p PAddrOf) Vars() []string { return []string{p.Name} }
func (PNew) Vars() []string      { return nil }
func (PFresh) Vars() []string    { return nil }
func (PNull) Vars() []string     { return nil }
func (p PUnop) Vars() []string   { return []string{p.Name} }
func (p PBinop) Vars() []string  { return []string{p.L, p.R} }

// Clause is one alternative of a case, restrict, or assign block:
// declarations, a pattern, and an optional where-predicate.
type Clause struct {
	Pos   Pos
	Decls []VarPat
	Pat   Pattern
	Where Pred // nil when absent
}

func (c Clause) String() string {
	var sb strings.Builder
	if len(c.Decls) > 0 {
		sb.WriteString("decl ")
		parts := make([]string, len(c.Decls))
		for i, d := range c.Decls {
			parts[i] = d.String()
		}
		sb.WriteString(strings.Join(parts, ", "))
		sb.WriteString(": ")
	}
	sb.WriteString(c.Pat.String())
	if c.Where != nil {
		sb.WriteString(", where ")
		sb.WriteString(c.Where.String())
	}
	return sb.String()
}

// Disallow records a ref qualifier's disallow clause: whether the qualified
// l-value may be referred to and/or have its address taken on a right-hand
// side.
type Disallow struct {
	Refer  bool // disallow L   (referring to the l-value)
	AddrOf bool // disallow &L  (taking its address)
}

// Def is a parsed qualifier definition.
type Def struct {
	Pos       Pos
	Name      string
	Kind      Kind
	Subject   VarPat // the declared variable in the header
	Cases     []Clause
	Restricts []Clause
	Assigns   []Clause
	Disallow  Disallow
	OnDecl    bool
	// NoAssign (extension, see DESIGN.md): the qualified l-value may never
	// be assigned after its declaration — the const-style discipline the
	// paper's section 8 sketches via ghost state.
	NoAssign  bool
	Invariant Pred // nil when the qualifier has no declared invariant
}

func (d *Def) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s qualifier %s(%s)\n", d.Kind, d.Name, d.Subject)
	writeClauses := func(kw, subject string, cs []Clause) {
		if len(cs) == 0 {
			return
		}
		fmt.Fprintf(&sb, "  %s%s\n", kw, subject)
		for i, c := range cs {
			sep := "    "
			if i > 0 {
				sep = "  | "
			}
			sb.WriteString(sep + c.String() + "\n")
		}
	}
	writeClauses("case", " "+d.Subject.Name+" of", d.Cases)
	writeClauses("restrict", "", d.Restricts)
	writeClauses("assign", " "+d.Subject.Name, d.Assigns)
	if d.OnDecl {
		sb.WriteString("  ondecl\n")
	}
	if d.NoAssign {
		sb.WriteString("  noassign\n")
	}
	if d.Disallow.Refer || d.Disallow.AddrOf {
		var parts []string
		if d.Disallow.Refer {
			parts = append(parts, d.Subject.Name)
		}
		if d.Disallow.AddrOf {
			parts = append(parts, "&"+d.Subject.Name)
		}
		fmt.Fprintf(&sb, "  disallow %s\n", strings.Join(parts, " | "))
	}
	if d.Invariant != nil {
		fmt.Fprintf(&sb, "  invariant %s\n", d.Invariant)
	}
	return sb.String()
}

// IsFlow reports whether the qualifier is a flow qualifier in the paper's
// sense: a value qualifier with no invariant, whose soundness is vacuous
// (section 2.1.4).
func (d *Def) IsFlow() bool {
	return d.Kind == ValueQualifier && d.Invariant == nil
}

// HasFreshAssign reports whether the qualifier declares a fresh assign
// clause (the section 2.2.1 extension).
func (d *Def) HasFreshAssign() bool {
	for _, cl := range d.Assigns {
		if _, ok := cl.Pat.(PFresh); ok {
			return true
		}
	}
	return false
}

// ---- Predicates and terms (where-clauses and invariants) ----

// Term is a term in a predicate: value(X), location(X), *X, NULL, integers,
// pattern variables, and integer arithmetic over these.
type Term interface {
	fmt.Stringer
	isTerm()
}

// TValue is value(X): the value of expression X in the execution state.
type TValue struct{ Name string }

// TLocation is location(X): the address of l-value X.
type TLocation struct{ Name string }

// TDeref is *X: the contents of location X (used under forall P).
type TDeref struct{ Name string }

// TInitValue is initvalue(X): the ghost recording of X's value at its
// declaration (the section 8 trace-to-state conversion).
type TInitValue struct{ Name string }

// TNull is the NULL constant.
type TNull struct{}

// TInt is an integer literal.
type TInt struct{ Value int64 }

// TVar references a pattern variable directly (Const-classified variables
// denote their constant value).
type TVar struct{ Name string }

// TArith is integer arithmetic over terms.
type TArith struct {
	Op   PatOp // + - * /
	L, R Term
}

func (TValue) isTerm()     {}
func (TInitValue) isTerm() {}
func (TLocation) isTerm()  {}
func (TDeref) isTerm()     {}
func (TNull) isTerm()      {}
func (TInt) isTerm()       {}
func (TVar) isTerm()       {}
func (TArith) isTerm()     {}

func (t TValue) String() string     { return "value(" + t.Name + ")" }
func (t TInitValue) String() string { return "initvalue(" + t.Name + ")" }
func (t TLocation) String() string  { return "location(" + t.Name + ")" }
func (t TDeref) String() string     { return "*" + t.Name }
func (TNull) String() string        { return "NULL" }
func (t TInt) String() string       { return fmt.Sprintf("%d", t.Value) }
func (t TVar) String() string       { return t.Name }
func (t TArith) String() string     { return fmt.Sprintf("(%s %s %s)", t.L, t.Op, t.R) }

// Pred is a predicate in a where-clause or invariant.
type Pred interface {
	fmt.Stringer
	isPred()
}

// PCmp compares two terms (==, !=, <, <=, >, >=).
type PCmp struct {
	Op   PatOp
	L, R Term
}

// PQual is a qualifier check q(X) on a pattern variable.
type PQual struct {
	Qual string
	Arg  string
}

// PIsHeapLoc is the built-in isHeapLoc(t) predicate: t is a dynamically
// allocated location.
type PIsHeapLoc struct{ T Term }

// PAnd, POr, PImp, PNot combine predicates.
type PAnd struct{ L, R Pred }

// POr is disjunction.
type POr struct{ L, R Pred }

// PImp is implication (written => in invariants).
type PImp struct{ L, R Pred }

// PNot is negation.
type PNot struct{ P Pred }

// PForall universally quantifies over all locations of a given type in the
// execution state (reference qualifier invariants, section 2.2.3).
type PForall struct {
	Type TypePat
	Var  string
	Body Pred
}

func (PCmp) isPred()       {}
func (PQual) isPred()      {}
func (PIsHeapLoc) isPred() {}
func (PAnd) isPred()       {}
func (POr) isPred()        {}
func (PImp) isPred()       {}
func (PNot) isPred()       {}
func (PForall) isPred()    {}

func (p PCmp) String() string       { return fmt.Sprintf("%s %s %s", p.L, p.Op, p.R) }
func (p PQual) String() string      { return fmt.Sprintf("%s(%s)", p.Qual, p.Arg) }
func (p PIsHeapLoc) String() string { return fmt.Sprintf("isHeapLoc(%s)", p.T) }
func (p PAnd) String() string       { return fmt.Sprintf("(%s && %s)", p.L, p.R) }
func (p POr) String() string        { return fmt.Sprintf("(%s || %s)", p.L, p.R) }
func (p PImp) String() string       { return fmt.Sprintf("(%s => %s)", p.L, p.R) }
func (p PNot) String() string       { return fmt.Sprintf("!(%s)", p.P) }
func (p PForall) String() string {
	return fmt.Sprintf("forall %s %s: %s", p.Type, p.Var, p.Body)
}

// Pos is a position in a qualifier definition source.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}
