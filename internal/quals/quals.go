// Package quals provides the paper's standard qualifier library as QDL
// sources: the value qualifiers pos, neg, nonzero, nonnull (figures 1, 3,
// 12), the flow qualifiers tainted and untainted (figure 4), and the
// reference qualifiers unique and unaliased (figures 5 and 7). All of them
// parse, validate, and are proven sound by the soundness checker.
package quals

import (
	"sync"

	"repro/internal/qdl"
)

// Pos is figure 1: positive integers.
const Pos = `
value qualifier pos(int Expr E)
  case E of
    decl int Const C:
      C, where C > 0
  | decl int Expr E1, E2:
      E1 * E2, where pos(E1) && pos(E2)
  | decl int Expr E1, E2:
      E1 + E2, where pos(E1) && pos(E2)
  | decl int Expr E1:
      -E1, where neg(E1)
  invariant value(E) > 0
`

// Neg is the mutually recursive companion of pos (mentioned in section
// 2.1.1: "the definition of neg (not shown) has rules that refer to pos").
const Neg = `
value qualifier neg(int Expr E)
  case E of
    decl int Const C:
      C, where C < 0
  | decl int Expr E1, E2:
      E1 + E2, where neg(E1) && neg(E2)
  | decl int Expr E1:
      -E1, where pos(E1)
  invariant value(E) < 0
`

// Nonzero is figure 3: nonzero integers, whose restrict clause checks
// denominators of divisions.
const Nonzero = `
value qualifier nonzero(int Expr E)
  case E of
    decl int Const C:
      C, where C != 0
  | decl int Expr E1:
      E1, where pos(E1)
  | decl int Expr E1:
      E1, where neg(E1)
  | decl int Expr E1, E2:
      E1 * E2, where nonzero(E1) && nonzero(E2)
  restrict
    decl int Expr E1, E2:
      E1 / E2, where nonzero(E2)
  | decl int Expr E1, E2:
      E1 % E2, where nonzero(E2)
  invariant value(E) != 0
`

// Nonnull is figure 12: non-NULL pointers, whose restrict clause checks
// every dereference in the program.
const Nonnull = `
value qualifier nonnull(T* Expr E)
  case E of
    decl T LValue L:
      &L
  | decl T* Const C:
      C, where C != NULL
  restrict
    decl T* Expr E1:
      *E1, where nonnull(E1)
  invariant value(E) != NULL
`

// Untainted is figure 4's untainted: a flow qualifier with no case block
// (introduced only by casts) and no invariant.
const Untainted = `
value qualifier untainted(T Expr E)
`

// UntaintedConst is the section 6.3 variant augmented with "all constants
// are trusted": the extra case clause obviates casts on string literals.
const UntaintedConst = `
value qualifier untainted(T Expr E)
  case E of
    decl T Const C:
      C
`

// Tainted is figure 4's tainted: any expression may be considered tainted.
const Tainted = `
value qualifier tainted(T Expr E)
  case E of
    E
`

// Unique is figure 5: an l-value that is NULL or the only reference to a
// heap location.
const Unique = `
ref qualifier unique(T* LValue L)
  assign L
    NULL
  | new
  disallow L
  invariant value(L) == NULL || (isHeapLoc(value(L)) && forall T** P: *P == value(L) => P == location(L))
`

// Unaliased is figure 7: a variable whose address is never taken.
const Unaliased = `
ref qualifier unaliased(T Var X)
  ondecl
  disallow &X
  invariant forall T** P: *P != location(X)
`

// Sources returns the full standard library keyed by file name.
func Sources() map[string]string {
	return map[string]string{
		"pos.qdl":       Pos,
		"neg.qdl":       Neg,
		"nonzero.qdl":   Nonzero,
		"nonnull.qdl":   Nonnull,
		"untainted.qdl": Untainted,
		"tainted.qdl":   Tainted,
		"unique.qdl":    Unique,
		"unaliased.qdl": Unaliased,
	}
}

// standardOnce memoizes the standard library load: the sources are fixed
// constants and a loaded registry is read-only (nothing outside qdl.Load
// adds definitions or mutates a Def), so every caller shares one registry.
var standardOnce = sync.OnceValues(func() (*qdl.Registry, error) {
	return qdl.Load(Sources())
})

// Standard loads the full standard library into a registry. The result is a
// process-wide shared instance; treat it as immutable.
func Standard() (*qdl.Registry, error) {
	return standardOnce()
}

// MustStandard is Standard for tests and examples; it panics on error.
func MustStandard() *qdl.Registry {
	r, err := Standard()
	if err != nil {
		panic("quals: standard library failed to load: " + err.Error())
	}
	return r
}

// taintOnce memoizes the taint configuration load (see standardOnce).
var taintOnce = sync.OnceValues(func() (*qdl.Registry, error) {
	return qdl.Load(map[string]string{
		"untainted.qdl": UntaintedConst,
		"tainted.qdl":   Tainted,
	})
})

// TaintWithConstants loads the section 6.3 taintedness configuration:
// untainted augmented with the constants-are-trusted case clause, plus
// tainted. The result is a process-wide shared instance; treat it as
// immutable.
func TaintWithConstants() (*qdl.Registry, error) {
	return taintOnce()
}

// Load resolves the qualifier set every front end offers: the given QDL
// sources (keyed by file name) when there are any, else the taint
// configuration when taint is set, else the standard library.
func Load(sources map[string]string, taint bool) (*qdl.Registry, error) {
	switch {
	case len(sources) > 0:
		return qdl.Load(sources)
	case taint:
		return TaintWithConstants()
	default:
		return Standard()
	}
}
