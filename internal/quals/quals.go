// Package quals provides the paper's standard qualifier library as QDL
// sources: the value qualifiers pos, neg, nonzero, nonnull (figures 1, 3,
// 12), the flow qualifiers tainted and untainted (figure 4), and the
// reference qualifiers unique and unaliased (figures 5 and 7). All of them
// parse, validate, and are proven sound by the soundness checker. Each
// shipped definition is read from its file in the qualifiers directory
// (embedded by package qualifiers), the one copy of its text; only the two
// variants without a file, UntaintedConst and UniqueFresh, are written here.
package quals

import (
	"sync"

	"repro/internal/qdl"
	"repro/qualifiers"
)

// mustRead returns the shipped definition file name. A missing file is a
// broken build, so it fails package initialisation.
func mustRead(name string) string {
	b, err := qualifiers.Files.ReadFile(name)
	if err != nil {
		panic("quals: " + err.Error())
	}
	return string(b)
}

// Pos is figure 1: positive integers.
var Pos = mustRead("pos.qdl")

// Neg is the mutually recursive companion of pos (mentioned in section
// 2.1.1: "the definition of neg (not shown) has rules that refer to pos").
var Neg = mustRead("neg.qdl")

// Nonzero is figure 3: nonzero integers, whose restrict clause checks
// denominators of divisions.
var Nonzero = mustRead("nonzero.qdl")

// Nonnull is figure 12: non-NULL pointers, whose restrict clause checks
// every dereference in the program.
var Nonnull = mustRead("nonnull.qdl")

// Untainted is figure 4's untainted: a flow qualifier with no case block
// (introduced only by casts) and no invariant.
var Untainted = mustRead("untainted.qdl")

// UntaintedConst is the section 6.3 variant augmented with "all constants
// are trusted": the extra case clause obviates casts on string literals.
const UntaintedConst = `
value qualifier untainted(T Expr E)
  case E of
    decl T Const C:
      C
`

// Tainted is figure 4's tainted: any expression may be considered tainted.
var Tainted = mustRead("tainted.qdl")

// Unique is figure 5: an l-value that is NULL or the only reference to a
// heap location.
var Unique = mustRead("unique.qdl")

// Unaliased is figure 7: a variable whose address is never taken.
var Unaliased = mustRead("unaliased.qdl")

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
