package quals

import "repro/internal/qdl"

// Extras: qualifiers beyond the paper's own set, demonstrating that the
// framework is user-extensible without touching the checker or prover.
// Every one of them is automatically proven sound (or vacuously sound, for
// the flow qualifiers) by internal/soundness.

// Nonneg tracks non-negative integers. Its case block encodes pos as a
// subtype and closes over addition and multiplication.
var Nonneg = mustRead("nonneg.qdl")

// Byteval tracks byte-range integers (0..255); its invariant is a
// conjunction, exercising multi-conjunct invariant translation. Only
// constants introduce it; arithmetic escapes the range, so anything else
// needs a (run-time-checked) cast.
var Byteval = mustRead("byteval.qdl")

// Kernel and User reproduce the user/kernel pointer analysis of Johnson and
// Wagner (cited in section 2.1.4): dereferences demand kernel pointers, so
// a user-space pointer can never be dereferenced in kernel code; it must
// flow through a checked copy routine (modeled as a cast). Both are flow
// qualifiers plus a restrict: no invariant, soundness is vacuous, and
// protection comes from subtyping exactly as for untainted.
var Kernel = mustRead("kernel.qdl")

// User marks pointers received from user space; any expression may be
// considered user (the tainted pattern).
var User = mustRead("user.qdl")

// Constq is the const-style qualifier section 8 targets: a variable whose
// value never changes after declaration. Its invariant compares the current
// value with the initvalue ghost (the paper's planned trace-to-state
// conversion); the noassign block (a QDL extension) forbids all assignments
// after the declaration, which is exactly what makes the invariant
// preservable.
var Constq = mustRead("constq.qdl")

// UniqueFresh is figure 5's unique extended with the assign rule the paper
// wished for in section 2.2.1: "intuitively we can assign a unique l-value
// any expression that is fresh... a unique local variable returned from a
// procedure may be considered fresh. We cannot currently express this rule
// in our framework because patterns cannot mention procedure calls." The
// fresh pattern (a QDL extension) matches exactly those call results.
const UniqueFresh = `
ref qualifier unique(T* LValue L)
  assign L
    NULL
  | new
  | fresh
  disallow L
  invariant value(L) == NULL || (isHeapLoc(value(L)) && forall T** P: *P == value(L) => P == location(L))
`

// ExtrasSources returns the extra qualifiers keyed by file name.
func ExtrasSources() map[string]string {
	return map[string]string{
		"nonneg.qdl":  Nonneg,
		"byteval.qdl": Byteval,
		"kernel.qdl":  Kernel,
		"user.qdl":    User,
		"constq.qdl":  Constq,
	}
}

// WithExtras loads the standard library plus the extras into one registry.
func WithExtras() (*qdl.Registry, error) {
	sources := Sources()
	for k, v := range ExtrasSources() {
		sources[k] = v
	}
	return qdl.Load(sources)
}

// UserKernel loads just the user/kernel pointer analysis.
func UserKernel() (*qdl.Registry, error) {
	return qdl.Load(map[string]string{
		"kernel.qdl": Kernel,
		"user.qdl":   User,
	})
}
