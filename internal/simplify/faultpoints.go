package simplify

import (
	"errors"

	"repro/internal/faults"
)

// The prover's fault-point catalog (see internal/faults). Each point sits on
// a hot search path and costs one atomic load when disarmed:
//
//	simplify.prove.round     — top of every instantiation round
//	simplify.search.decision — every CDCL branching decision
//	simplify.search.learn    — before each 1UIP conflict analysis
//	simplify.search.backjump — before each non-chronological backjump
//	simplify.ematch.round    — top of every e-matching saturation pass
//	simplify.arith.pivot     — every Fourier-Motzkin variable elimination
//	simplify.intern.growth   — term-bank catch-up over newly interned clauses
//	cert.emit                — before a Valid outcome's certificate is built
//	cert.replay              — before a certificate replay (self-check or cache fetch)
var (
	fpProveRound     = faults.Register("simplify.prove.round")
	fpSearchDecision = faults.Register("simplify.search.decision")
	fpSearchLearn    = faults.Register("simplify.search.learn")
	fpSearchBackjump = faults.Register("simplify.search.backjump")
	fpEmatchRound    = faults.Register("simplify.ematch.round")
	fpArithPivot     = faults.Register("simplify.arith.pivot")
	fpInternGrowth   = faults.Register("simplify.intern.growth")
	fpCertEmit       = faults.Register("cert.emit")
	fpCertReplay     = faults.Register("cert.replay")
)

// fireInto delivers p's armed fault into a running search: a budget fault
// trips the ticker with ReasonBudget (exercising the uncached-transient
// path), any other injected error trips a "fault: ..." reason, and a panic
// propagates to proveSafe's recovery. Disarmed, this is one atomic load.
func fireInto(p *faults.Point, tk *ticker) {
	err := p.Fire()
	if err == nil {
		return
	}
	if errors.Is(err, faults.ErrBudget) {
		tk.trip(ReasonBudget)
	} else {
		tk.trip("fault: " + err.Error())
	}
}
