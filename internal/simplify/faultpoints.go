package simplify

import (
	"errors"
	"fmt"

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

// fireInto delivers p's armed fault into a running search: the search stops
// with Interrupted's reason for the fault (ReasonBudget for a budget fault,
// which exercises the uncached-transient path), and a panic propagates to
// proveSafe's recovery. Disarmed, this is one atomic load.
func fireInto(p *faults.Point, tk *ticker) {
	if err := p.Fire(); err != nil {
		tk.trip(Interrupted(err).Reason)
	}
}

// Interrupted is the transient Unknown outcome of a discharge that cause cut
// short: an injected fault's error reads ReasonBudget for faults.ErrBudget
// and "fault: ..." for any other, and a recovered panic value reads
// "panic: ...". The prover and the soundness checker around it build every
// such outcome here, so the reasons TransientReason recognizes are written
// in one place.
func Interrupted(cause any) Outcome {
	out := Outcome{Result: Unknown}
	err, _ := cause.(error)
	switch {
	case errors.Is(err, faults.ErrBudget):
		out.Reason = ReasonBudget
	case errors.Is(err, faults.ErrInjected):
		out.Reason = "fault: " + err.Error()
	default:
		out.Reason = fmt.Sprintf("panic: %v", cause)
	}
	return out
}
