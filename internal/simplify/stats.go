package simplify

import (
	"context"
	"sync/atomic"
	"time"
)

// Stats is the per-goal search telemetry a Prove call accumulates. It rides
// on the Outcome (and, in the soundness checker, is aggregated per qualifier
// report), so slow qualifiers and hot obligations are diagnosable without
// re-running the search under a profiler.
//
// A cached outcome carries the stored search's counters, not the
// (near-zero) cost of the lookup itself; Outcome.CacheHit distinguishes the
// two. The certificate counters are the exception: they count the lookup's
// own replay.
type Stats struct {
	// Rounds is the number of instantiation rounds entered.
	Rounds int
	// Decisions counts DPLL branching decisions across all rounds.
	Decisions int
	// CaseSplits counts trichotomy clauses added for numeric (dis)equalities
	// (the integer theory's case splits).
	CaseSplits int
	// Instantiations counts quantified-clause instances added by e-matching.
	Instantiations int
	// GroundClauses is the final size of the ground clause set.
	GroundClauses int
	// CongruenceMerges counts e-graph class unions (including congruence
	// propagation) across all theory checks.
	CongruenceMerges int
	// FMEliminations counts variables eliminated by Fourier-Motzkin across
	// all theory checks.
	FMEliminations int
	// TheoryChecks counts consistency checks of DPLL branches against the
	// EUF + arithmetic theories.
	TheoryChecks int
	// LearnedClauses counts CDCL lemmas learned across all rounds.
	LearnedClauses int
	// ForgottenClauses counts learned clauses dropped by activity-based
	// forgetting at restarts.
	ForgottenClauses int
	// Restarts counts Luby-scheduled CDCL restarts.
	Restarts int
	// Always-zero fields, kept only because perfbench reads them: no
	// learned clause carries from one goal into another
	// (prover.lemmas_imported), and no tier in front of the CDCL engine
	// discharges goals (prover.prefilter_*). Add does not sum them.
	LemmasImported    int
	PrefilterAttempts int
	PrefilterGround   int
	PrefilterUnit     int
	PrefilterInterval int
	// CertsEmitted / CertsReplayed / CertsRejected count this outcome's
	// certificate work. A searched Valid reads 1, 1, 0 (its certificate
	// was built and replayed), or 0, 0, 1 when the replay rejected it and
	// the outcome degraded to a transient Unknown. An outcome a cache tier
	// served reads 0, 1, 0 when it carries a certificate, which the fetch
	// gate replayed, and 0, 0, 0 otherwise. A cached value the gate refuses
	// is not this outcome's: it counts only in GlobalCertCounters, and the
	// outcome describes the search that replaced it.
	CertsEmitted  int
	CertsReplayed int
	CertsRejected int
	// WallTime is the goal's wall-clock search time.
	WallTime time.Duration
}

// Add accumulates o into s. Wall times sum, which for a concurrently
// discharged report means "total CPU-ish search time", not elapsed time.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.Decisions += o.Decisions
	s.CaseSplits += o.CaseSplits
	s.Instantiations += o.Instantiations
	s.GroundClauses += o.GroundClauses
	s.CongruenceMerges += o.CongruenceMerges
	s.FMEliminations += o.FMEliminations
	s.TheoryChecks += o.TheoryChecks
	s.LearnedClauses += o.LearnedClauses
	s.ForgottenClauses += o.ForgottenClauses
	s.Restarts += o.Restarts
	s.CertsEmitted += o.CertsEmitted
	s.CertsReplayed += o.CertsReplayed
	s.CertsRejected += o.CertsRejected
	s.WallTime += o.WallTime
}

// Outcome reasons reported when a search is stopped rather than finished.
const (
	// ReasonDeadline is reported when the per-goal wall-clock budget
	// (Options.GoalTimeout or the context's deadline) expired mid-search.
	ReasonDeadline = "deadline exceeded"
	// ReasonCanceled is reported when the Prove call's context was canceled.
	ReasonCanceled = "canceled"
	// ReasonBudget is reported when the search used up Options.MaxInstances
	// mid-round, or an injected budget fault fired. Like a deadline, it
	// describes how far a truncated search got rather than the goal, so it
	// is transient and never cached.
	ReasonBudget = "resource budget exceeded"
)

// budgetTrips counts ReasonBudget trips process-wide, for /metrics.
var budgetTrips atomic.Uint64

// BudgetTrips returns the number of searches stopped by a resource budget
// (ReasonBudget) since process start.
func BudgetTrips() uint64 { return budgetTrips.Load() }

// Process-wide lemma counters, for qualserve /metrics: per-goal Stats
// aggregate within one Prove call, these aggregate across every call in
// the process.
var (
	lemLearned   atomic.Uint64
	lemForgotten atomic.Uint64
)

// LemmaCounters is a process-wide snapshot of CDCL clause learning.
type LemmaCounters struct {
	Learned   uint64 `json:"learned"`
	Forgotten uint64 `json:"forgotten"`
}

// GlobalLemmaCounters snapshots the process-wide learned/forgotten totals.
func GlobalLemmaCounters() LemmaCounters {
	return LemmaCounters{Learned: lemLearned.Load(), Forgotten: lemForgotten.Load()}
}

// Process-wide certificate counters, mirroring the per-goal Stats fields.
var (
	certEmitted  atomic.Uint64
	certReplayed atomic.Uint64
	certRejected atomic.Uint64
)

// CertCounters is a process-wide snapshot of certificate activity:
// certificates emitted for Valid verdicts, replays that verified (the
// emission self-check and cache replay-on-fetch both count), and
// replays the verifier rejected.
type CertCounters struct {
	Emitted  uint64 `json:"emitted"`
	Replayed uint64 `json:"replayed"`
	Rejected uint64 `json:"rejected"`
}

// GlobalCertCounters snapshots the process-wide certificate counters.
func GlobalCertCounters() CertCounters {
	return CertCounters{
		Emitted:  certEmitted.Load(),
		Replayed: certReplayed.Load(),
		Rejected: certRejected.Load(),
	}
}

// tickMask throttles the wall-clock and context checks: the expensive
// time.Now/channel polls run once per tickMask+1 stop() calls, so ticking
// from tight search loops stays a counter increment in the common case.
const tickMask = 255

// ticker carries a goal's cancellation state through the search: an optional
// context and an optional wall-clock deadline. It is not safe for concurrent
// use; every Prove call builds its own.
type ticker struct {
	ctx      context.Context
	deadline time.Time
	n        uint32
	reason   string
}

// newTicker builds the per-goal cancellation state. A zero timeout means no
// wall-clock bound beyond the context's own deadline (if any).
func newTicker(ctx context.Context, start time.Time, timeout time.Duration) *ticker {
	t := &ticker{ctx: ctx}
	if timeout > 0 {
		t.deadline = start.Add(timeout)
	}
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok && (t.deadline.IsZero() || d.Before(t.deadline)) {
			t.deadline = d
		}
	}
	return t
}

// stop reports whether the search must abandon the goal, polling the clock
// and context only every tickMask+1 calls. Once tripped it stays tripped
// (reason records why), so deeply nested loops unwind quickly. A nil ticker
// never stops, so components can run without a deadline.
func (t *ticker) stop() bool {
	if t == nil {
		return false
	}
	if t.reason != "" {
		return true
	}
	t.n++
	if t.n&tickMask != 0 {
		return false
	}
	return t.poll()
}

// poll performs the real deadline and context check.
func (t *ticker) poll() bool {
	if t.reason != "" {
		return true
	}
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		t.reason = ReasonDeadline
		return true
	}
	if t.ctx != nil {
		select {
		case <-t.ctx.Done():
			t.reason = ReasonCanceled
			return true
		default:
		}
	}
	return false
}

// trip stops the search with the given reason (first trip wins; a tripped
// ticker stays tripped). Budget trips feed the process-wide counter.
func (t *ticker) trip(reason string) {
	if t == nil || t.reason != "" {
		return
	}
	t.reason = reason
	if reason == ReasonBudget {
		budgetTrips.Add(1)
	}
}
