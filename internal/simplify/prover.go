// Package simplify implements an automatic theorem prover in the style of
// the Simplify prover used by the paper's soundness checker (Detlefs, Nelson,
// Saxe; Nelson-Oppen cooperation). It combines:
//
//   - congruence closure for equality over uninterpreted function symbols,
//   - Fourier-Motzkin linear integer arithmetic,
//   - CDCL propositional search whose theory solvers are asserted into
//     incrementally along the trail and rolled back on backjump,
//   - trigger-based (e-matching) instantiation of universally quantified
//     axioms, and
//   - background sign axioms for multiplication (Simplify's limited
//     non-linear support), which the paper's pos/neg/nonzero obligations
//     require.
//
// The prover is sound and incomplete: Valid means the goal is proved;
// Unknown means no proof was found within the instantiation budget.
package simplify

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/cert"
	"repro/internal/logic"
	"repro/internal/tiercache"
)

// Result is the prover's verdict on a goal.
type Result int

const (
	// Unknown means no proof was found within the search budget. The prover
	// is sound but incomplete, so Unknown does not mean the goal is false.
	Unknown Result = iota
	// Valid means the goal is proved: its negation, together with the
	// axioms, is unsatisfiable.
	Valid
)

func (r Result) String() string {
	if r == Valid {
		return "Valid"
	}
	return "Unknown"
}

// Options configures the prover's search budget.
type Options struct {
	// MaxRounds bounds the quantifier-instantiation rounds (default 8).
	MaxRounds int
	// MaxInstances bounds the total instantiated clauses (default 20000).
	MaxInstances int
	// GoalTimeout bounds the wall-clock time of one Prove call (default 5s
	// via DefaultOptions; 0 disables the bound, leaving only the static step
	// budgets above). The deadline is checked at DPLL decision points, unit
	// propagation, e-matching, and Fourier-Motzkin elimination, so a
	// pathological goal (e.g. a trigger loop) returns Unknown with reason
	// ReasonDeadline instead of wedging its worker.
	GoalTimeout time.Duration
	// EmitCertificates makes every Valid verdict carry a replayable proof
	// certificate (Outcome.Certificate): the CDCL trail is transcribed
	// into internal/cert steps, self-verified by cert.Verify before the
	// outcome is returned, and re-verified when served from the cache. A
	// certificate that fails its replay degrades the outcome to a
	// transient, uncached Unknown with a "cert: ..." reason — the engine
	// never reports a Valid it cannot independently justify. Off by
	// default (emission costs time and memory proportional to the trail).
	// Participates in the cache fingerprint.
	EmitCertificates bool
}

// DefaultGoalTimeout is DefaultOptions' per-goal wall-clock bound. The
// paper's obligations discharge in milliseconds; anything near this bound is
// a runaway search, and Simplify's own discipline is to report a resource
// limit rather than hang.
const DefaultGoalTimeout = 5 * time.Second

// maxDecisions bounds the CDCL search's branching decisions per round.
const maxDecisions = 200000

// DefaultOptions returns the standard search budget.
func DefaultOptions() Options {
	return Options{
		MaxRounds:    8,
		MaxInstances: 20000,
		GoalTimeout:  DefaultGoalTimeout,
	}
}

// Outcome reports the verdict plus search statistics.
type Outcome struct {
	Result Result
	Reason string
	// CounterExample lists the literals of a theory-consistent assignment
	// found while the goal remained unrefuted (populated on Unknown when
	// the search saturated). It is the prover's explanation of "why not":
	// a candidate situation in which the hypotheses hold but the goal
	// fails.
	CounterExample []string
	// CacheHit reports that this outcome was served from a memoizing
	// Cache's memory, disk or peer tier rather than a search. An outcome
	// shared with a concurrent caller's search is not a hit, matching the
	// cache's own Stats. All other fields are the stored search's;
	// the prover is deterministic (up to wall-clock telemetry), so they equal
	// what a re-run would find.
	CacheHit bool
	// TraceHash is a deterministic fingerprint of the CDCL engine's
	// decision/conflict/learn/backjump/restart event stream (hex). Identical
	// inputs — goal, axioms, options — produce identical hashes; the
	// determinism regression tests pin this.
	TraceHash string
	// Stats is the goal's search telemetry in one aggregatable struct.
	Stats Stats
	// Certificate is the replayable refutation backing a Valid verdict,
	// present only when Options.EmitCertificates is on. It has already
	// passed cert.Verify once when attached.
	Certificate *cert.Certificate
}

func (o Outcome) String() string {
	return fmt.Sprintf("%s (rounds=%d instances=%d ground=%d decisions=%d)",
		o.Result, o.Stats.Rounds, o.Stats.Instantiations, o.Stats.GroundClauses, o.Stats.Decisions)
}

// Prover holds a background axiom set and proves goals against it.
//
// The axioms are clausified once at construction into an immutable base;
// every Prove call works on its own copy of that base, so a single Prover is
// safe for concurrent use by multiple goroutines. Attach a shared Cache with
// WithCache (before the first concurrent Prove) to memoize outcomes across
// calls and across provers built over the same axioms and options.
type Prover struct {
	axioms []logic.Formula
	opts   Options

	// Immutable clausified base, built once in New.
	baseGround  []logic.Clause
	baseQuant   []logic.Clause
	baseSk      *logic.Skolemizer
	baseErr     error
	fingerprint string

	cache *Cache
}

// New creates a prover over the given background axioms.
func New(axioms []logic.Formula, opts Options) *Prover {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 8
	}
	if opts.MaxInstances == 0 {
		opts.MaxInstances = 20000
	}
	p := &Prover{axioms: axioms, opts: opts}
	p.buildBase()
	return p
}

// WithCache attaches a memoizing cache and returns p. The cache may be
// shared across provers; outcomes are keyed by (axioms, options, goal), so
// provers over different axiom sets never cross-contaminate. Attach before
// handing the prover to multiple goroutines.
func (p *Prover) WithCache(c *Cache) *Prover {
	p.cache = c
	return p
}

// Cache returns the attached cache, or nil.
func (p *Prover) Cache() *Cache { return p.cache }

// Fork returns a new Prover sharing p's immutable clausified axiom base but
// carrying its own cache attachment. Clausifying a large background theory
// dominates the cost of proving small goals, so callers that repeatedly
// prove against the same (axioms, options) pair should build the base once
// and Fork per run. The fork is as concurrency-safe as the original.
func (p *Prover) Fork(c *Cache) *Prover {
	q := *p
	q.cache = c
	return &q
}

// buildBase clausifies the background axioms (plus the multiplication sign
// axioms, MulSignAxioms) once, infers triggers for the quantified clauses, and
// fingerprints the (axioms, options) pair for cache keying. Errors are
// deferred to Prove, which historically reported clausification failures as
// Unknown outcomes.
func (p *Prover) buildBase() {
	sk := logic.NewSkolemizer("sk")
	addFormula := func(f logic.Formula) error {
		cs, err := logic.Clausify(f, sk)
		if err != nil {
			return err
		}
		for _, c := range cs {
			if c.IsGround() {
				p.baseGround = append(p.baseGround, c)
			} else {
				if len(c.Triggers) == 0 {
					c.Triggers = inferTriggers(c)
				}
				p.baseQuant = append(p.baseQuant, c)
			}
		}
		return nil
	}
	h := sha256.New()
	// The decision bound and a true (the sign axioms are always loaded)
	// hold their places in this line: other bytes would change every
	// fingerprint and so miss every outcome a store already holds.
	fmt.Fprintf(h, "opts|%d|%d|%d|%d|%t|cert=%t\n",
		p.opts.MaxRounds, p.opts.MaxInstances, maxDecisions,
		p.opts.GoalTimeout, true, p.opts.EmitCertificates)
	for _, ax := range p.axioms {
		fmt.Fprintf(h, "ax|%s\n", ax)
		if err := addFormula(ax); err != nil {
			p.baseErr = err
			return
		}
	}
	for _, ax := range MulSignAxioms() {
		if err := addFormula(ax); err != nil {
			p.baseErr = err
			return
		}
	}
	p.baseSk = sk
	p.fingerprint = hex.EncodeToString(h.Sum(nil))
}

// MulSignAxioms returns the background axioms for the sign of products,
// triggered on product terms. These let the prover discharge obligations
// like "the product of two positives is positive" (the paper's pos and
// nonzero qualifiers) without a complete non-linear procedure.
func MulSignAxioms() []logic.Formula {
	x, y := logic.V("x"), logic.V("y")
	xy := logic.Mul(x, y)
	trig := [][]logic.Term{{xy}}
	zero := logic.Num(0)
	return []logic.Formula{
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Conj(logic.Gt(x, zero), logic.Gt(y, zero)), logic.Gt(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Conj(logic.Lt(x, zero), logic.Lt(y, zero)), logic.Gt(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Conj(logic.Gt(x, zero), logic.Lt(y, zero)), logic.Lt(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Conj(logic.Lt(x, zero), logic.Gt(y, zero)), logic.Lt(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Eq(x, zero), logic.Eq(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Eq(y, zero), logic.Eq(xy, zero))),
	}
}

// Prove attempts to prove goal from the prover's axioms. It is safe to call
// concurrently from multiple goroutines.
func (p *Prover) Prove(goal logic.Formula) Outcome {
	return p.ProveContext(context.Background(), goal)
}

// ProveContext is Prove under a context: the search observes ctx
// cancellation and ctx's deadline (in addition to Options.GoalTimeout,
// whichever is sooner) at its decision points, returning Unknown with reason
// ReasonCanceled or ReasonDeadline. Like Simplify itself, the call always
// terminates and reports: panics inside the search are recovered into an
// Unknown outcome with a "panic: ..." reason rather than escaping to the
// caller.
func (p *Prover) ProveContext(ctx context.Context, goal logic.Formula) Outcome {
	if p.baseErr != nil {
		return Outcome{Result: Unknown, Reason: p.baseErr.Error()}
	}
	// The canonical goal keys the cache and names a certificate's goal;
	// build it once and pass it down.
	var ck string
	if p.cache != nil || p.opts.EmitCertificates {
		ck = logic.CanonicalString(goal)
	}
	if p.cache == nil {
		return p.proveSafe(ctx, goal, ck)
	}
	fill := func() (Outcome, bool) {
		out := p.proveSafe(ctx, goal, ck)
		// A canceled (or deadline-expired) parent context bypasses the cache
		// no matter what reason the outcome carries: the context's deadline is
		// not part of the cache fingerprint (unlike Options.GoalTimeout), and a
		// search racing its cancellation may conclude with a nominally
		// deterministic reason ("saturated", budget exhaustion) computed from a
		// truncated search. Long-lived callers (qualserve) reuse one cache
		// across requests with per-request deadlines, so a verdict minted under
		// a dying request must never be replayed for a healthy one.
		return out, cacheable(out) && ctx.Err() == nil
	}
	out, src := p.cache.Do(ctx.Done(), p.fingerprint+"\x00"+ck, p.admit(ck), fill)
	switch src {
	case tiercache.Memory, tiercache.Disk, tiercache.Peer:
		// A served outcome emitted nothing; its one piece of certificate
		// work is the gate's replay of the certificate it carries.
		out.CacheHit = true
		out.Stats.CertsEmitted, out.Stats.CertsReplayed, out.Stats.CertsRejected = 0, 0, 0
		if out.Certificate != nil {
			out.Stats.CertsReplayed = 1
		}
	case tiercache.Abandoned:
		// Our context ended while another caller searched this goal: stop
		// waiting and prove under our own context, which returns promptly and
		// is never stored.
		return p.proveSafe(ctx, goal, ck)
	}
	// Computed and Coalesced outcomes are not hits. A Coalesced one is the
	// filler's value as the cache holds it, counters included: a search's,
	// or a tier's, whose replay counts on the filler's outcome.
	return out
}

// admit is the prover cache's one trust gate for the goal whose canonical
// string is goal. It runs on a value from any tier before the tier serves
// it, and keeps three rules:
//
//   - a certificate that is present must replay, whatever tier served it;
//   - under EmitCertificates, a Valid must carry a certificate;
//   - a peer value must be a Valid with a certificate, whatever the local
//     options. An Unknown has no proof behind it, and admitting one would
//     let a peer fail a goal this node proves, so it is refused, honest or
//     not.
//
// A fresh Valid in emit mode always embeds its certificate, so a Valid
// without one where one is due can only be tampered or stale bytes; replay
// rejects it like a certificate that fails. The cache evicts a refused value
// from every tier and the goal is proved again, so a bad record costs a
// search, never a verdict: for every served Valid that needs a proof, the
// replay checker is the whole trusted base. Callers coalesced onto another
// caller's fill skip the gate: equal keys mean equal fingerprints, including
// cert=, and the filler's value either passed the gate on its way in from a
// tier or is a fresh search's, whose certificate sealCert replayed.
func (p *Prover) admit(goal string) func(Outcome, tiercache.Source) bool {
	return func(out Outcome, src tiercache.Source) bool {
		switch {
		case src == tiercache.Peer && out.Result != Valid:
			return false
		case out.Certificate != nil,
			out.Result == Valid && (p.opts.EmitCertificates || src == tiercache.Peer):
			return replay(out.Certificate, goal) == nil
		}
		return true
	}
}

// TransientReason reports whether an Unknown reason describes a transient
// condition — deadline expiry, cancellation, a tripped resource budget, a
// recovered panic, an injected fault, or a certificate replay failure —
// rather than a property of the goal. Transient outcomes must never be
// memoized (a rerun with more budget, or a fixed bug, may legitimately
// differ) and are what qualserve marks degraded and counts toward its
// per-qualifier circuit breaker.
func TransientReason(r string) bool {
	switch r {
	case ReasonDeadline, ReasonCanceled, ReasonBudget:
		return true
	}
	return strings.HasPrefix(r, "panic:") || strings.HasPrefix(r, "fault:") ||
		strings.HasPrefix(r, "cert:")
}

// cacheable reports whether an outcome may be memoized. ProveContext
// additionally refuses to cache any outcome produced under an already-done
// context, whatever its reason.
func cacheable(o Outcome) bool {
	return !TransientReason(o.Reason)
}

// proveRoundHook, when non-nil, runs once per instantiation round. It exists
// for tests that inject faults (panics, delays) into the search.
var proveRoundHook func()

// proveSafe wraps one search with wall-clock telemetry and panic recovery.
// canonicalGoal is logic.CanonicalString(goal) under EmitCertificates.
func (p *Prover) proveSafe(ctx context.Context, goal logic.Formula, canonicalGoal string) (out Outcome) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			out = Interrupted(r)
		}
		out.Stats.WallTime = time.Since(start)
	}()
	return p.prove2(goal, canonicalGoal, newTicker(ctx, start, p.opts.GoalTimeout))
}
