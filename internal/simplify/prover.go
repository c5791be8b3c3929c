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
	"repro/internal/memwatch"
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
	// MaxDecisions bounds DPLL branching decisions per round (default 200000).
	MaxDecisions int
	// GoalTimeout bounds the wall-clock time of one Prove call (default 5s
	// via DefaultOptions; 0 disables the bound, leaving only the static step
	// budgets above). The deadline is checked at DPLL decision points, unit
	// propagation, e-matching, and Fourier-Motzkin elimination, so a
	// pathological goal (e.g. a trigger loop) returns Unknown with reason
	// ReasonDeadline instead of wedging its worker.
	GoalTimeout time.Duration
	// NonlinearAxioms, when true (the default via DefaultOptions), loads the
	// multiplication sign axioms that Simplify's limited non-linear
	// arithmetic support provides.
	NonlinearAxioms bool
	// MaxTerms bounds the interned term table built for one goal (0 means
	// unlimited). Unlike the step budgets above, tripping it yields the
	// transient, uncached reason ReasonBudget: how many terms a truncated
	// search interned is an artifact of the cut, not a verdict worth
	// replaying.
	MaxTerms int
	// MaxClauses bounds the ground clause set built for one goal (0 means
	// unlimited); trips to ReasonBudget like MaxTerms.
	MaxClauses int
	// MaxMemoryBytes trips the search when the process's sampled live heap
	// exceeds this watermark (0 means unlimited). The sample is shared and
	// refreshed at most every few tens of milliseconds, so the bound is a
	// soft ceiling against OOM, not an exact per-goal accounting.
	MaxMemoryBytes uint64
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

// DefaultOptions returns the standard search budget.
func DefaultOptions() Options {
	return Options{
		MaxRounds:       8,
		MaxInstances:    20000,
		MaxDecisions:    200000,
		GoalTimeout:     DefaultGoalTimeout,
		NonlinearAxioms: true,
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
	// CacheHit reports that this outcome was served from a memoizing Cache
	// rather than a fresh search. All other fields are the stored search's;
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
	if opts.MaxDecisions == 0 {
		opts.MaxDecisions = 200000
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

// buildBase clausifies the background axioms (plus the non-linear sign
// axioms when enabled) once, infers triggers for the quantified clauses, and
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
	fmt.Fprintf(h, "opts|%d|%d|%d|%d|%t|terms=%d|clauses=%d|mem=%d|cert=%t\n",
		p.opts.MaxRounds, p.opts.MaxInstances, p.opts.MaxDecisions,
		p.opts.GoalTimeout, p.opts.NonlinearAxioms,
		p.opts.MaxTerms, p.opts.MaxClauses, p.opts.MaxMemoryBytes,
		p.opts.EmitCertificates)
	for _, ax := range p.axioms {
		fmt.Fprintf(h, "ax|%s\n", ax)
		if err := addFormula(ax); err != nil {
			p.baseErr = err
			return
		}
	}
	if p.opts.NonlinearAxioms {
		for _, ax := range MulSignAxioms() {
			if err := addFormula(ax); err != nil {
				p.baseErr = err
				return
			}
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
	if p.cache == nil {
		return p.proveSafe(ctx, goal)
	}
	ck := logic.CanonicalString(goal)
	fill := func() (Outcome, bool) {
		out := p.proveSafe(ctx, goal)
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
	out, src := p.cache.Do(ctx.Done(), p.fingerprint+"\x00"+ck, p.admitFetched(ck), fill)
	switch src {
	case tiercache.Computed:
		return out
	case tiercache.Abandoned:
		// Our context ended while another caller searched this goal: stop
		// waiting and prove under our own context, which returns promptly and
		// is never stored.
		return p.proveSafe(ctx, goal)
	}
	out.CacheHit = true
	return out
}

// admitFetched is the cache's fetch-time gate for one goal. Under
// EmitCertificates a cache-served Valid is trusted only when it carries a
// certificate that replays for this goal — regardless of which tier
// (memory, disk, peer) produced it. A fresh Valid in emit mode always embeds
// its certificate, so a cert-less Valid here can only be tampered or stale
// external bytes; it is rejected exactly like a failed replay (mirroring
// verifyPeerOutcome's peer gate). The cache evicts a refused entry from
// every tier, and the goal is re-proved. Callers coalesced onto another
// caller's search skip the gate: equal keys mean equal fingerprints,
// including cert=, and a fresh Valid has already passed sealCert.
func (p *Prover) admitFetched(canonicalGoal string) func(Outcome) bool {
	if !p.opts.EmitCertificates {
		return nil
	}
	return func(out Outcome) bool {
		switch {
		case out.Result == Valid && out.Certificate == nil:
			certRejected.Add(1)
			return false
		case out.Certificate != nil:
			return p.replayFetched(out.Certificate, canonicalGoal)
		}
		return true
	}
}

// replayFetched re-verifies a certificate served from the cache, checking
// it was minted for this goal. It returns false (treat as a cache miss and
// re-prove) on any rejection, counting it in the process-wide counters.
func (p *Prover) replayFetched(crt *cert.Certificate, canonicalGoal string) bool {
	verr := fpCertReplay.FireErr()
	if verr == nil {
		verr = cert.Verify(crt)
	}
	if verr == nil && crt.Key != canonicalGoal {
		verr = fmt.Errorf("certificate key mismatch")
	}
	if verr != nil {
		certRejected.Add(1)
		return false
	}
	certReplayed.Add(1)
	return true
}

// TransientReason reports whether an Unknown reason describes a transient
// condition — deadline expiry, cancellation, a tripped resource budget, a
// recovered panic, an injected fault, or a certificate replay failure —
// rather than a property of the goal. Transient outcomes must never be
// memoized (a rerun with more budget, or a fixed bug, may legitimately
// differ) and are what qualserve retries and counts toward its
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

// memSampleStaleness bounds how stale the shared heap sample may be when the
// memory watermark is polled mid-search.
const memSampleStaleness = 50 * time.Millisecond

// installLimits arms tk with the configured space budgets. terms and clauses
// report the current sizes of the goal's term table and clause database.
func (p *Prover) installLimits(tk *ticker, terms, clauses func() int) {
	if p.opts.MaxTerms <= 0 && p.opts.MaxClauses <= 0 && p.opts.MaxMemoryBytes == 0 {
		return
	}
	tk.limits = func() string {
		if p.opts.MaxTerms > 0 && terms() > p.opts.MaxTerms {
			return ReasonBudget
		}
		if p.opts.MaxClauses > 0 && clauses() > p.opts.MaxClauses {
			return ReasonBudget
		}
		if p.opts.MaxMemoryBytes > 0 && memwatch.Sample(memSampleStaleness) > p.opts.MaxMemoryBytes {
			return ReasonBudget
		}
		return ""
	}
}

// proveSafe wraps one search with wall-clock telemetry and panic recovery.
func (p *Prover) proveSafe(ctx context.Context, goal logic.Formula) (out Outcome) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Result: Unknown, Reason: fmt.Sprintf("panic: %v", r)}
		}
		out.Stats.WallTime = time.Since(start)
	}()
	return p.prove2(goal, newTicker(ctx, start, p.opts.GoalTimeout))
}
