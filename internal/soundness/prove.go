package soundness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/qdl"
	"repro/internal/scheduler"
	"repro/internal/simplify"
)

// DefaultCounterExampleLimit is the number of counterexample literals a
// report prints per failed obligation before truncating.
const DefaultCounterExampleLimit = 8

// ObligationResult is one obligation plus its verdict.
type ObligationResult struct {
	Obligation Obligation
	Outcome    simplify.Outcome
	Valid      bool
	Elapsed    time.Duration
}

// Report is the soundness verdict for one qualifier.
type Report struct {
	Qualifier string
	Kind      qdl.Kind
	Results   []ObligationResult
	Elapsed   time.Duration
	// Err is set when the qualifier's obligations could not be generated at
	// all (e.g. an invariant outside the prover's theories). ProveAll
	// records such failures here instead of aborting the whole run.
	Err error
	// CacheHits counts the obligations whose outcome was served from the
	// memoizing prover cache instead of a fresh search.
	CacheHits int
	// Stats aggregates the per-goal search telemetry of every obligation
	// (cache hits contribute the stored search's counters). Wall times sum,
	// so under concurrent discharge Stats.WallTime is total search time, not
	// elapsed time (that is Elapsed).
	Stats simplify.Stats
}

// Sound reports whether every obligation was discharged.
func (r *Report) Sound() bool {
	if r.Err != nil {
		return false
	}
	for _, res := range r.Results {
		if !res.Valid {
			return false
		}
	}
	return true
}

// Failed returns the failed obligations.
func (r *Report) Failed() []ObligationResult {
	var out []ObligationResult
	for _, res := range r.Results {
		if !res.Valid {
			out = append(out, res)
		}
	}
	return out
}

func (r *Report) String() string {
	var sb strings.Builder
	if r.Err != nil {
		fmt.Fprintf(&sb, "qualifier %s: ERROR (%v)\n", r.Qualifier, r.Err)
		return sb.String()
	}
	verdict := "SOUND"
	if !r.Sound() {
		verdict = "NOT PROVEN"
	}
	fmt.Fprintf(&sb, "qualifier %s: %s (%d obligations, %v)\n", r.Qualifier, verdict, len(r.Results), r.Elapsed.Round(time.Millisecond))
	for _, res := range r.Results {
		mark := "✓"
		if !res.Valid {
			mark = "✗"
		}
		fmt.Fprintf(&sb, "  %s [%s] %s (%v)\n", mark, res.Obligation.Kind, res.Obligation.Description, res.Elapsed.Round(time.Microsecond))
		if !res.Valid && res.Outcome.Reason != "" {
			fmt.Fprintf(&sb, "      reason: %s\n", res.Outcome.Reason)
		}
		if !res.Valid && len(res.Outcome.CounterExample) > 0 {
			sb.WriteString("      counterexample candidate (hypotheses hold, invariant fails):\n")
			shown := 0
			for _, lit := range res.Outcome.CounterExample {
				if shown >= DefaultCounterExampleLimit {
					fmt.Fprintf(&sb, "        ... (%d more literals)\n", len(res.Outcome.CounterExample)-shown)
					break
				}
				fmt.Fprintf(&sb, "        %s\n", lit)
				shown++
			}
		}
	}
	return sb.String()
}

// Options configures soundness checking.
type Options struct {
	Prover simplify.Options
	// Concurrency is the worker count of the one scheduler pool that proves
	// the qualifiers and discharges their obligations: at most this many
	// obligations are discharged at once, across all qualifiers. 0 means
	// runtime.GOMAXPROCS(0) (the scheduler's rule); 1 discharges every
	// obligation on the calling goroutine, qualifier by qualifier in
	// generation order. Reports and results are always returned in
	// registration order regardless of the setting.
	Concurrency int
	// Cache memoizes prover outcomes across obligations. When nil, Prove
	// and ProveAll each install a fresh cache for the run, so structurally
	// identical formulas (e.g. the shared arithmetic lemma shapes of
	// pos/neg/nonneg) are proven once. Pass an explicit cache to share
	// memoized outcomes across runs.
	Cache *simplify.Cache
	// ExtraAxioms are appended to the standard background axiom set. Tests
	// use this to inject pathological axioms (e.g. trigger loops); callers
	// can use it to extend the theory with domain facts.
	ExtraAxioms []logic.Formula
	// Trace, when non-nil, receives one JSON object per discharged
	// obligation (JSON Lines), carrying the verdict and the per-goal search
	// telemetry. Writes are serialized; records for one qualifier appear as
	// a contiguous block in obligation-generation order.
	Trace io.Writer
	// TraceOmitTimings zeroes the two wall-clock fields (elapsed_us,
	// search_us) in trace records. Everything else in a record is
	// deterministic, so two serial runs with fresh caches produce
	// byte-identical trace files — the CDCL determinism regression keys on
	// this.
	TraceOmitTimings bool
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Prover: simplify.DefaultOptions()}
}

// stdProvers memoizes the prover built over the standard background axioms,
// keyed by the (comparable) prover options. Clausifying the axiom base costs
// more than discharging a typical obligation, and every Prove call uses the
// same base, so rebuilding it per qualifier dominated small proofs. The base
// is immutable and concurrency-safe; each run forks it with its own cache.
// lastStdProver short-cuts the map for the options used last, so a Prove
// need not hash the whole options struct, which costs about a tenth of a
// vacuous Prove.
var (
	stdProvers    sync.Map // simplify.Options -> *simplify.Prover
	lastStdProver atomic.Pointer[stdProver]
)

type stdProver struct {
	opts   simplify.Options
	prover *simplify.Prover
}

// baseProver returns the prover base for opts, memoized when no extra
// axioms are requested.
func baseProver(opts Options) *simplify.Prover {
	if len(opts.ExtraAxioms) > 0 {
		axioms := append(append([]logic.Formula{}, Axioms()...), opts.ExtraAxioms...)
		return simplify.New(axioms, opts.Prover)
	}
	if last := lastStdProver.Load(); last != nil && last.opts == opts.Prover {
		return last.prover
	}
	p, ok := stdProvers.Load(opts.Prover)
	if !ok {
		p, _ = stdProvers.LoadOrStore(opts.Prover, simplify.New(Axioms(), opts.Prover))
	}
	lastStdProver.Store(&stdProver{opts: opts.Prover, prover: p.(*simplify.Prover)})
	return p.(*simplify.Prover)
}

// Prove generates and discharges every proof obligation for one qualifier
// definition, using the registry to resolve qualifier checks in where
// clauses. Obligations are discharged concurrently (bounded by
// opts.Concurrency) but reported in generation order.
func Prove(d *qdl.Def, reg *qdl.Registry, opts Options) (*Report, error) {
	return ProveContext(context.Background(), d, reg, opts)
}

// ProveContext is Prove with cancellation: a canceled (or deadline-expired)
// context stops the in-flight proof searches, which then report Unknown with
// a cancellation reason. The report is still returned — a stopped search is
// sound, just inconclusive.
func ProveContext(ctx context.Context, d *qdl.Def, reg *qdl.Registry, opts Options) (*Report, error) {
	p := proveDefs(ctx, []*qdl.Def{d}, reg, opts)[0]
	return p.report, p.err
}

// proved is one qualifier's outcome in proveDefs: its report, or the error
// that kept its obligations from being generated.
type proved struct {
	report *Report
	err    error
}

// proveDefs proves defs in one scheduler pass of opts.Concurrency workers:
// one task per qualifier generates its obligations and spawns one unit per
// obligation, and the unit that finishes last completes the qualifier's
// report. Outcomes come back index-aligned with defs. Without opts.Cache the
// qualifiers share one fresh cache.
func proveDefs(ctx context.Context, defs []*qdl.Def, reg *qdl.Registry, opts Options) []proved {
	if opts.Cache == nil {
		opts.Cache = simplify.NewCache(0)
	}
	prover := baseProver(opts).Fork(opts.Cache)
	trace, omitTimings := opts.Trace, opts.TraceOmitTimings
	out := make([]proved, len(defs))
	scheduler.Run(opts.Concurrency, func(c *scheduler.Ctx) {
		c.Fan(len(defs), func(c *scheduler.Ctx, i int) {
			out[i].report, out[i].err = proveTask(ctx, c, defs[i], reg, prover, trace, omitTimings)
		}, func() {})
	})
	return out
}

// proveTask is one qualifier's task: it generates the obligations and fans
// their discharge out as pool units, each writing only its own result slot.
// The report it returns is complete once the pass is.
func proveTask(ctx context.Context, c *scheduler.Ctx, d *qdl.Def, reg *qdl.Registry, prover *simplify.Prover,
	trace io.Writer, omitTimings bool) (*Report, error) {
	obls, err := Obligations(d, reg)
	if err != nil {
		return nil, err
	}
	report := &Report{
		Qualifier: d.Name,
		Kind:      d.Kind,
		Results:   make([]ObligationResult, len(obls)),
	}
	start := time.Now()
	c.Fan(len(obls), func(_ *scheduler.Ctx, i int) {
		report.Results[i] = discharge(ctx, prover, obls[i])
	}, func() {
		report.Elapsed = time.Since(start)
		for _, res := range report.Results {
			if res.Outcome.CacheHit {
				report.CacheHits++
			}
			report.Stats.Add(res.Outcome.Stats)
		}
		if trace != nil {
			writeTrace(trace, report, omitTimings)
		}
	})
	return report, nil
}

// dischargeHook, when non-nil, runs at the start of every discharge. Tests
// use it to observe pool behaviour and to inject faults.
var dischargeHook func(o Obligation)

// fpDischarge injects faults into the obligation-discharge machinery around
// the prover (which has its own points inside the search).
var fpDischarge = faults.Register("soundness.discharge")

// discharge proves one obligation once. A panic anywhere in the goal's
// discharge (the prover has its own recovery; this guards the surrounding
// machinery) is converted into a failing result for this obligation only, so
// one broken goal cannot take down the whole report or its worker pool. A
// transient Unknown is reported as it is, not retried: the search is
// deterministic, so rerunning it under the same step budgets fails the same
// way.
func discharge(ctx context.Context, prover *simplify.Prover, o Obligation) (res ObligationResult) {
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res = ObligationResult{Obligation: o, Outcome: simplify.Interrupted(r), Elapsed: time.Since(t0)}
		}
	}()
	if dischargeHook != nil {
		dischargeHook(o)
	}
	if err := fpDischarge.Fire(); err != nil {
		return ObligationResult{Obligation: o, Outcome: simplify.Interrupted(err), Elapsed: time.Since(t0)}
	}
	if o.Vacuous {
		return ObligationResult{
			Obligation: o,
			Outcome:    simplify.Outcome{Result: simplify.Valid},
			Valid:      true,
			Elapsed:    time.Since(t0),
		}
	}
	outcome := prover.ProveContext(ctx, o.Formula)
	return ObligationResult{
		Obligation: o,
		Outcome:    outcome,
		Valid:      outcome.Result == simplify.Valid,
		Elapsed:    time.Since(t0),
	}
}

// ProveAll proves every qualifier in the registry, in registration order.
// Qualifiers are proven concurrently (bounded by opts.Concurrency) over a
// shared memoizing prover cache, so obligations repeated across qualifiers
// are proven once. A qualifier whose obligations cannot be generated yields
// a Report with Err set instead of hiding the other qualifiers' results; the
// joined per-qualifier errors are also returned alongside the complete
// report slice.
func ProveAll(reg *qdl.Registry, opts Options) ([]*Report, error) {
	return ProveAllContext(context.Background(), reg, opts)
}

// ProveAllContext is ProveAll with cancellation (see ProveContext).
func ProveAllContext(ctx context.Context, reg *qdl.Registry, opts Options) ([]*Report, error) {
	defs := reg.Defs()
	out := make([]*Report, len(defs))
	var errs []error
	for i, p := range proveDefs(ctx, defs, reg, opts) {
		out[i] = p.report
		if p.err != nil {
			out[i] = &Report{Qualifier: defs[i].Name, Kind: defs[i].Kind, Err: p.err}
			errs = append(errs, fmt.Errorf("%s: %w", defs[i].Name, p.err))
		}
	}
	return out, errors.Join(errs...)
}
