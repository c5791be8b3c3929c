package soundness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/qdl"
	"repro/internal/simplify"
)

// DefaultCounterExampleLimit is the number of counterexample literals a
// report prints per failed obligation before truncating (see
// Options.CounterExampleLimit).
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
	// CounterExampleLimit caps the counterexample literals printed per
	// failed obligation (0 means DefaultCounterExampleLimit). It echoes
	// Options.CounterExampleLimit so String needs no extra context.
	CounterExampleLimit int
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

func (r *Report) counterExampleLimit() int {
	if r.CounterExampleLimit > 0 {
		return r.CounterExampleLimit
	}
	return DefaultCounterExampleLimit
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
	limit := r.counterExampleLimit()
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
				if shown >= limit {
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
	// Concurrency bounds the worker pool that discharges obligations (and,
	// in ProveAll, proves qualifiers). 0 means runtime.GOMAXPROCS(0); 1
	// forces the serial order. Reports and results are always returned in
	// registration order regardless of the setting.
	Concurrency int
	// Cache memoizes prover outcomes across obligations. When nil, Prove
	// and ProveAll each install a fresh cache for the run, so structurally
	// identical formulas (e.g. the shared arithmetic lemma shapes of
	// pos/neg/nonneg) are proven once. Pass an explicit cache to share
	// memoized outcomes across runs.
	Cache *simplify.Cache
	// CounterExampleLimit caps the counterexample literals printed per
	// failed obligation in Report.String (0 = DefaultCounterExampleLimit).
	CounterExampleLimit int
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
var stdProvers sync.Map // simplify.Options -> *simplify.Prover

// baseProver returns the prover base for opts, memoized when no extra
// axioms are requested.
func baseProver(opts Options) *simplify.Prover {
	if len(opts.ExtraAxioms) > 0 {
		axioms := append(append([]logic.Formula{}, Axioms()...), opts.ExtraAxioms...)
		return simplify.New(axioms, opts.Prover)
	}
	if p, ok := stdProvers.Load(opts.Prover); ok {
		return p.(*simplify.Prover)
	}
	p := simplify.New(Axioms(), opts.Prover)
	actual, _ := stdProvers.LoadOrStore(opts.Prover, p)
	return actual.(*simplify.Prover)
}

// concurrency resolves the effective worker count.
func (o Options) concurrency() int {
	if o.Concurrency > 0 {
		return o.Concurrency
	}
	return runtime.GOMAXPROCS(0)
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
	obls, err := Obligations(d, reg)
	if err != nil {
		return nil, err
	}
	report := &Report{Qualifier: d.Name, Kind: d.Kind, CounterExampleLimit: opts.CounterExampleLimit}
	cache := opts.Cache
	if cache == nil {
		cache = simplify.NewCache(0)
	}
	prover := baseProver(opts).Fork(cache)
	start := time.Now()
	report.Results = proveObligations(ctx, prover, obls, opts.concurrency())
	report.Elapsed = time.Since(start)
	for _, res := range report.Results {
		if res.Outcome.CacheHit {
			report.CacheHits++
		}
		report.Stats.Add(res.Outcome.Stats)
	}
	if opts.Trace != nil {
		writeTrace(opts.Trace, report, opts.TraceOmitTimings)
	}
	return report, nil
}

// proveObligations discharges obls on a bounded worker pool, writing each
// result into its obligation's slot so the order is deterministic.
func proveObligations(ctx context.Context, prover *simplify.Prover, obls []Obligation, workers int) []ObligationResult {
	results := make([]ObligationResult, len(obls))
	forEachIndex(len(obls), workers, func(i int) {
		results[i] = discharge(ctx, prover, obls[i])
	})
	return results
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
			res = ObligationResult{
				Obligation: o,
				Outcome: simplify.Outcome{
					Result: simplify.Unknown,
					Reason: fmt.Sprintf("panic: %v", r),
				},
				Elapsed: time.Since(t0),
			}
		}
	}()
	if dischargeHook != nil {
		dischargeHook(o)
	}
	if err := fpDischarge.Fire(); err != nil {
		reason := "fault: " + err.Error()
		if errors.Is(err, faults.ErrBudget) {
			reason = simplify.ReasonBudget
		}
		return ObligationResult{
			Obligation: o,
			Outcome:    simplify.Outcome{Result: simplify.Unknown, Reason: reason},
			Elapsed:    time.Since(t0),
		}
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

// forEachIndex runs fn(0..n-1) on a pool of at most `workers` goroutines
// (inline when the pool would be trivial, including n == 0). fn must write
// only to its own index's state.
//
// The pool is panic-safe: a panic in fn (on any worker) stops the feed,
// drains the pool without leaking goroutines or deadlocking the feeder, and
// re-panics the first recovered value on the caller's goroutine — matching
// the serial path, where fn's panic unwinds through forEachIndex itself.
// Long-lived callers (the qualserve worker pool) rely on this: a poisoned
// goal must surface as an error on its own request, not kill the process.
func forEachIndex(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var (
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicMu  sync.Mutex
		panicVal any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicVal == nil {
								panicVal = r
							}
							panicMu.Unlock()
							panicked.Store(true)
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		if panicked.Load() {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
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
	if opts.Cache == nil {
		opts.Cache = simplify.NewCache(0)
	}
	defs := reg.Defs()
	// Split the concurrency budget between the qualifier pool and each
	// qualifier's obligation pool so the total never exceeds opts'
	// concurrency: with C workers and fewer qualifiers than C, the leftover
	// budget goes to inner obligation discharge instead of idle outer
	// workers (and instead of the C*C goroutines nested pools would spawn).
	total := opts.concurrency()
	outer := total
	if outer > len(defs) {
		outer = len(defs)
	}
	if outer < 1 {
		outer = 1
	}
	inner := opts
	inner.Concurrency = total / outer
	if inner.Concurrency < 1 {
		inner.Concurrency = 1
	}
	out := make([]*Report, len(defs))
	forEachIndex(len(defs), outer, func(i int) {
		d := defs[i]
		r, err := ProveContext(ctx, d, reg, inner)
		if err != nil {
			r = &Report{Qualifier: d.Name, Kind: d.Kind, Err: err, CounterExampleLimit: opts.CounterExampleLimit}
		}
		out[i] = r
	})
	var errs []error
	for _, r := range out {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.Qualifier, r.Err))
		}
	}
	return out, errors.Join(errs...)
}
