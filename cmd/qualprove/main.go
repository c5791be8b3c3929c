// Command qualprove is the automated soundness checker's CLI (section 4):
// it generates the proof obligations for each qualifier definition and
// discharges them with the built-in simplify prover.
//
// Usage:
//
//	qualprove [-v] [file.qdl ...]           prove definitions from files
//	qualprove [-v]                          prove the standard library
//	qualprove -goal '(IMPLIES (> x 0) ...)' prove one raw formula
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/logic"
	"repro/internal/profiling"
	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/simplify"
	"repro/internal/soundness"
)

// stopProfiles flushes any active pprof profiles; set once in main, and
// called on every exit path (deferred calls do not survive os.Exit).
var stopProfiles = func() {}

// exit flushes profiles and terminates with the given status.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

func main() {
	verbose := flag.Bool("v", false, "print each obligation formula")
	goal := flag.String("goal", "", "prove a single Simplify-style formula against the semantics axioms")
	rounds := flag.Int("rounds", 0, "override the prover's instantiation round budget")
	maxTerms := flag.Int("max-terms", 0, "per-goal interned-term budget; a trip yields a transient Unknown (0 = unlimited)")
	maxClauses := flag.Int("max-clauses", 0, "per-goal clause-database budget (0 = unlimited)")
	maxInsts := flag.Int("max-insts", 0, "per-goal quantifier-instantiation budget (0 = default)")
	memBudget := flag.Uint64("mem-budget", 0, "process live-heap watermark in bytes; searches trip when exceeded (0 = unlimited)")
	jobs := flag.Int("j", 0, "number of concurrent proof workers (default: all cores)")
	cacheStats := flag.Bool("cache-stats", false, "print memoizing prover-cache statistics after the run")
	timeout := flag.Duration("timeout", simplify.DefaultGoalTimeout, "per-goal wall-clock budget; 0 means unlimited")
	stats := flag.Bool("stats", false, "print per-qualifier search statistics (decisions, instantiations, ...)")
	certs := flag.Bool("cert", false, "emit a proof certificate per Valid verdict and verify it with the independent replay checker before trusting the result")
	trace := flag.String("trace", "", "write a per-obligation JSONL search trace to this file")
	traceDeterministic := flag.Bool("trace-deterministic", false, "omit wall-clock fields from -trace records so identical runs produce byte-identical files")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stopProfiles()

	// Ctrl-C / SIGTERM cancels in-flight proof searches; stopped goals report
	// Unknown rather than wedging the run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	opts := soundness.DefaultOptions()
	if *rounds > 0 {
		opts.Prover.MaxRounds = *rounds
	}
	opts.Prover.MaxTerms = *maxTerms
	opts.Prover.MaxClauses = *maxClauses
	if *maxInsts > 0 {
		opts.Prover.MaxInstances = *maxInsts
	}
	opts.Prover.MaxMemoryBytes = *memBudget
	opts.Prover.GoalTimeout = *timeout
	opts.Prover.EmitCertificates = *certs
	opts.Concurrency = *jobs
	opts.TraceOmitTimings = *traceDeterministic
	cache := simplify.NewCache(0)
	opts.Cache = cache
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts.Trace = f
	}
	printCacheStats := func() {
		if !*cacheStats {
			return
		}
		s := cache.Stats()
		fmt.Printf("prover cache: %d hits, %d misses, %d evictions (%.1f%% hit rate, %d entries)\n",
			s.Hits, s.Misses, s.Evictions, 100*s.HitRate(), cache.Len())
	}
	printCertStats := func() {
		if !*certs {
			return
		}
		cc := simplify.GlobalCertCounters()
		fmt.Printf("certificates: %d emitted, %d replayed, %d rejected\n",
			cc.Emitted, cc.Replayed, cc.Rejected)
	}

	if *goal != "" {
		f, err := logic.ParseFormula(*goal)
		if err != nil {
			fatal(err)
		}
		prover := simplify.New(soundness.Axioms(), opts.Prover).WithCache(cache)
		start := time.Now()
		out := prover.ProveContext(ctx, f)
		fmt.Printf("%s in %v\n", out, time.Since(start).Round(time.Microsecond))
		if out.Reason != "" {
			fmt.Printf("reason: %s\n", out.Reason)
		}
		if *stats {
			fmt.Printf("stats: %s\n", statsLine(out.Stats))
		}
		if *certs && out.Certificate != nil {
			fmt.Printf("certificate: %d steps, replay verified\n", len(out.Certificate.Steps))
		}
		printCacheStats()
		printCertStats()
		if out.Result != simplify.Valid {
			exit(1)
		}
		return
	}

	var reg *qdl.Registry
	if flag.NArg() == 0 {
		reg, err = quals.Standard()
	} else {
		sources := map[string]string{}
		for _, f := range flag.Args() {
			data, rerr := os.ReadFile(f)
			if rerr != nil {
				fatal(rerr)
			}
			sources[f] = string(data)
		}
		reg, err = qdl.Load(sources)
	}
	if err != nil {
		fatal(err)
	}

	// ProveAll proves qualifiers and their obligations concurrently over the
	// shared cache; reports still come back in registration order, and a
	// qualifier whose obligations cannot be generated gets an ERROR report
	// instead of hiding the rest.
	reports, _ := soundness.ProveAllContext(ctx, reg, opts)
	allSound := true
	for _, report := range reports {
		fmt.Print(report)
		if *stats && report.Err == nil {
			fmt.Printf("  stats: %s\n", statsLine(report.Stats))
		}
		if *verbose && report.Err == nil {
			obls, _ := soundness.Obligations(reg.Lookup(report.Qualifier), reg)
			for _, o := range obls {
				if !o.Vacuous {
					fmt.Printf("    %s\n", o.Formula)
				}
			}
		}
		if !report.Sound() {
			allSound = false
		}
	}
	printCacheStats()
	printCertStats()
	if *stats {
		if trips := simplify.BudgetTrips(); trips > 0 {
			fmt.Printf("budget trips: %d (transient Unknowns; rerun with larger -max-terms/-max-clauses/-max-insts/-mem-budget)\n", trips)
		}
	}
	if !allSound {
		exit(1)
	}
}

// statsLine renders search telemetry as one compact line.
func statsLine(s simplify.Stats) string {
	return fmt.Sprintf("rounds=%d decisions=%d case-splits=%d instantiations=%d ground=%d merges=%d fm-elims=%d theory-checks=%d learned=%d forgotten=%d restarts=%d search=%v",
		s.Rounds, s.Decisions, s.CaseSplits, s.Instantiations, s.GroundClauses,
		s.CongruenceMerges, s.FMEliminations, s.TheoryChecks,
		s.LearnedClauses, s.ForgottenClauses, s.Restarts,
		s.WallTime.Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qualprove:", err)
	exit(2)
}
