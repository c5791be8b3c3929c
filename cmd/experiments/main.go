// Command experiments regenerates every table of the paper's evaluation:
//
//	-table 1   Table 1: the nonnull experiment on grep's dfa
//	-table 2   Table 2: the untainted experiment on bftpd/mingetty/identd
//	-table 3   Section 6.2: uniqueness of the dfa global
//	-table 4   Section 4: automated soundness checking times
//	-table 5   Section 6: qualifier-checking (compile-time) overhead
//	-table 6   Sections 2.1.3/2.2.3: broken rules caught by the checker
//	-table 7   Section 8 extension: qualifier inference
//	-table 8   Section 8 extension: flow-sensitive refinement
//
// Without -table, all experiments run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "run a single experiment (1-8); 0 runs all")
	timeout := flag.Duration("timeout", 0, "per-goal wall-clock budget for prover-backed experiments (0 = prover default)")
	flag.Parse()

	// Ctrl-C / SIGTERM cancels in-flight proof searches in the prover-backed
	// experiments (tables 4 and 6).
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		experiments.SetGoalTimeout(*timeout)
	}

	run := func(n int) bool { return *table == 0 || *table == n }
	failed := false

	if run(1) {
		r, err := experiments.Table1()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable1(r))
	}
	if run(2) {
		rows, err := experiments.Table2()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable2(rows))
	}
	if run(3) {
		r, err := experiments.Uniqueness()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatUniqueness(r))
		if !r.PassByArgRejected || r.Errors != 0 {
			failed = true
		}
	}
	if run(4) {
		rows, err := experiments.ProverTimesContext(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatProverTimes(rows))
		for _, r := range rows {
			if !r.Sound || r.Elapsed >= r.Bound {
				failed = true
			}
		}
	}
	if run(5) {
		rows, err := experiments.CheckTimes()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatCheckTimes(rows))
	}
	if run(6) {
		rows, err := experiments.MutationsContext(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatMutations(rows))
		for _, r := range rows {
			if !r.Caught {
				failed = true
			}
		}
		s := experiments.ProverCacheStats()
		fmt.Printf("shared prover cache across experiments: %d hits, %d misses, %d evictions (%.1f%% hit rate)\n\n",
			s.Hits, s.Misses, s.Evictions, 100*s.HitRate())
	}
	if run(7) {
		r, err := experiments.Inference()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatInference(r))
		if r.WarningsAfter != 0 {
			failed = true
		}
	}
	if run(8) {
		r, err := experiments.Flow()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatFlow(r))
		if r.WarningsSensitive != 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(2)
}
