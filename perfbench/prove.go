package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cert"
	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/simplify"
	"repro/internal/soundness"
)

// proveWorkload is prove-cold: one op is soundness.ProveAllContext, with a
// fresh simplify.Cache and certificates on, over the 13 shipped qualifiers
// (all sound) and over each of the six known-unsound mutations of the
// paper's sections 2.1.3 and 2.2.3 (each must be caught). Goals whose
// refutation closes sit beside goals whose search finds a counterexample.
// The op runs on one worker: serial discharge shares cache entries and
// lemmas in the same order every time, so every op does the same search,
// and one 20 ms critical path is not split across two virtual CPUs that the
// hypervisor preempts independently.
type proveWorkload struct {
	sets        []proveRegistry
	obligations int  // obligations decided per op (the unit of work)
	tamper      bool // expect every verdict inverted (see oracle.go)
}

// proveRegistry is one registry of an op with its known verdicts.
type proveRegistry struct {
	proveSet
	reg *qdl.Registry
}

// mutations are the six deliberately broken qualifiers of
// experiments.Mutations: each rewrites one shipped definition so that a
// type rule no longer preserves the invariant.
var mutations = []struct {
	name    string
	qual    string
	file    string
	from    string
	to      string
	sources []string // the shipped files the registry loads
}{
	{"pos-minus", "pos", "pos.qdl", "E1 * E2", "E1 - E2", []string{"pos.qdl", "neg.qdl"}},
	{"pos-nonstrict", "pos", "pos.qdl", "C > 0", "C >= 0", []string{"pos.qdl", "neg.qdl"}},
	{"neg-times", "neg", "neg.qdl", "E1 + E2", "E1 * E2", []string{"pos.qdl", "neg.qdl"}},
	{"unique-no-disallow", "unique", "unique.qdl", "disallow L\n", "", []string{"unique.qdl"}},
	{"unaliased-no-disallow", "unaliased", "unaliased.qdl", "disallow &X\n", "", []string{"unaliased.qdl"}},
	{"constq-no-noassign", "constq", "constq.qdl", "  noassign\n", "", []string{"constq.qdl"}},
}

// proveSets builds the shipped registry and the six mutated ones.
func proveSets() ([]proveRegistry, error) {
	shipped := quals.FileContents()
	std, err := qdl.Load(shipped)
	if err != nil {
		return nil, err
	}
	if n := len(std.Defs()); n != 13 {
		return nil, fmt.Errorf("shipped registry has %d qualifiers, want 13", n)
	}
	sets := []proveRegistry{{proveSet{name: "shipped"}, std}}
	for _, m := range mutations {
		src := map[string]string{}
		for _, f := range m.sources {
			src[f] = shipped[f]
		}
		mutated := strings.Replace(src[m.file], m.from, m.to, 1)
		if mutated == src[m.file] {
			return nil, fmt.Errorf("mutation %s: %q not found in %s", m.name, m.from, m.file)
		}
		src[m.file] = mutated
		reg, err := qdl.Load(src)
		if err != nil {
			return nil, fmt.Errorf("mutation %s: %w", m.name, err)
		}
		sets = append(sets, proveRegistry{proveSet{name: m.name, unsound: map[string]bool{m.qual: true}}, reg})
	}
	return sets, nil
}

// proveWarmups is how many untimed ops a prove-cold set-up runs.
const proveWarmups = 8

func proveOptions() soundness.Options {
	opts := soundness.DefaultOptions()
	opts.Prover.EmitCertificates = true
	opts.Cache = simplify.NewCache(0)
	opts.Concurrency = 1
	return opts
}

func (w *proveWorkload) setup(o *options) error {
	sets, err := proveSets()
	if err != nil {
		return err
	}
	w.sets = sets
	// Warm-up ops: the first also clausifies the memoized axiom base.
	for i := 0; i < proveWarmups; i++ {
		reps, err := w.op(context.Background())
		if err != nil {
			return err
		}
		if err := w.verify(reps); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		w.obligations = countObligations(reps)
	}
	return nil
}

func (w *proveWorkload) close() {}

// op proves every registry of the op over one fresh cache.
func (w *proveWorkload) op(ctx context.Context) ([][]*soundness.Report, error) {
	opts := proveOptions()
	out := make([][]*soundness.Report, 0, len(w.sets))
	for _, s := range w.sets {
		reps, err := soundness.ProveAllContext(ctx, s.reg, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out = append(out, reps)
	}
	return out, nil
}

func (w *proveWorkload) verify(reps [][]*soundness.Report) error {
	if len(reps) != len(w.sets) {
		return fmt.Errorf("%d registries proven, want %d", len(reps), len(w.sets))
	}
	for i, s := range w.sets {
		if err := checkProve(s.proveSet, reps[i], w.tamper); err != nil {
			return err
		}
	}
	return nil
}

func countObligations(reps [][]*soundness.Report) int {
	n := 0
	for _, rs := range reps {
		for _, r := range rs {
			n += len(r.Results)
		}
	}
	return n
}

func (w *proveWorkload) timed(o *options, d time.Duration) *timedResult {
	w.tamper = o.tamper
	r := &timedResult{workUnit: "obligations", clients: 1, extra: map[string]any{}}
	ctx := context.Background()
	start := time.Now()
	for time.Since(start) < d {
		runtime.GC()
		c0 := processCPU()
		st := startStealTimer()
		reps, err := w.op(ctx)
		sp := st.stop()
		cpu := processCPU() - c0
		if err == nil {
			err = w.verify(reps)
		}
		r.add(sp.wall, sp.share, cpu, float64(countObligations(reps)), err)
	}
	r.elapsedMs = ms(time.Since(start))
	r.extra["registries_per_op"] = len(w.sets)
	r.extra["obligations_per_op"] = w.obligations
	return r
}

// proveCounts accumulates one traced op's prover and certificate counters.
type proveCounts struct {
	obligations            int
	attempts, discharged   int
	decisions, learned     int
	restarts, instances    int
	theoryChecks, imported int
	emitted, replayed      int
	rejected, steps, bytes int
	cacheHits, cacheMisses int
	maxObligationMs        float64
}

// decomposedOp proves the op's registries serially through the layers' own
// entry points — soundness.Obligations, then Prover.ProveContext for each
// obligation on a fork of base over one fresh cache, then cert.Verify on
// each certificate — recording a span around every call. It returns reports
// shaped like ProveAllContext's for the oracle.
func (w *proveWorkload) decomposedOp(ctx context.Context, base *simplify.Prover, tr *tracer, op int) ([][]*soundness.Report, proveCounts, error) {
	var c proveCounts
	cache := simplify.NewCache(0)
	prover := base.Fork(cache)
	root := tr.begin(op, -1, layerBench, "op")
	defer tr.end(root)
	out := make([][]*soundness.Report, 0, len(w.sets))
	var verifyErr error
	for _, s := range w.sets {
		var reps []*soundness.Report
		for _, d := range s.reg.Defs() {
			sp := tr.begin(op, root, layerSoundness, "soundness.obligations")
			obls, err := soundness.Obligations(d, s.reg)
			tr.end(sp)
			if err != nil {
				return nil, c, fmt.Errorf("%s/%s: %w", s.name, d.Name, err)
			}
			rep := &soundness.Report{Qualifier: d.Name, Kind: d.Kind}
			for _, o := range obls {
				c.obligations++
				if o.Vacuous {
					rep.Results = append(rep.Results, soundness.ObligationResult{
						Obligation: o, Outcome: simplify.Outcome{Result: simplify.Valid}, Valid: true,
					})
					continue
				}
				sp := tr.begin(op, root, layerSimplify, "simplify.prove")
				t0 := time.Now()
				outcome := prover.ProveContext(ctx, o.Formula)
				el := ms(time.Since(t0))
				tr.end(sp)
				c.maxObligationMs = max(c.maxObligationMs, el)
				valid := outcome.Result == simplify.Valid
				if valid && outcome.Certificate != nil {
					sp := tr.begin(op, root, layerCert, "cert.verify")
					err := cert.Verify(outcome.Certificate)
					tr.end(sp)
					if err != nil && verifyErr == nil {
						verifyErr = fmt.Errorf("%s/%s: certificate rejected: %v", s.name, d.Name, err)
					}
				}
				rep.Results = append(rep.Results, soundness.ObligationResult{Obligation: o, Outcome: outcome, Valid: valid})
				rep.Stats.Add(outcome.Stats)
			}
			reps = append(reps, rep)
		}
		out = append(out, reps)
	}
	cs := cache.Stats()
	c.cacheHits, c.cacheMisses = int(cs.Hits), int(cs.Misses)
	return out, c, verifyErr
}

// tally folds the reports' search telemetry into c (outside the spans).
func (c *proveCounts) tally(reps [][]*soundness.Report) {
	for _, rs := range reps {
		for _, r := range rs {
			st := r.Stats
			c.attempts += st.PrefilterAttempts
			c.discharged += st.PrefilterGround + st.PrefilterUnit + st.PrefilterInterval
			c.decisions += st.Decisions
			c.learned += st.LearnedClauses
			c.restarts += st.Restarts
			c.instances += st.Instantiations
			c.theoryChecks += st.TheoryChecks
			c.imported += st.LemmasImported
			c.emitted += st.CertsEmitted
			c.replayed += st.CertsReplayed
			c.rejected += st.CertsRejected
			for _, res := range r.Results {
				if crt := res.Outcome.Certificate; crt != nil {
					c.steps += len(crt.Steps)
					c.bytes += len(cert.Encode(crt))
				}
			}
		}
	}
}

func (w *proveWorkload) traced(o *options, d time.Duration) ([]metric, map[string]any, error) {
	w.tamper = o.tamper
	ctx := context.Background()
	vals := map[string]float64{}
	attempted := 0

	// Phase 1: untraced ops (the timed op), which also give the Go-runtime
	// counts.
	var untraced []float64
	var cpu time.Duration
	var mem memDelta
	peak := startHeapPeak()
	for start := time.Now(); time.Since(start) < d/2 || len(untraced) < 2; {
		runtime.GC()
		m0 := memSnap()
		c0 := processCPU()
		t0 := time.Now()
		reps, err := w.op(ctx)
		wall := time.Since(t0)
		cpu += processCPU() - c0
		mem.add(memDiff(m0, memSnap()))
		attempted++
		if err == nil {
			err = w.verify(reps)
		}
		if err != nil {
			peak.finish()
			return nil, nil, err
		}
		untraced = append(untraced, ms(wall))
	}
	for _, m := range procMetrics(len(untraced), cpu, mem, peak.finish()) {
		vals[m.name] = m.value
	}

	// Phase 2: traced decomposed ops over a base prover built (and warmed
	// by one untraced op) beforehand.
	base := simplify.New(soundness.Axioms(), proveOptions().Prover)
	tr := newTracer()
	if _, _, err := w.decomposedOp(ctx, base, newTracer(), 0); err != nil {
		return nil, nil, err
	}
	var counts []proveCounts
	for op, start := 0, time.Now(); time.Since(start) < d/2 || op < 2; op++ {
		runtime.GC()
		reps, c, err := w.decomposedOp(ctx, base, tr, op)
		attempted++
		if err == nil {
			err = w.verify(reps)
		}
		if err != nil {
			return nil, nil, err
		}
		c.tally(reps)
		counts = append(counts, c)
	}
	per := func(f func(c proveCounts) float64) float64 {
		xs := make([]float64, len(counts))
		for i, c := range counts {
			xs[i] = f(c)
		}
		return median(xs)
	}
	vals["sound.obligations"] = per(func(c proveCounts) float64 { return float64(c.obligations) })
	vals["sound.oblgen_ms"] = tr.nameMedian("soundness.obligations")
	vals["sound.obligation_ms_p50"] = median(tr.durations("simplify.prove"))
	vals["sound.obligation_ms_max"] = per(func(c proveCounts) float64 { return c.maxObligationMs })
	vals["sound.self_ms"] = tr.selfMedian(layerSoundness)
	vals["prover.goal_ms"] = tr.nameMedian("simplify.prove")
	vals["prover.prefilter_attempts"] = per(func(c proveCounts) float64 { return float64(c.attempts) })
	vals["prover.prefilter_discharged"] = per(func(c proveCounts) float64 { return float64(c.discharged) })
	if a := vals["prover.prefilter_attempts"]; a > 0 {
		vals["prover.prefilter_ratio"] = vals["prover.prefilter_discharged"] / a
	}
	vals["prover.decisions"] = per(func(c proveCounts) float64 { return float64(c.decisions) })
	vals["prover.learned"] = per(func(c proveCounts) float64 { return float64(c.learned) })
	vals["prover.restarts"] = per(func(c proveCounts) float64 { return float64(c.restarts) })
	vals["prover.instances"] = per(func(c proveCounts) float64 { return float64(c.instances) })
	vals["prover.theory_checks"] = per(func(c proveCounts) float64 { return float64(c.theoryChecks) })
	vals["prover.cache_hits"] = per(func(c proveCounts) float64 { return float64(c.cacheHits) })
	vals["prover.cache_misses"] = per(func(c proveCounts) float64 { return float64(c.cacheMisses) })
	vals["prover.lemmas_imported"] = per(func(c proveCounts) float64 { return float64(c.imported) })
	vals["prover.self_ms"] = tr.selfMedian(layerSimplify)
	vals["cert.emitted"] = per(func(c proveCounts) float64 { return float64(c.emitted) })
	vals["cert.replayed"] = per(func(c proveCounts) float64 { return float64(c.replayed) })
	vals["cert.rejected"] = per(func(c proveCounts) float64 { return float64(c.rejected) })
	vals["cert.verify_ms"] = tr.nameMedian("cert.verify")
	vals["cert.steps"] = per(func(c proveCounts) float64 { return float64(c.steps) })
	vals["cert.bytes"] = per(func(c proveCounts) float64 { return float64(c.bytes) })
	vals["cert.self_ms"] = tr.selfMedian(layerCert)
	traceMetrics(vals, tr, untraced)

	extra := map[string]any{"attempted": attempted, "failed": 0, "trace_file": writeTrace(o, tr)}
	return layerMetricList(vals), extra, nil
}
