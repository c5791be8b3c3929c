package simplify

import (
	"strings"
	"testing"

	"repro/internal/cachedisk"
	"repro/internal/cert"
	"repro/internal/faults"
	"repro/internal/logic"
)

// End-to-end tests for certificate emission: every Valid verdict under
// Options.EmitCertificates carries a proof that the independent replay
// checker (internal/cert) accepts, rejection degrades to a transient
// uncached Unknown that publishes no lemmas, and cached certificates are
// re-verified on fetch.

// certOptions returns DefaultOptions with emission on.
func certOptions() Options {
	opts := DefaultOptions()
	opts.EmitCertificates = true
	return opts
}

// unsatAxioms is a propositionally unsatisfiable axiom base (the four
// binary clauses over Q(a), Q(b)). Refuting it needs a real decision and
// conflict analysis. Inconsistent axioms prove anything; these tests only
// care that the search path runs learning and emission.
func unsatAxioms() []logic.Formula {
	qa := logic.P("Q", logic.Const("a"))
	qb := logic.P("Q", logic.Const("b"))
	return []logic.Formula{
		logic.Disj(qa, qb),
		logic.Disj(logic.Not{F: qa}, qb),
		logic.Disj(qa, logic.Not{F: qb}),
		logic.Disj(logic.Not{F: qa}, logic.Not{F: qb}),
	}
}

// TestCertificateCorpusReplay runs the fixed-seed 10k differential corpus
// through the two certificate-emitting configurations — CDCL with a live
// cache, and CDCL alone — with the frozen verdicts of
// testdata/ground10k.golden as the oracle. Every Valid must carry a
// certificate the replay checker accepts (the engine already self-checked
// it; this re-replays independently, plus a serialization round-trip on a
// sample), and emission must never flip a verdict. Under -short a prefix of
// the corpus is checked.
func TestCertificateCorpusReplay(t *testing.T) {
	g := loadGroundGolden(t)
	n := len(g.formulas)
	if testing.Short() {
		n = 1500
	}
	engines := []struct {
		name string
		p    *Prover
	}{
		{"cdcl+cache", New(nil, certOptions()).WithCache(NewCache(0))},
		{"cdcl", New(nil, certOptions())},
	}

	before := GlobalCertCounters()
	valid := 0
	for i, f := range g.formulas[:n] {
		for _, eng := range engines {
			out := eng.p.Prove(f)
			if (out.Result == Valid) != g.valid[i] {
				t.Fatalf("%s: corpus %d: verdict %v (%q), golden says Valid=%t\n  formula: %s",
					eng.name, i, out.Result, out.Reason, g.valid[i], f)
			}
			if out.Result != Valid {
				continue
			}
			if out.Certificate == nil {
				t.Fatalf("%s: corpus %d: Valid without a certificate (%q)", eng.name, i, out.Reason)
			}
			if err := cert.Verify(out.Certificate); err != nil {
				t.Fatalf("%s: corpus %d: replay rejected: %v\n  formula: %s", eng.name, i, err, f)
			}
			if i%97 == 0 {
				rt, err := cert.Decode(cert.Encode(out.Certificate))
				if err != nil {
					t.Fatalf("%s: corpus %d: decode after encode: %v", eng.name, i, err)
				}
				if err := cert.Verify(rt); err != nil {
					t.Fatalf("%s: corpus %d: round-tripped replay rejected: %v", eng.name, i, err)
				}
			}
		}
		if g.valid[i] {
			valid++
		}
	}
	if after := GlobalCertCounters(); after.Rejected != before.Rejected {
		t.Fatalf("corpus emission rejected %d certificates, want 0", after.Rejected-before.Rejected)
	}
	t.Logf("certificate corpus: %d formulas, %d Valid, all certificates replayed on %d engines", n, valid, len(engines))
}

// TestEasyShapesProveWithCertificates: small goals whose proofs need only
// ground arithmetic, one propositional conflict, single-term integer
// bounds, or reflexivity prove Valid through the CDCL engine with a
// certificate the replay checker accepts, and a false ground goal stays
// Unknown.
func TestEasyShapesProveWithCertificates(t *testing.T) {
	a := logic.Const("a")
	cases := []struct {
		name  string
		goal  logic.Formula
		valid bool
	}{
		{"ground", logic.Eq(logic.Fn("*", logic.Fn("+", logic.Num(1), logic.Num(2)), logic.Num(3)), logic.Num(9)), true},
		{"unit", logic.Imp(logic.P("P", a), logic.P("P", a)), true},
		// a >= 1 and a <= 0: empty interval.
		{"disjoint-bounds", logic.Not{F: logic.Conj(logic.Ge(a, logic.Num(1)), logic.Le(a, logic.Num(0)))}, true},
		// 0 <= a <= 1 with both endpoints excluded: empty over the integers.
		{"ne-tightening", logic.Not{F: logic.Conj(
			logic.Ge(a, logic.Num(0)), logic.Le(a, logic.Num(1)),
			logic.Ne(a, logic.Num(0)), logic.Ne(a, logic.Num(1)))}, true},
		{"self-equality", logic.Eq(logic.Fn("f", a), logic.Fn("f", a)), true},
		{"ground-false", logic.Eq(logic.Num(1), logic.Num(2)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := New(nil, certOptions()).Prove(tc.goal)
			if !tc.valid {
				if out.Result != Unknown || out.Certificate != nil {
					t.Fatalf("got %v (%q) cert=%t, want Unknown without a certificate",
						out.Result, out.Reason, out.Certificate != nil)
				}
				return
			}
			if out.Result != Valid || out.Reason != "" {
				t.Fatalf("got %v (%q), want Valid from the engine", out.Result, out.Reason)
			}
			if out.Certificate == nil {
				t.Fatal("Valid without a certificate")
			}
			if err := cert.Verify(out.Certificate); err != nil {
				t.Fatalf("replay rejected: %v", err)
			}
			if out.TraceHash == "" {
				t.Error("no trace hash")
			}
			if st := out.Stats; st.PrefilterAttempts+st.PrefilterGround+st.PrefilterUnit+st.PrefilterInterval != 0 {
				t.Errorf("always-zero prefilter stats are set: %+v", st)
			}
			t.Logf("%d decisions, %d certificate steps", out.Stats.Decisions, len(out.Certificate.Steps))
		})
	}
}

// TestPrefilterIntervalBounds: the bound shapes the retired prefilter's
// interval tier used to discharge are refuted by the engine's theory
// solver, so each certificate carries a theory lemma, and every such
// lemma replays through ExplTheory: the checker needs no interval rule.
func TestPrefilterIntervalBounds(t *testing.T) {
	a := logic.Const("a")
	cases := []struct {
		name string
		goal logic.Formula
	}{
		// Negation forces a >= 1 and a <= 0: empty interval.
		{"disjoint-bounds", logic.Not{F: logic.Conj(logic.Ge(a, logic.Num(1)), logic.Le(a, logic.Num(0)))}},
		// Negation forces 0 <= a <= 1 with both endpoints excluded: integer
		// tightening empties the interval.
		{"ne-tightening", logic.Not{F: logic.Conj(
			logic.Ge(a, logic.Num(0)), logic.Le(a, logic.Num(1)),
			logic.Ne(a, logic.Num(0)), logic.Ne(a, logic.Num(1)))}},
		// Negation forces f(a) != f(a): a zero constant difference.
		{"self-disequality", logic.Eq(logic.Fn("f", a), logic.Fn("f", a))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := New(nil, certOptions()).Prove(tc.goal)
			if out.Result != Valid || out.Certificate == nil {
				t.Fatalf("got %v (%q) cert=%t, want Valid with a certificate",
					out.Result, out.Reason, out.Certificate != nil)
			}
			lemmas := 0
			for i, s := range out.Certificate.Steps {
				if s.Kind != cert.StepTheory {
					continue
				}
				lemmas++
				if s.Expl != cert.ExplTheory {
					t.Errorf("step %d: explanation kind %d, want ExplTheory", i, s.Expl)
				}
			}
			if lemmas == 0 {
				t.Error("certificate has no theory lemma")
			}
			if err := cert.Verify(out.Certificate); err != nil {
				t.Fatalf("replay rejected: %v", err)
			}
		})
	}
}

// TestPrefilterOffSwitch: the prefilter is gone, so under the default
// options every former tier's canonical goal proves Valid through the
// engine, no reason names the prefilter, and the always-zero
// Stats.Prefilter* fields stay zero.
func TestPrefilterOffSwitch(t *testing.T) {
	a := logic.Const("a")
	goals := []logic.Formula{
		logic.Eq(logic.Fn("*", logic.Fn("+", logic.Num(1), logic.Num(2)), logic.Num(3)), logic.Num(9)),
		logic.Imp(logic.P("P", a), logic.P("P", a)),
		logic.Not{F: logic.Conj(logic.Ge(a, logic.Num(1)), logic.Le(a, logic.Num(0)))},
		logic.Eq(logic.Fn("f", a), logic.Fn("f", a)),
	}
	p := New(nil, DefaultOptions())
	for i, g := range goals {
		out := p.Prove(g)
		if out.Result != Valid {
			t.Errorf("goal %d: %v (%q), want Valid from the engine", i, out.Result, out.Reason)
		}
		if strings.HasPrefix(out.Reason, "prefilter") {
			t.Errorf("goal %d: prefilter reason %q", i, out.Reason)
		}
		if st := out.Stats; st.PrefilterAttempts+st.PrefilterGround+st.PrefilterUnit+st.PrefilterInterval != 0 {
			t.Errorf("goal %d: always-zero prefilter stats are set: %+v", i, st)
		}
	}
}

// TestCertRejectIsTransient: a rejected certificate (injected replay fault)
// degrades the Valid to a transient Unknown that is not cached and is
// counted in the goal's stats; disarmed, the same prover proves and caches
// normally.
func TestCertRejectIsTransient(t *testing.T) {
	defer faults.DisarmAll()
	cache := NewCache(0)
	p := New(unsatAxioms(), certOptions()).WithCache(cache)
	goal := logic.P("R", logic.Const("c"))

	if err := faults.ArmPoint("cert.replay", faults.Config{Mode: faults.ModeError}); err != nil {
		t.Fatal(err)
	}
	out := p.Prove(goal)
	if out.Result != Unknown || !strings.HasPrefix(out.Reason, "cert:") {
		t.Fatalf("faulted replay: %v (%q), want Unknown with a cert: reason", out.Result, out.Reason)
	}
	if !TransientReason(out.Reason) {
		t.Errorf("reason %q must be transient", out.Reason)
	}
	if out.Certificate != nil {
		t.Error("rejected outcome still carries a certificate")
	}
	if out.Stats.CertsRejected != 1 || out.Stats.CertsEmitted != 0 {
		t.Errorf("stats = %+v, want one rejection and no emission", out.Stats)
	}
	if cache.Len() != 0 {
		t.Errorf("transient cert-rejected outcome was cached (%d entries)", cache.Len())
	}

	faults.DisarmAll()
	out = p.Prove(goal)
	if out.Result != Valid {
		t.Fatalf("after disarm: %v (%q), want Valid", out.Result, out.Reason)
	}
	if out.Certificate == nil {
		t.Fatal("Valid without a certificate under EmitCertificates")
	}
	if out.Stats.CertsEmitted != 1 || out.Stats.CertsReplayed != 1 || out.Stats.CertsRejected != 0 {
		t.Errorf("stats = %+v, want one emitted and replayed certificate", out.Stats)
	}
	if cache.Len() != 1 {
		t.Errorf("settled Valid not cached (%d entries)", cache.Len())
	}
}

// TestCertEmitFaultDegrades: a fault at the emission point itself (before
// the certificate is even built) trips the transient fault path.
func TestCertEmitFaultDegrades(t *testing.T) {
	defer faults.DisarmAll()
	cache := NewCache(0)
	p := New(unsatAxioms(), certOptions()).WithCache(cache)
	if err := faults.ArmPoint("cert.emit", faults.Config{Mode: faults.ModeError}); err != nil {
		t.Fatal(err)
	}
	out := p.Prove(logic.P("R", logic.Const("c")))
	if out.Result != Unknown || !strings.HasPrefix(out.Reason, "fault:") {
		t.Fatalf("faulted emit: %v (%q), want Unknown with a fault: reason", out.Result, out.Reason)
	}
	if !TransientReason(out.Reason) || cache.Len() != 0 || out.Certificate != nil {
		t.Errorf("emit fault leaked: transient=%t cached=%d cert=%v",
			TransientReason(out.Reason), cache.Len(), out.Certificate != nil)
	}
}

// TestCertReplayOnFetch: a cached Valid's certificate is re-verified when
// served. Corrupting the stored certificate turns the hit into a miss — the
// goal is re-proved fresh (correct verdict, new certificate), the rejection
// is counted, and the cache's hit counters count only what was served.
func TestCertReplayOnFetch(t *testing.T) {
	cache := NewCache(0)
	p := New(unsatAxioms(), certOptions()).WithCache(cache)
	goal := logic.P("R", logic.Const("c"))

	first := p.Prove(goal)
	if first.Result != Valid || first.Certificate == nil {
		t.Fatalf("seed prove: %v (%q), want Valid with a certificate", first.Result, first.Reason)
	}
	hit := p.Prove(goal)
	if !hit.CacheHit || hit.Result != Valid {
		t.Fatalf("second prove: hit=%t %v, want a cache hit", hit.CacheHit, hit.Result)
	}

	// Corrupt the certificate inside the cache entry (the stored Outcome
	// shares the pointer) by dropping the final empty-clause step.
	corrupted := 0
	cache.ForEach(func(key string, out Outcome) {
		if out.Certificate != nil && len(out.Certificate.Steps) > 0 {
			out.Certificate.Steps = out.Certificate.Steps[:len(out.Certificate.Steps)-1]
			corrupted++
		}
	})
	if corrupted != 1 {
		t.Fatalf("corrupted %d cached certificates, want 1", corrupted)
	}

	before := GlobalCertCounters()
	out := p.Prove(goal)
	if out.CacheHit {
		t.Fatal("corrupted certificate was served as a cache hit")
	}
	if out.Result != Valid || out.Certificate == nil {
		t.Fatalf("re-prove after corruption: %v (%q), want a fresh Valid with a certificate", out.Result, out.Reason)
	}
	if err := cert.Verify(out.Certificate); err != nil {
		t.Fatalf("fresh certificate rejected: %v", err)
	}
	after := GlobalCertCounters()
	if after.Rejected != before.Rejected+1 {
		t.Errorf("rejected counter moved %d, want 1", after.Rejected-before.Rejected)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("after the refused fetch: stats = %+v, want 1 hit served and the refusal counted as a miss", st)
	}
	// The fresh outcome replaced the corrupted entry.
	if final := p.Prove(goal); !final.CacheHit {
		t.Error("fresh outcome was not re-cached")
	}
	if got := cache.Stats().Hits; got != 2 {
		t.Errorf("cache counts %d hits served, but 2 outcomes came back with CacheHit=true", got)
	}
}

// TestCertCountersSumToProcessWide: each outcome's certificate counters
// describe its own lookup. A search emits and replays its certificate, a
// memory or disk hit replays the one it serves, so in a serial run over one
// cache the outcomes' sums equal the process-wide counters' delta. A value
// the gate refuses counts only process-wide, and the outcome that replaces
// it describes the new search alone.
func TestCertCountersSumToProcessWide(t *testing.T) {
	dir := t.TempDir()
	store, err := cachedisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	goal := logic.P("R", logic.Const("c"))
	before := GlobalCertCounters()
	cache := diskCache(store)
	p := New(unsatAxioms(), certOptions()).WithCache(cache)
	computed := p.Prove(goal)
	memory := p.Prove(goal)
	store2, err := cachedisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	disk := New(unsatAxioms(), certOptions()).WithCache(diskCache(store2)).Prove(goal)

	var sum Stats
	for _, tc := range []struct {
		name              string
		out               Outcome
		hit               bool
		emitted, replayed int
	}{
		{"computed", computed, false, 1, 1},
		{"memory hit", memory, true, 0, 1},
		{"disk hit", disk, true, 0, 1},
	} {
		st := tc.out.Stats
		if tc.out.Result != Valid || tc.out.CacheHit != tc.hit {
			t.Fatalf("%s: %v hit=%t, want a Valid with hit=%t", tc.name, tc.out.Result, tc.out.CacheHit, tc.hit)
		}
		if st.CertsEmitted != tc.emitted || st.CertsReplayed != tc.replayed || st.CertsRejected != 0 {
			t.Errorf("%s: certificates emitted %d, replayed %d, rejected %d; want %d, %d, 0",
				tc.name, st.CertsEmitted, st.CertsReplayed, st.CertsRejected, tc.emitted, tc.replayed)
		}
		sum.Add(st)
	}
	after := GlobalCertCounters()
	got := CertCounters{Emitted: uint64(sum.CertsEmitted), Replayed: uint64(sum.CertsReplayed), Rejected: uint64(sum.CertsRejected)}
	want := CertCounters{
		Emitted:  after.Emitted - before.Emitted,
		Replayed: after.Replayed - before.Replayed,
		Rejected: after.Rejected - before.Rejected,
	}
	if got != want {
		t.Errorf("outcomes sum to %+v, process-wide counters moved %+v", got, want)
	}

	// Corrupt the memory entry's certificate: the gate refuses it, and the
	// outcome of the search that replaces it rejects nothing of its own.
	cache.ForEach(func(_ string, out Outcome) {
		out.Certificate.Steps = out.Certificate.Steps[:len(out.Certificate.Steps)-1]
	})
	before = GlobalCertCounters()
	out := p.Prove(goal)
	if out.CacheHit || out.Result != Valid {
		t.Fatalf("after corruption: %v hit=%t, want a fresh Valid", out.Result, out.CacheHit)
	}
	if st := out.Stats; st.CertsEmitted != 1 || st.CertsReplayed != 1 || st.CertsRejected != 0 {
		t.Errorf("re-proved outcome: certificates emitted %d, replayed %d, rejected %d; want 1, 1, 0",
			st.CertsEmitted, st.CertsReplayed, st.CertsRejected)
	}
	if after := GlobalCertCounters(); after.Rejected != before.Rejected+1 {
		t.Errorf("process-wide rejections moved %d, want the refused value's 1", after.Rejected-before.Rejected)
	}
}

// TestCertFingerprintAndImportGate: emission participates in the cache
// fingerprint (certificate-bearing outcomes must not serve a prover that
// would not check them), so an emitting prover sharing a cache never
// imports an outcome a non-emitting prover stored.
func TestCertFingerprintAndImportGate(t *testing.T) {
	on := New(nil, certOptions())
	off := New(nil, DefaultOptions())
	if on.fingerprint == off.fingerprint {
		t.Fatal("EmitCertificates does not alter the cache fingerprint")
	}

	cache := NewCache(0)
	goal := logic.P("R", logic.Const("c"))
	if out := New(unsatAxioms(), DefaultOptions()).WithCache(cache).Prove(goal); out.Result != Valid {
		t.Fatalf("seed prove: %v (%q)", out.Result, out.Reason)
	}
	out := New(unsatAxioms(), certOptions()).WithCache(cache).Prove(goal)
	if out.Result != Valid || out.CacheHit {
		t.Fatalf("emitting prover: %v hit=%t, want a fresh Valid", out.Result, out.CacheHit)
	}
	if out.Certificate == nil {
		t.Error("emitting prover's Valid has no certificate")
	}
}

// BenchmarkCertEmitReplay measures the cost of certificate emission plus
// self-replay on a theory-conflict chain, against the same search without
// emission. (Not part of bench-smoke's pinned set; run manually.)
func BenchmarkCertEmitReplay(b *testing.B) {
	goal := theoryConflictGoal(16)
	for _, mode := range []struct {
		name string
		emit bool
	}{{"emit=off", false}, {"emit=on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.EmitCertificates = mode.emit
			p := New(nil, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := p.Prove(goal)
				if out.Result != Valid {
					b.Fatalf("goal %v (%q)", out.Result, out.Reason)
				}
				if mode.emit && out.Certificate == nil {
					b.Fatal("no certificate emitted")
				}
			}
		})
	}
}
