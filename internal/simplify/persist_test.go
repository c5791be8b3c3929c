package simplify

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachedisk"
	"repro/internal/cert"
	"repro/internal/faults"
	"repro/internal/logic"
)

// provedOutcome runs one certificate-emitting prove against the unsat axiom
// base and returns the Valid outcome plus the cache key ProveContext used.
func provedOutcome(t *testing.T) (Outcome, string) {
	t.Helper()
	p := New(unsatAxioms(), certOptions())
	goal := logic.P("R", logic.Const("c"))
	out := p.Prove(goal)
	if out.Result != Valid || out.Certificate == nil {
		t.Fatalf("seed prove: %v (%q), want Valid with certificate", out.Result, out.Reason)
	}
	return out, p.fingerprint + "\x00" + logic.CanonicalString(goal)
}

// diskCache returns a fresh cache with store attached as its disk tier.
func diskCache(store *cachedisk.Store) *Cache {
	c := NewCache(0)
	c.WithDisk(store)
	return c
}

func TestOutcomeCodecRoundtrip(t *testing.T) {
	valid, _ := provedOutcome(t)
	cases := []Outcome{
		valid,
		{Result: Unknown, Reason: "saturated",
			Stats:          Stats{Rounds: 3, Instantiations: 41, GroundClauses: 12, Decisions: 7},
			CounterExample: []string{"Q(a)", "¬R(b)", ""}},
		{Result: Valid, TraceHash: "deadbeef"},
	}
	for i, in := range cases {
		in.CacheHit = true // must not survive the roundtrip
		got, err := decodeOutcome(encodeOutcome(in))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.CacheHit {
			t.Errorf("case %d: CacheHit persisted", i)
		}
		if got.Result != in.Result || got.Reason != in.Reason ||
			got.Stats.Rounds != in.Stats.Rounds || got.Stats.Instantiations != in.Stats.Instantiations ||
			got.Stats.GroundClauses != in.Stats.GroundClauses || got.Stats.Decisions != in.Stats.Decisions ||
			got.TraceHash != in.TraceHash {
			t.Errorf("case %d: fields mangled:\n got %+v\nwant %+v", i, got, in)
		}
		if len(got.CounterExample) != len(in.CounterExample) {
			t.Errorf("case %d: counter-example %v != %v", i, got.CounterExample, in.CounterExample)
		}
		for j := range got.CounterExample {
			if got.CounterExample[j] != in.CounterExample[j] {
				t.Errorf("case %d: literal %d: %q != %q", i, j, got.CounterExample[j], in.CounterExample[j])
			}
		}
		if (got.Certificate == nil) != (in.Certificate == nil) {
			t.Fatalf("case %d: certificate presence flipped", i)
		}
		if got.Certificate != nil {
			if err := cert.Verify(got.Certificate); err != nil {
				t.Errorf("case %d: round-tripped certificate rejected: %v", i, err)
			}
		}
	}
}

// TestOutcomeCodecPinnedBytes pins the QPV payload of two fixed outcomes:
// a layout change must bump outcomeVersion, or cache directories already on
// disk would decode into different outcomes. Decoding the pinned bytes must
// yield the same outcomes back.
func TestOutcomeCodecPinnedBytes(t *testing.T) {
	cases := []struct {
		out Outcome
		hex string
	}{
		{Outcome{Result: Unknown, Reason: "saturated without contradiction",
			Stats:          Stats{Rounds: 3, Instantiations: 41, GroundClauses: 12, Decisions: 7},
			CounterExample: []string{"Q(a)", "¬R(b)"}, TraceHash: "00c0ffee00c0ffee"},
			"515056010003290c071f73617475726174656420776974686f757420636f6e74726164696374696f6e02045128612906c2ac52286229103030633066666565303063306666656500"},
		// A reason the engine no longer mints: the codec carries any
		// reason string verbatim.
		{Outcome{Result: Valid, Reason: "prefilter: interval analysis",
			Stats: Stats{Rounds: 1, GroundClauses: 5}, TraceHash: "0123456789abcdef"},
			"5150560101010005001c70726566696c7465723a20696e74657276616c20616e616c7973697300103031323334353637383961626364656600"},
	}
	for i, tc := range cases {
		if got := hex.EncodeToString(encodeOutcome(tc.out)); got != tc.hex {
			t.Errorf("case %d: encoded\n got %s\nwant %s", i, got, tc.hex)
		}
		data, _ := hex.DecodeString(tc.hex)
		got, err := decodeOutcome(data)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, tc.out) {
			t.Errorf("case %d: decoded\n got %+v\nwant %+v", i, got, tc.out)
		}
	}
}

func TestDecodeOutcomeRejectsHostileBytes(t *testing.T) {
	valid, _ := provedOutcome(t)
	good := encodeOutcome(valid)
	reject := func(name string, data []byte) {
		t.Helper()
		if _, err := decodeOutcome(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	reject("empty", nil)
	reject("bad magic", append([]byte("XXX"), good[3:]...))
	stale := append([]byte(nil), good...)
	stale[3] = 99
	reject("stale version", stale)
	for cut := 0; cut < len(good); cut += 7 {
		reject("truncated", good[:cut])
	}
	reject("trailing bytes", append(append([]byte(nil), good...), 0xff))
	reject("transient reason", encodeOutcome(Outcome{Result: Unknown, Reason: ReasonBudget}))
	reject("fault reason", encodeOutcome(Outcome{Result: Unknown, Reason: "fault: injected"}))
	reject("impossible verdict", encodeOutcome(Outcome{Result: Result(42)}))
	// Corrupt the embedded certificate region: must reject, not return a
	// Valid with a broken proof.
	mut := append([]byte(nil), good...)
	mut[len(mut)-10] ^= 0x55
	reject("corrupt embedded certificate", mut)
}

// TestDecodeOutcomeBounds trips the counter-example list bound with a length
// no payload could hold, before any element is read.
func TestDecodeOutcomeBounds(t *testing.T) {
	data := append([]byte(outcomeMagic), outcomeVersion, 0, 0, 0, 0, 0, 0)
	data = binary.AppendUvarint(data, maxPersistList+1)
	if _, err := decodeOutcome(data); err == nil || !strings.Contains(err.Error(), "counter-example list too long") {
		t.Errorf("got %v, want the counter-example list bound", err)
	}
}

func TestCacheDiskTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := cachedisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := diskCache(store)
	p := New(unsatAxioms(), certOptions()).WithCache(cache)
	goal := logic.P("R", logic.Const("c"))
	first := p.Prove(goal)
	if first.Result != Valid || first.CacheHit {
		t.Fatalf("seed: %v hit=%t", first.Result, first.CacheHit)
	}

	// "Restart": fresh memory cache, fresh store over the same directory.
	store2, err := cachedisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache2 := diskCache(store2)
	p2 := New(unsatAxioms(), certOptions()).WithCache(cache2)
	warm := p2.Prove(goal)
	if warm.Result != Valid || !warm.CacheHit {
		t.Fatalf("warm restart: %v (%q) hit=%t, want a disk-served Valid", warm.Result, warm.Reason, warm.CacheHit)
	}
	if warm.Certificate == nil {
		t.Fatal("disk-served Valid lost its certificate (replay-on-fetch has nothing to check)")
	}
	st := cache2.Stats()
	if st.Hits != 1 || st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want exactly one hit, served from disk", st)
	}
	// Third prove is a pure memory hit — the disk-loaded entry was promoted.
	if third := p2.Prove(goal); !third.CacheHit {
		t.Fatal("promoted entry missed")
	}
	if st := cache2.Stats(); st.Hits != 2 || st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats after promotion = %+v", st)
	}
}

func TestCacheDiskTierPoisonedPayloadReproves(t *testing.T) {
	dir := t.TempDir()
	store, _ := cachedisk.Open(dir, 0)
	p := New(unsatAxioms(), certOptions()).WithCache(diskCache(store))
	goal := logic.P("R", logic.Const("c"))
	p.Prove(goal)

	// Overwrite the record with a correctly-sealed but semantically rotten
	// payload: the disk layer's checksum passes, the outcome decode must
	// reject, the record must be evicted, and the goal re-proved.
	files, _ := filepath.Glob(filepath.Join(dir, "*.qc"))
	if len(files) != 1 {
		t.Fatalf("expected 1 record, found %v", files)
	}
	key := p.fingerprint + "\x00" + logic.CanonicalString(goal)
	if err := os.WriteFile(files[0], cachedisk.Seal(key, []byte("not an outcome")), 0o644); err != nil {
		t.Fatal(err)
	}

	store2, _ := cachedisk.Open(dir, 0)
	cache2 := diskCache(store2)
	p2 := New(unsatAxioms(), certOptions()).WithCache(cache2)
	out := p2.Prove(goal)
	if out.Result != Valid || out.CacheHit {
		t.Fatalf("poisoned payload: %v hit=%t, want a fresh re-prove", out.Result, out.CacheHit)
	}
	if st := store2.Stats(); st.CorruptEvicted != 1 {
		t.Fatalf("disk stats = %+v, want the poisoned record corrupt-evicted", st)
	}
	// The re-prove wrote a clean record back; a third cold start hits it.
	store3, _ := cachedisk.Open(dir, 0)
	p3 := New(unsatAxioms(), certOptions()).WithCache(diskCache(store3))
	if out := p3.Prove(goal); !out.CacheHit {
		t.Fatal("healed record not served")
	}
}

// TestDiskValidWithoutCertificateReproves pins the disk-tier mirror of the
// peer gate: a disk record rewritten as a Valid with its certificate
// stripped (checksum and framing recompute cleanly, so only the certificate
// requirement stands in the way) must be rejected under EmitCertificates,
// evicted at the disk tier, and re-proved — never served as a trusted
// Valid.
func TestDiskValidWithoutCertificateReproves(t *testing.T) {
	dir := t.TempDir()
	store, _ := cachedisk.Open(dir, 0)
	p := New(unsatAxioms(), certOptions()).WithCache(diskCache(store))
	goal := logic.P("R", logic.Const("c"))
	first := p.Prove(goal)
	if first.Result != Valid || first.Certificate == nil {
		t.Fatalf("seed: %v cert=%t", first.Result, first.Certificate != nil)
	}

	noCert := first
	noCert.Certificate = nil
	key := p.fingerprint + "\x00" + logic.CanonicalString(goal)
	files, _ := filepath.Glob(filepath.Join(dir, "*.qc"))
	if len(files) != 1 {
		t.Fatalf("expected 1 record, found %v", files)
	}
	if err := os.WriteFile(files[0], cachedisk.Seal(key, encodeOutcome(noCert)), 0o644); err != nil {
		t.Fatal(err)
	}

	store2, _ := cachedisk.Open(dir, 0)
	cache2 := diskCache(store2)
	p2 := New(unsatAxioms(), certOptions()).WithCache(cache2)
	out := p2.Prove(goal)
	if out.Result != Valid || out.CacheHit {
		t.Fatalf("cert-less disk Valid: %v hit=%t, want a fresh re-prove", out.Result, out.CacheHit)
	}
	if out.Certificate == nil {
		t.Fatal("re-prove lost its certificate")
	}
	if st := store2.Stats(); st.CorruptEvicted != 1 {
		t.Fatalf("disk stats = %+v, want the stripped record evicted", st)
	}
	if st := cache2.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want the refused disk record counted as a miss, not a hit", st)
	}
	// The re-prove healed the record: a cold third start serves a Valid that
	// again carries its certificate.
	store3, _ := cachedisk.Open(dir, 0)
	cache3 := diskCache(store3)
	p3 := New(unsatAxioms(), certOptions()).WithCache(cache3)
	healed := p3.Prove(goal)
	if !healed.CacheHit || healed.Certificate == nil {
		t.Fatalf("healed record: hit=%t cert=%t", healed.CacheHit, healed.Certificate != nil)
	}
	if got := cache3.Stats().Hits; got != 1 {
		t.Fatalf("healed cache counts %d hits served, want 1", got)
	}
}

func TestPeerFetchVerifiedPath(t *testing.T) {
	valid, key := provedOutcome(t)

	sealedFor := func(out Outcome) []byte {
		return cachedisk.Seal(key, encodeOutcome(out))
	}
	serve := map[string][]byte{key: sealedFor(valid)}

	dir := t.TempDir()
	store, _ := cachedisk.Open(dir, 0)
	cache := diskCache(store)
	cache.WithPeerFetch(func(k string) ([]byte, bool) {
		rec, ok := serve[k]
		return rec, ok
	})
	p := New(unsatAxioms(), certOptions()).WithCache(cache)
	goal := logic.P("R", logic.Const("c"))

	out := p.Prove(goal)
	if out.Result != Valid || !out.CacheHit {
		t.Fatalf("peer-served prove: %v hit=%t", out.Result, out.CacheHit)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.PeerHits != 1 || st.Misses != 0 || st.PeerRejects != 0 {
		t.Fatalf("stats = %+v, want one hit, served by the peer", st)
	}
	// The peer-fetched entry was written through to the local disk tier.
	if ds := store.Stats(); ds.Puts != 1 {
		t.Fatalf("disk stats = %+v, want the peer entry persisted locally", ds)
	}
}

// TestPeerFetchRejectsUnverifiable serves hostile peer records to a
// certificate-emitting and to a certificate-off prover: the peer rule holds
// whatever the local options, so each is refused, counted as a peer reject,
// and the goal proved locally.
func TestPeerFetchRejectsUnverifiable(t *testing.T) {
	valid, _ := provedOutcome(t)
	goal := logic.P("R", logic.Const("c"))

	noCert := valid
	noCert.Certificate = nil
	wrongGoal := valid
	crt := *valid.Certificate
	crt.Key = "⊢ something else entirely"
	wrongGoal.Certificate = &crt

	// Each case builds its record for the key the prover under test asks
	// for, so only the named defect stands between the record and a hit.
	cases := []struct {
		name   string
		sealed func(key string) []byte
	}{
		{"tampered seal", func(key string) []byte {
			rec := cachedisk.Seal(key, encodeOutcome(valid))
			rec[len(rec)/2] ^= 1
			return rec
		}},
		{"wrong key seal", func(string) []byte { return cachedisk.Seal("some other key", encodeOutcome(valid)) }},
		{"undecodable payload", func(key string) []byte { return cachedisk.Seal(key, []byte("garbage")) }},
		{"valid without certificate", func(key string) []byte { return cachedisk.Seal(key, encodeOutcome(noCert)) }},
		{"certificate for another goal", func(key string) []byte { return cachedisk.Seal(key, encodeOutcome(wrongGoal)) }},
		{"transient outcome", func(key string) []byte {
			return cachedisk.Seal(key, encodeOutcome(Outcome{Result: Unknown, Reason: ReasonBudget}))
		}},
		{"forged unknown", func(key string) []byte {
			return cachedisk.Seal(key, encodeOutcome(Outcome{
				Result: Unknown, Reason: "saturated without contradiction", CounterExample: []string{"¬R(c)"},
			}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, opts := range []Options{certOptions(), DefaultOptions()} {
				p := New(unsatAxioms(), opts)
				rec := tc.sealed(p.fingerprint + "\x00" + logic.CanonicalString(goal))
				cache := NewCache(0)
				cache.WithPeerFetch(func(string) ([]byte, bool) {
					return rec, true
				})
				out := p.WithCache(cache).Prove(goal)
				// The hostile record is refused and the goal proved locally —
				// the adversary cost us a prove, never a verdict.
				if out.Result != Valid || out.CacheHit {
					t.Fatalf("cert=%t: %v hit=%t, want a fresh local Valid", opts.EmitCertificates, out.Result, out.CacheHit)
				}
				st := cache.Stats()
				if st.PeerRejects != 1 || st.PeerHits != 0 {
					t.Fatalf("cert=%t: stats = %+v, want exactly one peer reject", opts.EmitCertificates, st)
				}
			}
		})
	}

	// A certificate-off prover still replays a peer's certificate through the
	// one replay function, fault point included: a genuine certified Valid
	// whose replay faults is refused like any other unproved peer value.
	t.Run("replay fault, certificate-off prover", func(t *testing.T) {
		defer faults.DisarmAll()
		p := New(unsatAxioms(), DefaultOptions())
		rec := cachedisk.Seal(p.fingerprint+"\x00"+logic.CanonicalString(goal), encodeOutcome(valid))
		cache := NewCache(0)
		cache.WithPeerFetch(func(string) ([]byte, bool) { return rec, true })
		if err := faults.ArmPoint("cert.replay", faults.Config{Mode: faults.ModeError}); err != nil {
			t.Fatal(err)
		}
		out := p.WithCache(cache).Prove(goal)
		if out.Result != Valid || out.CacheHit {
			t.Fatalf("%v hit=%t, want a fresh local Valid", out.Result, out.CacheHit)
		}
		if st := cache.Stats(); st.PeerRejects != 1 || st.PeerHits != 0 {
			t.Fatalf("stats = %+v, want the faulted replay refused as one peer reject", st)
		}
	})
}

func TestDiskTierNeverStoresTransients(t *testing.T) {
	// An already-canceled context yields a transient outcome and bypasses
	// the cache entirely; with a disk tier attached nothing may be
	// persisted, and nothing may be served on retry.
	dir := t.TempDir()
	store, _ := cachedisk.Open(dir, 0)
	p := New(unsatAxioms(), certOptions()).WithCache(diskCache(store))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := p.ProveContext(ctx, logic.P("R", logic.Const("c")))
	// The search may settle the goal before the first cancellation poll,
	// so the verdict itself may be either Valid or a transient Unknown —
	// what matters is that an outcome minted under a dead context reaches
	// neither the memory cache nor the disk.
	if out.CacheHit {
		t.Fatal("canceled prove served from cache")
	}
	if out.Result == Unknown && !TransientReason(out.Reason) {
		t.Fatalf("canceled prove: non-transient Unknown %q", out.Reason)
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("%d canceled-context outcomes persisted to disk", n)
	}
}
