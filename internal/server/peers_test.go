package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cachedisk"
	"repro/internal/faults"
	"repro/internal/simplify"
)

const peerSrc = `
int* nonnull g;
void ok() { int x = 1; }
void bad(int* p) {
  g = p;
}
`

// diskHashes lists the committed record hashes in a store directory.
func diskHashes(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".qc") {
			hashes = append(hashes, strings.TrimSuffix(e.Name(), ".qc"))
		}
	}
	return hashes
}

// proveVerdicts renders a /prove answer's per-obligation verdicts, the part
// no peer may change.
func proveVerdicts(resp ProveResponse) string {
	var b strings.Builder
	fmt.Fprintf(&b, "all_sound=%t", resp.AllSound)
	for _, r := range resp.Reports {
		for _, ob := range r.Obligations {
			fmt.Fprintf(&b, "\n%s %s: valid=%t", r.Qualifier, ob.Description, ob.Valid)
		}
	}
	return b.String()
}

// proveOn runs POST /prove for one qualifier and fails the test on a non-200.
func proveOn(t *testing.T, url, qual string) ProveResponse {
	t.Helper()
	var resp ProveResponse
	if code := postJSON(t, url+"/prove", ProveRequest{Qualifier: qual}, &resp); code != http.StatusOK {
		t.Fatalf("%s prove %s: status %d", url, qual, code)
	}
	return resp
}

// TestCacheEndpointServesSealedRecords: GET /cache/prover/{hash} serves the
// sealed bytes of a real prover record and answers 404 for an absent or
// malformed hash, and for the function namespace even when the record
// exists on disk — function results are never served to peers.
func TestCacheEndpointServesSealedRecords(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir(), EmitCertificates: true})
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Source: peerSrc}, nil); code != http.StatusOK {
		t.Fatalf("seed check: %d", code)
	}
	proveOn(t, ts.URL, "nonnull")
	proverHashes := diskHashes(t, s.diskProver.Dir())
	funcHashes := diskHashes(t, s.diskFunc.Dir())
	if len(proverHashes) == 0 || len(funcHashes) == 0 {
		t.Fatalf("records on disk: %d prover, %d func; want both", len(proverHashes), len(funcHashes))
	}

	resp, err := http.Get(fmt.Sprintf("%s/cache/prover/%s", ts.URL, proverHashes[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache get: %d", resp.StatusCode)
	}
	rec, _ := io.ReadAll(resp.Body)
	// The served bytes are a verifiable sealed record (the key is unknown
	// here, so verify framing and checksum only).
	if _, err := cachedisk.Unseal(rec, ""); err != nil {
		t.Fatalf("served record does not verify: %v", err)
	}

	for _, path := range []string{
		"/cache/func/" + funcHashes[0],             // function namespace
		"/cache/prover/" + strings.Repeat("0", 32), // absent hash
		"/cache/prover/not-a-hash",                 // bad hash
	} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, r.StatusCode)
		}
	}
}

// TestProvePeerRequiresCertificates: prover outcomes fetched from a peer are
// admitted only after their certificates replay locally. Both nodes emit
// certificates; node B's prove is served by peer fetches with zero rejects
// and the soundness verdicts match node A's obligation for obligation.
func TestProvePeerRequiresCertificates(t *testing.T) {
	_, tsA := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir(), EmitCertificates: true})
	var respA ProveResponse
	if code := postJSON(t, tsA.URL+"/prove", ProveRequest{Qualifier: "nonnull"}, &respA); code != http.StatusOK {
		t.Fatalf("node A prove: %d", code)
	}
	if !respA.AllSound {
		t.Fatalf("node A: nonnull not sound: %+v", respA)
	}

	sB, tsB := newTestServer(t, Config{
		Workers: 2, CacheDir: t.TempDir(), EmitCertificates: true,
		CachePeers: []string{tsA.URL},
	})
	var respB ProveResponse
	if code := postJSON(t, tsB.URL+"/prove", ProveRequest{Qualifier: "nonnull"}, &respB); code != http.StatusOK {
		t.Fatalf("node B prove: %d", code)
	}
	if !respB.AllSound {
		t.Fatalf("node B: nonnull not sound via peers: %+v", respB)
	}
	pc := sB.proverCache.Stats()
	if pc.PeerHits == 0 {
		t.Fatalf("node B prover cache stats = %+v, want peer hits", pc)
	}
	if pc.PeerRejects != 0 {
		t.Fatalf("verified peer fetches were rejected: %+v", pc)
	}
	if len(respA.Reports) != 1 || len(respB.Reports) != 1 ||
		len(respA.Reports[0].Obligations) != len(respB.Reports[0].Obligations) {
		t.Fatalf("report shapes diverge: A=%d B=%d reports", len(respA.Reports), len(respB.Reports))
	}
	for i, ob := range respB.Reports[0].Obligations {
		if ob.Valid != respA.Reports[0].Obligations[i].Valid {
			t.Fatalf("obligation %d verdict flipped across the peer fetch", i)
		}
	}
}

// TestAdversarialPeerNeverFlipsVerdicts: a hostile peer costs local
// re-proves, never a changed verdict. An outsider relaying node A's records
// with one byte flipped is refused at Unseal; a liar serving correctly
// sealed records that turn A's Valids into Unknowns is refused because an
// Unknown carries no certificate to replay. Both surface as peer_rejects in
// /metrics with no peer hits.
func TestAdversarialPeerNeverFlipsVerdicts(t *testing.T) {
	const qual = "nonnull"
	sA, tsA := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir(), EmitCertificates: true})
	respA := proveOn(t, tsA.URL, qual)
	if !respA.AllSound {
		t.Fatalf("node A: %s not sound: %+v", qual, respA)
	}

	// rejectedEverything proves qual on a fresh node behind peer and
	// requires A's verdicts with every fetched record refused.
	rejectedEverything := func(stage, peer string) {
		t.Helper()
		s, ts := newTestServer(t, Config{Workers: 2, EmitCertificates: true, CachePeers: []string{peer}})
		resp := proveOn(t, ts.URL, qual)
		if a, b := proveVerdicts(respA), proveVerdicts(resp); a != b {
			t.Fatalf("%s changed the verdicts:\nA: %s\ngot: %s", stage, a, b)
		}
		if pc := s.proverCache.Stats(); pc.PeerHits != 0 || pc.PeerRejects == 0 {
			t.Fatalf("%s: prover cache stats = %+v, want rejects and no hits", stage, pc)
		}
		var m MetricsResponse
		getJSON(t, ts.URL+"/metrics", &m)
		if m.ProverCache.PeerRejects == 0 {
			t.Fatalf("%s: rejects not surfaced in /metrics: %+v", stage, m.ProverCache)
		}
	}

	// Outsider: flips one byte in every record it relays from A.
	tamper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(tsA.URL + r.URL.Path)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusOK && len(data) > 0 {
			data[len(data)/2] ^= 0x40
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(data)
	}))
	defer tamper.Close()
	rejectedEverything("byte-flipping relay", tamper.URL)

	// Liar: serves every key A holds as a correctly sealed, non-transient
	// Unknown — well-formed bytes that would fail each obligation.
	lies := map[string][]byte{}
	sA.proverCache.ForEach(func(key string, _ simplify.Outcome) {
		payload := sA.proverCache.Codec().Encode(simplify.Outcome{
			Result: simplify.Unknown, Reason: "saturated without contradiction",
		})
		lies[cachedisk.KeyHash(key)] = cachedisk.Seal(key, payload)
	})
	if len(lies) == 0 {
		t.Fatal("node A cached no outcomes to lie about")
	}
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec, ok := lies[path.Base(r.URL.Path)]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Write(rec)
	}))
	defer liar.Close()
	rejectedEverything("lying peer", liar.URL)
}

// TestCachePeersNeedCertificates: a node without certificates asks only for
// keys whose Valids carry none, so nothing a peer sends could be admitted;
// it must not attach the peer tier at all.
func TestCachePeersNeedCertificates(t *testing.T) {
	var requests atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusNotFound)
	}))
	defer peer.Close()
	s, ts := newTestServer(t, Config{Workers: 2, CachePeers: []string{peer.URL}})
	if resp := proveOn(t, ts.URL, "nonnull"); !resp.AllSound {
		t.Fatalf("nonnull not sound: %+v", resp)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("a node without certificates sent %d peer requests", n)
	}
	if s.peerClient != nil {
		t.Fatal("peer client attached without certificates")
	}
}

// TestDeadPeerBreakerAndFallback: an unreachable peer costs a few failed
// fetches, then its breaker opens and later lookups skip it — and every
// prove still answers correctly from local proofs throughout.
func TestDeadPeerBreakerAndFallback(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:          2,
		EmitCertificates: true,
		CachePeers:       []string{"http://127.0.0.1:1"}, // nothing listens here
		PeerTimeout:      100 * time.Millisecond,
	})
	for _, qual := range []string{"nonnull", "pos", "unique"} {
		if resp := proveOn(t, ts.URL, qual); !resp.AllSound {
			t.Fatalf("%s not sound beside a dead peer: %+v", qual, resp)
		}
	}
	snap := s.peerClient.snapshot()
	if snap.Errors == 0 {
		t.Fatalf("dead peer produced no errors: %+v", snap)
	}
	if snap.Skipped == 0 {
		t.Fatalf("breaker never skipped the dead peer: %+v", snap)
	}
	if len(snap.Breaker.Qualifiers) == 0 {
		t.Fatalf("dead peer missing from breaker snapshot: %+v", snap.Breaker)
	}
}

// TestFailingPeerOneAttemptPerMiss: a peer answering 500 costs one attempt
// per local miss, each charged to its breaker, until the breaker opens and
// later misses skip it; every verdict comes from local proofs.
func TestFailingPeerOneAttemptPerMiss(t *testing.T) {
	var requests atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer peer.Close()
	s, ts := newTestServer(t, Config{Workers: 1, EmitCertificates: true, CachePeers: []string{peer.URL}})
	if resp := proveOn(t, ts.URL, "pos"); resp.Degraded || !resp.AllSound {
		t.Fatalf("pos beside a failing peer: %+v", resp)
	}
	snap := s.peerClient.snapshot()
	if snap.Errors != peerBreakerThreshold || snap.Fetches-snap.Skipped != snap.Errors || snap.Misses != snap.Fetches {
		t.Fatalf("peer stats %+v: want %d errors, one per fetch until the breaker opened, and every fetch a miss",
			snap, peerBreakerThreshold)
	}
	if n := requests.Load(); n != int64(snap.Errors) {
		t.Fatalf("the failing peer saw %d requests for %d errors", n, snap.Errors)
	}
	if st := snap.Breaker.Qualifiers[peer.URL].State; st != "open" {
		t.Fatalf("the failing peer's breaker is %q, want open", st)
	}
}

// TestPeerFetchFaultPoint: an armed peer.fetch fault behaves exactly like a
// failing peer — charged to the breaker as fetch errors while every verdict
// stays locally proved and correct — and a node started after disarm warms
// from the same peer cleanly.
func TestPeerFetchFaultPoint(t *testing.T) {
	defer faults.DisarmAll()
	_, tsA := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir(), EmitCertificates: true})
	respA := proveOn(t, tsA.URL, "nonnull")

	sB, tsB := newTestServer(t, Config{Workers: 2, EmitCertificates: true, CachePeers: []string{tsA.URL}})
	if err := faults.Arm("peer.fetch=error"); err != nil {
		t.Fatal(err)
	}
	respB := proveOn(t, tsB.URL, "nonnull")
	if a, b := proveVerdicts(respA), proveVerdicts(respB); a != b {
		t.Fatalf("faulted peer path changed the verdicts:\nA: %s\nB: %s", a, b)
	}
	snap := sB.peerClient.snapshot()
	if snap.Errors == 0 || snap.Hits != 0 {
		t.Fatalf("fault did not register as fetch errors: %+v", snap)
	}

	faults.DisarmAll()
	sC, tsC := newTestServer(t, Config{Workers: 2, EmitCertificates: true, CachePeers: []string{tsA.URL}})
	respC := proveOn(t, tsC.URL, "nonnull")
	if a, c := proveVerdicts(respA), proveVerdicts(respC); a != c {
		t.Fatalf("peer-served verdicts diverge:\nA: %s\nC: %s", a, c)
	}
	if got := sC.proverCache.Stats(); got.PeerHits == 0 {
		t.Fatalf("disarmed peer path served nothing: %+v", got)
	}
}

// TestHealthzDrainingCarriesRetryAfter pins the shed-header fix: the
// draining 503 from /healthz tells the load balancer when to re-probe, like
// every other shed path.
func TestHealthzDrainingCarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.draining.Store(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz 503 lacks Retry-After")
	}
	s.draining.Store(false)
}

// TestCacheEndpointDrainingShed: the cache endpoint sheds with Retry-After
// while draining rather than serving records from a dying node.
func TestCacheEndpointDrainingShed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	s.draining.Store(true)
	resp, err := http.Get(ts.URL + "/cache/prover/" + strings.Repeat("0", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining cache get: %d retry-after=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	s.draining.Store(false)
}

// TestProveBodiesAgreeAcrossTiers: under EmitCertificates a /prove of the
// standard library reads the same whichever tier served its outcomes — a
// cold search, the memory tier, the disk tier after a restart over the same
// CacheDir, or a peer — once elapsed_ms, cache_hit and cache_hits, the
// fields that say how the answer was made, are zeroed. A certificate on an
// answer has passed replay in the answering process, so cert_replayed holds
// on every path.
func TestProveBodiesAgreeAcrossTiers(t *testing.T) {
	body := func(url string) string {
		t.Helper()
		var resp ProveResponse
		if code := postJSON(t, url+"/prove", ProveRequest{}, &resp); code != http.StatusOK {
			t.Fatalf("%s prove: status %d", url, code)
		}
		if !resp.AllSound {
			t.Fatalf("%s: the standard library is not sound: %+v", url, resp)
		}
		resp.ElapsedMillis = 0
		for i := range resp.Reports {
			resp.Reports[i].CacheHits = 0
			for j := range resp.Reports[i].Obligations {
				resp.Reports[i].Obligations[j].CacheHit = false
			}
		}
		out, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	cfg := Config{Workers: 1, CacheDir: t.TempDir(), EmitCertificates: true}
	_, first := newTestServer(t, cfg)
	cold := body(first.URL)
	if !strings.Contains(cold, `"cert_replayed": true`) {
		t.Fatal("no certified obligation in the cold answer")
	}
	warm := map[string]string{"memory": body(first.URL)}
	first.Close()

	restarted, tsRestarted := newTestServer(t, cfg)
	warm["disk"] = body(tsRestarted.URL)
	peer, tsPeer := newTestServer(t, Config{Workers: 1, EmitCertificates: true, CachePeers: []string{tsRestarted.URL}})
	warm["peer"] = body(tsPeer.URL)
	if st := restarted.proverCache.Stats(); st.DiskHits == 0 {
		t.Errorf("the restarted node served nothing from disk: %+v", st)
	}
	if st := peer.proverCache.Stats(); st.PeerHits == 0 {
		t.Errorf("the second node fetched nothing from its peer: %+v", st)
	}

	for tier, got := range warm {
		if got == cold {
			continue
		}
		coldLines, gotLines := strings.Split(cold, "\n"), strings.Split(got, "\n")
		i := 0
		for i < len(coldLines) && i < len(gotLines) && coldLines[i] == gotLines[i] {
			i++
		}
		window := func(lines []string) string { return strings.Join(lines[min(i, len(lines)):min(i+2, len(lines))], "\n") }
		t.Errorf("%s-warm body differs from the cold one at line %d:\n%s\nwant\n%s", tier, i+1, window(gotLines), window(coldLines))
	}
}
