package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cachedisk"
	"repro/internal/checker"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/simplify"
	"repro/internal/testutil/leak"
)

// TestChaosSoak is the fault-injection soak (make chaos-smoke, run under
// -race): with a deterministic random subset of every registered fault
// point armed — panics, errors, and budget trips across the parser-facing
// handlers, admission, the checker, and the prover — 64 concurrent clients
// hammer /check and /prove. The service contract under chaos:
//
//   - every request is answered with one of {200, 413, 503, 504} and a
//     decodable JSON body (never dropped, never hung, never a 500);
//   - the process survives every injected panic;
//   - no fault-minted outcome is cached: the prover cache holds no
//     transient reasons, the function cache's memory tier and its disk
//     records no internal diagnostics;
//   - after the faults clear, authoritative service resumes (the breaker
//     closes, verdicts are sound) and no goroutines are leaked.
func TestChaosSoak(t *testing.T) {
	leak.Check(t)
	faults.DisarmAll()
	defer faults.DisarmAll()

	// A hostile cache peer: answers every record fetch 200 with garbage
	// bytes. Under chaos the verification gauntlet must reject every one —
	// rejects cost re-proves, never verdicts.
	garbagePeer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("QDSK garbage that seals nothing"))
	}))
	defer garbagePeer.Close()

	const cooldown = 200 * time.Millisecond
	s, ts := newTestServer(t, Config{
		Workers:        4,
		RequestTimeout: 20 * time.Second,
		MaxBodyBytes:   1 << 20,
		// The durable tier joins the soak: the cachedisk.* fault points
		// (torn commits, failed loads, failed evictions) and peer.fetch
		// fire on real traffic, and the store's degrade breaker plus the
		// hostile peer's rejections are part of the contract under test.
		// Certificates are on because the prover consults peers only then.
		EmitCertificates: true,
		CacheDir:         t.TempDir(),
		CachePeers:       []string{garbagePeer.URL},
		PeerTimeout:      500 * time.Millisecond,
	})
	setBreaker(s, proveBreakerThreshold, cooldown)

	// Deterministic chaos: a fixed seed picks which points arm and how.
	// Delay mode is excluded (it only slows the soak); panic, error, and
	// budget all exercise containment.
	rng := rand.New(rand.NewSource(42))
	modes := []faults.Mode{faults.ModePanic, faults.ModeError, faults.ModeBudget}
	armed := 0
	for _, name := range faults.Names() {
		if rng.Intn(2) == 0 {
			continue
		}
		cfg := faults.Config{
			Mode:  modes[rng.Intn(len(modes))],
			After: uint64(rng.Intn(3)),
			Every: uint64(2 + rng.Intn(4)),
		}
		if err := faults.ArmPoint(name, cfg); err != nil {
			t.Fatal(err)
		}
		armed++
	}
	if armed == 0 {
		t.Fatal("seed armed no fault points; pick another seed")
	}
	t.Logf("chaos: %d of %d points armed", armed, len(faults.Names()))

	smallBody, _ := json.Marshal(CheckRequest{Source: "int* nonnull g;\nvoid f(int* p) { g = p; }"})
	bftpdBody, _ := json.Marshal(CheckRequest{Filename: "bftpd.c", Source: corpus.Bftpd().Source})
	oversized, _ := json.Marshal(CheckRequest{Source: strings.Repeat("x", 2<<20)})
	provePos, _ := json.Marshal(ProveRequest{Qualifier: "pos"})
	proveAll, _ := json.Marshal(ProveRequest{})

	const clients = 64
	const perClient = 6
	type result struct {
		url  string
		code int
		body []byte
		err  error
	}
	results := make([][]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = make([]result, perClient)
			for i := 0; i < perClient; i++ {
				var url string
				var body []byte
				switch (c + i) % 8 {
				case 0:
					url, body = "/check", bftpdBody
				case 1:
					url, body = "/check", oversized
				case 2:
					url, body = "/prove", proveAll
				case 3, 4:
					url, body = "/prove", provePos
				default:
					url, body = "/check", smallBody
				}
				resp, err := http.Post(ts.URL+url, "application/json", bytes.NewReader(body))
				if err != nil {
					results[c][i] = result{url: url, err: err}
					continue
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				results[c][i] = result{url: url, code: resp.StatusCode, body: data, err: err}
			}
		}(c)
	}
	wg.Wait()

	counts := map[int]int{}
	for c := range results {
		for i, r := range results[c] {
			if r.err != nil {
				t.Fatalf("client %d request %d (%s) failed at the transport level: %v", c, i, r.url, r.err)
			}
			switch r.code {
			case http.StatusOK, http.StatusRequestEntityTooLarge,
				http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			default:
				t.Fatalf("client %d request %d (%s): status %d, want one of 200/413/503/504 (body %q)",
					c, i, r.url, r.code, r.body)
			}
			var v any
			if err := json.Unmarshal(r.body, &v); err != nil {
				t.Fatalf("client %d request %d (%s): non-JSON %d body %q", c, i, r.url, r.code, r.body)
			}
			counts[r.code]++
		}
	}
	t.Logf("chaos answers: %v", counts)
	if counts[http.StatusOK] == 0 {
		t.Error("no request succeeded during the soak")
	}

	// /metrics stays live mid-recovery and surfaces the chaos.
	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics under chaos: status %d", code)
	}
	if !m.FaultsArmed || len(m.FaultFires) == 0 {
		t.Errorf("metrics do not reflect the armed faults: armed=%v fires=%v", m.FaultsArmed, m.FaultFires)
	}
	// The garbage peer must have been asked, and never believed: a soak
	// whose peer stage went inert would pass every other check.
	if m.Peers == nil || m.Peers.Fetches == 0 {
		t.Errorf("the garbage peer was never consulted: %+v", m.Peers)
	}
	if m.ProverCache.PeerHits != 0 {
		t.Errorf("garbage peer records were admitted: %+v", m.ProverCache)
	}

	// No fault-minted result may have been memoized.
	faults.DisarmAll()
	s.proverCache.ForEach(func(key string, out simplify.Outcome) {
		if simplify.TransientReason(out.Reason) {
			t.Errorf("transient prover outcome cached under %q: %+v", key, out)
		}
	})
	s.funcCache.ForEach(func(key string, diagCodes []string) {
		for _, code := range diagCodes {
			if code == "internal" {
				t.Errorf("internal diagnostic cached under %q", key)
			}
		}
	})
	// The disk tier keeps no transient result either; a soak that left no
	// record would check nothing here.
	if n := checkFileRecords(t, s.diskFunc.Dir()); n == 0 {
		t.Error("the soak left no file record on disk to decode")
	}

	// Recovery: the breaker must close and authoritative answers resume.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var probe ProveResponse
		code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, &probe)
		if code == http.StatusOK && !probe.Degraded {
			if !probe.AllSound {
				t.Fatalf("post-chaos prove not sound: %+v", probe.Reports)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never recovered after disarm: code %d, %+v", code, probe)
		}
		time.Sleep(cooldown / 2)
	}
	var check CheckResponse
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Source: "void f() { int x = 1; }"}, &check); code != http.StatusOK || check.Degraded {
		t.Fatalf("post-chaos check degraded: code %d, %+v", code, check)
	}
}

// checkFileRecords decodes every record in the function store at dir,
// failing the test on one that does not decode or that holds an "internal"
// diagnostic, and returns how many it read.
func checkFileRecords(t *testing.T, dir string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.qc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := cachedisk.Unseal(raw, "")
		if err != nil {
			t.Errorf("file record %s: %v", filepath.Base(path), err)
			continue
		}
		rec, err := checker.FileRecordCodec.Decode(payload)
		if err != nil {
			t.Errorf("file record %s: %v", filepath.Base(path), err)
			continue
		}
		for _, d := range rec.Diags {
			if d.Code == "internal" {
				t.Errorf("file record %s holds an internal diagnostic: %v", filepath.Base(path), d)
			}
		}
	}
	return len(paths)
}

// FuzzCheckHandler throws arbitrary bodies at POST /check on a live server:
// whatever the bytes, the answer must be one of the contract's status codes
// with a JSON body, and the server must neither crash nor hang.
func FuzzCheckHandler(f *testing.F) {
	f.Add([]byte(`{"source":"int x = 1;"}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(``))
	f.Add([]byte(`{"source":"int int int"}`))
	f.Add([]byte(`{"source":"` + strings.Repeat("(", 5000) + `"}`))
	f.Add([]byte(`{"source":"int x = 1;","quals":{"q.qdl":"value qualifier ???"}}`))
	f.Add([]byte(`{"source":"` + strings.Repeat("y", 1<<17) + `"}`))
	f.Add([]byte(`{"source":"int x = 1;","timeout_ms":-5}`))

	s := New(Config{Workers: 2, MaxBodyBytes: 1 << 16, RequestTimeout: 5 * time.Second})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var v any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("non-JSON response (status %d): %q", rec.Code, rec.Body.Bytes())
		}
	})
}
