package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil/leak"
)

// postJSON posts v to url and decodes the JSON answer into out (when
// non-nil), returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// newTestServer builds a server plus an httptest front end and tears both
// down with the test. The leak check registers first, so it audits the
// teardown: no worker, queue, or handler goroutine may survive Shutdown.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	leak.Check(t)
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func TestCheckRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// One clean function plus one nonnull violation.
	src := `
int* nonnull g;
void ok() { int x = 1; }
void bad(int* p) {
  g = p;
}
`
	var resp CheckResponse
	code := postJSON(t, ts.URL+"/check", CheckRequest{Filename: "t.c", Source: src}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if resp.Warnings == 0 {
		t.Fatal("expected a nonnull warning, got none")
	}
	found := false
	for _, d := range resp.Diagnostics {
		if d.Code == "qual" && strings.Contains(d.Msg, "nonnull") {
			found = true
			if d.File != "t.c" || d.Line == 0 {
				t.Errorf("diagnostic lacks a usable position: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("no nonnull qual diagnostic in %+v", resp.Diagnostics)
	}
	if resp.Stats.FuncCacheMisses == 0 {
		t.Error("first check should record function-cache misses")
	}

	// The warm second pass replays every function from the cache and must
	// report identical diagnostics.
	var warm CheckResponse
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Filename: "t.c", Source: src}, &warm); code != http.StatusOK {
		t.Fatalf("warm status %d, want 200", code)
	}
	if warm.Stats.FuncCacheHits == 0 {
		t.Error("warm check should record function-cache hits")
	}
	if fmt.Sprint(warm.Diagnostics) != fmt.Sprint(resp.Diagnostics) {
		t.Errorf("warm diagnostics differ:\ncold: %+v\nwarm: %+v", resp.Diagnostics, warm.Diagnostics)
	}
}

func TestCheckCustomQualsAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Custom qualifier set.
	var resp CheckResponse
	code := postJSON(t, ts.URL+"/check", CheckRequest{
		Source: "int big x = 3;",
		Quals: map[string]string{"big.qdl": `
value qualifier big(int Expr E)
  case E of
    decl int Const C:
      C, where C > 100
  invariant value(E) > 100
`},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if resp.Warnings == 0 {
		t.Error("3 is not big (> 100); expected a warning")
	}

	// Malformed JSON body.
	r, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", r.StatusCode)
	}

	// Unparsable source.
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Source: "int int int"}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("unparsable source: status %d, want 422", code)
	}

	// Broken qualifier definitions.
	if code := postJSON(t, ts.URL+"/check", CheckRequest{
		Source: "int x = 0;",
		Quals:  map[string]string{"bad.qdl": "value qualifier ???"},
	}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("broken quals: status %d, want 422", code)
	}
}

func TestProveRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var resp ProveResponse
	code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if len(resp.Reports) != 1 || resp.Reports[0].Qualifier != "pos" {
		t.Fatalf("unexpected reports: %+v", resp.Reports)
	}
	if !resp.Reports[0].Sound || !resp.AllSound {
		t.Errorf("pos should prove sound: %+v", resp.Reports[0])
	}
	if len(resp.Reports[0].Obligations) == 0 {
		t.Error("expected discharged obligations in the report")
	}

	// A second prove of the same qualifier is served from the shared prover
	// cache.
	var warm ProveResponse
	if code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, &warm); code != http.StatusOK {
		t.Fatalf("warm status %d, want 200", code)
	}
	if warm.Reports[0].CacheHits == 0 {
		t.Error("warm prove should hit the prover cache")
	}

	if code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "no-such"}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown qualifier: status %d, want 422", code)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", code)
	}
	postJSON(t, ts.URL+"/check", CheckRequest{Source: "void f() { int x = 1; }"}, nil)
	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d, want 200", code)
	}
	ep, ok := m.Endpoints["check"]
	if !ok || ep.Count == 0 {
		t.Errorf("metrics lack the check endpoint: %+v", m.Endpoints)
	}
	if ep.Codes["200"] == 0 {
		t.Errorf("expected a 200 recorded for check: %+v", ep.Codes)
	}
	if m.Workers != 1 || m.QueueCapacity == 0 {
		t.Errorf("pool gauges wrong: workers=%d queue_capacity=%d", m.Workers, m.QueueCapacity)
	}
	if m.FuncCache.Misses == 0 {
		t.Errorf("func cache counters not surfaced: %+v", m.FuncCache)
	}

	// A prove run on this fresh server fills its prover cache, so the
	// prover_cache section shows misses.
	if code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, nil); code != http.StatusOK {
		t.Fatalf("prove: status %d, want 200", code)
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics after prove: status %d, want 200", code)
	}
	if m.ProverCache.Misses == 0 {
		t.Errorf("prover cache counters not surfaced: %+v", m.ProverCache)
	}
}

// TestProveCertificatesAndMetrics runs /prove on a server configured with
// EmitCertificates and checks the certificate surface end to end: every
// Valid obligation reports a replayed certificate, /metrics exposes the
// process-wide emit/replay/reject counters, and a warm cache-hit prove
// re-replays the stored certificates on fetch.
func TestProveCertificatesAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, EmitCertificates: true})

	var before MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &before); code != http.StatusOK {
		t.Fatalf("metrics: status %d, want 200", code)
	}

	var resp ProveResponse
	if code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, &resp); code != http.StatusOK {
		t.Fatalf("prove: status %d, want 200", code)
	}
	if len(resp.Reports) != 1 || !resp.Reports[0].Sound {
		t.Fatalf("pos should prove sound with certificates on: %+v", resp.Reports)
	}
	certified := 0
	for _, o := range resp.Reports[0].Obligations {
		if !o.Valid {
			continue
		}
		if o.CertSteps > 0 {
			certified++
			if !o.CertReplayed {
				t.Errorf("obligation %q: certificate present but not replayed", o.Description)
			}
		}
	}
	if certified == 0 {
		t.Fatal("no Valid obligation carried a certificate")
	}

	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics after prove: status %d, want 200", code)
	}
	// Counters are process-wide, so assert deltas against the pre-prove
	// snapshot rather than absolute values.
	if m.Certs.Emitted <= before.Certs.Emitted {
		t.Errorf("cert emissions not surfaced: before=%+v after=%+v", before.Certs, m.Certs)
	}
	if m.Certs.Replayed < m.Certs.Emitted {
		t.Errorf("every emitted certificate self-replays: %+v", m.Certs)
	}
	if m.Certs.Rejected != before.Certs.Rejected {
		t.Errorf("healthy prove rejected certificates: before=%+v after=%+v", before.Certs, m.Certs)
	}

	// A warm prove is served from the prover cache; each fetched certificate
	// is re-verified, so the replay counter must advance past the emit count.
	var warm ProveResponse
	if code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, &warm); code != http.StatusOK {
		t.Fatalf("warm prove: status %d, want 200", code)
	}
	if warm.Reports[0].CacheHits == 0 {
		t.Error("warm prove should hit the prover cache")
	}
	var warmMetrics MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &warmMetrics); code != http.StatusOK {
		t.Fatalf("metrics after warm prove: status %d, want 200", code)
	}
	if warmMetrics.Certs.Replayed <= m.Certs.Replayed {
		t.Errorf("cache-hit replay not counted: %+v -> %+v", m.Certs, warmMetrics.Certs)
	}
}

// TestGracefulShutdown holds one /check in flight, starts a drain, and
// requires: the in-flight request completes 200; requests arriving during
// the drain are answered 503 (not dropped); Shutdown returns within the
// drain budget.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	testJobHook = func() {
		if !once {
			once = true
			close(entered)
			<-release
		}
	}
	defer func() { testJobHook = nil }()

	inflight := make(chan int, 1)
	go func() {
		var resp CheckResponse
		inflight <- postJSON(t, ts.URL+"/check", CheckRequest{Source: "int x = 1;"}, &resp)
	}()
	<-entered

	shutdownErr := make(chan error, 1)
	shutdownStart := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Wait for the drain flag, then require load shedding on new requests.
	deadline := time.Now().Add(5 * time.Second)
	for getJSON(t, ts.URL+"/healthz", nil) != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Source: "int y = 2;"}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", code)
	}

	close(release)
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if elapsed := time.Since(shutdownStart); elapsed > 10*time.Second {
		t.Errorf("drain took %v, beyond the 10s budget", elapsed)
	}
}

// TestServeListenerCloses exercises the real listener path: Serve, one
// round-trip, Shutdown; the port must stop accepting within the drain
// deadline.
func TestServeListenerCloses(t *testing.T) {
	s := New(Config{Workers: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	if code := postJSON(t, url+"/check", CheckRequest{Source: "int x = 1;"}, nil); code != http.StatusOK {
		t.Fatalf("round-trip: status %d, want 200", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
