package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/corpus"
)

// soloSrc has exactly one function (one function-cache key) containing a
// nonnull violation, so every check of it produces the same diagnostic and
// concurrent checks contend on a single cache flight.
const soloSrc = `
int* nonnull g;
void solo(int* p) {
  g = p;
}
`

func TestCheckBatchRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := CheckBatchRequest{Files: []BatchInput{
		{Filename: "clean.c", Source: "void ok() { int x = 1; }"},
		{Source: "int* nonnull g;\nvoid bad(int* p) { g = p; }"}, // default name input1.c
		{Filename: "broken.c", Source: "int {{{"},
	}}
	var resp CheckBatchResponse
	if code := postJSON(t, ts.URL+"/check-batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if len(resp.Files) != 3 {
		t.Fatalf("got %d file results, want 3", len(resp.Files))
	}
	if fr := resp.Files[0]; fr.Filename != "clean.c" || fr.Warnings != 0 || fr.Error != "" {
		t.Errorf("clean file result: %+v", fr)
	}
	fr := resp.Files[1]
	if fr.Filename != "input1.c" || fr.Warnings == 0 {
		t.Fatalf("violating file result: %+v", fr)
	}
	// Satellite: every diagnostic in a batch answer names its file, so a
	// flattened batch view stays attributable per input.
	for _, d := range fr.Diagnostics {
		if d.File != "input1.c" {
			t.Errorf("diagnostic not attributed to its input: %+v", d)
		}
	}
	if fr := resp.Files[2]; fr.Error == "" {
		t.Errorf("parse-failed input reported no error: %+v", fr)
	}
	if resp.Failures != 1 || resp.Warnings != fr.Warnings {
		t.Errorf("batch totals Failures=%d Warnings=%d, want 1 and %d", resp.Failures, resp.Warnings, fr.Warnings)
	}
	if resp.Stats.FuncCacheMisses == 0 {
		t.Error("cold batch should record function-cache misses")
	}

	// An empty batch is a client error, not a vacuous success.
	if code := postJSON(t, ts.URL+"/check-batch", CheckBatchRequest{}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("empty batch status %d, want 422", code)
	}
}

// TestCheckStatsPinnedBytes pins the exact "stats" object of a /check answer
// and of a /check-batch answer that aggregates a warm and a cold input:
// clients read these six counters by name.
func TestCheckStatsPinnedBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	src := `
int nonzero k;
int div(int* nonnull p, int d) {
  int x = *p;
  return x / d;
}
int ok(int* nonnull q) {
  return *q / k;
}
`
	var check struct {
		Stats json.RawMessage `json:"stats"`
	}
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Filename: "a.c", Source: src}, &check); code != http.StatusOK {
		t.Fatalf("/check status %d", code)
	}
	const wantCheck = `{
    "dereferences": 2,
    "restrict_checks": 4,
    "restrict_failures": 1,
    "func_cache_hits": 0,
    "func_cache_misses": 2,
    "func_cache_coalesced": 0
  }`
	if got := string(check.Stats); got != wantCheck {
		t.Errorf("/check stats\n got %s\nwant %s", got, wantCheck)
	}
	req := CheckBatchRequest{Files: []BatchInput{
		{Filename: "a.c", Source: src},
		{Filename: "b.c", Source: "int* nonnull g;\nvoid bad(int* p) { g = p; }"},
	}}
	var batch struct {
		Stats json.RawMessage `json:"stats"`
	}
	if code := postJSON(t, ts.URL+"/check-batch", req, &batch); code != http.StatusOK {
		t.Fatalf("/check-batch status %d", code)
	}
	const wantBatch = `{
    "dereferences": 2,
    "restrict_checks": 4,
    "restrict_failures": 1,
    "func_cache_hits": 2,
    "func_cache_misses": 1,
    "func_cache_coalesced": 0
  }`
	if got := string(batch.Stats); got != wantBatch {
		t.Errorf("/check-batch stats\n got %s\nwant %s", got, wantBatch)
	}
}

// TestCheckBatchCoalescing is the acceptance criterion for the batch path:
// 32 concurrent identical submissions must observe exactly one cache fill
// (the leader's miss) and 31 coalesced joins in /metrics, and all 32 answers
// must carry identical diagnostics.
func TestCheckBatchCoalescing(t *testing.T) {
	const clients = 32
	_, ts := newTestServer(t, Config{Workers: clients})

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	checker.CheckFuncHook = func(*cminor.FuncDef) {
		entered <- struct{}{}
		<-release
	}
	defer func() { checker.CheckFuncHook = nil }()

	req := CheckBatchRequest{Files: []BatchInput{{Filename: "solo.c", Source: soloSrc}}}
	var wg sync.WaitGroup
	responses := make([]CheckBatchResponse, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = postJSON(t, ts.URL+"/check-batch", req, &responses[i])
		}()
	}

	<-entered // the leader is inside its walk, holding the flight open
	// Every other client must park on the leader's flight; /metrics takes no
	// slot, so it stays readable while every slot is busy.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m MetricsResponse
		getJSON(t, ts.URL+"/metrics", &m)
		if m.FuncCache.Coalesced == clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d lookups coalesced before the deadline (metrics: %+v)",
				m.FuncCache.Coalesced, clients-1, m.FuncCache)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.FuncCache.Misses != 1 || m.FuncCache.Coalesced != clients-1 || m.FuncCache.Hits != 0 {
		t.Fatalf("func_cache %+v, want exactly 1 miss (the fill), %d coalesced, 0 hits",
			m.FuncCache, clients-1)
	}
	want := fmt.Sprint(responses[0].Files[0].Diagnostics)
	if responses[0].Files[0].Warnings == 0 {
		t.Fatal("expected a diagnostic from the violating function")
	}
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d status %d, want 200", i, codes[i])
		}
		if got := fmt.Sprint(responses[i].Files[0].Diagnostics); got != want {
			t.Errorf("client %d diagnostics %s != %s", i, got, want)
		}
	}
	coalesced := 0
	for i := 0; i < clients; i++ {
		coalesced += responses[i].Stats.FuncCacheCoalesced
	}
	if coalesced != clients-1 {
		t.Errorf("per-response coalesced stats sum to %d, want %d", coalesced, clients-1)
	}
}

// TestCheckBatchCancellation pins the abandoned-request path: a client that
// gives up mid-check must not leak its slot, the cache flight, or any
// handler goroutine (newTestServer's leak check audits the teardown).
func TestCheckBatchCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	checker.CheckFuncHook = func(*cminor.FuncDef) {
		entered <- struct{}{}
		<-release
	}
	defer func() { checker.CheckFuncHook = nil }()

	body, err := json.Marshal(CheckBatchRequest{Files: []BatchInput{{Filename: "solo.c", Source: soloSrc}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/check-batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	<-entered // the check is in flight on its handler goroutine
	cancel()  // the client walks away
	if err := <-errc; err == nil {
		t.Error("canceled request returned no client error")
	}
	// Unblock the walk: the engine then notices the dead request context and
	// stops; the handler finishes the body with nobody listening. Shutdown in
	// the test cleanup must still join every goroutine.
	close(release)
}

// TestCheckMatchesOneFileBatch pins /check to the /check-batch path: for
// each input, /check's body equals the one-file /check-batch answer mapped
// to a CheckResponse (elapsed_ms zeroed), and an input that fails to parse
// gets a 422 whose message is the batch file's error. The two endpoints run
// on separate servers fed the same sequence, so their caches stay in step;
// every input goes twice, cold and then served from the function cache.
func TestCheckMatchesOneFileBatch(t *testing.T) {
	_, checkTS := newTestServer(t, Config{Workers: 1})
	_, batchTS := newTestServer(t, Config{Workers: 1})

	big := map[string]string{"big.qdl": `
value qualifier big(int Expr E)
  case E of
    decl int Const C:
      C, where C > 100
  invariant value(E) > 100
`}
	var cases []CheckRequest
	for _, p := range corpus.All() {
		cases = append(cases, CheckRequest{Filename: p.Name + ".c", Source: p.Source})
	}
	cases = append(cases,
		CheckRequest{Filename: "bftpd-taint.c", Source: corpus.Bftpd().Source, Taint: true},
		CheckRequest{Filename: "exploit-taint.c", Source: corpus.BftpdExploit().Source, Taint: true},
		CheckRequest{Filename: "big.c", Source: "int big x = 3;\nint big y = 300;", Quals: big},
		CheckRequest{Filename: "mingetty-flow.c", Source: corpus.Mingetty().Source, FlowSensitive: true},
		CheckRequest{Filename: "grep-dfa-flow.c", Source: corpus.GrepDFA().Source, FlowSensitive: true},
		CheckRequest{Filename: "broken.c", Source: "int int int"},
		CheckRequest{Filename: "empty.c", Source: ""},
	)

	warned, hits, refused := 0, 0, 0
	for _, pass := range []string{"cold", "warm"} {
		for _, req := range cases {
			name := pass + "/" + req.Filename
			batch := CheckBatchRequest{
				Files: []BatchInput{{Filename: req.Filename, Source: req.Source}},
				Quals: req.Quals, Taint: req.Taint, FlowSensitive: req.FlowSensitive,
			}
			var br CheckBatchResponse
			if code := postJSON(t, batchTS.URL+"/check-batch", batch, &br); code != http.StatusOK {
				t.Fatalf("%s: /check-batch status %d, want 200", name, code)
			}
			if len(br.Files) != 1 {
				t.Fatalf("%s: /check-batch returned %d files, want 1", name, len(br.Files))
			}
			fr := br.Files[0]

			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(checkTS.URL+"/check", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(resp.Body)
			dec.DisallowUnknownFields()
			if fr.Error != "" {
				var eb errorBody
				err := dec.Decode(&eb)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusUnprocessableEntity || eb.Error != fr.Error {
					t.Errorf("%s: /check answered %d %+v (%v), want 422 with the batch file's error %q",
						name, resp.StatusCode, eb, err, fr.Error)
				}
				refused++
				continue
			}
			var got CheckResponse
			err = dec.Decode(&got)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: /check answered %d (%v), want 200", name, resp.StatusCode, err)
			}
			got.ElapsedMillis = 0
			want := CheckResponse{
				Filename:    fr.Filename,
				Diagnostics: fr.Diagnostics,
				Warnings:    fr.Warnings,
				Degraded:    fr.Degraded,
				Stats:       br.Stats,
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: /check body differs from the one-file batch\n/check: %+v\nbatch:  %+v", name, got, want)
			}
			warned += got.Warnings
			hits += got.Stats.FuncCacheHits
		}
	}
	if warned == 0 || hits == 0 || refused != 2 {
		t.Errorf("the table exercised %d warnings, %d cache hits and %d parse failures; want some, some and 2",
			warned, hits, refused)
	}
}
