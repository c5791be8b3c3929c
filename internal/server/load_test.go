package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
)

// TestLoadConcurrentCheck fires 64 concurrent /check requests of the bftpd
// corpus program at a deliberately small server (4 slots, 8 waiting) and
// requires that every request is answered — 200 for the admitted ones, 503
// with a JSON body for the shed ones (never dropped or hung) — and that a
// warm pass afterwards is served from the function cache, visible in
// /metrics. Run under -race (make race / make ci) this doubles as the
// data-race gate for the shared caches, metrics, and admission slots.
func TestLoadConcurrentCheck(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, RequestTimeout: 2 * time.Minute})
	// Pin a floor under per-request service time so the storm reliably overruns
	// the 4+8 admission capacity and exercises load shedding (a warm
	// cache-served check is otherwise sub-millisecond).
	testJobHook = func() { time.Sleep(20 * time.Millisecond) }
	defer func() { testJobHook = nil }()
	bftpd := corpus.Bftpd()
	reqBody, err := json.Marshal(CheckRequest{Filename: "bftpd.c", Source: bftpd.Source})
	if err != nil {
		t.Fatal(err)
	}

	// Cold pass: populates the function cache.
	var cold CheckResponse
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Filename: "bftpd.c", Source: bftpd.Source}, &cold); code != http.StatusOK {
		t.Fatalf("cold check: status %d, want 200", code)
	}
	if cold.Stats.FuncCacheMisses == 0 {
		t.Fatal("cold check recorded no function-cache misses")
	}

	// The storm. Every response must be 200 or 503, and every 503 must
	// carry a decodable JSON error body (answered, not dropped).
	const n = 64
	type result struct {
		code int
		body []byte
		err  error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				results[i] = result{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			results[i] = result{code: resp.StatusCode, body: body, err: err}
		}(i)
	}
	wg.Wait()

	ok200, shed503 := 0, 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d failed at the transport level: %v", i, r.err)
		}
		switch r.code {
		case http.StatusOK:
			ok200++
			var resp CheckResponse
			if err := json.Unmarshal(r.body, &resp); err != nil {
				t.Fatalf("request %d: bad 200 body: %v", i, err)
			}
		case http.StatusServiceUnavailable:
			shed503++
			var eb errorBody
			if err := json.Unmarshal(r.body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("request %d: shed without a JSON error body (%q, %v)", i, r.body, err)
			}
		default:
			t.Fatalf("request %d: status %d, want 200 or 503", i, r.code)
		}
	}
	if ok200 == 0 {
		t.Fatal("no request succeeded under load")
	}
	if shed503 == 0 {
		t.Fatal("no request was shed: admission control never engaged")
	}
	t.Logf("load: %d ok, %d shed of %d", ok200, shed503, n)

	// Warm pass: the unchanged program replays entirely from the cache.
	var warm CheckResponse
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Filename: "bftpd.c", Source: bftpd.Source}, &warm); code != http.StatusOK {
		t.Fatalf("warm check: status %d, want 200", code)
	}
	if warm.Stats.FuncCacheHits == 0 {
		t.Error("warm check recorded no function-cache hits")
	}

	var m MetricsResponse
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.FuncCache.Hits == 0 || m.FuncCache.HitRate <= 0 {
		t.Errorf("metrics show no function-cache reuse: %+v", m.FuncCache)
	}
	if got := m.ShedTotal; got != uint64(shed503) {
		t.Errorf("shed_total=%d, but %d requests saw 503", got, shed503)
	}
	ep := m.Endpoints["check"]
	if ep.Count != uint64(n+2) {
		t.Errorf("check count=%d, want %d", ep.Count, n+2)
	}
	if ep.P99Millis < ep.P50Millis {
		t.Errorf("p99 (%v) below p50 (%v)", ep.P99Millis, ep.P50Millis)
	}
	_ = s
}

// answer is one finished HTTP exchange: status, decoded error body and the
// Retry-After header.
type answer struct {
	code       int
	body       errorBody
	retryAfter string
}

// postAsync posts req to /check on a goroutine and delivers the answer.
func postAsync(t *testing.T, url string, req CheckRequest) <-chan answer {
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan answer, 1)
	go func() {
		var a answer
		defer func() { out <- a }()
		resp, err := http.Post(url+"/check", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("POST /check: %v", err)
			return
		}
		defer resp.Body.Close()
		a.code, a.retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
		if err := json.NewDecoder(resp.Body).Decode(&a.body); err != nil {
			t.Errorf("decoding /check answer: %v", err)
		}
	}()
	return out
}

// TestAdmissionContract pins admission control deterministically at one
// worker slot, so two requests can wait: with one request held in
// testJobHook, two more wait and /metrics shows queue_depth 2; a fourth is
// shed at once as "queue full"; the held request, released after its own
// timeout_ms, is answered 504 "deadline exceeded"; with the next request
// held and one waiting, a waiter whose 50 ms timeout_ms passes is shed as
// "deadline expired while queued". shed_total rises by exactly the two
// shed requests.
func TestAdmissionContract(t *testing.T) {
	var calls atomic.Int32
	enteredA, releaseA := make(chan struct{}), make(chan struct{})
	enteredB, releaseB := make(chan struct{}), make(chan struct{})
	testJobHook = func() {
		switch calls.Add(1) {
		case 1:
			close(enteredA)
			<-releaseA
		case 2:
			close(enteredB)
			<-releaseB
		}
	}
	defer func() { testJobHook = nil }()
	_, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 30 * time.Second})
	// Registered after the server's teardown, so it runs first: a failed
	// assertion must not leave a handler held while the teardown waits.
	releaseHeld := sync.OnceFunc(func() { close(releaseA) })
	releaseNext := sync.OnceFunc(func() { close(releaseB) })
	t.Cleanup(func() { releaseHeld(); releaseNext() })

	metrics := func() MetricsResponse {
		var m MetricsResponse
		if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
			t.Fatalf("metrics: status %d", code)
		}
		return m
	}
	waitQueue := func(depth int) {
		deadline := time.Now().Add(10 * time.Second)
		for metrics().QueueDepth != depth {
			if time.Now().After(deadline) {
				t.Fatalf("queue_depth never reached %d", depth)
			}
			time.Sleep(time.Millisecond)
		}
	}
	shed0 := metrics().ShedTotal

	const heldTimeout = 200 * time.Millisecond
	heldSent := time.Now()
	held := postAsync(t, ts.URL, CheckRequest{Source: "int a = 1;", TimeoutMillis: heldTimeout.Milliseconds()})
	<-enteredA
	waiters := []<-chan answer{
		postAsync(t, ts.URL, CheckRequest{Source: "int b = 1;"}),
		postAsync(t, ts.URL, CheckRequest{Source: "int c = 1;"}),
	}
	waitQueue(2)
	if m := metrics(); m.QueueCapacity != 2 {
		t.Errorf("queue_capacity %d, want 2 (twice the one worker)", m.QueueCapacity)
	}

	var eb errorBody
	resp := postJSONFull(t, ts.URL+"/check", CheckRequest{Source: "int d = 1;"}, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Error != "queue full" || resp.Header.Get("Retry-After") == "" {
		t.Errorf("fourth request: %d %+v Retry-After %q, want 503 queue full with Retry-After",
			resp.StatusCode, eb, resp.Header.Get("Retry-After"))
	}

	time.Sleep(time.Until(heldSent.Add(heldTimeout + 100*time.Millisecond)))
	releaseHeld()
	if a := <-held; a.code != http.StatusGatewayTimeout || a.body.Error != "deadline exceeded" || a.retryAfter != "" {
		t.Errorf("held request: %d %+v Retry-After %q, want 504 deadline exceeded without Retry-After",
			a.code, a.body, a.retryAfter)
	}

	<-enteredB
	waitQueue(1)
	eb = errorBody{}
	resp = postJSONFull(t, ts.URL+"/check", CheckRequest{Source: "int e = 1;", TimeoutMillis: 50}, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Error != "deadline expired while queued" || resp.Header.Get("Retry-After") == "" {
		t.Errorf("waiter past its timeout: %d %+v Retry-After %q, want 503 deadline expired while queued with Retry-After",
			resp.StatusCode, eb, resp.Header.Get("Retry-After"))
	}

	releaseNext()
	for i, w := range waiters {
		if a := <-w; a.code != http.StatusOK {
			t.Errorf("waiter %d: status %d, want 200", i, a.code)
		}
	}
	if shed := metrics().ShedTotal - shed0; shed != 2 {
		t.Errorf("shed_total rose by %d, want 2 (queue full, deadline expired while queued)", shed)
	}
}

// TestTimedOutRunAnswers504 extends TestAdmissionContract's held-request
// answer to the other two request bodies: a /check-batch or /prove whose
// timeout_ms passes while it is held after admission runs its body on a dead
// context, and execute answers it 504 "deadline exceeded" without a
// Retry-After, whatever the body returned.
func TestTimedOutRunAnswers504(t *testing.T) {
	const timeout = 50 * time.Millisecond
	testJobHook = func() { time.Sleep(3 * timeout) }
	defer func() { testJobHook = nil }()
	_, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 30 * time.Second})
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/check-batch", CheckBatchRequest{
			Files:         []BatchInput{{Filename: "a.c", Source: "int a = 1;"}, {Filename: "b.c", Source: "int b = 1;"}},
			TimeoutMillis: timeout.Milliseconds(),
		}},
		{"/prove", ProveRequest{Qualifier: "pos", TimeoutMillis: timeout.Milliseconds()}},
	} {
		var eb errorBody
		resp := postJSONFull(t, ts.URL+tc.path, tc.body, &eb)
		if resp.StatusCode != http.StatusGatewayTimeout || eb.Error != "deadline exceeded" || resp.Header.Get("Retry-After") != "" {
			t.Errorf("%s held past its timeout_ms: %d %+v Retry-After %q, want 504 deadline exceeded without Retry-After",
				tc.path, resp.StatusCode, eb, resp.Header.Get("Retry-After"))
		}
	}
}
