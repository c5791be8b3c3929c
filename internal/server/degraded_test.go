package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/faults"
	"repro/internal/memwatch"
	"repro/internal/quals"
	"repro/internal/simplify"
)

// setBreaker gives a server a /prove breaker of another threshold and
// cooldown, for tests that cannot wait out the production ones. Call it
// before the server's first request.
func setBreaker(s *Server, threshold int, cooldown time.Duration) {
	s.breaker = breaker.New(threshold, cooldown)
}

// postJSONFull is postJSON keeping the whole response, for tests that
// inspect headers (Retry-After) alongside the decoded body.
func postJSONFull(t *testing.T, url string, v any, out any) *http.Response {
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
	return resp
}

// TestCheckBodyTooLarge is the 413 regression: a body over MaxBodyBytes is
// refused with a JSON error, and the same server still answers a normal
// request afterwards.
func TestCheckBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1024})
	big, err := json.Marshal(CheckRequest{Source: "int x = 1; // " + strings.Repeat("y", 4096)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Fatalf("413 without a JSON error body: %q (%v)", data, err)
	}
	if !strings.Contains(eb.Error, "limit") {
		t.Errorf("413 body %q does not name the limit", eb.Error)
	}

	// /prove shares the cap.
	bigProve, _ := json.Marshal(ProveRequest{Quals: map[string]string{"q.qdl": strings.Repeat("x", 4096)}})
	r2, err := http.Post(ts.URL+"/prove", "application/json", bytes.NewReader(bigProve))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("prove status %d, want 413", r2.StatusCode)
	}

	// The connection-level refusal must not poison the server.
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Source: "int x = 1;"}, nil); code != http.StatusOK {
		t.Errorf("small request after 413: status %d, want 200", code)
	}
}

// TestWorkerPanicContained arms the server.run point in panic mode: the
// panic must be recovered on the handler goroutine, answered as a degraded
// 503 with Retry-After, counted in panics_recovered, and the request's slot
// must be free for the next request.
func TestWorkerPanicContained(t *testing.T) {
	defer faults.DisarmAll()
	_, ts := newTestServer(t, Config{Workers: 1})
	if err := faults.Arm("server.run=panic:limit=1"); err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	resp := postJSONFull(t, ts.URL+"/check", CheckRequest{Source: "int x = 1;"}, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if !eb.Degraded || !strings.Contains(eb.Error, "panic") {
		t.Errorf("body %+v should be degraded and name the recovered panic", eb)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 lacks a Retry-After header")
	}

	// The single slot was released; the limit=1 schedule lets this one pass.
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Source: "int x = 1;"}, nil); code != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d, want 200", code)
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.PanicsRecovered == 0 {
		t.Error("panics_recovered not counted")
	}
	if m.FaultFires["server.run"] == 0 {
		t.Error("fault fire not surfaced in /metrics")
	}
}

// TestProveBreakerOpensAndRecovers drives the per-qualifier circuit
// breaker end to end: injected discharge panics produce degraded reports,
// the breaker opens after the configured streak and answers immediately
// with Retry-After, and once the fault clears a half-open probe closes it
// and authoritative verdicts resume.
func TestProveBreakerOpensAndRecovers(t *testing.T) {
	defer faults.DisarmAll()
	const cooldown = 100 * time.Millisecond
	s, ts := newTestServer(t, Config{Workers: 1})
	setBreaker(s, 2, cooldown)
	if err := faults.Arm("soundness.discharge=panic"); err != nil {
		t.Fatal(err)
	}

	// Two failing proves open the breaker.
	for i := 0; i < 2; i++ {
		var resp ProveResponse
		if code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, &resp); code != http.StatusOK {
			t.Fatalf("prove %d: status %d, want 200", i, code)
		}
		if !resp.Degraded || len(resp.Reports) != 1 || !resp.Reports[0].Degraded {
			t.Fatalf("prove %d should be degraded by the injected panics: %+v", i, resp)
		}
		if resp.Reports[0].Sound {
			t.Fatalf("prove %d: panicked obligations must not read as sound", i)
		}
	}

	// Open: the answer is immediate, degraded, and carries Retry-After.
	var open ProveResponse
	resp := postJSONFull(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, &open)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open-breaker prove: status %d, want 200", resp.StatusCode)
	}
	if !open.Degraded || len(open.Reports) != 1 || !strings.Contains(open.Reports[0].Error, "circuit breaker open") {
		t.Fatalf("expected a breaker-refused report, got %+v", open)
	}
	if len(open.Reports[0].Obligations) != 0 {
		t.Error("a refused qualifier must not have been discharged")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker-refused response lacks a Retry-After header")
	}

	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Breaker.Transitions == 0 {
		t.Error("breaker transitions not surfaced in /metrics")
	}
	lib, err := quals.Standard()
	if err != nil {
		t.Fatal(err)
	}
	posKey := proveBreakerKey(lib, "pos")
	if st := m.Breaker.Qualifiers[posKey].State; st != "open" {
		t.Errorf("breaker state for %s is %q in /metrics, want open", posKey, st)
	}
	if m.DegradedTotal == 0 {
		t.Error("degraded_total not counted")
	}

	// Recovery: clear the fault, wait out the cooldown, and require the
	// half-open probe to close the breaker with an authoritative verdict.
	faults.DisarmAll()
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(cooldown)
		var probe ProveResponse
		if code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, &probe); code != http.StatusOK {
			t.Fatalf("probe prove: status %d, want 200", code)
		}
		if !probe.Degraded {
			if !probe.Reports[0].Sound || !probe.AllSound {
				t.Fatalf("recovered prove should be sound: %+v", probe.Reports[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the fault cleared")
		}
	}
	// Decode into a fresh value: Qualifiers is omitempty, so re-decoding
	// into m would keep the stale pre-recovery map.
	var recovered MetricsResponse
	getJSON(t, ts.URL+"/metrics", &recovered)
	if st, ok := recovered.Breaker.Qualifiers[posKey]; ok {
		t.Errorf("recovered qualifier still reported by the breaker: %+v", st)
	}
}

// TestProveBreakerKeyedByRegistry: a /prove breaker entry covers one
// qualifier of one registry. Failing proves of a request-supplied pos open
// that registry's entry only; the library's pos, a different registry with
// the same qualifier name, still proves sound.
func TestProveBreakerKeyedByRegistry(t *testing.T) {
	defer faults.DisarmAll()
	_, ts := newTestServer(t, Config{Workers: 1})
	own := ProveRequest{
		Quals:     map[string]string{"pos.qdl": quals.Pos, "neg.qdl": quals.Neg},
		Qualifier: "pos",
	}
	if err := faults.Arm("soundness.discharge=panic"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < proveBreakerThreshold; i++ {
		var resp ProveResponse
		if code := postJSON(t, ts.URL+"/prove", own, &resp); code != http.StatusOK || !resp.Degraded {
			t.Fatalf("prove %d of the request's pos: status %d, degraded %t; want 200, degraded", i, code, resp.Degraded)
		}
	}
	faults.DisarmAll()

	var refused ProveResponse
	if code := postJSON(t, ts.URL+"/prove", own, &refused); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if len(refused.Reports) != 1 || !strings.Contains(refused.Reports[0].Error, "circuit breaker open") {
		t.Fatalf("the failing registry's pos should be refused: %+v", refused)
	}
	if lib := proveOn(t, ts.URL, "pos"); lib.Degraded || !lib.AllSound {
		t.Fatalf("the library's pos should prove sound: %+v", lib)
	}
}

// TestBreakerFailureClassification: only infrastructure failures count
// against a /prove breaker — not the caller's own deadline or cancellation,
// and not a genuine verdict.
func TestBreakerFailureClassification(t *testing.T) {
	cases := []struct {
		reason string
		want   bool
	}{
		{simplify.ReasonDeadline, false},
		{simplify.ReasonCanceled, false},
		{simplify.ReasonBudget, true},
		{"panic: boom", true},
		{"fault: injected fault: x", true},
		{"cert: replay rejected", true},
		{"saturated without contradiction", false},
		{"", false},
	}
	for _, tc := range cases {
		if got := breakerFailure(tc.reason); got != tc.want {
			t.Errorf("breakerFailure(%q) = %v, want %v", tc.reason, got, tc.want)
		}
	}
}

// TestProveBudgetTripsOnce: a starved obligation is discharged once. With
// ProverMaxInstances 3, a /prove of the library raises the process-wide
// budget-trip count by exactly the number of obligations it reports as
// starved; discharging any of them again would count a second trip.
func TestProveBudgetTripsOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, ProverMaxInstances: 3})
	before := simplify.BudgetTrips()
	var resp ProveResponse
	if code := postJSON(t, ts.URL+"/prove", ProveRequest{}, &resp); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	trips := simplify.BudgetTrips() - before
	starved := 0
	for _, r := range resp.Reports {
		for _, o := range r.Obligations {
			if o.Reason == simplify.ReasonBudget {
				starved++
			}
		}
	}
	if starved == 0 {
		t.Fatal("ProverMaxInstances 3 starved no obligation")
	}
	if trips != uint64(starved) {
		t.Fatalf("budget trips rose by %d for %d starved obligations, want one each", trips, starved)
	}
}

// TestProveBudgetTripDegrades starves the prover with a tiny instantiation
// budget: obligations come back as transient budget Unknowns, the report is
// degraded (not unsound-with-counterexample, not cached), and /metrics
// counts the budget trips.
func TestProveBudgetTripDegrades(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ProverMaxInstances: 1})
	var resp ProveResponse
	if code := postJSON(t, ts.URL+"/prove", ProveRequest{Qualifier: "pos"}, &resp); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if !resp.Degraded {
		t.Fatalf("budget-starved prove should be degraded: %+v", resp)
	}
	budget := false
	for _, o := range resp.Reports[0].Obligations {
		if o.Reason == simplify.ReasonBudget {
			budget = true
		}
	}
	if !budget {
		t.Fatalf("no obligation reported %q: %+v", simplify.ReasonBudget, resp.Reports[0].Obligations)
	}

	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.BudgetTrips == 0 {
		t.Error("budget_trips not surfaced in /metrics")
	}

	// The starved verdicts must not have been memoized.
	s.proverCache.ForEach(func(key string, out simplify.Outcome) {
		if simplify.TransientReason(out.Reason) {
			t.Errorf("transient outcome cached under %q: %+v", key, out)
		}
	})
}

// TestMemoryPressureSheds pins the sampled live heap above the high-water
// mark: requests are shed 503 with Retry-After and counted, and service
// resumes when the pressure clears.
func TestMemoryPressureSheds(t *testing.T) {
	memwatch.SetSampleHook(func() uint64 { return 1 << 40 })
	defer memwatch.SetSampleHook(nil)
	_, ts := newTestServer(t, Config{Workers: 1, MemoryHighWater: 1 << 30})

	var eb errorBody
	resp := postJSONFull(t, ts.URL+"/check", CheckRequest{Source: "int x = 1;"}, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if !eb.Degraded || !strings.Contains(eb.Error, "memory pressure") {
		t.Errorf("unexpected shed body: %+v", eb)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("memory shed lacks a Retry-After header")
	}

	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.MemShedTotal == 0 || m.ShedTotal == 0 {
		t.Errorf("memory shed not counted: mem_shed=%d shed=%d", m.MemShedTotal, m.ShedTotal)
	}

	memwatch.SetSampleHook(func() uint64 { return 0 })
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Source: "int x = 1;"}, nil); code != http.StatusOK {
		t.Errorf("request after pressure cleared: status %d, want 200", code)
	}
}

// TestCheckWalkFaultDegradesAndIsNotCached arms the checker walk fault: the
// response carries an internal diagnostic and the degraded flag, the
// poisoned function result stays out of the function cache, and the same
// source checks clean after the fault clears.
func TestCheckWalkFaultDegradesAndIsNotCached(t *testing.T) {
	defer faults.DisarmAll()
	s, ts := newTestServer(t, Config{Workers: 1})
	if err := faults.Arm("checker.walk=error"); err != nil {
		t.Fatal(err)
	}
	src := "void f() { int x = 1; }"
	var resp CheckResponse
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Source: src}, &resp); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if !resp.Degraded {
		t.Fatalf("walk fault should mark the response degraded: %+v", resp)
	}
	internal := false
	for _, d := range resp.Diagnostics {
		if d.Code == "internal" {
			internal = true
		}
	}
	if !internal {
		t.Fatalf("no internal diagnostic in %+v", resp.Diagnostics)
	}
	s.funcCache.ForEach(func(key string, diagCodes []string) {
		for _, c := range diagCodes {
			if c == "internal" {
				t.Errorf("internal diagnostic cached under %q", key)
			}
		}
	})

	faults.DisarmAll()
	var clean CheckResponse
	if code := postJSON(t, ts.URL+"/check", CheckRequest{Source: src}, &clean); code != http.StatusOK {
		t.Fatalf("clean recheck: status %d", code)
	}
	if clean.Degraded || clean.Warnings != 0 {
		t.Errorf("recheck after disarm should be clean: %+v", clean)
	}
}

// TestDegradedTotalCountsAnswers drives every degraded path through one
// server: the admission, queue, encode and run faults (run in panic and error
// mode), memory pressure, a /prove with several budget-tripped qualifiers, a
// breaker-refused /prove, and a /check-batch carrying an internal diagnostic.
// degraded_total must equal the number of answers whose body says
// "degraded": true, every 503 must carry a Retry-After of at least 1 s, and
// so must the breaker-refused /prove.
func TestDegradedTotalCountsAnswers(t *testing.T) {
	defer faults.DisarmAll()
	memwatch.SetSampleHook(func() uint64 { return 0 })
	defer memwatch.SetSampleHook(nil)
	s, ts := newTestServer(t, Config{Workers: 1, ProverMaxInstances: 1, MemoryHighWater: 1 << 30})
	setBreaker(s, 1, time.Minute)

	check := CheckRequest{Source: "int x = 1;"}
	degradedAnswers := 0
	// send posts req to path with fault ("" for none) armed for this request
	// only, and counts the answer if its body says it is degraded.
	send := func(fault, path string, req any) (*http.Response, map[string]any) {
		t.Helper()
		faults.DisarmAll()
		if fault != "" {
			if err := faults.Arm(fault); err != nil {
				t.Fatal(err)
			}
		}
		var body map[string]any
		resp := postJSONFull(t, ts.URL+path, req, &body)
		faults.DisarmAll()
		if body["degraded"] == true {
			degradedAnswers++
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
				t.Errorf("%s with %q: 503 with Retry-After %q, want at least 1 s", path, fault, resp.Header.Get("Retry-After"))
			}
		}
		return resp, body
	}

	send("", "/check", check)
	for _, fault := range []string{
		"server.admission=error:limit=1",
		"server.queue=error:limit=1",
		"server.encode=error:limit=1",
		"server.run=panic:limit=1",
		"server.run=error:limit=1",
	} {
		if resp, body := send(fault, "/check", check); resp.StatusCode != http.StatusServiceUnavailable || body["degraded"] != true {
			t.Errorf("%s: status %d, body %v; want a degraded 503", fault, resp.StatusCode, body)
		}
	}

	memwatch.SetSampleHook(func() uint64 { return 1 << 40 })
	if resp, body := send("", "/check", check); resp.StatusCode != http.StatusServiceUnavailable || body["degraded"] != true {
		t.Errorf("memory pressure: status %d, body %v; want a degraded 503", resp.StatusCode, body)
	}
	memwatch.SetSampleHook(func() uint64 { return 0 })

	// One /prove, several budget-tripped qualifiers: one degraded answer.
	var starved ProveResponse
	resp := postJSONFull(t, ts.URL+"/prove", ProveRequest{}, &starved)
	tripped := 0
	for _, r := range starved.Reports {
		if r.Degraded {
			tripped++
		}
	}
	if resp.StatusCode != http.StatusOK || !starved.Degraded || tripped < 2 {
		t.Fatalf("starved prove: status %d, degraded %t, %d degraded reports; want 200, degraded, several", resp.StatusCode, starved.Degraded, tripped)
	}
	degradedAnswers++

	// The tripped qualifiers' breakers are open now.
	var refused ProveResponse
	resp = postJSONFull(t, ts.URL+"/prove", ProveRequest{}, &refused)
	if resp.StatusCode != http.StatusOK || !refused.Degraded || !strings.Contains(fmt.Sprint(refused.Reports), "circuit breaker open") {
		t.Fatalf("refused prove: status %d, %+v; want a breaker-refused 200", resp.StatusCode, refused)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("breaker-refused prove: Retry-After %q, want at least 1 s", resp.Header.Get("Retry-After"))
	}
	degradedAnswers++

	batch := CheckBatchRequest{Files: []BatchInput{{Filename: "a.c", Source: "void f() { int x = 1; }"}}}
	if resp, body := send("checker.walk=error:limit=1", "/check-batch", batch); resp.StatusCode != http.StatusOK || body["degraded"] != true ||
		!strings.Contains(fmt.Sprint(body["files"]), "internal") {
		t.Errorf("walk fault: status %d, body %v; want a degraded 200 with an internal diagnostic", resp.StatusCode, body)
	}

	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.DegradedTotal != uint64(degradedAnswers) {
		t.Errorf("degraded_total %d, want %d: one per answer whose body says degraded", m.DegradedTotal, degradedAnswers)
	}
}
