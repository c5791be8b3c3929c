// Package server implements qualserve: a long-lived, concurrent qualifier
// checking service over the checker and soundness pipelines. Each request
// body runs on its handler's goroutine behind a semaphore of Workers slots,
// with admission control (at most 2*Workers requests wait for a slot;
// overload is shed as 503s) and per-request deadlines threaded into the
// context plumbing; results are reused across requests via the
// function-granular checker cache and the memoizing prover cache. See
// DESIGN.md ("Serving architecture: qualserve").
package server

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// latencySamples bounds the per-endpoint latency reservoir: percentiles are
// computed over the most recent latencySamples observations.
const latencySamples = 2048

// endpointMetrics accumulates per-endpoint counters. Guarded by Metrics.mu.
type endpointMetrics struct {
	count     uint64
	codes     map[int]uint64
	latencies []time.Duration // ring buffer, most recent latencySamples
	next      int             // ring write cursor
}

// Metrics is the server's thread-safe counter set, rendered by GET /metrics.
type Metrics struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*endpointMetrics
	shed      uint64
	degraded  uint64
	panics    uint64
	memShed   uint64
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now(), endpoints: map[string]*endpointMetrics{}}
}

// observe records one finished request: its response code and latency.
func (m *Metrics) observe(endpoint string, code int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := m.endpoints[endpoint]
	if em == nil {
		em = &endpointMetrics{codes: map[int]uint64{}}
		m.endpoints[endpoint] = em
	}
	em.count++
	em.codes[code]++
	if len(em.latencies) < latencySamples {
		em.latencies = append(em.latencies, elapsed)
	} else {
		em.latencies[em.next] = elapsed
		em.next = (em.next + 1) % latencySamples
	}
}

// observeShed records one load-shed request (also observed as a 503).
func (m *Metrics) observeShed() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

// observeDegraded records one degraded answer: a breaker-refused qualifier,
// a budget-starved verdict, or a fault-containment fallback.
func (m *Metrics) observeDegraded() {
	m.mu.Lock()
	m.degraded++
	m.mu.Unlock()
}

// observePanic records one panic recovered from a request body.
func (m *Metrics) observePanic() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// observeMemShed records one request shed for memory pressure (also
// observed as a shed 503).
func (m *Metrics) observeMemShed() {
	m.mu.Lock()
	m.memShed++
	m.mu.Unlock()
}

// EndpointSnapshot is the exported per-endpoint view.
type EndpointSnapshot struct {
	Count     uint64            `json:"count"`
	Codes     map[string]uint64 `json:"codes"`
	P50Millis float64           `json:"p50_ms"`
	P99Millis float64           `json:"p99_ms"`
}

// Snapshot is the exported metrics view (the /metrics JSON body, minus the
// cache and queue gauges the server adds).
type Snapshot struct {
	UptimeMillis    int64                       `json:"uptime_ms"`
	ShedTotal       uint64                      `json:"shed_total"`
	DegradedTotal   uint64                      `json:"degraded_total"`
	PanicsRecovered uint64                      `json:"panics_recovered"`
	MemShedTotal    uint64                      `json:"mem_shed_total"`
	Endpoints       map[string]EndpointSnapshot `json:"endpoints"`
}

// snapshot renders the counters. Percentiles are nearest-rank over the
// recent-latency reservoir.
func (m *Metrics) snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{
		UptimeMillis:    time.Since(m.start).Milliseconds(),
		ShedTotal:       m.shed,
		DegradedTotal:   m.degraded,
		PanicsRecovered: m.panics,
		MemShedTotal:    m.memShed,
		Endpoints:       map[string]EndpointSnapshot{},
	}
	for name, em := range m.endpoints {
		es := EndpointSnapshot{Count: em.count, Codes: map[string]uint64{}}
		for code, n := range em.codes {
			es.Codes[strconv.Itoa(code)] = n
		}
		if len(em.latencies) > 0 {
			sorted := append([]time.Duration(nil), em.latencies...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			es.P50Millis = float64(percentile(sorted, 50)) / float64(time.Millisecond)
			es.P99Millis = float64(percentile(sorted, 99)) / float64(time.Millisecond)
		}
		out.Endpoints[name] = es
	}
	return out
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
