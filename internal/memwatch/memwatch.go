// Package memwatch provides a cheap, cached view of the process's live heap
// size, shared by the prover's memory budget and qualserve's memory-pressure
// shedding. A fresh runtime/metrics read costs microseconds, which is still
// too much for per-decision polling in the prover, so Sample memoizes the
// last reading and refreshes it only when older than the caller's staleness
// bound.
//
// The runtime counts a small-object allocation into the live heap only when
// the allocating P's cached span is flushed (a span refill or a GC), so an
// early read in a fresh process can undercount, down to 0. That is harmless
// for a high-water mark: an undercount delays shedding or a budget trip, it
// never causes one.
package memwatch

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// heapMetric is the live heap: bytes of allocated, still-reachable (or
// not-yet-swept) objects. It tracks actual memory pressure more closely than
// total mapped memory and is maintained by the runtime without a
// stop-the-world, unlike runtime.ReadMemStats.
const heapMetric = "/memory/classes/heap/objects:bytes"

var (
	mu        sync.Mutex
	lastBytes atomic.Uint64
	lastAt    atomic.Int64 // unix nanos of the last refresh

	// sampleHook overrides the runtime read in tests.
	sampleHook func() uint64
)

func read() uint64 {
	if sampleHook != nil {
		return sampleHook()
	}
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// Sample returns the live heap size in bytes, refreshing the cached reading
// if it is older than maxStale. maxStale <= 0 forces a fresh read. The cached
// fast path is two atomic loads.
func Sample(maxStale time.Duration) uint64 {
	now := time.Now().UnixNano()
	if maxStale > 0 {
		if at := lastAt.Load(); at != 0 && now-at < int64(maxStale) {
			return lastBytes.Load()
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// Another goroutine may have refreshed while we waited for the lock.
	if maxStale > 0 {
		if at := lastAt.Load(); at != 0 && time.Now().UnixNano()-at < int64(maxStale) {
			return lastBytes.Load()
		}
	}
	b := read()
	lastBytes.Store(b)
	lastAt.Store(time.Now().UnixNano())
	return b
}

// SetSampleHook installs (or, with nil, removes) a test override for the
// runtime reading and invalidates the cache. Not safe for concurrent use
// with Sample; tests install it before starting traffic.
func SetSampleHook(fn func() uint64) {
	mu.Lock()
	defer mu.Unlock()
	sampleHook = fn
	lastAt.Store(0)
	lastBytes.Store(0)
}
