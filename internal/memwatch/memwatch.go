// Package memwatch reads the process's live heap size for qualserve's
// memory-pressure shedding, which samples it once per admitted request. It
// is a thin wrapper over runtime/metrics whose one purpose is the test hook:
// tests fake the heap instead of allocating a real one.
//
// The runtime counts a small-object allocation into the live heap only when
// the allocating P's cached span is flushed (a span refill or a GC), so an
// early read in a fresh process can undercount, down to 0. That is harmless
// for a high-water mark: an undercount delays shedding, it never causes one.
package memwatch

import (
	"runtime/metrics"
	"sync/atomic"
)

// heapMetric is the live heap: bytes of allocated, still-reachable (or
// not-yet-swept) objects. It tracks actual memory pressure more closely than
// total mapped memory and is maintained by the runtime without a
// stop-the-world, unlike runtime.ReadMemStats.
const heapMetric = "/memory/classes/heap/objects:bytes"

// sampleHook overrides the runtime read in tests.
var sampleHook atomic.Pointer[func() uint64]

// Sample returns the live heap size in bytes, read fresh on every call.
func Sample() uint64 {
	if h := sampleHook.Load(); h != nil {
		return (*h)()
	}
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// SetSampleHook installs (or, with nil, removes) a test override for the
// runtime reading.
func SetSampleHook(fn func() uint64) {
	if fn == nil {
		sampleHook.Store(nil)
		return
	}
	sampleHook.Store(&fn)
}
