package memwatch

import (
	"runtime"
	"testing"
	"time"
)

func TestSampleReadsRuntime(t *testing.T) {
	// Flush the per-P span caches first: until then the heap metric may not
	// count this process's small allocations yet (see the package comment).
	runtime.GC()
	if got := Sample(0); got == 0 {
		t.Fatal("fresh heap sample is zero; runtime metric missing?")
	}
}

func TestSampleCachesWithinStaleness(t *testing.T) {
	calls := 0
	SetSampleHook(func() uint64 { calls++; return uint64(1000 + calls) })
	defer SetSampleHook(nil)

	first := Sample(time.Hour)
	for i := 0; i < 50; i++ {
		if got := Sample(time.Hour); got != first {
			t.Fatalf("cached sample changed: %d != %d", got, first)
		}
	}
	if calls != 1 {
		t.Fatalf("runtime read %d times within staleness bound, want 1", calls)
	}
	// A forced read refreshes.
	if got := Sample(0); got == first {
		t.Fatal("maxStale<=0 did not force a fresh read")
	}
	if calls != 2 {
		t.Fatalf("forced read count = %d, want 2", calls)
	}
}
