package memwatch

import (
	"runtime"
	"testing"
)

func TestSampleReadsRuntime(t *testing.T) {
	// Flush the per-P span caches first: until then the heap metric may not
	// count this process's small allocations yet (see the package comment).
	runtime.GC()
	if got := Sample(); got == 0 {
		t.Fatal("fresh heap sample is zero; runtime metric missing?")
	}
}

// TestSampleReadsFreshEachCall: Sample keeps no cached reading, so every
// call goes to the hook (or the runtime), and removing the hook restores the
// runtime read.
func TestSampleReadsFreshEachCall(t *testing.T) {
	calls := uint64(0)
	SetSampleHook(func() uint64 { calls++; return 1000 + calls })
	defer SetSampleHook(nil)
	for want := uint64(1001); want <= 1003; want++ {
		if got := Sample(); got != want {
			t.Fatalf("Sample() = %d, want %d (a fresh hook read per call)", got, want)
		}
	}
	SetSampleHook(nil)
	runtime.GC()
	if got := Sample(); got == 0 || got == 1004 {
		t.Fatalf("Sample() = %d after removing the hook, want a runtime reading", got)
	}
}
