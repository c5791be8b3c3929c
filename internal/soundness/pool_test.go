package soundness

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scheduler"
	"repro/internal/testutil/leak"
)

// Hardening tests for the scheduler pool as Prove drives it: one pass fans
// one unit out per obligation index. Degenerate sizes must not
// call fn or hang, every index must be visited exactly once, a budget of one
// must stay on the caller's goroutine, and a panicking fn must reach the
// caller without deadlocking the pool or leaking its helpers.

// fanOut runs fn(0..n-1) in one scheduler pass of the given workers the way
// proveTask fans out a qualifier's obligations.
func fanOut(n, workers int, fn func(i int)) {
	scheduler.Run(workers, func(c *scheduler.Ctx) {
		c.Fan(n, func(_ *scheduler.Ctx, i int) { fn(i) }, func() {})
	})
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

func TestForEachIndexZeroItems(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fanOut(0, 8, func(i int) {
			t.Errorf("fn called with i=%d for n=0", i)
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a zero-unit fan-out on 8 workers hung")
	}
}

func TestForEachIndexMoreWorkersThanItems(t *testing.T) {
	const n = 3
	var visited [n]atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		fanOut(n, 64, func(i int) { visited[i].Add(1) })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a fan-out with workers > n hung")
	}
	for i := range visited {
		if got := visited[i].Load(); got != 1 {
			t.Errorf("index %d visited %d times, want 1", i, got)
		}
	}
}

// TestForEachIndexSerialFallback: a budget of one worker, and a fan-out of
// one unit on any budget, run on the caller's goroutine.
func TestForEachIndexSerialFallback(t *testing.T) {
	caller := goid()
	for _, tc := range []struct{ n, workers int }{{5, 1}, {1, 8}} {
		var count int // no lock: every call must stay on the caller's goroutine
		fanOut(tc.n, tc.workers, func(i int) {
			if id := goid(); id != caller {
				t.Errorf("n=%d workers=%d: fn ran on goroutine %s, want the caller's %s", tc.n, tc.workers, id, caller)
			}
			count++
		})
		if count != tc.n {
			t.Errorf("n=%d workers=%d: %d calls, want %d", tc.n, tc.workers, count, tc.n)
		}
	}
}

// TestForEachIndexPanicPropagates requires that a panic inside fn reaches
// the caller of Wait (so a long-lived caller such as qualserve's worker can
// turn it into an error on its own request) instead of crashing a pool
// goroutine, and that the pool winds down completely: no leaked helpers.
func TestForEachIndexPanicPropagates(t *testing.T) {
	leak.Check(t)
	before := runtime.NumGoroutine()

	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		fanOut(1000, 8, func(i int) {
			if i == 3 {
				panic("boom at 3")
			}
		})
	}()
	select {
	case r := <-recovered:
		if r != "boom at 3" {
			t.Fatalf("recovered %v, want the fn's panic value", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("panicking fn deadlocked the pool")
	}

	// The helpers must all have exited; give the runtime a moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("goroutines grew from %d to %d: pool leaked helpers after a panic", before, after)
	}
}

// TestForEachIndexAllPanic floods every worker with panics at once; the
// call must still return (with some panic value) rather than deadlock.
func TestForEachIndexAllPanic(t *testing.T) {
	leak.Check(t)
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		fanOut(64, 8, func(i int) { panic(i) })
	}()
	select {
	case r := <-recovered:
		if r == nil {
			t.Fatal("the pool swallowed the units' panics")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("all-panic workload deadlocked the pool")
	}
}

// TestForEachIndexConcurrentVisitsEachOnce is the -race gate for the pool:
// heavy n, contended counters, every index exactly once.
func TestForEachIndexConcurrentVisitsEachOnce(t *testing.T) {
	const n = 4096
	visited := make([]atomic.Int32, n)
	var total atomic.Int64
	fanOut(n, runtime.GOMAXPROCS(0), func(i int) {
		visited[i].Add(1)
		total.Add(1)
	})
	if got := total.Load(); got != n {
		t.Fatalf("%d calls, want %d", got, n)
	}
	for i := range visited {
		if got := visited[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}
