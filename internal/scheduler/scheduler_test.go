package scheduler

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil/leak"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestAllTasksRun checks quiescence counting: every submitted and spawned
// task executes exactly once before Wait returns.
func TestAllTasksRun(t *testing.T) {
	leak.Check(t)
	for _, workers := range []int{1, 2, 8} {
		p := New(workers, 1)
		var ran atomic.Int64
		for i := 0; i < 100; i++ {
			p.Submit(func(c *Ctx) {
				ran.Add(1)
				for j := 0; j < 5; j++ {
					c.spawn(func(*Ctx) { ran.Add(1) })
				}
			})
		}
		p.Wait()
		if got := ran.Load(); got != 600 {
			t.Errorf("workers=%d: %d tasks ran, want 600", workers, got)
		}
		st := p.Stats()
		if st.Executed != 600 || st.Submitted != 100 || st.Spawned != 500 {
			t.Errorf("workers=%d: stats %+v", workers, st)
		}
		var per uint64
		for _, n := range st.PerWorker {
			per += n
		}
		if per != st.Executed {
			t.Errorf("workers=%d: per-worker sum %d != executed %d", workers, per, st.Executed)
		}
		p.Close()
	}
}

// TestSpawnOrderAndSteal checks the queue discipline: a one-worker pool runs
// its spawns in spawn order (the serial order every caller relies on), and a
// queue hands out its oldest task first to owner and thief alike.
func TestSpawnOrderAndSteal(t *testing.T) {
	leak.Check(t)
	p := New(1, 1)
	var order []int
	p.Submit(func(c *Ctx) {
		for i := 0; i < 4; i++ {
			c.spawn(func(*Ctx) { order = append(order, i) })
		}
	})
	p.Wait()
	p.Close()
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("single-worker spawn order %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("single-worker spawn order %v, want %v", order, want)
		}
	}

	var q queue
	for i := 0; i < 3; i++ {
		q.push(func(c *Ctx) { c.worker = i })
	}
	for i := 0; i < 3; i++ {
		task, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d failed on a non-empty queue", i)
		}
		var c Ctx
		task(&c)
		if c.worker != i {
			t.Fatalf("pop %d returned task %d, want the oldest", i, c.worker)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded on an empty queue")
	}
}

// TestVictimSequenceDeterministic checks that victim selection is a pure
// function of (seed, worker): two pools with the same seed probe victims in
// the same order, and a different seed gives a different order.
func TestVictimSequenceDeterministic(t *testing.T) {
	leak.Check(t)
	seq := func(seed uint64) []int {
		p := New(8, seed) // no Wait, so no worker races the rng probe
		var out []int
		for i := 0; i < 64; i++ {
			out = append(out, p.nextVictim(3, 8))
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at probe %d: %v vs %v", i, a[:i+1], b[:i+1])
		}
		if a[i] == 3 {
			t.Fatalf("worker picked itself as victim at probe %d", i)
		}
		if a[i] < 0 || a[i] >= 8 {
			t.Fatalf("victim %d out of range at probe %d", a[i], i)
		}
	}
	c := seq(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical victim sequences")
	}
}

// TestStealsHappen forces the steal path: one task spawns many units and
// then holds its worker until they have all run, so every unit must be
// stolen off its queue by a helper.
func TestStealsHappen(t *testing.T) {
	leak.Check(t)
	p := New(4, 7)
	defer p.Close()
	const units = 400
	var ran atomic.Int64
	p.Submit(func(c *Ctx) {
		for i := 0; i < units; i++ {
			c.spawn(func(*Ctx) {
				ran.Add(1)
				// Busy the executing worker a little so thieves get a look in.
				s := 0
				for j := 0; j < 2000; j++ {
					s += j
				}
				_ = s
			})
		}
		for ran.Load() < units {
			runtime.Gosched()
		}
	})
	p.Wait()
	if got := ran.Load(); got != units {
		t.Fatalf("%d units ran, want %d", got, units)
	}
	if st := p.Stats(); st.Steals != units || st.PerWorker[0] != 1 {
		t.Errorf("want all %d units stolen and worker 0 running only the spawner; stats %+v", units, st)
	}
}

// TestCloseJoinsWorkers is the shutdown goroutine-leak regression: Close must
// return only after every worker goroutine has exited (leak.Check fails the
// test otherwise), including when called with tasks still queued.
func TestCloseJoinsWorkers(t *testing.T) {
	leak.Check(t)
	p := New(8, 3)
	for i := 0; i < 16; i++ {
		p.Submit(func(*Ctx) {})
	}
	p.Wait()
	p.Close()
	p.Close() // idempotent

	// Close with work still queued (never waited for): workers must still
	// exit; the dropped tasks are the caller's stated contract.
	q := New(4, 3)
	blocked := make(chan struct{})
	q.Submit(func(*Ctx) { <-blocked })
	close(blocked)
	q.Close()
}

// TestPanicInTask pins the panic contract: a panicking task is recovered on
// its worker, every other task still runs, Wait re-raises the first panic
// value on the caller's goroutine, and no helper leaks.
func TestPanicInTask(t *testing.T) {
	leak.Check(t)
	p := New(4, 9)
	defer p.Close()
	var ran atomic.Int64
	p.Submit(func(c *Ctx) {
		c.Fan(64, func(_ *Ctx, i int) {
			ran.Add(1)
			if i == 5 {
				panic("boom at 5")
			}
		}, func() { t.Error("join ran although a unit panicked") })
	})
	var got any
	func() {
		defer func() { got = recover() }()
		p.Wait()
	}()
	if got != "boom at 5" {
		t.Fatalf("Wait re-raised %v, want the task's panic value", got)
	}
	if n := ran.Load(); n != 64 {
		t.Errorf("%d of 64 units ran; the rest of the pass must still run", n)
	}
}

// TestPanicThenReuse is the watch daemon's reuse contract under a panic: an
// uncontained panic comes back out of Wait, and the same pool then serves
// another Submit/Wait cycle without re-raising it.
func TestPanicThenReuse(t *testing.T) {
	leak.Check(t)
	for _, workers := range []int{1, 4} {
		p := New(workers, 1)
		for i := 0; i < 8; i++ {
			p.Submit(func(*Ctx) { panic("poisoned") })
		}
		func() {
			defer func() {
				if r := recover(); r != "poisoned" {
					t.Errorf("workers=%d: Wait re-raised %v, want the task's panic", workers, r)
				}
			}()
			p.Wait()
		}()
		var ran atomic.Int64
		for i := 0; i < 16; i++ {
			p.Submit(func(*Ctx) { ran.Add(1) })
		}
		p.Wait() // a stale panic would fail the test here
		if n := ran.Load(); n != 16 {
			t.Errorf("workers=%d: %d of 16 tasks ran after the panic", workers, n)
		}
		if st := p.Stats(); st.Executed != 24 {
			t.Errorf("workers=%d: executed %d, want 24", workers, st.Executed)
		}
		p.Close()
	}
}

// TestTrivialFanOutStaysOnCaller: a pool of one worker, and a pass whose
// fan-outs have nothing to spread, run every task on the calling goroutine
// and start no goroutine; Run then builds no pool at all.
func TestTrivialFanOutStaysOnCaller(t *testing.T) {
	leak.Check(t)
	caller := goid()
	onCaller := func(name string) {
		if id := goid(); id != caller {
			t.Errorf("%s: task ran on goroutine %s, want the caller's %s", name, id, caller)
		}
	}

	one := New(1, 1)
	for i := 0; i < 8; i++ {
		one.Submit(func(c *Ctx) {
			c.Fan(8, func(*Ctx, int) { onCaller("one-worker pool") }, func() {})
		})
	}
	one.Wait()
	if n := one.helpers.Load(); n != 0 {
		t.Errorf("one-worker pool started %d helper goroutines", n)
	}
	one.Close()

	for _, tc := range []struct {
		name         string
		workers, fan int
	}{{"Run on one worker", 1, 8}, {"Run of single-unit fans", 8, 1}} {
		var root *Ctx
		Run(tc.workers, func(c *Ctx) {
			root = c
			c.Fan(tc.fan, func(c *Ctx, _ int) {
				onCaller(tc.name)
				c.Fan(tc.fan, func(*Ctx, int) { onCaller(tc.name) }, func() {})
			}, func() {})
		})
		if root.pool != nil {
			t.Errorf("%s: built a pool for a pass with nothing to spread", tc.name)
		}
	}
}

// TestRun: a pass with something to spread builds its pool, runs every unit,
// and closes the pool; a unit's panic comes back out of Run after the pass
// drains, and a panic in root itself propagates with the pool closed.
func TestRun(t *testing.T) {
	leak.Check(t)
	var ran atomic.Int64
	Run(4, func(c *Ctx) {
		c.Fan(100, func(c *Ctx, _ int) {
			ran.Add(1)
			c.Fan(3, func(*Ctx, int) { ran.Add(1) }, func() {})
		}, func() {})
	})
	if n := ran.Load(); n != 400 {
		t.Errorf("%d units ran, want 400", n)
	}

	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	ran.Store(0)
	r := recovered(func() {
		Run(4, func(c *Ctx) {
			c.Fan(50, func(_ *Ctx, i int) {
				ran.Add(1)
				if i == 7 {
					panic("unit 7")
				}
			}, func() {})
		})
	})
	if r != "unit 7" || ran.Load() != 50 {
		t.Errorf("Run re-raised %v after %d of 50 units, want unit 7's panic after all", r, ran.Load())
	}
	r = recovered(func() {
		Run(4, func(c *Ctx) {
			c.Fan(50, func(*Ctx, int) {}, func() {})
			panic("root")
		})
	})
	if r != "root" {
		t.Errorf("Run propagated %v, want root's panic", r)
	}
}

// TestNestedSpawnBound: however tasks nest their spawns, a pool of C workers
// never runs more than C tasks at once — and with enough work it runs C.
func TestNestedSpawnBound(t *testing.T) {
	leak.Check(t)
	const workers = 3
	p := New(workers, 1)
	defer p.Close()
	var active, highWater atomic.Int64
	busy := func() {
		n := active.Add(1)
		for {
			hw := highWater.Load()
			if n <= hw || highWater.CompareAndSwap(hw, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond) // force overlap
		active.Add(-1)
	}
	for q := 0; q < 4; q++ {
		p.Submit(func(c *Ctx) {
			busy()
			c.Fan(8, func(c *Ctx, _ int) {
				busy()
				c.Fan(2, func(*Ctx, int) { busy() }, func() {})
			}, func() {})
		})
	}
	p.Wait()
	if hw := highWater.Load(); hw > workers || hw < 2 {
		t.Errorf("high-water %d tasks at once on a %d-worker pool, want 2..%d", hw, workers, workers)
	}
}

// TestFanJoin: join runs exactly once, after every unit, on whichever worker
// finishes last — and at once for an empty fan.
func TestFanJoin(t *testing.T) {
	leak.Check(t)
	p := New(4, 1)
	defer p.Close()
	const n = 100
	var ran [n]bool
	var joins atomic.Int64
	p.Submit(func(c *Ctx) {
		c.Fan(n, func(_ *Ctx, i int) { ran[i] = true }, func() {
			joins.Add(1)
			for i, ok := range ran {
				if !ok {
					t.Errorf("join ran before unit %d", i)
				}
			}
		})
		c.Fan(0, func(*Ctx, int) { t.Error("unit ran in an empty fan") }, func() { joins.Add(1) })
	})
	p.Wait()
	if n := joins.Load(); n != 2 {
		t.Errorf("%d joins ran, want 2", n)
	}
}

// TestPoolReuseAcrossGenerations is the watch daemon's pool contract: a
// Submit/Wait cycle can repeat on one pool, counters accumulate, and no
// worker needs restarting between cycles.
func TestPoolReuseAcrossGenerations(t *testing.T) {
	p := New(4, 1)
	defer p.Close()
	var ran atomic.Uint64
	for gen := 1; gen <= 5; gen++ {
		for i := 0; i < 16; i++ {
			p.Submit(func(*Ctx) { ran.Add(1) })
		}
		p.Wait()
		if got, want := ran.Load(), uint64(gen*16); got != want {
			t.Fatalf("generation %d: %d tasks ran, want %d", gen, got, want)
		}
	}
	if st := p.Stats(); st.Submitted != 80 || st.Executed != 80 {
		t.Errorf("stats after 5 generations: %+v, want 80 submitted/executed", st)
	}
}

// TestSubmitAfterClosePanics enforces the documented single-use contract:
// a closed pool has no workers, so a silent enqueue would hang Wait forever.
func TestSubmitAfterClosePanics(t *testing.T) {
	p := New(2, 1)
	p.Submit(func(*Ctx) {})
	p.Wait()
	p.Close()
	defer func() {
		if recover() == nil {
			t.Error("Submit on a closed pool did not panic")
		}
	}()
	p.Submit(func(*Ctx) {})
}
