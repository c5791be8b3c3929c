// Package scheduler is the work-stealing task pool behind every fan-out in
// the repository. A repo-scale tree check (qualcheck -r, -watch) submits one
// task per file to a long-lived pool; checker.CheckWith runs one pass (Run)
// whose root is the program's task, and the soundness checker one pass that
// fans out one task per qualifier. Each file, program, or qualifier task
// then fans out one unit per function or per obligation.
//
// Each worker owns a FIFO queue. The owner takes its own oldest unit first,
// so a one-worker pool runs units in spawn order, and an idle worker steals
// the oldest unit from a victim's queue. External callers submit to a shared
// injector queue that workers drain when their own queue is empty. The split
// between Submit (shared injector) and Fan (the executing worker's own
// queue) is what keeps one huge file from starving the pool: its
// per-function units sit where any idle worker can steal them, and the owner
// finishes one file's units before it takes the next file.
//
// The goroutine that calls Wait is worker 0: it runs tasks until the pool is
// quiescent. Workers 1..n-1 are helper goroutines, started on demand when
// more tasks are queued than the idle workers and the pushing worker can
// take; once started, a helper parks between passes and exits on Close. So
// a pool of one worker, or a pass that never queues two tasks at once, runs
// entirely on the caller's goroutine and starts no goroutine; and however
// tasks nest their spawns, at most n run at once. Fan runs a fan-out with
// nothing to spread inline, and Run — the one-pass form the per-call
// fan-outs use — builds its pool only at the first spawn, so a trivial pass
// costs no pool at all.
//
// A task's panic is recovered on its worker. The rest of the pass still
// runs, Wait re-raises the first panic value on its caller's goroutine, and
// the pool stays usable.
//
// Victim selection is a deterministic per-worker xorshift sequence seeded
// from the pool seed and the thief's index — no global randomness, so two
// pools with the same seed probe victims in the same order (the interleaving
// of steals still depends on OS scheduling; result determinism must come
// from the caller merging results by index, which every caller does).
//
// The pool is quiescence-counted: every submitted or spawned task increments
// a pending counter, every completed task decrements it, and Wait returns when it hits
// zero. Close stops the helpers and joins them; a closed pool takes no more
// work.
package scheduler

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ctx is the execution context handed to every task: it identifies the
// running worker and lets the task spawn subtasks onto that worker's queue.
type Ctx struct {
	pool    *Pool // nil for a Run root until its first spawn
	worker  int
	workers int // the pool's size
}

// spawn queues a subtask on the executing worker's own queue, where it is
// eligible for stealing immediately. A Run root builds its pool here.
func (c *Ctx) spawn(t Task) {
	p := c.pool
	if p == nil {
		p = New(c.workers, 0)
		c.pool = p
	}
	p.pending.Add(1)
	p.spawned.Add(1)
	p.push(&p.workers[c.worker].queue, t)
}

// Fan spawns unit(0), ..., unit(n-1) as n subtasks and runs join on the
// worker that finishes the last of them. Each unit must write only its own
// index's state; join sees every unit's writes. No worker ever blocks
// waiting for the units. A unit that panics leaves join unrun, and Wait
// re-raises the panic. When there is nothing to spread — at most one unit,
// or a pool of one worker — Fan runs the units in order and then join on the
// executing worker before it returns, which is the order a one-worker pool
// would run them in anyway.
func (c *Ctx) Fan(n int, unit func(c *Ctx, i int), join func()) {
	if n <= 1 || c.workers == 1 {
		for i := 0; i < n; i++ {
			unit(c, i)
		}
		if p := c.pool; p != nil {
			p.spawned.Add(uint64(n))
			p.workers[c.worker].executed.Add(uint64(n))
		}
		join()
		return
	}
	var remaining atomic.Int64
	remaining.Store(int64(n))
	for i := 0; i < n; i++ {
		c.spawn(func(c *Ctx) {
			unit(c, i)
			if remaining.Add(-1) == 0 {
				join()
			}
		})
	}
}

// Run runs one pass on a pool of the given number of workers, or of
// runtime.GOMAXPROCS(0) workers when workers <= 0, that lives only for the
// call: root runs on the calling goroutine as worker 0, and Run returns when
// root and every task it spawned have finished. The pool is built at root's
// first spawn, so a pass whose fan-outs all run inline builds none. Like
// Wait, Run re-raises a spawned task's panic on the caller; a panic in root
// itself propagates directly. Either way the pool is closed.
func Run(workers int, root Task) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Ctx{workers: workers}
	defer func() {
		if c.pool != nil {
			c.pool.Close()
		}
	}()
	root(c)
	if c.pool != nil {
		c.pool.Wait()
	}
}

// Task is one unit of work. The Ctx argument is valid only for the duration
// of the call.
type Task func(c *Ctx)

// Stats is a snapshot of the pool's telemetry counters.
type Stats struct {
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Submitted counts external Submit calls; Spawned counts the units tasks
	// fanned out; Executed is their sum once every task has run.
	Submitted uint64 `json:"submitted"`
	Spawned   uint64 `json:"spawned"`
	Executed  uint64 `json:"executed"`
	// Steals counts tasks taken from another worker's queue; InjectorGrabs
	// counts tasks taken from the shared injector queue.
	Steals        uint64 `json:"steals"`
	InjectorGrabs uint64 `json:"injector_grabs"`
	// PerWorker[i] is the number of tasks worker i executed — the
	// utilization profile (a flat profile means stealing kept every worker
	// busy; a spiked one means the workload didn't decompose).
	PerWorker []uint64 `json:"per_worker"`
	// Parks counts times a worker found no work anywhere and went to sleep.
	Parks uint64 `json:"parks"`
}

// queue is a mutex-guarded FIFO of tasks: one per worker, plus the shared
// injector. The owner and thieves contend only on this queue's lock, so a
// worker running its own units never touches a global lock.
type queue struct {
	mu    sync.Mutex
	items []Task
	head  int
}

func (q *queue) push(t Task) {
	q.mu.Lock()
	q.items = append(q.items, t)
	q.mu.Unlock()
}

// pop removes the oldest task.
func (q *queue) pop() (Task, bool) {
	q.mu.Lock()
	if q.head == len(q.items) {
		q.mu.Unlock()
		return nil, false
	}
	t := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	q.mu.Unlock()
	return t, true
}

// worker is one pool member: its queue, the Ctx its tasks receive, its
// deterministic victim-selection RNG state, and its executed counter.
type worker struct {
	queue    queue
	ctx      Ctx
	rng      uint64
	executed atomic.Uint64
}

// Pool is a work-stealing scheduler. Create with New, feed with Submit,
// run with Wait, and release with Close.
type Pool struct {
	workers  []worker
	injector queue

	// pending counts submitted-or-spawned tasks not yet finished; Wait
	// returns when it reaches zero. queued counts pushed tasks no worker
	// has taken yet; idle counts parked workers; helpers counts started
	// helper goroutines (changed only under mu).
	pending atomic.Int64
	queued  atomic.Int64
	idle    atomic.Int64
	helpers atomic.Int64
	stopped atomic.Bool

	// mu and cond are the sleep/wake rendezvous: a worker that finds no work
	// anywhere waits on cond, and a push or the completion that empties the
	// pool broadcasts when a worker is parked. mu also guards panicVal, the
	// first recovered panic, which panicked flags.
	mu       sync.Mutex
	cond     sync.Cond
	panicked atomic.Bool
	panicVal any

	wg sync.WaitGroup

	submitted     atomic.Uint64
	spawned       atomic.Uint64
	steals        atomic.Uint64
	injectorGrabs atomic.Uint64
	parks         atomic.Uint64
}

// New returns a pool of the given number of workers, or of
// runtime.GOMAXPROCS(0) workers when workers <= 0, with the given
// victim-selection seed. The same seed gives every worker the same probe
// sequence across runs. New starts no goroutine: helpers start on demand.
func New(workers int, seed uint64) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: make([]worker, workers)}
	p.cond.L = &p.mu
	for i := range p.workers {
		// splitmix64 of seed+index: distinct, deterministic, never zero.
		s := seed + uint64(i+1)*0x9e3779b97f4a7c15
		s ^= s >> 30
		s *= 0xbf58476d1ce4e5b9
		s ^= s >> 27
		s *= 0x94d049bb133111eb
		s ^= s >> 31
		if s == 0 {
			s = 1
		}
		p.workers[i].rng = s
		p.workers[i].ctx = Ctx{pool: p, worker: i, workers: workers}
	}
	return p
}

// Submit enqueues a task on the shared injector queue (FIFO). Safe from any
// goroutine. Submitting to a closed pool panics: its helpers are gone, so
// the task might silently never run (the watch daemon reuses one pool across
// generations — Submit after Wait is fine, Submit after Close is a bug).
func (p *Pool) Submit(t Task) {
	if p.stopped.Load() {
		panic("scheduler: Submit on a closed pool")
	}
	p.pending.Add(1)
	p.submitted.Add(1)
	p.push(&p.injector, t)
}

// push queues t on q. It starts a helper when the queued tasks outnumber the
// workers about to take them — the idle ones plus the pusher, which takes a
// task as soon as its own returns — and wakes any parked worker. With no
// helper to start and no worker parked it takes no lock.
func (p *Pool) push(q *queue, t Task) {
	q.push(t)
	queued := p.queued.Add(1)
	idle := p.idle.Load()
	grow := queued > idle+1 && p.helpers.Load() < int64(len(p.workers)-1)
	if idle == 0 && !grow {
		return
	}
	p.mu.Lock()
	if grow && !p.stopped.Load() && p.helpers.Load() < int64(len(p.workers)-1) {
		w := int(p.helpers.Add(1))
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work(w, false)
		}()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// take pops the oldest task from q.
func (p *Pool) take(q *queue) (Task, bool) {
	t, ok := q.pop()
	if ok {
		p.queued.Add(-1)
	}
	return t, ok
}

// nextVictim advances worker w's xorshift64 state and maps it onto a victim
// index in [0, n) other than w, for 2 <= n <= len(p.workers) and w < n.
func (p *Pool) nextVictim(w, n int) int {
	wk := &p.workers[w]
	x := wk.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	wk.rng = x
	v := int(x % uint64(n-1))
	if v >= w {
		v++
	}
	return v
}

// findWork locates the next task for worker w: its own queue first, then
// the injector, then 2*(n-1) steal probes over the deterministic victim
// sequence, where n counts the caller and the helpers started so far (a
// worker never started has an empty queue).
func (p *Pool) findWork(w int) (Task, bool) {
	if t, ok := p.take(&p.workers[w].queue); ok {
		return t, true
	}
	if t, ok := p.take(&p.injector); ok {
		p.injectorGrabs.Add(1)
		return t, true
	}
	n := int(p.helpers.Load()) + 1
	for i := 0; i < 2*(n-1); i++ {
		if t, ok := p.take(&p.workers[p.nextVictim(w, n)].queue); ok {
			p.steals.Add(1)
			return t, true
		}
	}
	return nil, false
}

// work is worker w's loop. A helper (caller false) runs tasks until Close;
// the goroutine in Wait (caller true, w 0) runs them until every submitted
// and spawned task has finished.
func (p *Pool) work(w int, caller bool) {
	ctx := &p.workers[w].ctx
	for {
		if caller && p.pending.Load() == 0 {
			return
		}
		if t, ok := p.findWork(w); ok {
			p.execute(ctx, t)
			continue
		}
		p.mu.Lock()
		if !caller && p.stopped.Load() {
			p.mu.Unlock()
			return
		}
		// Count as idle before re-checking the counters: a push or the last
		// completion that raced this check then sees a parked worker and
		// broadcasts under mu.
		p.idle.Add(1)
		if p.queued.Load() <= 0 && !(caller && p.pending.Load() == 0) {
			p.parks.Add(1)
			p.cond.Wait()
		}
		p.idle.Add(-1)
		p.mu.Unlock()
	}
}

// execute runs one task. A panic is recovered and the first one kept for
// Wait to re-raise; either way the task counts as finished, and the one that
// empties the pool wakes Wait.
func (p *Pool) execute(ctx *Ctx, t Task) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if !p.panicked.Load() {
				p.panicVal = r
				p.panicked.Store(true)
			}
			p.mu.Unlock()
		}
		p.workers[ctx.worker].executed.Add(1)
		if p.pending.Add(-1) == 0 && p.idle.Load() > 0 {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}()
	t(ctx)
}

// Wait runs tasks on the calling goroutine, as worker 0, until every
// submitted and spawned task has finished. Then, if any task panicked since
// the last Wait, it re-raises the first panic value. Wait does not close
// the pool: more work may be submitted after it returns or panics. At most
// one goroutine may be in Wait at a time.
func (p *Pool) Wait() {
	p.work(0, true)
	if !p.panicked.Load() {
		return
	}
	p.mu.Lock()
	v := p.panicVal
	p.panicVal = nil
	p.panicked.Store(false)
	p.mu.Unlock()
	panic(v)
}

// Close stops the helpers and joins them. Tasks still queued may be dropped
// (callers that need them to run call Wait first). Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.stopped.Store(true)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats snapshots the telemetry counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Workers:       len(p.workers),
		Submitted:     p.submitted.Load(),
		Spawned:       p.spawned.Load(),
		Steals:        p.steals.Load(),
		InjectorGrabs: p.injectorGrabs.Load(),
		Parks:         p.parks.Load(),
		PerWorker:     make([]uint64, len(p.workers)),
	}
	for i := range p.workers {
		n := p.workers[i].executed.Load()
		s.PerWorker[i] = n
		s.Executed += n
	}
	return s
}
