// Package watch is the incremental checking daemon behind `qualcheck -watch`:
// one full CheckTree pass at startup, then a long-lived loop that watches the
// tree for edits, debounces event bursts (editor save storms, git checkout),
// re-reads only touched files through the pooled input readers, and re-checks
// only the functions whose content key actually changed — every unchanged
// function is a FuncCache replay. Diagnostics are pushed as JSONL events on
// stdout (see events.go) with a generation counter, so the edit→diagnostics
// loop closes without re-running the batch tool.
//
// Change detection is snapshot-based: every trigger (an inotify burst or a
// poll tick) re-walks the tree and compares each file's (size, mtime) against
// the previous generation's snapshot. The fs watcher is only an accelerator —
// its event paths are force-added to the changed set (catching same-size
// same-mtime rewrites) — so the polling and inotify modes converge on
// identical generations, which is what makes the daemon testable
// deterministically in polling mode.
package watch

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/input"
	"repro/internal/qdl"
)

// DefaultDebounce is the quiet window an inotify burst must close before a
// generation runs: long enough to coalesce a multi-file save or checkout,
// short enough to feel immediate on a single save.
const DefaultDebounce = 200 * time.Millisecond

// Options configures a Daemon.
type Options struct {
	// Checker configures per-file checking (flow sensitivity etc.).
	Checker checker.Options
	// Walk configures file discovery, exactly as for CheckTree.
	Walk input.WalkOptions
	// Workers bounds the persistent scheduler pool; 0 means all cores.
	Workers int
	// Debounce is the post-event quiet window (DefaultDebounce when 0).
	Debounce time.Duration
	// Poll, when > 0, replaces fs notifications with a rescan every Poll —
	// the deterministic mode tests and `make watch-smoke` run in, and the
	// fallback where inotify is unavailable.
	Poll time.Duration
	// Cache is the function-granular result cache (a fresh one when nil).
	Cache *checker.FuncCache
	// Out is the JSONL event sink (os.Stdout when nil).
	Out io.Writer
}

// fileState is one file's current contribution to the tree verdict.
type fileState struct {
	diags []checker.Diagnostic
	err   string
}

// Daemon is the resident incremental checker. Create with New, drive with
// Run; Stats-style telemetry is pushed as events (EmitStats is safe to call
// from a signal handler goroutine while Run is mid-generation).
type Daemon struct {
	root string
	reg  *qdl.Registry
	opts Options
	fc   *checker.FuncCache
	tc   *checker.TreeChecker

	// mu guards the output stream and the tree state below; Run's loop and
	// EmitStats both take it, so event lines never interleave.
	mu       sync.Mutex
	out      io.Writer
	gen      uint64
	snapshot map[string]input.File
	state    map[string]*fileState
}

// New validates the root and builds a daemon (no pass runs until Run).
func New(root string, reg *qdl.Registry, opts Options) (*Daemon, error) {
	info, err := os.Stat(root)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("watch: %s is not a directory", root)
	}
	if opts.Debounce <= 0 {
		opts.Debounce = DefaultDebounce
	}
	if opts.Cache == nil {
		opts.Cache = checker.NewFuncCache(0)
	}
	if opts.Out == nil {
		opts.Out = os.Stdout
	}
	return &Daemon{
		root:     root,
		reg:      reg,
		opts:     opts,
		fc:       opts.Cache,
		out:      opts.Out,
		snapshot: map[string]input.File{},
		state:    map[string]*fileState{},
	}, nil
}

// Run performs the startup full pass (generation 0), then watches until ctx
// is done. The returned error is nil on a clean shutdown; a failed startup
// pass or an unstartable watcher is fatal (a failed *rescan* is not — it is
// reported as an error event and retried on the next trigger).
func (d *Daemon) Run(ctx context.Context) error {
	d.tc = checker.NewTreeChecker(d.reg, checker.TreeOptions{
		Options:           d.opts.Checker,
		Workers:           d.opts.Workers,
		Seed:              1,
		Walk:              d.opts.Walk,
		Cache:             d.fc,
		DegradeReadErrors: true,
	})
	defer d.tc.Close()

	// The watcher must exist before the startup walk: an edit landing after
	// the walk but before watch registration would otherwise be lost forever
	// (no event, no poll, no rescan). Created first, every change is covered
	// either by the walk or by a buffered event the first debounce drains.
	var w *notifyWatcher
	if d.opts.Poll <= 0 {
		var werr error
		w, werr = newNotifyWatcher(d.root)
		if werr != nil {
			return fmt.Errorf("watch: fs notifications unavailable (%v); use -poll", werr)
		}
		defer w.Close()
	}

	files, wstats, err := input.Walk(d.root, d.opts.Walk)
	if err != nil {
		return err
	}
	results := d.tc.CheckFiles(ctx, files)
	if err := ctx.Err(); err != nil {
		return err
	}
	d.publishGeneration(files, results, nil, wstats.Truncated)

	if w != nil {
		err = d.notifyLoop(ctx, w)
	} else {
		err = d.pollLoop(ctx)
	}
	d.EmitStats()
	return err
}

// pollLoop rescans every Poll interval; quiet ticks cost one walk and no
// generation.
func (d *Daemon) pollLoop(ctx context.Context) error {
	ticker := time.NewTicker(d.opts.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			d.rescan(ctx, nil)
		}
	}
}

// notifyLoop debounces fs notifications into rescans: the timer restarts on
// every event, so a generation runs only once a burst has been quiet for the
// debounce window.
func (d *Daemon) notifyLoop(ctx context.Context, w *notifyWatcher) error {
	var timer *time.Timer
	var timerC <-chan time.Time
	pending := map[string]bool{}
	for {
		select {
		case <-ctx.Done():
			return nil
		case rel, ok := <-w.Events():
			if !ok {
				return fmt.Errorf("watch: fs watcher terminated")
			}
			pending[rel] = true
			if timer == nil {
				timer = time.NewTimer(d.opts.Debounce)
				timerC = timer.C
			} else {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(d.opts.Debounce)
			}
		case <-timerC:
			timer, timerC = nil, nil
			forced := pending
			pending = map[string]bool{}
			d.rescan(ctx, forced)
		}
	}
}

// rescan is one trigger's work: re-walk, diff against the snapshot, re-check
// exactly the changed files, and publish the generation. forced rel paths
// (from fs notifications) are re-checked even when size and mtime are
// unchanged, covering same-length in-place rewrites.
func (d *Daemon) rescan(ctx context.Context, forced map[string]bool) {
	files, wstats, err := input.Walk(d.root, d.opts.Walk)
	if err != nil {
		d.mu.Lock()
		emit(d.out, errorEvent{Event: "error", Generation: d.gen, Error: err.Error()})
		d.mu.Unlock()
		return
	}

	d.mu.Lock()
	var changed []input.File
	seen := make(map[string]bool, len(files))
	for _, f := range files {
		seen[f.Rel] = true
		old, ok := d.snapshot[f.Rel]
		if !ok || old.Size != f.Size || !old.ModTime.Equal(f.ModTime) || forced[f.Rel] {
			changed = append(changed, f)
		}
	}
	var removed []string
	for rel := range d.snapshot {
		if !seen[rel] {
			removed = append(removed, rel)
		}
	}
	d.mu.Unlock()
	if len(changed) == 0 && len(removed) == 0 {
		return // quiet trigger: no generation
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i].Rel < changed[j].Rel })
	sort.Strings(removed)

	results := d.tc.CheckFiles(ctx, changed)
	if ctx.Err() != nil {
		return // never publish a half-checked generation
	}
	d.publishGeneration(changed, results, removed, wstats.Truncated)
}

// publishGeneration folds one pass's results into the tree state and emits
// its events: file+diag records for every re-checked file (lexical order),
// remove records, then the closing generation summary.
func (d *Daemon) publishGeneration(files []input.File, results []checker.FileResult, removed []string, truncated bool) {
	d.mu.Lock()
	defer d.mu.Unlock()

	genWarnings, hits, misses, coalesced := 0, 0, 0, 0
	for i, f := range files {
		fr := results[i]
		st := &fileState{diags: fr.Diags}
		if fr.Err != nil {
			st.err = fr.Err.Error()
		}
		d.state[f.Rel] = st
		d.snapshot[f.Rel] = f
		genWarnings += len(fr.Diags)
		hits += fr.Stats.FuncCacheHits
		misses += fr.Stats.FuncCacheMisses
		coalesced += fr.Stats.FuncCacheCoalesced
	}
	for _, rel := range removed {
		delete(d.state, rel)
		delete(d.snapshot, rel)
	}

	totalWarnings, errs := 0, 0
	for _, st := range d.state {
		totalWarnings += len(st.diags)
		if st.err != "" {
			errs++
		}
	}

	for i, f := range files {
		fr := results[i]
		ev := fileEvent{Event: "file", Generation: d.gen, File: f.Rel, Warnings: len(fr.Diags)}
		if fr.Err != nil {
			ev.Err = fr.Err.Error()
		}
		emit(d.out, ev)
		for _, diag := range fr.Diags {
			emit(d.out, diagEvent{
				Event: "diag", Generation: d.gen, File: f.Rel,
				Line: diag.Pos.Line, Col: diag.Pos.Col,
				Qualifier: diag.Code, Message: diag.Msg,
			})
		}
	}
	for _, rel := range removed {
		emit(d.out, removeEvent{Event: "remove", Generation: d.gen, File: rel})
	}

	status := "clean"
	if totalWarnings > 0 || errs > 0 {
		status = "dirty"
	}
	emit(d.out, genEvent{
		Event: "generation", Generation: d.gen,
		Checked: len(files), Removed: len(removed), Files: len(d.state),
		Warnings: genWarnings, TotalWarnings: totalWarnings, Errors: errs,
		CacheHits:      uint64(hits),
		CacheMisses:    uint64(misses),
		CacheCoalesced: uint64(coalesced),
		Truncated:      truncated,
		Status:         status,
	})
	d.gen++
}

// EmitStats pushes a cumulative telemetry snapshot as a stats event. Safe
// concurrently with Run (SIGUSR1 handlers call it mid-generation).
func (d *Daemon) EmitStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for _, st := range d.state {
		total += len(st.diags)
	}
	ev := statsEvent{
		Event: "stats", Generation: d.gen,
		Files: len(d.state), TotalWarnings: total,
		Cache: d.fc.Stats(),
	}
	if d.tc != nil {
		ev.Reader = d.tc.ReaderStats()
		ev.Sched = d.tc.SchedStats()
	}
	emit(d.out, ev)
}
