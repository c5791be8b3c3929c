package checker

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cminor"
	"repro/internal/input"
	"repro/internal/qdl"
	"repro/internal/scheduler"
)

// This file is the repo-scale entry point: CheckTree walks a directory,
// parses every source file, and checks them all over a work-stealing
// scheduler with per-file → per-function work units. A file task reads the
// file and runs checkSource — CheckSource's own task — which replays the
// file's disk record when one holds its bytes, and otherwise parses the file
// and runs checkProgram, CheckWithCache's own task. That spawns one unit per
// function onto its worker's queue; idle workers steal those units, so one
// huge file's functions spread across the pool instead of serializing behind
// it.
//
// Determinism: files are indexed in walk (lexical) order and functions in
// declaration order, every unit writes only its own slot, and the last unit
// of a file merges the slots in index order — so the assembled diagnostics
// are byte-identical at any worker count and any steal interleaving, and
// identical to checking each file alone with CheckWithCache.

// TreeOptions configures CheckTree.
type TreeOptions struct {
	// Options configures per-file checking exactly as for CheckWith; the
	// Concurrency field is ignored here (the tree scheduler owns parallelism).
	Options
	// Workers bounds the scheduler pool (the -j flag); 0 or less means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Seed seeds the scheduler's deterministic victim selection.
	Seed uint64
	// Walk configures file discovery (extensions, skip rules, size caps).
	Walk input.WalkOptions
	// Cache, when non-nil, is the shared result cache: identical functions
	// across files coalesce to one walk, and with a disk tier attached a
	// file whose bytes a record holds is replayed without being parsed.
	Cache *FuncCache
	// DegradeReadErrors turns a vanished or unreadable file into a per-file
	// "internal" diagnostic instead of a FileResult.Err. Under a watch daemon
	// files routinely disappear between walk and read (editor rename-replace
	// saves, git checkout); one vanished file must not fail the generation.
	DegradeReadErrors bool
}

// FileResult is one file's checking outcome.
type FileResult struct {
	// File is the root-relative slash path; it is also the Pos.File of every
	// diagnostic.
	File  string
	Diags []Diagnostic
	Stats Stats
	// Err is a read or parse failure (Diags is empty then), or the context
	// error for files skipped by cancellation.
	Err error
}

// TreeResult is the outcome of checking a directory tree.
type TreeResult struct {
	// Files holds per-file results in walk (lexical) order.
	Files []FileResult
	// Stats aggregates every file's checking statistics.
	Stats Stats
	// Walk, Read, and Sched are the discovery, streaming-reader, and
	// scheduler telemetry for the run.
	Walk  input.WalkStats
	Read  input.ReaderStats
	Sched scheduler.Stats
	// Duration is the wall-clock time of the checking phase (walk included).
	Duration time.Duration
	// Err is the context error when the run was cut short: absent
	// diagnostics are then inconclusive.
	Err error
}

// FilesPerSec is the throughput of the run (0 for an instant or empty run).
func (r *TreeResult) FilesPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(len(r.Files)) / r.Duration.Seconds()
}

// TreeChecker is a reusable repo-scale checking engine: one scheduler pool,
// one streaming reader, and one function cache serving any number of passes.
// The watch daemon keeps a TreeChecker alive across generations so the pool's
// workers, the reader's pooled buffers, and the cache's warm entries survive
// from one save to the next instead of being rebuilt per pass. Close releases
// the pool; a closed TreeChecker must not be used again.
type TreeChecker struct {
	tab      *tables // the registry compiled once for every file
	opts     TreeOptions
	maxBytes int64
	pool     *scheduler.Pool
	reader   *input.Reader
}

// NewTreeChecker builds a checking engine over a worker pool of opts.Workers
// workers, or runtime.GOMAXPROCS(0) when opts.Workers <= 0.
func NewTreeChecker(reg *qdl.Registry, opts TreeOptions) *TreeChecker {
	maxBytes := opts.Walk.MaxFileBytes
	if maxBytes <= 0 {
		maxBytes = input.DefaultMaxFileBytes
	}
	return &TreeChecker{
		tab:      tablesFor(reg),
		opts:     opts,
		maxBytes: maxBytes,
		pool:     scheduler.New(opts.Workers, opts.Seed),
		reader:   input.NewReader(),
	}
}

// Close stops and joins the worker pool.
func (tc *TreeChecker) Close() { tc.pool.Close() }

// ReaderStats snapshots the streaming reader's cumulative counters.
func (tc *TreeChecker) ReaderStats() input.ReaderStats { return tc.reader.Stats() }

// SchedStats snapshots the scheduler pool's cumulative counters.
func (tc *TreeChecker) SchedStats() scheduler.Stats { return tc.pool.Stats() }

// CheckFiles checks the given files over the persistent pool and returns one
// result per file, index-aligned with the input. This is the incremental
// re-check path: the watch daemon passes only the files whose content
// changed, and within each file only the functions whose content key changed
// miss the cache — everything else replays. Results are deterministic for a
// given file list at any worker count.
func (tc *TreeChecker) CheckFiles(ctx context.Context, files []input.File) []FileResult {
	results := make([]FileResult, len(files))
	for i := range files {
		i, f := i, files[i]
		tc.pool.Submit(func(c *scheduler.Ctx) {
			checkFileTask(ctx, c, f, tc.tab, tc.maxBytes, tc.reader, tc.opts, &results[i])
		})
	}
	tc.pool.Wait()
	return results
}

// CheckTree walks root and checks every collected file (the full pass).
func (tc *TreeChecker) CheckTree(ctx context.Context, root string) (*TreeResult, error) {
	start := time.Now()
	files, wstats, err := input.Walk(root, tc.opts.Walk)
	if err != nil {
		return nil, err
	}
	results := tc.CheckFiles(ctx, files)
	res := &TreeResult{
		Files: results,
		Walk:  wstats,
		Read:  tc.reader.Stats(),
		Sched: tc.pool.Stats(),
		Err:   ctx.Err(),
		Stats: newStats(),
	}
	for i := range results {
		res.Stats.Add(results[i].Stats)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// CheckTree checks every matching source file under root. Diagnostics come
// back per file, in deterministic order regardless of opts.Workers. Only
// walk-level failures (unreadable root) return a non-nil error; per-file
// read/parse failures land on the FileResult.
func CheckTree(ctx context.Context, root string, reg *qdl.Registry, opts TreeOptions) (*TreeResult, error) {
	tc := NewTreeChecker(reg, opts)
	defer tc.Close()
	return tc.CheckTree(ctx, root)
}

// checkFileTask is one file's task: read, then checkSource. A file the disk
// tier serves is written here; otherwise the last function unit to finish
// writes the file's result (there is no blocking join — a worker is never
// parked waiting for another worker's units).
func checkFileTask(ctx context.Context, c *scheduler.Ctx, f input.File, tab *tables,
	maxBytes int64, reader *input.Reader, opts TreeOptions, out *FileResult) {
	out.File = f.Rel
	if err := ctx.Err(); err != nil {
		out.Err = err
		return
	}
	src, err := reader.ReadString(f.Path, maxBytes)
	if err != nil {
		if opts.DegradeReadErrors {
			// The file vanished (or turned unreadable) between walk and read.
			// Degrade to a per-file transient diagnostic: the generation
			// completes, and the next rescan reconciles the file's fate.
			out.Diags = []Diagnostic{{
				Pos:  cminor.Pos{File: f.Rel, Line: 1, Col: 1},
				Code: "internal",
				Msg:  fmt.Sprintf("read failed: %v", err),
			}}
			return
		}
		out.Err = err
		return
	}
	checkSource(ctx, c, f.Rel, src, tab, opts.Options, opts.Cache, func(res *Result, err error) {
		if err != nil {
			out.Err = err
			return
		}
		out.Diags, out.Stats, out.Err = res.Diags, res.Stats, res.Err
	})
}
