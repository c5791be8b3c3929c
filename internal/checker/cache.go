package checker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"repro/internal/cachedisk"
	"repro/internal/cminor"
	"repro/internal/faults"
	"repro/internal/tiercache"
)

// This file implements the memory tier of content-addressed result caching:
// the unit of reuse for a long-lived checking service is one function body,
// so that editing a file re-checks only the functions whose text changed.
// Both tiers hold one record type, FileRecord (persist.go): a function's
// result is the record of its walk with lines counted from the function's
// first line, and the disk tier keeps one record per file, counted from
// line 0.
//
// A cached function is keyed by two hashes:
//
//   - the function fingerprint: the function's source text as Parse read it
//     (cminor.FuncDef.Src, from the start of its first line through its
//     closing brace). Under one context the same text parses to the same
//     AST, and it fixes the column of every token and the line of every
//     token relative to the function's first line, so a replayed diagnostic
//     lands exactly where a fresh walk would put it. A reformatted body gets
//     a new key; a body that merely moved to other lines still hits;
//   - the context key: everything outside the body the walk can observe —
//     the qualifier registry fingerprint, the checker options that change
//     verdicts (flow sensitivity), the program interface (struct layouts,
//     global declarations, every function signature), the address-taken
//     variable set consulted by flow refinement, and the returns-fresh facts
//     (the one piece of cross-function body information the checker uses,
//     via the section 2.2.1 fresh-assignment extension).
//
// A function's record is rebased on replay to the function's current first
// line, so an unchanged function shifted by an edit above it replays its
// warnings at the new positions. Columns are stored as they are, which the
// text in the key makes exact.

// DefaultFuncCacheCapacity bounds a cache created with capacity <= 0.
const DefaultFuncCacheCapacity = 8192

// FuncCacheStats is a snapshot of a function cache's counters.
type FuncCacheStats = tiercache.Stats

// FuncCache is a thread-safe cache of checking results: a least-recently-used
// memory tier of function records, plus an optional disk tier of file
// records (persist.go), both FileRecords. Share one across CheckWithCache
// calls (and across programs — the context key isolates unrelated programs
// and registries) to make repeated checks of mostly-unchanged sources cheap.
// Concurrent lookups of one uncached function coalesce: the first caller
// walks while the rest wait for its result.
//
// The tiers are held unexported so that no caller can attach a peer tier: a
// result carries no proof a node could check, so it is only ever served from
// this process's memory or its own disk.
type FuncCache struct {
	cache *tiercache.Cache[*FileRecord] // function records
	disk  *cachedisk.Store              // file records; nil without WithDisk

	// diskFuncs counts the functions of the files the disk tier served, and
	// diskRejected the records it refused; Stats folds them into the memory
	// tier's counters.
	diskFuncs, diskRejected atomic.Uint64
}

// sealed is the memory tier's admit gate: a record is served only while its
// content seal matches its payload, the check decodeFileRecord applies to
// every disk record.
func sealed(r *FileRecord, _ tiercache.Source) bool { return sealFileRecord(r) == r.seal }

// NewFuncCache returns an empty cache holding at most capacity function
// results (DefaultFuncCacheCapacity when capacity <= 0).
func NewFuncCache(capacity int) *FuncCache {
	if capacity <= 0 {
		capacity = DefaultFuncCacheCapacity
	}
	// The memory tier never persists, so its codec is empty.
	return &FuncCache{cache: tiercache.New(capacity, tiercache.Codec[*FileRecord]{})}
}

// Stats returns a snapshot of the counters. Each function of a file the disk
// tier served counts as one hit from disk (Hits and DiskHits), so the
// counters agree with the runs' own Stats.FuncCacheHits.
func (c *FuncCache) Stats() FuncCacheStats {
	s := c.cache.Stats()
	n := c.diskFuncs.Load()
	s.Hits += n
	s.DiskHits += n
	s.Rejected += c.diskRejected.Load()
	return s
}

// Len returns the number of entries held in memory.
func (c *FuncCache) Len() int { return c.cache.Len() }

// DiskStats snapshots the attached disk store's counters, one lookup per
// file (zero value when no disk tier is attached).
func (c *FuncCache) DiskStats() cachedisk.Stats { return c.disk.Stats() }

// fpCacheReplay injects faults into the cache-replay paths (checkFuncCached
// and checkSource); any fired fault is treated as a miss.
var fpCacheReplay = faults.Register("checker.cache.replay")

// ForEach calls fn with every memory-tier entry's diagnostic codes, under
// the cache lock, without touching recency or the counters. Chaos tests use
// it to assert that no transient ("internal") result was ever stored.
func (c *FuncCache) ForEach(fn func(key string, diagCodes []string)) {
	c.cache.ForEach(func(key string, r *FileRecord) {
		codes := make([]string, len(r.Diags))
		for i, d := range r.Diags {
			codes[i] = d.Code
		}
		fn(key, codes)
	})
}

// funcKey is the full cache key for one function under one context: the
// context key, a NUL byte, then the function's source text.
func funcKey(ctxKey string, f *cminor.FuncDef) string {
	buf := make([]byte, 0, len(ctxKey)+1+len(f.Src))
	buf = append(append(append(buf, ctxKey...), 0), f.Src...)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// contextKey hashes everything a function-body walk can observe besides the
// body itself. It must be computed after prepareFlow (it hashes the
// address-taken set) and conservatively includes the returns-fresh facts,
// which depend on other functions' bodies.
func (en *engine) contextKey(opts Options) string {
	h := sha256.New()
	io.WriteString(h, "reg\x00")
	io.WriteString(h, en.reg.Fingerprint())
	fmt.Fprintf(h, "\x00opts\x00flow=%v\x00", opts.FlowSensitive)
	io.WriteString(h, "structs\x00")
	for _, st := range en.prog.Structs {
		fmt.Fprintf(h, "struct %s{", st.Name)
		for _, f := range st.Fields {
			fmt.Fprintf(h, "%s %s;", f.Type, f.Name)
		}
		io.WriteString(h, "}\x00")
	}
	io.WriteString(h, "globals\x00")
	for _, g := range en.prog.Globals {
		io.WriteString(h, cminor.DeclString(g))
		io.WriteString(h, "\x00")
	}
	io.WriteString(h, "sigs\x00")
	for _, f := range en.prog.Funcs {
		io.WriteString(h, cminor.HeaderString(f))
		if f.Body == nil {
			io.WriteString(h, " <nobody>")
		}
		io.WriteString(h, "\x00")
	}
	// Flow refinement consults the address-taken set, which any function
	// body can extend.
	io.WriteString(h, "addrtaken\x00")
	taken := make([]string, 0, len(en.addrTaken))
	for name := range en.addrTaken {
		taken = append(taken, name)
	}
	sort.Strings(taken)
	for _, name := range taken {
		io.WriteString(h, name)
		io.WriteString(h, "\x00")
	}
	// Returns-fresh facts: for every qualifier with a fresh assign clause,
	// whether each function provably returns a fresh reference. This is the
	// only cross-function body information a walk consumes, so capturing the
	// facts (rather than the bodies) keeps unrelated edits from invalidating
	// every function.
	io.WriteString(h, "fresh\x00")
	for _, d := range en.reg.Defs() {
		if !d.HasFreshAssign() {
			continue
		}
		for _, f := range en.prog.Funcs {
			fmt.Fprintf(h, "%s|%s=%v\x00", f.Name, d.Name, en.returnsFresh(f.Name, d.Name))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkFuncCached walks one function on a fresh child engine, consulting and
// populating the function cache. The receiver must be a freshly created
// child (empty diagnostics and zero stats), so its whole post-walk state is
// exactly the function's contribution. Concurrent calls on one key coalesce
// to a single walk; a caller whose run is canceled while it waits returns
// with nothing (the run's Result.Err marks it inconclusive, same as any
// unwalked function). A function without source text (not built by Parse)
// has no key and is walked uncached.
func (en *engine) checkFuncCached(f *cminor.FuncDef) {
	if en.fc == nil || f.Src == "" {
		en.safeCheckFunc(f)
		return
	}
	// FireErr, not Fire: nothing between here and the pool recovers a panic
	// on the cache path, and the pool would re-raise it out of the whole
	// check, so an injected replay panic must be contained here. Any replay
	// fault degrades to a fresh walk — never a crash, never a wrong replay.
	// The degraded walk bypasses the cache entirely, so an injected fault can
	// neither strand waiters nor poison the fill.
	if err := fpCacheReplay.FireErr(); err != nil {
		en.stats.FuncCacheMisses++
		en.safeCheckFunc(f)
		return
	}
	var done <-chan struct{}
	if en.ctx != nil {
		done = en.ctx.Done()
	}
	rec, src := en.fc.cache.Do(done, funcKey(en.ctxKey, f), sealed, func() (*FileRecord, bool) {
		en.safeCheckFunc(f)
		return newFileRecord(f.Pos.File, f.Pos.Line, en.diags, en.stats)
	})
	switch src {
	case tiercache.Computed:
		en.stats.FuncCacheMisses++
	case tiercache.Abandoned:
		en.stats.FuncCacheCoalesced++
	case tiercache.Coalesced:
		en.stats.FuncCacheCoalesced++
		en.diags = rec.replay(f.Pos.File, f.Pos.Line, en.diags, &en.stats)
	case tiercache.Memory, tiercache.Disk, tiercache.Peer:
		en.stats.FuncCacheHits++
		en.diags = rec.replay(f.Pos.File, f.Pos.Line, en.diags, &en.stats)
	}
}
