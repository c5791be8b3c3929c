package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/cachedisk"
	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/input"
	"repro/internal/qdl"
	"repro/internal/quals"
)

// treeWorkload is tree-cold (disk=false) and tree-disk-incr (disk=true).
//
// tree-cold: one op is a full CheckTree pass with a fresh TreeChecker and
// FuncCache, no disk tier, CLI-default workers — a first `qualcheck -r`.
//
// tree-disk-incr: one op applies the next seeded edit set (one function
// body changed in 5% of the files, written before the clock starts) and
// then makes a restart-style pass: a fresh cachedisk.Open and a fresh
// FuncCache over the persisted store. The store's byte budget is set so
// that, after setup's warm-up edits, it sits at the budget: every op's new
// records evict the garbage versions its edits replaced, and its size stays
// fixed however long the run.
type treeWorkload struct {
	disk bool

	reg       *qdl.Registry
	qualNames map[string]bool
	treeDir   string
	storeDir  string
	texts     []string // current source of every file, by index
	editable  []int    // files whose generated text is unique (see applyEdits)
	oracle    *fileOracle
	funcs     int // functions per pass (the unit of work)
	budget    int64
	perOp     int // files edited per op
	edits     int // edits applied so far (each gets a fresh literal)
	rng       *rand.Rand
}

// treeFuncs is the tree size: 3k functions, about 500 files.
const treeFuncs = 3000

// editShare is the share of files a tree-disk-incr op edits.
const editShare = 0.05

// budgetSlackOps sizes the disk budget's slack above the first fill in
// ops' worth of new records: more than one op's writes, so an op's evictions
// always find garbage older than every live record.
const budgetSlackOps = 2.5

func (w *treeWorkload) setup(o *options) error {
	reg, err := quals.Standard()
	if err != nil {
		return err
	}
	w.reg, w.qualNames = reg, reg.Names()
	// The tree grows file by file until it defines treeFuncs functions, so
	// every seed checks the same amount of work.
	target := max(30, int(math.Round(treeFuncs*o.scale)))
	n, funcs := 0, 0
	for ; funcs < target; n++ {
		funcs += definedFuncs(corpus.TreeFile(o.seed, n))
	}
	w.treeDir = filepath.Join(o.workDir, "tree")
	w.storeDir = filepath.Join(o.workDir, "store")
	for _, dir := range []string{w.treeDir, w.storeDir} {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if _, err := corpus.WriteTree(w.treeDir, n, o.seed); err != nil {
		return err
	}
	w.oracle = newFileOracle()
	w.texts = make([]string, n)
	w.funcs = 0
	copies := map[string]int{}
	for i := range w.texts {
		w.texts[i] = corpus.TreeFile(o.seed, i)
		w.oracle.set(corpus.TreeFileName(i), w.texts[i])
		w.funcs += definedFuncs(w.texts[i])
		copies[w.texts[i]]++
	}
	w.editable = w.editable[:0]
	for i, src := range w.texts {
		if copies[src] == 1 {
			w.editable = append(w.editable, i)
		}
	}
	w.rng = rand.New(rand.NewSource(o.seed))
	w.perOp = max(1, int(math.Round(editShare*float64(n))))
	ctx := context.Background()
	if !w.disk {
		// Two warm-up passes: the first grows the heap and faults the code in.
		for i := 0; i < 2; i++ {
			if _, err := w.checkedPass(ctx, 0); err != nil {
				return fmt.Errorf("warm-up pass: %w", err)
			}
		}
		return nil
	}
	// The first disk fill, with the default budget, sizes the real one.
	w.budget = 0
	if _, err := w.checkedPass(ctx, 0); err != nil {
		return fmt.Errorf("disk fill: %w", err)
	}
	st, err := cachedisk.Open(w.storeDir, 0)
	if err != nil {
		return err
	}
	s := st.Stats()
	if s.Entries == 0 {
		return fmt.Errorf("disk fill wrote no records")
	}
	recordBytes := float64(s.Bytes) / float64(s.Entries)
	w.budget = s.Bytes + int64(budgetSlackOps*float64(w.perOp)*recordBytes)
	// Warm-up edits until an op evicts over budget (the steady state), then
	// one more.
	for i, steady := 0, false; i < 8; i++ {
		if err := w.applyEdits(); err != nil {
			return err
		}
		p, err := w.checkedPass(ctx, 0)
		if err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		if steady {
			return nil
		}
		steady = p.disk.BudgetEvicted > 0
	}
	return fmt.Errorf("disk store never reached its %d-byte budget", w.budget)
}

func (w *treeWorkload) close() {}

// editRE finds the first body line of a clean generated function; its
// trailing literal is what an edit rewrites (the function stays clean, so
// the planted-warning oracle is unchanged).
var editRE = regexp.MustCompile(`(?m)^int (?:compute|read)\w*\([^)]*\) \{\n  int \w+ = [^;\n]*?(\d+);$`)

// applyEdits changes one function body in perOp distinct files and writes
// them, outside any timing. Each edit gets a literal never used before, so
// the edited function always misses every cache tier. Only files whose
// generated text is unique are edited: editing one of two identical files
// would keep the old version live through its twin, so the live record set
// would grow op by op past any fixed disk budget.
func (w *treeWorkload) applyEdits() error {
	chosen := map[int]bool{}
	for tries := 0; len(chosen) < w.perOp && tries < 50*w.perOp; tries++ {
		idx := w.editable[w.rng.Intn(len(w.editable))]
		if chosen[idx] {
			continue
		}
		m := editRE.FindAllStringSubmatchIndex(w.texts[idx], -1)
		if len(m) == 0 {
			continue
		}
		pick := m[w.rng.Intn(len(m))]
		w.edits++
		src := w.texts[idx]
		w.texts[idx] = src[:pick[2]] + strconv.Itoa(1_000_000+w.edits) + src[pick[3]:]
		chosen[idx] = true
		path := filepath.Join(w.treeDir, filepath.FromSlash(corpus.TreeFileName(idx)))
		if err := os.WriteFile(path, []byte(w.texts[idx]), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// passResult is what one CLI-style pass reports besides diagnostics.
type passResult struct {
	res   *checker.TreeResult
	cache checker.FuncCacheStats
	disk  cachedisk.Stats
}

// pass runs one CLI-style pass (workers 0 = all cores): for tree-disk-incr
// a fresh store over the persisted directory under the budget.
func (w *treeWorkload) pass(ctx context.Context, workers int) (*passResult, error) {
	fc := checker.NewFuncCache(0)
	var store *cachedisk.Store
	p := &passResult{}
	if w.disk {
		s, err := cachedisk.Open(w.storeDir, w.budget)
		if err != nil {
			return nil, err
		}
		store = s
		fc.WithDisk(store)
	}
	tc := checker.NewTreeChecker(w.reg, checker.TreeOptions{Workers: workers, Seed: 1, Cache: fc})
	res, err := tc.CheckTree(ctx, w.treeDir)
	tc.Close()
	if err != nil {
		return nil, err
	}
	p.res = res
	p.cache = fc.Stats()
	p.disk = store.Stats()
	return p, nil
}

// checkedPass is pass plus the oracle and the store-size bound.
func (w *treeWorkload) checkedPass(ctx context.Context, workers int) (*passResult, error) {
	p, err := w.pass(ctx, workers)
	if err != nil {
		return nil, err
	}
	return p, w.verify(p)
}

func (w *treeWorkload) verify(p *passResult) error {
	if err := w.oracle.checkTree(p.res); err != nil {
		return err
	}
	if w.disk && w.budget > 0 && p.disk.Bytes > w.budget {
		return fmt.Errorf("disk store holds %d bytes, over its %d-byte budget", p.disk.Bytes, w.budget)
	}
	return nil
}

func (w *treeWorkload) timed(o *options, d time.Duration) *timedResult {
	w.oracle.tamper = o.tamper
	r := &timedResult{workUnit: "functions", clients: 1, extra: map[string]any{}}
	ctx := context.Background()
	var misses, diskHits, evicted []float64
	start := time.Now()
	for time.Since(start) < d {
		if w.disk {
			if err := w.applyEdits(); err != nil {
				r.add(0, 0, 0, 0, err)
				continue
			}
		}
		runtime.GC()
		c0 := processCPU()
		st := startStealTimer()
		p, err := w.pass(ctx, 0)
		sp := st.stop()
		cpu := processCPU() - c0
		if err == nil {
			err = w.verify(p)
			misses = append(misses, float64(p.cache.Misses))
			diskHits = append(diskHits, float64(p.cache.DiskHits))
			evicted = append(evicted, float64(p.disk.BudgetEvicted))
		}
		r.add(sp.wall, sp.share, cpu, float64(w.funcs), err)
	}
	r.elapsedMs = ms(time.Since(start))
	r.extra["files"] = len(w.texts)
	r.extra["functions_per_op"] = w.funcs
	r.extra["func_misses_per_op_p50"] = median(misses)
	if w.disk {
		r.extra["edited_files_per_op"] = w.perOp
		r.extra["disk_hits_per_op_p50"] = median(diskHits)
		r.extra["disk_budget_evicted_per_op_p50"] = median(evicted)
		r.extra["disk_budget_bytes"] = w.budget
	}
	return r
}

// decomposedPass runs one pass at one worker through the layers' own entry
// points — input.Walk, Reader.ReadString, cminor.Parse, cminor.TypeCheck,
// checker.CheckWithCache with the precomputed types — recording a span
// around each call when tr is non-nil. It returns the parsed programs (for
// the key probe) after checking every file against the oracle.
func (w *treeWorkload) decomposedPass(ctx context.Context, tr *tracer, op int) ([]*cminor.Program, error) {
	span := func(parent int, layer, name string) int {
		if tr == nil {
			return 0
		}
		return tr.begin(op, parent, layer, name)
	}
	end := func(id int) {
		if tr != nil {
			tr.end(id)
		}
	}
	root := span(-1, layerBench, "op")
	defer end(root)
	fc := checker.NewFuncCache(0)
	if w.disk {
		s := span(root, layerDisk, "cachedisk.open")
		store, err := cachedisk.Open(w.storeDir, w.budget)
		end(s)
		if err != nil {
			return nil, err
		}
		fc.WithDisk(store)
	}
	s := span(root, layerInput, "input.walk")
	files, _, err := input.Walk(w.treeDir, input.WalkOptions{})
	end(s)
	if err != nil {
		return nil, err
	}
	if len(files) != len(w.oracle.want) {
		return nil, fmt.Errorf("walk found %d files, want %d", len(files), len(w.oracle.want))
	}
	reader := input.NewReader()
	out := make([]*cminor.Program, 0, len(files))
	for _, f := range files {
		s := span(root, layerInput, "input.read")
		src, err := reader.ReadString(f.Path, input.DefaultMaxFileBytes)
		end(s)
		if err != nil {
			return nil, err
		}
		s = span(root, layerCminor, "cminor.parse")
		prog, err := cminor.Parse(f.Rel, src, w.qualNames)
		end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", f.Rel, err)
		}
		s = span(root, layerCminor, "cminor.typecheck")
		info, tdiags := cminor.TypeCheck(prog)
		end(s)
		s = span(root, layerChecker, "checker.check")
		res := checker.CheckWithCache(ctx, prog, w.reg, checker.Options{Types: info, TypeDiags: tdiags, Concurrency: 1}, fc)
		end(s)
		if res.Err != nil {
			return nil, fmt.Errorf("%s: %v", f.Rel, res.Err)
		}
		if err := w.oracle.checkFile(f.Rel, len(res.Diags)); err != nil {
			return nil, err
		}
		out = append(out, prog)
	}
	return out, nil
}

// onePass is the untraced one-worker baseline for the tracing overhead: the
// real pipeline (CheckTree) at one worker.
func (w *treeWorkload) onePass(ctx context.Context) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	p, err := w.pass(ctx, 1)
	wall := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return wall, w.verify(p)
}

func (w *treeWorkload) traced(o *options, d time.Duration) ([]metric, map[string]any, error) {
	w.oracle.tamper = o.tamper
	ctx := context.Background()
	vals := map[string]float64{}
	extra := map[string]any{}
	attempted := 0
	edit := func() error {
		if w.disk {
			return w.applyEdits()
		}
		return nil
	}

	// Phase 1: untraced one-worker passes.
	var untraced []float64
	for start := time.Now(); time.Since(start) < d/4 || len(untraced) < 2; {
		if err := edit(); err != nil {
			return nil, nil, err
		}
		wall, err := w.onePass(ctx)
		attempted++
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, ms(wall))
	}

	// Phase 2: traced decomposed passes, each followed by the key probe.
	tr := newTracer()
	var keyMs []float64
	for op, start := 0, time.Now(); time.Since(start) < d/3 || op < 2; op++ {
		if err := edit(); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		progs, err := w.decomposedPass(ctx, tr, op)
		attempted++
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		for _, prog := range progs {
			for _, fn := range prog.Funcs {
				_ = cminor.FuncString(fn)
			}
		}
		keyMs = append(keyMs, ms(time.Since(t0)))
	}
	vals["input.walk_ms"] = tr.nameMedian("input.walk")
	vals["input.read_ms"] = tr.nameMedian("input.read")
	vals["input.files"] = float64(len(w.texts))
	vals["cminor.parse_ms"] = tr.nameMedian("cminor.parse")
	vals["cminor.typecheck_ms"] = tr.nameMedian("cminor.typecheck")
	vals["cminor.funckey_ms"] = median(keyMs)
	vals["checker.check_ms"] = tr.nameMedian("checker.check")
	vals["disk.open_ms"] = tr.nameMedian("cachedisk.open")
	for _, l := range []struct{ metric, layer string }{
		{"input.self_ms", layerInput}, {"cminor.self_ms", layerCminor},
		{"checker.self_ms", layerChecker}, {"disk.self_ms", layerDisk},
	} {
		vals[l.metric] = tr.selfMedian(l.layer)
	}
	traceMetrics(vals, tr, untraced)

	// Phase 3: per-layer allocation counts, one layer at a time.
	if err := edit(); err != nil {
		return nil, nil, err
	}
	parseAllocs, checkAllocs, err := w.allocProbe(ctx)
	attempted++
	if err != nil {
		return nil, nil, err
	}
	vals["cminor.allocs"] = parseAllocs
	vals["checker.allocs"] = checkAllocs

	// Phase 4: CLI-default passes for scheduler, cache, disk and runtime
	// counts.
	var executed, steals, parks, busy, hits, misses, coalesced, evictions []float64
	var dHits, dMisses, dPuts, dBudget, dCorrupt, dBytes []float64
	var cpu time.Duration
	var mem memDelta
	ops := 0
	peak := startHeapPeak()
	for start := time.Now(); time.Since(start) < d/3 || ops < 2; ops++ {
		if err := edit(); err != nil {
			peak.finish()
			return nil, nil, err
		}
		runtime.GC()
		m0 := memSnap()
		c0 := processCPU()
		t0 := time.Now()
		p, err := w.pass(ctx, 0)
		wall := time.Since(t0)
		c := processCPU() - c0
		mem.add(memDiff(m0, memSnap()))
		cpu += c
		attempted++
		if err == nil {
			err = w.verify(p)
		}
		if err != nil {
			peak.finish()
			return nil, nil, err
		}
		st := p.res.Sched
		executed = append(executed, float64(st.Executed))
		steals = append(steals, float64(st.Steals))
		parks = append(parks, float64(st.Parks))
		busy = append(busy, c.Seconds()/wall.Seconds())
		hits = append(hits, float64(p.cache.Hits))
		misses = append(misses, float64(p.cache.Misses))
		coalesced = append(coalesced, float64(p.cache.Coalesced))
		evictions = append(evictions, float64(p.cache.Evictions))
		dHits = append(dHits, float64(p.disk.Hits))
		dMisses = append(dMisses, float64(p.disk.Misses))
		dPuts = append(dPuts, float64(p.disk.Puts))
		dBudget = append(dBudget, float64(p.disk.BudgetEvicted))
		dCorrupt = append(dCorrupt, float64(p.disk.CorruptEvicted))
		dBytes = append(dBytes, float64(p.disk.Bytes))
	}
	peakMB := peak.finish()
	vals["sched.executed"] = median(executed)
	vals["sched.steals"] = median(steals)
	vals["sched.parks"] = median(parks)
	vals["sched.busy_cores"] = median(busy)
	vals["checker.func_hits"] = median(hits)
	vals["checker.func_misses"] = median(misses)
	vals["checker.func_coalesced"] = median(coalesced)
	vals["checker.func_evictions"] = median(evictions)
	if h, m := median(hits), median(misses); h+m > 0 {
		vals["checker.func_hit_ratio"] = h / (h + m)
	}
	if w.disk {
		vals["disk.hits"] = median(dHits)
		vals["disk.misses"] = median(dMisses)
		vals["disk.puts"] = median(dPuts)
		vals["disk.budget_evicted"] = median(dBudget)
		vals["disk.corrupt_evicted"] = median(dCorrupt)
		vals["disk.bytes"] = median(dBytes)
		get, put, err := w.diskProbe(o)
		if err != nil {
			return nil, nil, err
		}
		vals["disk.get_us_p50"] = get
		vals["disk.put_us_p50"] = put
	}
	for _, m := range procMetrics(ops, cpu, mem, peakMB) {
		vals[m.name] = m.value
	}
	extra["attempted"] = attempted
	extra["failed"] = 0
	extra["trace_file"] = writeTrace(o, tr)
	return layerMetricList(vals), extra, nil
}

// traceMetrics fills the coverage and overhead metrics shared by every
// workload's traced run.
func traceMetrics(vals map[string]float64, tr *tracer, untraced []float64) {
	cov, uncovered := tr.coverage()
	vals["trace.coverage"] = cov
	vals["trace.uncovered_ms"] = uncovered
	traced := median(tr.opWalls())
	base := median(untraced)
	vals["trace.ops"] = float64(len(tr.opWalls()))
	vals["trace.traced_p50_ms"] = traced
	vals["trace.untraced_p50_ms"] = base
	if base > 0 {
		vals["trace.overhead"] = traced/base - 1
	}
}

// writeTrace stores the span log and returns its checkout-relative path.
func writeTrace(o *options, tr *tracer) string {
	rel := filepath.Join(".bench_build", benchDirName, "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(filepath.Join(o.root, rel)); err != nil {
		return "write failed: " + err.Error()
	}
	return rel
}

// allocProbe makes one one-worker pass layer by layer, reading the exact
// allocation count (runtime.ReadMemStats) between layers.
func (w *treeWorkload) allocProbe(ctx context.Context) (parse, check float64, err error) {
	fc := checker.NewFuncCache(0)
	if w.disk {
		store, err := cachedisk.Open(w.storeDir, w.budget)
		if err != nil {
			return 0, 0, err
		}
		fc.WithDisk(store)
	}
	files, _, err := input.Walk(w.treeDir, input.WalkOptions{})
	if err != nil {
		return 0, 0, err
	}
	reader := input.NewReader()
	srcs := make([]string, len(files))
	for i, f := range files {
		if srcs[i], err = reader.ReadString(f.Path, input.DefaultMaxFileBytes); err != nil {
			return 0, 0, err
		}
	}
	progs := make([]*cminor.Program, len(files))
	infos := make([]*cminor.TypeInfo, len(files))
	tdiags := make([][]cminor.Diagnostic, len(files))
	runtime.GC()
	m0 := memSnap()
	for i, f := range files {
		if progs[i], err = cminor.Parse(f.Rel, srcs[i], w.qualNames); err != nil {
			return 0, 0, err
		}
	}
	for i := range files {
		infos[i], tdiags[i] = cminor.TypeCheck(progs[i])
	}
	m1 := memSnap()
	for i, f := range files {
		res := checker.CheckWithCache(ctx, progs[i], w.reg, checker.Options{Types: infos[i], TypeDiags: tdiags[i], Concurrency: 1}, fc)
		if res.Err != nil {
			return 0, 0, res.Err
		}
		if err := w.oracle.checkFile(f.Rel, len(res.Diags)); err != nil {
			return 0, 0, err
		}
	}
	m2 := memSnap()
	return float64(memDiff(m0, m1).mallocs), float64(memDiff(m1, m2).mallocs), nil
}

// diskProbe times cachedisk Get and Put on the pass's own keys: it reads
// the keys back out of the persisted records, times Get on a freshly opened
// store, and times Put of the same records into a scratch store beside it.
func (w *treeWorkload) diskProbe(o *options) (getUs, putUs float64, err error) {
	ents, err := os.ReadDir(w.storeDir)
	if err != nil {
		return 0, 0, err
	}
	var names []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".qc" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	const maxProbe = 500
	step := max(1, len(names)/maxProbe)
	type rec struct {
		key     string
		payload []byte
	}
	var recs []rec
	for i := 0; i < len(names); i += step {
		raw, err := os.ReadFile(filepath.Join(w.storeDir, names[i]))
		if err != nil {
			return 0, 0, err
		}
		key, ok := recordKey(raw)
		if !ok {
			return 0, 0, fmt.Errorf("record %s: unreadable key framing", names[i])
		}
		payload, err := cachedisk.Unseal(raw, key)
		if err != nil {
			return 0, 0, fmt.Errorf("record %s: %v", names[i], err)
		}
		recs = append(recs, rec{key, payload})
	}
	store, err := cachedisk.Open(w.storeDir, w.budget)
	if err != nil {
		return 0, 0, err
	}
	probeDir := filepath.Join(o.workDir, "probe-store")
	os.RemoveAll(probeDir)
	defer os.RemoveAll(probeDir)
	probe, err := cachedisk.Open(probeDir, 0)
	if err != nil {
		return 0, 0, err
	}
	var gets, puts []float64
	for _, r := range recs {
		t0 := time.Now()
		_, ok := store.Get(r.key)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok {
			return 0, 0, fmt.Errorf("probe Get missed a persisted key")
		}
		t0 = time.Now()
		probe.Put(r.key, r.payload)
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if probe.Stats().Puts != uint64(len(recs)) {
		return 0, 0, fmt.Errorf("probe Put committed %d of %d records", probe.Stats().Puts, len(recs))
	}
	return median(gets), median(puts), nil
}

// recordKey reads the raw key out of a sealed cachedisk record: magic (4
// bytes), version (1), uvarint key length, key.
func recordKey(raw []byte) (string, bool) {
	const head = 5
	if len(raw) < head {
		return "", false
	}
	n, k := binary.Uvarint(raw[head:])
	if k <= 0 || n > uint64(len(raw)-head-k) {
		return "", false
	}
	return string(raw[head+k : head+k+int(n)]), true
}
