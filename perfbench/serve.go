package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/quals"
	"repro/internal/server"
)

// serveWorkload is serve-check: qualserve runs as its own process on
// loopback with default workers; one load-generator process holds
// serveClients keep-alive connections in a closed loop, each request a
// POST /check-batch of batchFiles files drawn from a generated pool whose
// distinct functions exceed the server's function-cache capacity, so the
// steady state includes LRU evictions and re-walks. One file in each batch
// carries a one-function edit never sent before.
//
// The pool has a hot part and a cold part, and every batch mixes them the
// same way: batchFiles-coldPerBatch files drawn at random from the hot part,
// whose functions are a quarter of the cache and stay cached, and
// coldPerBatch files taken in turn from the cold part, cycled in a seeded
// order, whose files the LRU has always evicted by the time they come round
// again. So every request re-walks about the same number of functions (the
// two cold files and the edit) and op cost is unimodal; with a uniform draw
// over the pool the miss count per request is binomial (from under 40 to
// over 300 of about 330 functions), and the tail follows whichever requests
// draw the most evicted files.
//
// Each pool file joins partsPerFile distinct generated tree files, so a
// request carries about 330 functions and takes tens of milliseconds: long
// enough that one hypervisor preemption of a few milliseconds does not
// decide its latency, which made the tail of single-tree-file requests
// follow the host's load rather than the server's.
type serveWorkload struct {
	pool     []string // pool file sources, by index
	names    []string // pool file names, by index
	frags    [][]byte // each pool file's JSON-encoded batch entry, by index
	hot      int      // pool[:hot] is the hot part
	cold     []int    // the cold part's indexes in cycle order
	oracle   *fileOracle
	capacity int // server function-cache capacity
	custom   bool

	cmd    *exec.Cmd
	pid    int
	base   string // http://host:port
	stdout sync.WaitGroup

	edits        atomic.Int64
	coldNext     atomic.Int64 // position in the cold cycle
	checkedFiles atomic.Int64 // files in correct answers so far
}

// batch is one request: the pool files it carries and its encoded body.
type batch struct {
	idxs []int
	body []byte
}

const (
	serveClients = 2
	batchFiles   = 8
	coldPerBatch = 2
	partsPerFile = 7
	// hotShare is the hot part's functions as a share of the function
	// cache; poolOverCapacity is how far the whole pool's distinct
	// functions exceed it. The cold part (the difference, 1.25 caches) is
	// too large for any cold file to survive one cycle.
	hotShare         = 0.25
	poolOverCapacity = 1.5
)

// Wire shapes of the qualserve HTTP API (decoded independently of the
// server package's Go types: the JSON is the contract).
type batchInput struct {
	Filename string `json:"filename"`
	Source   string `json:"source"`
}

type batchRequest struct {
	Files []batchInput `json:"files"`
}

type batchResponse struct {
	Files []struct {
		Filename    string `json:"filename"`
		Warnings    int    `json:"warnings"`
		Error       string `json:"error"`
		Degraded    bool   `json:"degraded"`
		Diagnostics []struct {
			File string `json:"file"`
		} `json:"diagnostics"`
	} `json:"files"`
	Degraded bool `json:"degraded"`
}

type metricsBody struct {
	ShedTotal     uint64 `json:"shed_total"`
	DegradedTotal uint64 `json:"degraded_total"`
	Endpoints     map[string]struct {
		Count uint64  `json:"count"`
		P50   float64 `json:"p50_ms"`
		P99   float64 `json:"p99_ms"`
	} `json:"endpoints"`
	FuncCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
		Evictions uint64 `json:"evictions"`
		Len       int    `json:"len"`
	} `json:"func_cache"`
}

func (w *serveWorkload) setup(o *options) error {
	// The load generator keeps to one core and collects rarely, so that it
	// takes as little CPU from qualserve as it can; the program runs in
	// its own process with its own defaults.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	w.capacity = checker.DefaultFuncCacheCapacity
	if o.scale != 1 {
		w.capacity = max(32, int(math.Round(float64(w.capacity)*o.scale)))
		w.custom = true
	}
	// Grow the hot part to hotShare of the cache, then the cold part until
	// the pool's distinct functions exceed the cache by poolOverCapacity;
	// each part holds a few batches' worth of files at least, for tiny
	// caches. Generated tree files that repeat an earlier one are skipped: a
	// pool file must not define a function twice.
	w.pool, w.names, w.frags = nil, nil, nil
	w.oracle = newFileOracle()
	seen := map[string]bool{}
	distinct, idx := 0, 0
	addFile := func() {
		var b strings.Builder
		for parts := 0; parts < partsPerFile; idx++ {
			part := corpus.TreeFile(o.seed, idx)
			if !seen[part] {
				seen[part] = true
				b.WriteString(part)
				parts++
			}
		}
		src := b.String()
		name := fmt.Sprintf("pool/file%04d.c", len(w.pool))
		frag, _ := json.Marshal(batchInput{Filename: name, Source: src})
		w.pool = append(w.pool, src)
		w.names = append(w.names, name)
		w.frags = append(w.frags, frag)
		w.oracle.set(name, src)
		distinct += definedFuncs(src)
	}
	hotPerBatch := batchFiles - coldPerBatch
	for float64(distinct) < hotShare*float64(w.capacity) || len(w.pool) < hotPerBatch+2 {
		addFile()
	}
	w.hot = len(w.pool)
	for float64(distinct) < poolOverCapacity*float64(w.capacity) || len(w.pool)-w.hot < 3*coldPerBatch {
		addFile()
	}
	rng := rand.New(rand.NewSource(o.seed))
	w.cold = nil
	for _, i := range rng.Perm(len(w.pool) - w.hot) {
		w.cold = append(w.cold, w.hot+i)
	}
	if err := w.start(o); err != nil {
		return err
	}
	// Fill the cache, then a few steady-state batches.
	c := newServeClient()
	defer c.close()
	for _, b := range w.fillBatches() {
		if _, err := w.roundTrip(c, b, nil, 0); err != nil {
			return fmt.Errorf("cache fill: %w", err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := w.roundTrip(c, w.nextBatch(rng), nil, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	m, err := w.metrics(c)
	if err != nil {
		return err
	}
	if m.FuncCache.Len < w.capacity || m.FuncCache.Evictions == 0 {
		return fmt.Errorf("function cache not full after the fill: %d of %d entries, %d evictions",
			m.FuncCache.Len, w.capacity, m.FuncCache.Evictions)
	}
	return nil
}

// start launches qualserve on an ephemeral loopback port and waits for its
// announce line.
func (w *serveWorkload) start(o *options) error {
	bin := filepath.Join(o.binDir, "qualserve")
	args := []string{"-addr", "127.0.0.1:0"}
	if w.custom {
		args = append(args, "-func-cache", strconv.Itoa(w.capacity))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start qualserve: %w", err)
	}
	w.cmd, w.pid = cmd, cmd.Process.Pid
	addr := make(chan string, 1)
	w.stdout.Add(1)
	go func() {
		defer w.stdout.Done()
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "qualserve listening on "); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			w.close()
			return fmt.Errorf("qualserve exited before announcing its address")
		}
		w.base = "http://" + a
		return nil
	case <-time.After(30 * time.Second):
		w.close()
		return fmt.Errorf("qualserve did not announce its address within 30s")
	}
}

// close stops qualserve (SIGTERM, then SIGKILL after a grace period) and
// waits for it and its output reader.
func (w *serveWorkload) close() {
	if w.cmd == nil {
		return
	}
	w.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		w.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		w.cmd.Process.Kill()
		<-done
	}
	w.stdout.Wait()
	w.cmd = nil
}

// serveClient is one keep-alive connection.
type serveClient struct{ http *http.Client }

func newServeClient() *serveClient {
	return &serveClient{http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}}
}

func (c *serveClient) close() { c.http.CloseIdleConnections() }

// makeBatch encodes a batch of pool files from their pre-encoded entries,
// so the load generator spends little CPU per request; the file at editAt
// (if >= 0) gets a one-function edit with a literal never sent before.
func (w *serveWorkload) makeBatch(idxs []int, editAt int) batch {
	var b bytes.Buffer
	b.WriteString(`{"files":[`)
	for i, idx := range idxs {
		if i > 0 {
			b.WriteByte(',')
		}
		src := w.pool[idx]
		var m [][]int
		if i == editAt {
			m = editRE.FindAllStringSubmatchIndex(src, -1)
		}
		if len(m) == 0 {
			b.Write(w.frags[idx])
			continue
		}
		e := w.edits.Add(1)
		pick := m[int(e)%len(m)]
		src = src[:pick[2]] + strconv.FormatInt(2_000_000+e, 10) + src[pick[3]:]
		frag, _ := json.Marshal(batchInput{Filename: w.names[idx], Source: src})
		b.Write(frag)
	}
	b.WriteString("]}")
	return batch{idxs: idxs, body: b.Bytes()}
}

// fillBatches are the batches that send every pool file once, unedited:
// the cold part in cycle order, then the hot part. That is more distinct
// functions than the cache holds, so it ends full and evicting, holding
// the hot part and the end of the cold cycle. The cold cycle restarts at
// its beginning, whose files the fill evicted first.
func (w *serveWorkload) fillBatches() []batch {
	order := append([]int(nil), w.cold...)
	for i := 0; i < w.hot; i++ {
		order = append(order, i)
	}
	var batches []batch
	for i := 0; i < len(order); i += batchFiles {
		batches = append(batches, w.makeBatch(order[i:min(i+batchFiles, len(order))], -1))
	}
	w.coldNext.Store(0)
	return batches
}

// nextBatch is one steady-state request: distinct hot files drawn with
// rng, the first of them edited, then the next coldPerBatch files of the
// cold cycle (shared by all clients).
func (w *serveWorkload) nextBatch(rng *rand.Rand) batch {
	idxs := make([]int, 0, batchFiles)
	for len(idxs) < batchFiles-coldPerBatch {
		idx := rng.Intn(w.hot)
		if !slices.Contains(idxs, idx) {
			idxs = append(idxs, idx)
		}
	}
	next := w.coldNext.Add(coldPerBatch) - coldPerBatch
	for j := int64(0); j < coldPerBatch; j++ {
		idxs = append(idxs, w.cold[(next+j)%int64(len(w.cold))])
	}
	return w.makeBatch(idxs, 0)
}

// roundTrip sends one batch and decodes the answer, recording spans when
// tr is non-nil; it returns the op's wall time and checks the answer
// against the oracle (outside the timed interval).
func (w *serveWorkload) roundTrip(c *serveClient, b batch, tr *tracer, op int) (time.Duration, error) {
	var root, sp int
	if tr != nil {
		root = tr.begin(op, -1, layerBench, "op")
		sp = tr.begin(op, root, layerServer, "server.roundtrip")
	}
	t0 := time.Now()
	resp, err := c.http.Post(w.base+"/check-batch", "application/json", bytes.NewReader(b.body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if tr != nil {
		tr.end(sp)
		sp = tr.begin(op, root, layerServer, "server.decode")
	}
	var br batchResponse
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &br)
	}
	wall := time.Since(t0)
	if tr != nil {
		tr.end(sp)
		tr.end(root)
	}
	if err != nil {
		return wall, err
	}
	if resp.StatusCode != http.StatusOK {
		return wall, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return wall, w.checkBatch(b.idxs, &br)
}

// checkBatch verifies one answer: every file answered, in order, without
// error or degradation, with exactly its planted warnings, each diagnostic
// labelled with its own file.
func (w *serveWorkload) checkBatch(idxs []int, br *batchResponse) error {
	if len(br.Files) != len(idxs) {
		return fmt.Errorf("%d files answered, want %d", len(br.Files), len(idxs))
	}
	if br.Degraded {
		return fmt.Errorf("degraded answer")
	}
	for i, f := range br.Files {
		if want := w.names[idxs[i]]; f.Filename != want {
			return fmt.Errorf("answer %d is for %s, want %s", i, f.Filename, want)
		}
		if f.Error != "" || f.Degraded {
			return fmt.Errorf("%s: error %q degraded=%v", f.Filename, f.Error, f.Degraded)
		}
		if len(f.Diagnostics) != f.Warnings {
			return fmt.Errorf("%s: %d diagnostics but warnings=%d", f.Filename, len(f.Diagnostics), f.Warnings)
		}
		for _, d := range f.Diagnostics {
			if d.File != f.Filename {
				return fmt.Errorf("%s: diagnostic labelled %q", f.Filename, d.File)
			}
		}
		if err := w.oracle.checkFile(f.Filename, f.Warnings); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) metrics(c *serveClient) (*metricsBody, error) {
	resp, err := c.http.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m metricsBody
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return &m, json.NewDecoder(resp.Body).Decode(&m)
}

// loadResult is what one closed-loop load phase measured: every op's
// latency (+Inf when failed) and the busy-steal share over it, the
// failures, and up to keepBodies of the request bodies sent (for the cminor
// probe).
type loadResult struct {
	lat      []float64
	steal    []float64
	failed   int
	firstErr error
	bodies   [][]byte
	elapsed  time.Duration
}

// load runs serveClients closed-loop clients for d; phase seeds their
// request streams apart.
func (w *serveWorkload) load(o *options, d time.Duration, tr *tracer, phase int, keepBodies int) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	var nextOp atomic.Int64
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newServeClient()
			defer c.close()
			rng := rand.New(rand.NewSource(o.seed*1_000_003 + int64(phase)*7919 + int64(k)))
			for time.Since(start) < d {
				b := w.nextBatch(rng)
				st := startStealTimer()
				wall, err := w.roundTrip(c, b, tr, int(nextOp.Add(1)))
				steal := st.stop().share
				if err == nil {
					w.checkedFiles.Add(batchFiles)
				}
				mu.Lock()
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
					res.lat = append(res.lat, math.Inf(1))
					res.steal = append(res.steal, 0)
				} else {
					res.lat = append(res.lat, ms(wall))
					res.steal = append(res.steal, steal)
				}
				if len(res.bodies) < keepBodies {
					res.bodies = append(res.bodies, b.body)
				}
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func (w *serveWorkload) timed(o *options, d time.Duration) *timedResult {
	w.oracle.tamper = o.tamper
	r := &timedResult{workUnit: "files", clients: serveClients, extra: map[string]any{}}
	c0, err := pidCPU(w.pid)
	if err != nil {
		r.add(0, 0, 0, 0, err)
		return r
	}
	// qualserve's CPU is sampled once a second; each window's files per
	// CPU-second is one rate.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		prevCPU, prevFiles := c0, w.checkedFiles.Load()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			cpu, err := pidCPU(w.pid)
			if err != nil {
				return
			}
			files := w.checkedFiles.Load()
			if cpu > prevCPU {
				r.rates = append(r.rates, float64(files-prevFiles)/(cpu-prevCPU).Seconds())
			}
			prevCPU, prevFiles = cpu, files
		}
	}()
	lr := w.load(o, d, nil, 1, 0)
	close(stop)
	sampler.Wait()
	c1, err := pidCPU(w.pid)
	if err != nil {
		r.add(0, 0, 0, 0, err)
		return r
	}
	r.lat, r.steal, r.failed, r.firstErr = lr.lat, lr.steal, lr.failed, lr.firstErr
	r.cpu = c1 - c0
	r.elapsedMs = ms(lr.elapsed)
	r.extra["pool_files"] = len(w.pool)
	r.extra["func_cache_capacity"] = w.capacity
	r.extra["batch_files"] = batchFiles
	r.extra["server_cpu_cores"] = r.cpu.Seconds() / lr.elapsed.Seconds()
	r.extra["client_gomaxprocs"] = runtime.GOMAXPROCS(0)
	c := newServeClient()
	defer c.close()
	if m, err := w.metrics(c); err == nil {
		r.extra["func_cache_hit_ratio_total"] = float64(m.FuncCache.Hits) / float64(max(1, m.FuncCache.Hits+m.FuncCache.Misses))
	}
	return r
}

func (w *serveWorkload) traced(o *options, d time.Duration) ([]metric, map[string]any, error) {
	w.oracle.tamper = o.tamper
	vals := map[string]float64{}
	attempted := 0
	c := newServeClient()
	defer c.close()

	// Phase 1: untraced load.
	lr := w.load(o, d/4, nil, 1, 0)
	attempted += len(lr.lat)
	if lr.failed > 0 {
		return nil, nil, lr.firstErr
	}
	untraced := lr.lat

	// Phase 2: traced load, /metrics read before and after.
	m0, err := w.metrics(c)
	if err != nil {
		return nil, nil, err
	}
	cpu0, err := pidCPU(w.pid)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	lr = w.load(o, d*2/5, tr, 2, 200)
	cpu1, err := pidCPU(w.pid)
	if err != nil {
		return nil, nil, err
	}
	m1, err := w.metrics(c)
	if err != nil {
		return nil, nil, err
	}
	attempted += len(lr.lat)
	if lr.failed > 0 {
		return nil, nil, lr.firstErr
	}
	reqs := float64(len(lr.lat))
	ep := m1.Endpoints["check-batch"]
	vals["server.handler_ms_p50"] = ep.P50
	vals["server.handler_ms_p99"] = ep.P99
	vals["server.transport_ms"] = median(tr.durations("server.roundtrip")) - ep.P50
	vals["server.shed"] = float64(m1.ShedTotal - m0.ShedTotal)
	vals["server.degraded"] = float64(m1.DegradedTotal - m0.DegradedTotal)
	vals["server.self_ms"] = tr.selfMedian(layerServer)
	hits := float64(m1.FuncCache.Hits - m0.FuncCache.Hits)
	misses := float64(m1.FuncCache.Misses - m0.FuncCache.Misses)
	vals["checker.func_hits"] = hits / reqs
	vals["checker.func_misses"] = misses / reqs
	vals["checker.func_coalesced"] = float64(m1.FuncCache.Coalesced-m0.FuncCache.Coalesced) / reqs
	vals["checker.func_evictions"] = float64(m1.FuncCache.Evictions-m0.FuncCache.Evictions) / reqs
	if hits+misses > 0 {
		vals["checker.func_hit_ratio"] = hits / (hits + misses)
	}
	traceMetrics(vals, tr, untraced)
	serverCPU := cpu1 - cpu0
	traceFile := writeTrace(o, tr)
	tr = nil

	// The cminor cost the server pays on every request, hit or miss:
	// parse, typecheck and key printing of the traced requests' files.
	parse, check, key, err := cminorProbe(lr.bodies)
	if err != nil {
		return nil, nil, err
	}
	vals["cminor.parse_ms"], vals["cminor.typecheck_ms"], vals["cminor.funckey_ms"] = parse, check, key

	// Phase 3: the Go-runtime cost per request, from the same server code
	// driven in-process (the external process exposes no allocation
	// counters) at the same cache state.
	mem, ops, peakMB, err := w.handlerProbe(o, d/4)
	attempted += ops
	if err != nil {
		return nil, nil, err
	}
	for _, m := range procMetrics(ops, 0, mem, peakMB) {
		vals[m.name] = m.value
	}
	vals["proc.cpu_ms_per_op"] = ms(serverCPU) / reqs
	extra := map[string]any{
		"attempted":      attempted,
		"failed":         0,
		"trace_file":     traceFile,
		"clients":        serveClients,
		"handler_source": "qualserve /metrics check-batch reservoir (most recent 2048 requests)",
	}
	return layerMetricList(vals), extra, nil
}

// cminorProbe times cminor.Parse, cminor.TypeCheck and cminor.FuncString on
// the files of the given request bodies, per request.
func cminorProbe(bodies [][]byte) (parseMs, checkMs, keyMs float64, err error) {
	reg, err := quals.Standard()
	if err != nil {
		return 0, 0, 0, err
	}
	names := reg.Names()
	var ps, cs, ks []float64
	for _, b := range bodies {
		var req batchRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return 0, 0, 0, err
		}
		var p, c, k time.Duration
		for _, f := range req.Files {
			t0 := time.Now()
			prog, err := cminor.Parse(f.Filename, f.Source, names)
			p += time.Since(t0)
			if err != nil {
				return 0, 0, 0, err
			}
			t0 = time.Now()
			cminor.TypeCheck(prog)
			c += time.Since(t0)
			t0 = time.Now()
			for _, fn := range prog.Funcs {
				_ = cminor.FuncString(fn)
			}
			k += time.Since(t0)
		}
		ps, cs, ks = append(ps, ms(p)), append(cs, ms(c)), append(ks, ms(k))
	}
	return median(ps), median(cs), median(ks), nil
}

// handlerProbe drives an in-process server.Server's handler with the
// workload's requests: the same fill, then requests for d, each handler
// call bracketed by exact allocation counts.
func (w *serveWorkload) handlerProbe(o *options, d time.Duration) (memDelta, int, float64, error) {
	// The server code runs in this process here: give it the runtime
	// defaults qualserve has, not the load generator's.
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	srv := server.New(server.Config{FuncCacheSize: w.capacity})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	var mem memDelta
	send := func(b batch) error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/check-batch", bytes.NewReader(b.body))
		req.Header.Set("Content-Type", "application/json")
		m0 := memSnap()
		h.ServeHTTP(rec, req)
		mem.add(memDiff(m0, memSnap()))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process check-batch: status %d", rec.Code)
		}
		var br batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			return err
		}
		return w.checkBatch(b.idxs, &br)
	}
	for _, b := range w.fillBatches() {
		if err := send(b); err != nil {
			return memDelta{}, 0, 0, err
		}
	}
	rng := rand.New(rand.NewSource(o.seed*1_000_003 + 3*7919))
	mem = memDelta{}
	ops := 0
	runtime.GC()
	peak := startHeapPeak()
	for start := time.Now(); time.Since(start) < d || ops < 2; ops++ {
		if err := send(w.nextBatch(rng)); err != nil {
			peak.finish()
			return mem, ops, 0, err
		}
	}
	return mem, ops, peak.finish(), nil
}
