package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cachedisk"
	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/faults"
	"repro/internal/memwatch"
	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/simplify"
	"repro/internal/soundness"
	"repro/internal/tiercache"
)

// Fault-injection points for the request path, one per handler stage (see
// internal/faults). Disarmed they are a single atomic load; armed (via the
// qualserve -faults flag or QUAL_FAULTS) they let the chaos harness fail
// admission, queuing, execution, or encoding deterministically.
var (
	fpAdmission = faults.Register("server.admission")
	fpQueue     = faults.Register("server.queue")
	fpRun       = faults.Register("server.run")
	fpEncode    = faults.Register("server.encode")
)

// Config sizes the service.
type Config struct {
	// Workers bounds the worker pool executing request bodies (parsing,
	// checking, proving). 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth caps the admission queue of accepted-but-not-started
	// requests. A full queue sheds new work with 503. 0 means 2*Workers.
	QueueDepth int
	// RequestTimeout is the per-request deadline (also the ceiling for a
	// request's own timeout_ms). 0 means 30s.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after the stop signal. 0 means 10s.
	DrainTimeout time.Duration
	// CheckConcurrency is the per-request function/obligation concurrency.
	// Parallelism across requests comes from the worker pool, so this
	// defaults to 1 to avoid oversubscription.
	CheckConcurrency int
	// FuncCacheSize caps the function-granular checker result cache
	// (0 means checker.DefaultFuncCacheCapacity).
	FuncCacheSize int
	// ProverCacheSize caps the memoizing prover outcome cache
	// (0 means simplify.DefaultCacheCapacity).
	ProverCacheSize int
	// MaxBodyBytes caps a request body; larger bodies are answered 413.
	// 0 means 8 MiB.
	MaxBodyBytes int64
	// BreakerThreshold is the consecutive infrastructure-failure count
	// (budget trips, recovered prover panics, injected faults) after which a
	// qualifier's circuit breaker opens and /prove answers for it with a
	// degraded report plus Retry-After instead of re-running the discharge.
	// 0 means 3; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses a qualifier
	// before admitting a half-open probe. 0 means 5s.
	BreakerCooldown time.Duration
	// RetryTransient re-discharges an obligation whose outcome is transient
	// for an infrastructure reason (recovered panic, injected fault, budget
	// trip) up to this many extra times with jittered backoff. 0 means 1;
	// negative disables retry.
	RetryTransient int
	// RetryBackoff is the base backoff between transient retries (0 means
	// the soundness default, 5ms).
	RetryBackoff time.Duration
	// MemoryHighWater, when non-zero, sheds new requests with 503 +
	// Retry-After while the sampled live heap exceeds this many bytes.
	MemoryHighWater uint64
	// ProverMaxTerms / ProverMaxClauses / ProverMaxInstances /
	// ProverMaxMemory bound each prover search's space (see
	// simplify.Options); a tripped budget yields a transient Unknown
	// ("resource budget exceeded") that is never cached and counts against
	// the qualifier's breaker. 0 means unlimited.
	ProverMaxTerms     int
	ProverMaxClauses   int
	ProverMaxInstances int
	ProverMaxMemory    uint64
	// EmitCertificates makes every prover run emit a proof certificate and
	// self-verify it with the independent replay checker before reporting
	// Valid (see simplify.Options.EmitCertificates). Certificates ride the
	// prover cache and are re-replayed on fetch; a rejected replay degrades
	// the obligation to a transient Unknown instead of an unchecked Valid.
	EmitCertificates bool
	// CacheDir, when set, makes both warm caches durable: function results
	// persist under CacheDir/func and prover outcomes under CacheDir/prover
	// (content-addressed, checksummed, crash-safe records — see
	// internal/cachedisk). A store that fails to open degrades that cache to
	// memory-only (recorded in /metrics disk.error) instead of failing the
	// server.
	CacheDir string
	// CacheBudget caps each disk store's total record bytes; the oldest
	// records are evicted past it. 0 means cachedisk.DefaultBudget.
	CacheBudget int64
	// CachePeers lists base URLs (e.g. "http://node2:8080") of qualserve
	// nodes whose GET /cache/prover/{hash} endpoints are tried, in order,
	// when both local prover tiers miss. It takes effect only with
	// EmitCertificates: a fetched outcome is admitted only as a Valid whose
	// certificate replays locally and names the requested goal, and a node
	// without certificates asks for keys whose Valids carry none. The
	// function cache never fetches from peers.
	CachePeers []string
	// PeerTimeout bounds one fetch attempt against one peer (0 means 2s);
	// PeerRetries is the extra attempts per peer after the first (0 means 1,
	// negative disables retry). Failures trip a per-peer circuit breaker.
	PeerTimeout time.Duration
	PeerRetries int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 2 * c.workers()
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 30 * time.Second
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return c.DrainTimeout
	}
	return 10 * time.Second
}

func (c Config) checkConcurrency() int {
	if c.CheckConcurrency > 0 {
		return c.CheckConcurrency
	}
	return 1
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 8 << 20
}

func (c Config) breakerThreshold() int {
	switch {
	case c.BreakerThreshold > 0:
		return c.BreakerThreshold
	case c.BreakerThreshold < 0:
		return 0 // disabled
	}
	return 3
}

func (c Config) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return 5 * time.Second
}

func (c Config) retryTransient() int {
	switch {
	case c.RetryTransient > 0:
		return c.RetryTransient
	case c.RetryTransient < 0:
		return 0 // disabled
	}
	return 1
}

func (c Config) peerRetries() int {
	switch {
	case c.PeerRetries > 0:
		return c.PeerRetries
	case c.PeerRetries < 0:
		return 0 // disabled
	}
	return defaultPeerRetries
}

// job is one admitted request body waiting for a pool worker.
type job struct {
	ctx     context.Context
	run     func()
	done    chan struct{}
	started atomic.Bool
}

// Server is the qualserve HTTP service. Create with New, mount Handler (or
// call Serve), and stop with Shutdown.
type Server struct {
	cfg         Config
	mux         *http.ServeMux
	jobs        chan *job
	quit        chan struct{}
	wg          sync.WaitGroup
	draining    atomic.Bool
	metrics     *Metrics
	funcCache   *checker.FuncCache
	proverCache *simplify.Cache
	breaker     *breaker
	diskFunc    *cachedisk.Store // nil when CacheDir is unset or open failed
	diskProver  *cachedisk.Store
	diskErr     error // why the disk tier degraded to memory-only, if it did
	peerClient  *peerClient

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// testJobHook, when non-nil, runs on the worker goroutine at the start of
// every executed job. Tests use it to hold requests in flight.
var testJobHook func()

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		jobs:        make(chan *job, cfg.queueDepth()),
		quit:        make(chan struct{}),
		metrics:     newMetrics(),
		funcCache:   checker.NewFuncCache(cfg.FuncCacheSize),
		proverCache: simplify.NewCache(cfg.ProverCacheSize),
		breaker:     newBreaker(cfg.breakerThreshold(), cfg.breakerCooldown()),
	}
	if cfg.CacheDir != "" {
		// An unopenable cache dir degrades the server to memory-only caches
		// (recorded in /metrics disk.error) rather than refusing to start:
		// durability is an optimization, serving is the job.
		if st, err := cachedisk.Open(filepath.Join(cfg.CacheDir, "func"), cfg.CacheBudget); err != nil {
			s.diskErr = err
		} else {
			s.diskFunc = st
		}
		if st, err := cachedisk.Open(filepath.Join(cfg.CacheDir, "prover"), cfg.CacheBudget); err != nil {
			s.diskErr = err
		} else {
			s.diskProver = st
		}
		s.funcCache.WithDisk(s.diskFunc)
		s.proverCache.WithDisk(s.diskProver)
	}
	if len(cfg.CachePeers) > 0 && cfg.EmitCertificates {
		s.peerClient = newPeerClient(cfg.CachePeers, cfg.PeerTimeout, cfg.peerRetries())
		s.proverCache.WithPeerFetch(s.peerClient.fetch)
	}
	s.mux.HandleFunc("POST /check", s.handleCheck)
	s.mux.HandleFunc("POST /check-batch", s.handleCheckBatch)
	s.mux.HandleFunc("POST /prove", s.handleProve)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /cache/prover/{hash}", s.handleCacheGet)
	for w := 0; w < cfg.workers(); w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// worker executes admitted jobs until shutdown. A job whose request context
// is already dead is skipped — its handler has answered.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.jobs:
			if j.ctx.Err() == nil {
				j.started.Store(true)
				if testJobHook != nil {
					testJobHook()
				}
				j.run()
			}
			close(j.done)
		case <-s.quit:
			return
		}
	}
}

// Serve accepts connections on l until Shutdown. It always returns a non-nil
// error; after Shutdown the error is http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// Shutdown drains the server: new requests are answered 503 immediately,
// in-flight requests (including queued ones whose handlers still wait) get
// until ctx's deadline to finish, then the listener and worker pool stop.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	close(s.quit)
	s.wg.Wait()
	return err
}

// ---- Request execution ----

// errorBody is the JSON error envelope. Degraded marks answers produced by
// failure containment (a recovered panic, an injected fault, memory-pressure
// shedding) rather than by the request itself being wrong.
type errorBody struct {
	Error    string `json:"error"`
	Degraded bool   `json:"degraded,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// setRetryAfter attaches a Retry-After header of at least one second,
// rounded up to whole seconds per RFC 9110.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// retryAfterHinter lets a success payload (a degraded ProveResponse) ask
// execute to attach a Retry-After header.
type retryAfterHinter interface{ retryAfterHint() time.Duration }

// memPressureStaleness bounds how stale the cached heap sample consulted on
// admission may be; see memwatch.Sample.
const memPressureStaleness = 100 * time.Millisecond

// execute runs fn on the worker pool under the request's deadline and writes
// its response. Admission control: a draining server or a full queue answers
// 503 without queuing; a request whose deadline expires while still queued
// is answered 503 (shed), while one that expires mid-run is answered 504.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, endpoint string, timeoutMillis int64, fn func(ctx context.Context) (int, any)) {
	t0 := time.Now()
	code := 0
	defer func() {
		s.metrics.observe(endpoint, code, time.Since(t0))
	}()

	if s.draining.Load() {
		code = http.StatusServiceUnavailable
		s.metrics.observeShed()
		setRetryAfter(w, s.cfg.drainTimeout())
		writeJSON(w, code, errorBody{Error: "server is draining"})
		return
	}
	if err := fpAdmission.FireErr(); err != nil {
		code = http.StatusServiceUnavailable
		s.metrics.observeShed()
		setRetryAfter(w, time.Second)
		writeJSON(w, code, errorBody{Error: "admission fault: " + err.Error(), Degraded: true})
		return
	}
	if hw := s.cfg.MemoryHighWater; hw > 0 && memwatch.Sample(memPressureStaleness) > hw {
		code = http.StatusServiceUnavailable
		s.metrics.observeMemShed()
		s.metrics.observeShed()
		setRetryAfter(w, time.Second)
		writeJSON(w, code, errorBody{Error: "memory pressure: live heap above the high-water mark", Degraded: true})
		return
	}
	timeout := s.cfg.requestTimeout()
	if timeoutMillis > 0 {
		if d := time.Duration(timeoutMillis) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var (
		status     int
		payload    any
		retryAfter time.Duration
	)
	j := &job{ctx: ctx, done: make(chan struct{})}
	// The worker runs j.run, so the recover below is the pool's panic
	// containment: a panicking request body (or an armed server.run panic
	// fault) becomes a degraded 503 on its own request instead of killing
	// the process. The handler reads status/payload only after j.done.
	j.run = func() {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.observePanic()
				s.metrics.observeDegraded()
				status = http.StatusServiceUnavailable
				payload = errorBody{Error: fmt.Sprintf("internal error: recovered panic: %v", r), Degraded: true}
				retryAfter = time.Second
			}
		}()
		if err := fpRun.Fire(); err != nil {
			s.metrics.observeDegraded()
			status = http.StatusServiceUnavailable
			payload = errorBody{Error: "execution fault: " + err.Error(), Degraded: true}
			retryAfter = time.Second
			return
		}
		status, payload = fn(ctx)
	}
	if err := fpQueue.FireErr(); err != nil {
		code = http.StatusServiceUnavailable
		s.metrics.observeShed()
		setRetryAfter(w, time.Second)
		writeJSON(w, code, errorBody{Error: "queue fault: " + err.Error(), Degraded: true})
		return
	}
	select {
	case s.jobs <- j:
	default:
		code = http.StatusServiceUnavailable
		s.metrics.observeShed()
		setRetryAfter(w, time.Second)
		writeJSON(w, code, errorBody{Error: "queue full"})
		return
	}
	select {
	case <-j.done:
		if status == 0 {
			// The worker skipped the job: its context died in the queue.
			code = http.StatusServiceUnavailable
			s.metrics.observeShed()
			setRetryAfter(w, time.Second)
			writeJSON(w, code, errorBody{Error: "deadline expired while queued"})
			return
		}
		if err := fpEncode.FireErr(); err != nil {
			code = http.StatusServiceUnavailable
			s.metrics.observeDegraded()
			setRetryAfter(w, time.Second)
			writeJSON(w, code, errorBody{Error: "encode fault: " + err.Error(), Degraded: true})
			return
		}
		if retryAfter > 0 {
			setRetryAfter(w, retryAfter)
		}
		if h, ok := payload.(retryAfterHinter); ok {
			if d := h.retryAfterHint(); d > 0 {
				setRetryAfter(w, d)
			}
		}
		code = status
		writeJSON(w, code, payload)
	case <-ctx.Done():
		if j.started.Load() {
			code = http.StatusGatewayTimeout
			writeJSON(w, code, errorBody{Error: "deadline exceeded"})
		} else {
			code = http.StatusServiceUnavailable
			s.metrics.observeShed()
			setRetryAfter(w, time.Second)
			writeJSON(w, code, errorBody{Error: "deadline expired while queued"})
		}
	}
}

// loadRegistry resolves a request's qualifier set: explicit QDL sources,
// the taint configuration, or the standard library.
func loadRegistry(srcs map[string]string, taint bool) (*qdl.Registry, error) {
	switch {
	case len(srcs) > 0:
		return qdl.Load(srcs)
	case taint:
		return quals.TaintWithConstants()
	default:
		return quals.Standard()
	}
}

// ---- POST /check ----

// CheckRequest is the body of POST /check.
type CheckRequest struct {
	// Filename labels positions in diagnostics (default "input.c").
	Filename string `json:"filename,omitempty"`
	// Source is the cminor program to check.
	Source string `json:"source"`
	// Quals maps file names to QDL sources; empty means the standard
	// qualifier library (or the taint configuration when Taint is set).
	Quals map[string]string `json:"quals,omitempty"`
	Taint bool              `json:"taint,omitempty"`
	// FlowSensitive enables branch-condition refinement (section 8).
	FlowSensitive bool `json:"flow_sensitive,omitempty"`
	// TimeoutMillis bounds this request (capped by the server's limit).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// CheckDiagnostic is one rendered diagnostic.
type CheckDiagnostic struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// CheckStats is the subset of checker statistics the API exports. Coalesced
// counts function lookups that joined another request's in-flight cache fill
// instead of walking the body themselves (the /check-batch dedupe path).
type CheckStats struct {
	Dereferences       int `json:"dereferences"`
	RestrictChecks     int `json:"restrict_checks"`
	RestrictFailures   int `json:"restrict_failures"`
	FuncCacheHits      int `json:"func_cache_hits"`
	FuncCacheMisses    int `json:"func_cache_misses"`
	FuncCacheCoalesced int `json:"func_cache_coalesced"`
}

// add accumulates one check run's statistics into s (batch aggregation).
func (s *CheckStats) add(st checker.Stats) {
	s.Dereferences += st.Dereferences
	s.RestrictChecks += st.RestrictChecks
	s.RestrictFailures += st.RestrictFailures
	s.FuncCacheHits += st.FuncCacheHits
	s.FuncCacheMisses += st.FuncCacheMisses
	s.FuncCacheCoalesced += st.FuncCacheCoalesced
}

// apiDiagnostics converts checker diagnostics to their JSON form, reporting
// whether any is an "internal" (failure-containment) diagnostic — the
// degraded marker meaning the absence of warnings is not a clean bill.
func apiDiagnostics(diags []checker.Diagnostic) ([]CheckDiagnostic, bool) {
	out := make([]CheckDiagnostic, 0, len(diags))
	degraded := false
	for _, d := range diags {
		out = append(out, CheckDiagnostic{
			File: d.Pos.File, Line: d.Pos.Line, Col: d.Pos.Col, Code: d.Code, Msg: d.Msg,
		})
		if d.Code == "internal" {
			degraded = true
		}
	}
	return out, degraded
}

// CheckResponse is the body of a 200 answer to POST /check. Degraded means
// failure containment produced "internal" diagnostics: some functions were
// not fully checked, so absence of warnings there is not a clean bill.
type CheckResponse struct {
	Filename      string            `json:"filename"`
	Diagnostics   []CheckDiagnostic `json:"diagnostics"`
	Warnings      int               `json:"warnings"`
	Degraded      bool              `json:"degraded,omitempty"`
	Stats         CheckStats        `json:"stats"`
	ElapsedMillis int64             `json:"elapsed_ms"`
}

// decodeBody decodes the JSON request body into req under the configured
// size cap, answering 400 on malformed JSON and 413 on an oversized body.
// It reports whether the handler should proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, endpoint string, req any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())
	err := json.NewDecoder(r.Body).Decode(req)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
			Error: fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit),
		})
		s.metrics.observe(endpoint, http.StatusRequestEntityTooLarge, 0)
		return false
	}
	writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
	s.metrics.observe(endpoint, http.StatusBadRequest, 0)
	return false
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !s.decodeBody(w, r, "check", &req) {
		return
	}
	s.execute(w, r, "check", req.TimeoutMillis, func(ctx context.Context) (int, any) {
		return s.doCheck(ctx, &req)
	})
}

func (s *Server) doCheck(ctx context.Context, req *CheckRequest) (int, any) {
	t0 := time.Now()
	reg, err := loadRegistry(req.Quals, req.Taint)
	if err != nil {
		return http.StatusUnprocessableEntity, errorBody{Error: "qualifier definitions: " + err.Error()}
	}
	name := req.Filename
	if name == "" {
		name = "input.c"
	}
	prog, err := cminor.Parse(name, req.Source, reg.Names())
	if err != nil {
		return http.StatusUnprocessableEntity, errorBody{Error: "parse: " + err.Error()}
	}
	res := checker.CheckWithCache(ctx, prog, reg, checker.Options{
		FlowSensitive: req.FlowSensitive,
		Concurrency:   s.cfg.checkConcurrency(),
	}, s.funcCache)
	if res.Err != nil {
		return http.StatusGatewayTimeout, errorBody{Error: "check stopped: " + res.Err.Error()}
	}
	resp := CheckResponse{
		Filename:      name,
		Warnings:      len(res.Diags),
		ElapsedMillis: time.Since(t0).Milliseconds(),
	}
	resp.Stats.add(res.Stats)
	resp.Diagnostics, resp.Degraded = apiDiagnostics(res.Diags)
	if resp.Degraded {
		s.metrics.observeDegraded()
	}
	return http.StatusOK, resp
}

// ---- POST /check-batch ----

// BatchInput is one source file in a POST /check-batch request.
type BatchInput struct {
	// Filename labels the input and the file field of its diagnostics
	// (default "inputN.c" for the N-th entry).
	Filename string `json:"filename,omitempty"`
	// Source is the cminor program to check.
	Source string `json:"source"`
}

// CheckBatchRequest is the body of POST /check-batch. All inputs share one
// qualifier registry and the server-wide function cache, so identical
// functions — within the batch or across concurrent batches — dedupe to a
// single cache fill: concurrent duplicate submissions coalesce behind the
// first walker instead of re-checking (counted in stats.func_cache_coalesced
// and /metrics func_cache.coalesced).
type CheckBatchRequest struct {
	Files []BatchInput `json:"files"`
	// Quals maps file names to QDL sources; empty means the standard
	// qualifier library (or the taint configuration when Taint is set).
	Quals map[string]string `json:"quals,omitempty"`
	Taint bool              `json:"taint,omitempty"`
	// FlowSensitive enables branch-condition refinement (section 8).
	FlowSensitive bool `json:"flow_sensitive,omitempty"`
	// TimeoutMillis bounds the whole batch (capped by the server's limit).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// BatchFileResult is one input's verdict inside a CheckBatchResponse. Error
// is a per-input parse failure; the rest of the batch is still checked.
type BatchFileResult struct {
	Filename    string            `json:"filename"`
	Diagnostics []CheckDiagnostic `json:"diagnostics"`
	Warnings    int               `json:"warnings"`
	Error       string            `json:"error,omitempty"`
	Degraded    bool              `json:"degraded,omitempty"`
}

// CheckBatchResponse is the body of a 200 answer to POST /check-batch.
// Stats aggregates over all inputs; every diagnostic carries its file, so a
// flattened view of the batch stays attributable per input.
type CheckBatchResponse struct {
	Files         []BatchFileResult `json:"files"`
	Warnings      int               `json:"warnings"`
	Failures      int               `json:"failures"`
	Degraded      bool              `json:"degraded,omitempty"`
	Stats         CheckStats        `json:"stats"`
	ElapsedMillis int64             `json:"elapsed_ms"`
}

func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request) {
	var req CheckBatchRequest
	if !s.decodeBody(w, r, "check-batch", &req) {
		return
	}
	s.execute(w, r, "check-batch", req.TimeoutMillis, func(ctx context.Context) (int, any) {
		return s.doCheckBatch(ctx, &req)
	})
}

func (s *Server) doCheckBatch(ctx context.Context, req *CheckBatchRequest) (int, any) {
	t0 := time.Now()
	if len(req.Files) == 0 {
		return http.StatusUnprocessableEntity, errorBody{Error: "empty batch: files is required"}
	}
	reg, err := loadRegistry(req.Quals, req.Taint)
	if err != nil {
		return http.StatusUnprocessableEntity, errorBody{Error: "qualifier definitions: " + err.Error()}
	}
	resp := CheckBatchResponse{Files: make([]BatchFileResult, 0, len(req.Files))}
	for i, in := range req.Files {
		name := in.Filename
		if name == "" {
			name = fmt.Sprintf("input%d.c", i)
		}
		fr := BatchFileResult{Filename: name, Diagnostics: []CheckDiagnostic{}}
		prog, err := cminor.Parse(name, in.Source, reg.Names())
		if err != nil {
			fr.Error = "parse: " + err.Error()
			resp.Failures++
			resp.Files = append(resp.Files, fr)
			continue
		}
		res := checker.CheckWithCache(ctx, prog, reg, checker.Options{
			FlowSensitive: req.FlowSensitive,
			Concurrency:   s.cfg.checkConcurrency(),
		}, s.funcCache)
		if res.Err != nil {
			return http.StatusGatewayTimeout, errorBody{
				Error: fmt.Sprintf("check stopped at %s: %v", name, res.Err),
			}
		}
		fr.Diagnostics, fr.Degraded = apiDiagnostics(res.Diags)
		fr.Warnings = len(fr.Diagnostics)
		resp.Warnings += fr.Warnings
		resp.Stats.add(res.Stats)
		if fr.Degraded {
			resp.Degraded = true
		}
		resp.Files = append(resp.Files, fr)
	}
	if resp.Degraded {
		s.metrics.observeDegraded()
	}
	resp.ElapsedMillis = time.Since(t0).Milliseconds()
	return http.StatusOK, resp
}

// ---- POST /prove ----

// ProveRequest is the body of POST /prove.
type ProveRequest struct {
	// Quals maps file names to QDL sources; empty means the standard
	// library (or the taint configuration when Taint is set).
	Quals map[string]string `json:"quals,omitempty"`
	Taint bool              `json:"taint,omitempty"`
	// Qualifier, when set, proves only the named qualifier.
	Qualifier     string `json:"qualifier,omitempty"`
	TimeoutMillis int64  `json:"timeout_ms,omitempty"`
}

// ProveObligation is one discharged obligation. The certificate fields are
// populated only when the server runs with EmitCertificates: CertSteps is the
// length of the emitted proof and CertReplayed reports that the independent
// replay checker accepted it (a rejection never reaches here — it degrades
// the obligation to a transient Unknown with a "cert:" reason).
type ProveObligation struct {
	Kind         string `json:"kind"`
	Description  string `json:"description"`
	Valid        bool   `json:"valid"`
	Result       string `json:"result"`
	Reason       string `json:"reason,omitempty"`
	CacheHit     bool   `json:"cache_hit,omitempty"`
	CertSteps    int    `json:"cert_steps,omitempty"`
	CertReplayed bool   `json:"cert_replayed,omitempty"`
}

// ProveReport is one qualifier's soundness verdict. Degraded means the
// verdict is not authoritative: the breaker refused the qualifier, or an
// obligation failed for an infrastructure reason (budget trip, recovered
// panic, injected fault) rather than a genuine counterexample.
type ProveReport struct {
	Qualifier   string            `json:"qualifier"`
	Kind        string            `json:"kind"`
	Sound       bool              `json:"sound"`
	Degraded    bool              `json:"degraded,omitempty"`
	Error       string            `json:"error,omitempty"`
	CacheHits   int               `json:"cache_hits"`
	Obligations []ProveObligation `json:"obligations"`
}

// ProveResponse is the body of a 200 answer to POST /prove. When Degraded
// is set, RetryAfterMillis hints when refused qualifiers are worth retrying
// (also surfaced as a Retry-After header).
type ProveResponse struct {
	Reports          []ProveReport `json:"reports"`
	AllSound         bool          `json:"all_sound"`
	Degraded         bool          `json:"degraded,omitempty"`
	RetryAfterMillis int64         `json:"retry_after_ms,omitempty"`
	ElapsedMillis    int64         `json:"elapsed_ms"`
}

func (p ProveResponse) retryAfterHint() time.Duration {
	return time.Duration(p.RetryAfterMillis) * time.Millisecond
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	var req ProveRequest
	if !s.decodeBody(w, r, "prove", &req) {
		return
	}
	s.execute(w, r, "prove", req.TimeoutMillis, func(ctx context.Context) (int, any) {
		return s.doProve(ctx, &req)
	})
}

// breakerFailure reports whether an obligation outcome counts against its
// qualifier's circuit breaker: transient for an infrastructure reason (a
// budget trip, recovered panic, or injected fault), not because the caller's
// own deadline or cancellation ended the run, and not a genuine
// counterexample.
func breakerFailure(reason string) bool {
	switch reason {
	case simplify.ReasonDeadline, simplify.ReasonCanceled:
		return false
	}
	return simplify.TransientReason(reason)
}

func (s *Server) doProve(ctx context.Context, req *ProveRequest) (int, any) {
	t0 := time.Now()
	reg, err := loadRegistry(req.Quals, req.Taint)
	if err != nil {
		return http.StatusUnprocessableEntity, errorBody{Error: "qualifier definitions: " + err.Error()}
	}
	opts := soundness.DefaultOptions()
	opts.Concurrency = s.cfg.checkConcurrency()
	opts.Cache = s.proverCache
	opts.RetryTransient = s.cfg.retryTransient()
	opts.RetryBackoff = s.cfg.RetryBackoff
	opts.Prover.MaxTerms = s.cfg.ProverMaxTerms
	opts.Prover.MaxClauses = s.cfg.ProverMaxClauses
	if s.cfg.ProverMaxInstances > 0 {
		opts.Prover.MaxInstances = s.cfg.ProverMaxInstances
	}
	opts.Prover.MaxMemoryBytes = s.cfg.ProverMaxMemory
	opts.Prover.EmitCertificates = s.cfg.EmitCertificates
	var defs []*qdl.Def
	if req.Qualifier != "" {
		d := reg.Lookup(req.Qualifier)
		if d == nil {
			return http.StatusUnprocessableEntity, errorBody{Error: "unknown qualifier " + req.Qualifier}
		}
		defs = []*qdl.Def{d}
	} else {
		defs = reg.Defs()
	}
	resp := ProveResponse{AllSound: true}
	var maxRetryAfter time.Duration
	for _, d := range defs {
		if ok, ra := s.breaker.Allow(d.Name); !ok {
			s.metrics.observeDegraded()
			if ra > maxRetryAfter {
				maxRetryAfter = ra
			}
			resp.Degraded = true
			resp.AllSound = false
			resp.Reports = append(resp.Reports, ProveReport{
				Qualifier: d.Name,
				Kind:      d.Kind.String(),
				Degraded:  true,
				Error:     fmt.Sprintf("circuit breaker open for qualifier %s; retry after %s", d.Name, ra.Round(time.Millisecond)),
			})
			continue
		}
		rep, err := soundness.ProveContext(ctx, d, reg, opts)
		if err != nil {
			rep = &soundness.Report{Qualifier: d.Name, Kind: d.Kind, Err: err}
		}
		pr := ProveReport{
			Qualifier: rep.Qualifier,
			Kind:      rep.Kind.String(),
			Sound:     rep.Sound(),
			CacheHits: rep.CacheHits,
		}
		if rep.Err != nil {
			pr.Error = rep.Err.Error()
		}
		for _, res := range rep.Results {
			po := ProveObligation{
				Kind:        res.Obligation.Kind.String(),
				Description: res.Obligation.Description,
				Valid:       res.Valid,
				Result:      res.Outcome.Result.String(),
				Reason:      res.Outcome.Reason,
				CacheHit:    res.Outcome.CacheHit,
			}
			if crt := res.Outcome.Certificate; crt != nil {
				po.CertSteps = len(crt.Steps)
				po.CertReplayed = res.Outcome.Stats.CertsReplayed > 0
			}
			pr.Obligations = append(pr.Obligations, po)
			if !res.Valid && breakerFailure(res.Outcome.Reason) {
				pr.Degraded = true
			}
		}
		// Don't charge the breaker when the client's own deadline ended the
		// run: those outcomes say nothing about the qualifier's health.
		if ctx.Err() == nil {
			s.breaker.Record(d.Name, !pr.Degraded)
		}
		if pr.Degraded {
			resp.Degraded = true
			s.metrics.observeDegraded()
		}
		if !pr.Sound {
			resp.AllSound = false
		}
		resp.Reports = append(resp.Reports, pr)
	}
	if err := ctx.Err(); err != nil {
		return http.StatusGatewayTimeout, errorBody{Error: "prove stopped: " + err.Error()}
	}
	resp.RetryAfterMillis = maxRetryAfter.Milliseconds()
	resp.ElapsedMillis = time.Since(t0).Milliseconds()
	return http.StatusOK, resp
}

// ---- GET /metrics, GET /healthz ----

// CacheSnapshot is the /metrics view of one cache: its counters (see
// tiercache.Stats) plus the derived hit rate and its memory size.
type CacheSnapshot struct {
	tiercache.Stats
	HitRate float64 `json:"hit_rate"`
	Len     int     `json:"len"`
}

// DiskSnapshot is the durable-cache section of GET /metrics: one
// cachedisk.Stats block per namespace, plus why the tier degraded to
// memory-only if it did.
type DiskSnapshot struct {
	Dir    string          `json:"dir"`
	Error  string          `json:"error,omitempty"`
	Func   cachedisk.Stats `json:"func"`
	Prover cachedisk.Stats `json:"prover"`
}

// MetricsResponse is the body of GET /metrics.
type MetricsResponse struct {
	Snapshot
	Workers       int                    `json:"workers"`
	QueueDepth    int                    `json:"queue_depth"`
	QueueCapacity int                    `json:"queue_capacity"`
	Draining      bool                   `json:"draining"`
	FuncCache     CacheSnapshot          `json:"func_cache"`
	ProverCache   CacheSnapshot          `json:"prover_cache"`
	Lemmas        simplify.LemmaCounters `json:"lemmas"`
	Certs         simplify.CertCounters  `json:"certs"`
	BudgetTrips   uint64                 `json:"budget_trips"`
	FaultsArmed   bool                   `json:"faults_armed"`
	FaultFires    map[string]uint64      `json:"fault_fires,omitempty"`
	Breaker       BreakerSnapshot        `json:"breaker"`
	Disk          *DiskSnapshot          `json:"disk,omitempty"`
	Peers         *PeerSnapshot          `json:"peers,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	fc := s.funcCache.Stats()
	pc := s.proverCache.Stats()
	var disk *DiskSnapshot
	if s.cfg.CacheDir != "" {
		disk = &DiskSnapshot{Dir: s.cfg.CacheDir, Func: s.diskFunc.Stats(), Prover: s.diskProver.Stats()}
		if s.diskErr != nil {
			disk.Error = s.diskErr.Error()
		}
	}
	var peers *PeerSnapshot
	if s.peerClient != nil {
		snap := s.peerClient.snapshot()
		peers = &snap
	}
	writeJSON(w, http.StatusOK, MetricsResponse{
		Snapshot:      s.metrics.snapshot(),
		Workers:       s.cfg.workers(),
		QueueDepth:    len(s.jobs),
		QueueCapacity: cap(s.jobs),
		Draining:      s.draining.Load(),
		FuncCache:     CacheSnapshot{Stats: fc, HitRate: fc.HitRate(), Len: s.funcCache.Len()},
		ProverCache:   CacheSnapshot{Stats: pc, HitRate: pc.HitRate(), Len: s.proverCache.Len()},
		Lemmas:        simplify.GlobalLemmaCounters(),
		Certs:         simplify.GlobalCertCounters(),
		BudgetTrips:   simplify.BudgetTrips(),
		FaultsArmed:   faults.Armed(),
		FaultFires:    faults.Counters(),
		Breaker:       s.breaker.snapshot(),
		Disk:          disk,
		Peers:         peers,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		// Like every other shed path, the draining 503 tells the load
		// balancer when trying again is worthwhile.
		setRetryAfter(w, s.cfg.drainTimeout())
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ListenAndServe listens on addr, announces the bound address via announce
// (when non-nil; used by main to print the ephemeral port), and serves until
// ctx is done, then drains within the configured DrainTimeout. It returns
// nil on a clean drained shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string, announce func(net.Addr)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if announce != nil {
		announce(l.Addr())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.drainTimeout())
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}
