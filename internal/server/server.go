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

	"repro/internal/breaker"
	"repro/internal/cachedisk"
	"repro/internal/checker"
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
	// Workers bounds how many request bodies (parsing, checking, proving)
	// run at once, each on its handler's goroutine; at most 2*Workers more
	// admitted requests wait for a slot, and a request arriving past that is
	// shed with 503. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// RequestTimeout is the per-request deadline (also the ceiling for a
	// request's own timeout_ms). 0 means 30s.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after the stop signal. 0 means 10s.
	DrainTimeout time.Duration
	// FuncCacheSize caps the function-granular checker result cache
	// (0 means checker.DefaultFuncCacheCapacity).
	FuncCacheSize int
	// ProverCacheSize caps the memoizing prover outcome cache
	// (0 means simplify.DefaultCacheCapacity).
	ProverCacheSize int
	// MaxBodyBytes caps a request body; larger bodies are answered 413.
	// 0 means 8 MiB.
	MaxBodyBytes int64
	// MemoryHighWater, when non-zero, sheds new requests with 503 +
	// Retry-After while the live heap, read afresh on each admission,
	// exceeds this many bytes.
	MemoryHighWater uint64
	// ProverMaxInstances bounds each prover search's quantifier
	// instantiations (see simplify.Options.MaxInstances); a tripped budget
	// yields a transient Unknown ("resource budget exceeded") that is never
	// cached and counts against the qualifier's breaker. 0 means the
	// prover's default.
	ProverMaxInstances int
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
	// PeerTimeout bounds the one fetch attempt a lookup makes against each
	// peer (0 means 2s). A failed attempt counts against that peer's circuit
	// breaker, and the lookup moves on to the next peer or a local proof.
	PeerTimeout time.Duration
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
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

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 8 << 20
}

// requestConcurrency is the function and obligation concurrency inside one
// request. Parallelism across requests comes from the Workers slots, so each
// request runs serially, on its handler's own goroutine, to avoid
// oversubscription.
const requestConcurrency = 1

// Server is the qualserve HTTP service. Create with New, mount Handler (or
// call Serve), and stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux
	// slots holds one token per running request body (capacity Workers);
	// queue holds one per admitted request waiting for a slot (capacity
	// 2*Workers).
	slots       chan struct{}
	queue       chan struct{}
	draining    atomic.Bool
	metrics     *Metrics
	funcCache   *checker.FuncCache
	proverCache *simplify.Cache
	breaker     *breaker.Breaker
	diskFunc    *cachedisk.Store // nil when CacheDir is unset or open failed
	diskProver  *cachedisk.Store
	diskErr     error // why the disk tier degraded to memory-only, if it did
	peerClient  *peerClient

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// testJobHook, when non-nil, runs on the handler goroutine once a request
// holds its slot, before the body runs. Tests use it to hold requests in
// flight.
var testJobHook func()

// New builds a server. It starts no goroutine: every request body runs on the
// goroutine net/http calls its handler on.
func New(cfg Config) *Server {
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		slots:       make(chan struct{}, cfg.workers()),
		queue:       make(chan struct{}, 2*cfg.workers()),
		metrics:     newMetrics(),
		funcCache:   checker.NewFuncCache(cfg.FuncCacheSize),
		proverCache: simplify.NewCache(cfg.ProverCacheSize),
		breaker:     breaker.New(proveBreakerThreshold, proveBreakerCooldown),
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
		s.peerClient = newPeerClient(cfg.CachePeers, cfg.PeerTimeout)
		s.proverCache.WithPeerFetch(s.peerClient.fetch)
	}
	s.mux.HandleFunc("POST /check", s.handleCheck)
	s.mux.HandleFunc("POST /check-batch", s.handleCheckBatch)
	s.mux.HandleFunc("POST /prove", s.handleProve)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /cache/prover/{hash}", s.handleCacheGet)
	return s
}

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

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
// in-flight requests (including ones still waiting for a slot) get until
// ctx's deadline to finish, then the listener stops. When Handler is mounted
// on the caller's own http.Server, Shutdown only starts the drain; that
// server's Shutdown waits for the in-flight handlers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// ---- Request execution ----

// reply is an answer's body. Every body says whether failure containment
// produced it and how long a client should wait before retrying (0: no
// wait); respond counts the first in degraded_total and sends the second as
// Retry-After.
type reply interface {
	containment() (degraded bool, retryAfter time.Duration)
}

// errorBody is the JSON error envelope. Degraded marks answers produced by
// failure containment (a recovered panic, an injected fault, memory-pressure
// shedding) rather than by the request itself being wrong. Every 503 sets
// RetryAfterMillis.
type errorBody struct {
	Error            string `json:"error"`
	Degraded         bool   `json:"degraded,omitempty"`
	RetryAfterMillis int64  `json:"retry_after_ms,omitempty"`
}

func (b errorBody) containment() (bool, time.Duration) {
	return b.Degraded, time.Duration(b.RetryAfterMillis) * time.Millisecond
}

// unavailable is the body of a 503: the request was not answered, and the
// client may retry after wait.
func unavailable(msg string, degraded bool, wait time.Duration) errorBody {
	return errorBody{Error: msg, Degraded: degraded, RetryAfterMillis: wait.Milliseconds()}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// respond writes an answer, and is the one place that acts on what its body
// says about failure containment: a degraded body adds one to
// degraded_total, and a body that asks the client to wait sets Retry-After,
// rounded up to whole seconds per RFC 9110.
func (s *Server) respond(w http.ResponseWriter, code int, body reply) {
	degraded, retryAfter := body.containment()
	if degraded {
		s.metrics.observeDegraded()
	}
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, code, body)
}

// execute answers a request whose work is fn, every answer through respond.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, endpoint string, timeoutMillis int64, fn func(ctx context.Context) (int, reply)) {
	t0 := time.Now()
	code, body := s.admitAndRun(r, timeoutMillis, fn)
	s.respond(w, code, body)
	s.metrics.observe(endpoint, code, time.Since(t0))
}

// admitAndRun runs fn on the handler's goroutine under the request's
// deadline, holding one of the Workers slots while it runs, and returns the
// answer. Admission control: a draining server or a full wait queue answers
// 503 without waiting; a request whose deadline expires while it waits for a
// slot is answered 503 (shed), while one that expires mid-run is answered
// 504.
func (s *Server) admitAndRun(r *http.Request, timeoutMillis int64, fn func(ctx context.Context) (int, reply)) (int, reply) {
	// shed answers a request turned away before its body ran.
	shed := func(body errorBody) (int, reply) {
		s.metrics.observeShed()
		return http.StatusServiceUnavailable, body
	}
	if s.draining.Load() {
		return shed(unavailable("server is draining", false, s.cfg.drainTimeout()))
	}
	if err := fpAdmission.FireErr(); err != nil {
		return shed(unavailable("admission fault: "+err.Error(), true, time.Second))
	}
	if hw := s.cfg.MemoryHighWater; hw > 0 && memwatch.Sample() > hw {
		s.metrics.observeMemShed()
		return shed(unavailable("memory pressure: live heap above the high-water mark", true, time.Second))
	}
	timeout := s.cfg.requestTimeout()
	if timeoutMillis > 0 {
		if d := time.Duration(timeoutMillis) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if err := fpQueue.FireErr(); err != nil {
		return shed(unavailable("queue fault: "+err.Error(), true, time.Second))
	}
	if msg := s.acquire(ctx); msg != "" {
		return shed(unavailable(msg, false, time.Second))
	}
	status, body := s.run(ctx, fn)
	<-s.slots
	if ctx.Err() != nil {
		return http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded"}
	}
	if err := fpEncode.FireErr(); err != nil {
		return http.StatusServiceUnavailable, unavailable("encode fault: "+err.Error(), true, time.Second)
	}
	return status, body
}

// acquire takes a slot for a request, waiting in the queue while every slot
// is busy. It returns why the request is shed instead ("" when it holds a
// slot): the queue is full, or ctx died before the request got its slot.
func (s *Server) acquire(ctx context.Context) string {
	select {
	case s.queue <- struct{}{}:
	default:
		return "queue full"
	}
	defer func() { <-s.queue }()
	select {
	case s.slots <- struct{}{}:
		if ctx.Err() == nil {
			return ""
		}
		<-s.slots
	case <-ctx.Done():
	}
	return "deadline expired while queued"
}

// run executes a request body on the calling goroutine. The recover is the
// server's panic containment: a panicking body (or an armed server.run panic
// fault) becomes a degraded 503 on its own request instead of killing the
// process.
func (s *Server) run(ctx context.Context, fn func(ctx context.Context) (int, reply)) (status int, body reply) {
	if testJobHook != nil {
		testJobHook()
	}
	defer func() {
		if r := recover(); r != nil {
			s.metrics.observePanic()
			status = http.StatusServiceUnavailable
			body = unavailable(fmt.Sprintf("internal error: recovered panic: %v", r), true, time.Second)
		}
	}()
	if err := fpRun.Fire(); err != nil {
		return http.StatusServiceUnavailable, unavailable("execution fault: "+err.Error(), true, time.Second)
	}
	return fn(ctx)
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
	Stats         checker.Stats     `json:"stats"`
	ElapsedMillis int64             `json:"elapsed_ms"`
}

func (r CheckResponse) containment() (bool, time.Duration) { return r.Degraded, 0 }

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
		s.respond(w, http.StatusRequestEntityTooLarge, errorBody{
			Error: fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit),
		})
		s.metrics.observe(endpoint, http.StatusRequestEntityTooLarge, 0)
		return false
	}
	s.respond(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
	s.metrics.observe(endpoint, http.StatusBadRequest, 0)
	return false
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !s.decodeBody(w, r, "check", &req) {
		return
	}
	s.execute(w, r, "check", req.TimeoutMillis, func(ctx context.Context) (int, reply) {
		return s.doCheck(ctx, &req)
	})
}

func (s *Server) doCheck(ctx context.Context, req *CheckRequest) (int, reply) {
	t0 := time.Now()
	reg, err := quals.Load(req.Quals, req.Taint)
	if err != nil {
		return http.StatusUnprocessableEntity, errorBody{Error: "qualifier definitions: " + err.Error()}
	}
	name := req.Filename
	if name == "" {
		name = "input.c"
	}
	batch := s.checkInputs(ctx, reg, req.FlowSensitive, []BatchInput{{Filename: name, Source: req.Source}})
	fr := batch.Files[0]
	if fr.Error != "" {
		return http.StatusUnprocessableEntity, errorBody{Error: fr.Error}
	}
	return http.StatusOK, CheckResponse{
		Filename:      name,
		Diagnostics:   fr.Diagnostics,
		Warnings:      fr.Warnings,
		Degraded:      fr.Degraded,
		Stats:         batch.Stats,
		ElapsedMillis: time.Since(t0).Milliseconds(),
	}
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
	Stats         checker.Stats     `json:"stats"`
	ElapsedMillis int64             `json:"elapsed_ms"`
}

func (r CheckBatchResponse) containment() (bool, time.Duration) { return r.Degraded, 0 }

func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request) {
	var req CheckBatchRequest
	if !s.decodeBody(w, r, "check-batch", &req) {
		return
	}
	s.execute(w, r, "check-batch", req.TimeoutMillis, func(ctx context.Context) (int, reply) {
		return s.doCheckBatch(ctx, &req)
	})
}

func (s *Server) doCheckBatch(ctx context.Context, req *CheckBatchRequest) (int, reply) {
	t0 := time.Now()
	if len(req.Files) == 0 {
		return http.StatusUnprocessableEntity, errorBody{Error: "empty batch: files is required"}
	}
	reg, err := quals.Load(req.Quals, req.Taint)
	if err != nil {
		return http.StatusUnprocessableEntity, errorBody{Error: "qualifier definitions: " + err.Error()}
	}
	resp := s.checkInputs(ctx, reg, req.FlowSensitive, req.Files)
	resp.ElapsedMillis = time.Since(t0).Milliseconds()
	return http.StatusOK, resp
}

// checkInputs checks and converts each input in order against reg, sharing
// the server's cache (checker.CheckSource: with -cache-dir, an input whose
// bytes the disk tier holds replays without parsing); an input without a
// name is called inputN.c after its index. A parse failure is recorded on
// its input and the rest are still checked. A check that ctx stops ends the
// run after its input's result: execute answers such a request 504 and drops
// the response.
func (s *Server) checkInputs(ctx context.Context, reg *qdl.Registry, flow bool, inputs []BatchInput) CheckBatchResponse {
	resp := CheckBatchResponse{Files: make([]BatchFileResult, 0, len(inputs))}
	for i, in := range inputs {
		name := in.Filename
		if name == "" {
			name = fmt.Sprintf("input%d.c", i)
		}
		fr := BatchFileResult{Filename: name, Diagnostics: []CheckDiagnostic{}}
		res, err := checker.CheckSource(ctx, name, in.Source, reg, checker.Options{
			FlowSensitive: flow,
			Concurrency:   requestConcurrency,
		}, s.funcCache)
		if err != nil {
			fr.Error = "parse: " + err.Error()
			resp.Failures++
			resp.Files = append(resp.Files, fr)
			continue
		}
		fr.Diagnostics, fr.Degraded = apiDiagnostics(res.Diags)
		fr.Warnings = len(fr.Diagnostics)
		resp.Warnings += fr.Warnings
		resp.Stats.Add(res.Stats)
		if fr.Degraded {
			resp.Degraded = true
		}
		resp.Files = append(resp.Files, fr)
		if res.Err != nil {
			return resp
		}
	}
	return resp
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
// replay checker accepted it in this process, whichever tier served the
// outcome (a rejection never reaches here — it degrades the obligation to a
// transient Unknown with a "cert:" reason, or re-proves a fetched one).
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

func (p ProveResponse) containment() (bool, time.Duration) {
	return p.Degraded, time.Duration(p.RetryAfterMillis) * time.Millisecond
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	var req ProveRequest
	if !s.decodeBody(w, r, "prove", &req) {
		return
	}
	s.execute(w, r, "prove", req.TimeoutMillis, func(ctx context.Context) (int, reply) {
		return s.doProve(ctx, &req)
	})
}

// The /prove breaker opens a qualifier after proveBreakerThreshold
// consecutive failures and admits a probe proveBreakerCooldown later.
const (
	proveBreakerThreshold = 3
	proveBreakerCooldown  = 5 * time.Second
)

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

// proveBreakerKey names a qualifier's /prove breaker entry. The registry
// fingerprint is part of the key because a qualifier's obligations depend on
// the whole registry its where-clauses resolve against: a request-supplied
// pos failing must not cut off the library's pos.
func proveBreakerKey(reg *qdl.Registry, name string) string {
	return name + "@" + reg.Fingerprint()
}

func (s *Server) doProve(ctx context.Context, req *ProveRequest) (int, reply) {
	t0 := time.Now()
	reg, err := quals.Load(req.Quals, req.Taint)
	if err != nil {
		return http.StatusUnprocessableEntity, errorBody{Error: "qualifier definitions: " + err.Error()}
	}
	opts := soundness.DefaultOptions()
	opts.Concurrency = requestConcurrency
	opts.Cache = s.proverCache
	if s.cfg.ProverMaxInstances > 0 {
		opts.Prover.MaxInstances = s.cfg.ProverMaxInstances
	}
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
		key := proveBreakerKey(reg, d.Name)
		if ok, ra := s.breaker.Allow(key); !ok {
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
				// A returned certificate passed replay in this process: at
				// emission, or in the fetch gate for a cache-served outcome.
				po.CertReplayed = true
			}
			pr.Obligations = append(pr.Obligations, po)
			if !res.Valid && breakerFailure(res.Outcome.Reason) {
				pr.Degraded = true
			}
		}
		// Don't charge the breaker when the client's own deadline ended the
		// run: those outcomes say nothing about the qualifier's health.
		if ctx.Err() == nil {
			s.breaker.Record(key, !pr.Degraded)
		}
		if pr.Degraded {
			resp.Degraded = true
		}
		if !pr.Sound {
			resp.AllSound = false
		}
		resp.Reports = append(resp.Reports, pr)
	}
	// Rounded up, so a refusal with under a millisecond left still asks the
	// client to wait.
	resp.RetryAfterMillis = (maxRetryAfter + time.Millisecond - 1).Milliseconds()
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
	Breaker       breaker.Snapshot       `json:"breaker"`
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
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Draining:      s.draining.Load(),
		FuncCache:     CacheSnapshot{Stats: fc, HitRate: fc.HitRate(), Len: s.funcCache.Len()},
		ProverCache:   CacheSnapshot{Stats: pc, HitRate: pc.HitRate(), Len: s.proverCache.Len()},
		Lemmas:        simplify.GlobalLemmaCounters(),
		Certs:         simplify.GlobalCertCounters(),
		BudgetTrips:   simplify.BudgetTrips(),
		FaultsArmed:   faults.Armed(),
		FaultFires:    faults.Counters(),
		Breaker:       s.breaker.Snapshot(),
		Disk:          disk,
		Peers:         peers,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		// Like every other shed path, the draining 503 tells the load
		// balancer when trying again is worthwhile.
		s.respond(w, http.StatusServiceUnavailable, unavailable("draining", false, s.cfg.drainTimeout()))
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
