// Command qualserve runs the qualifier checking service: an HTTP+JSON API
// over the extensible typechecker and the soundness prover, built for
// long-lived concurrent serving with content-addressed incremental
// re-checking.
//
// Usage:
//
//	qualserve [-addr :8080] [-workers N] [-queue N] [-timeout 30s] [-drain 10s]
//	          [-max-body N] [-mem-limit N] [-breaker-threshold K] [-breaker-cooldown 5s]
//	          [-max-terms N] [-max-clauses N] [-max-insts N]
//	          [-cache-dir dir] [-cache-budget N] [-cache-peers url,url]
//	          [-cache-secret-file path] [-faults spec]
//
// Endpoints:
//
//	POST /check       — qualifier-check a cminor program (JSON body: source,
//	                    optional quals/taint/flow_sensitive/timeout_ms)
//	POST /check-batch — qualifier-check a batch of files in one request
//	                    (JSON body: files [{filename, source}], shared
//	                    quals/taint/flow_sensitive/timeout_ms); diagnostics
//	                    carry their file, and identical functions — within
//	                    the batch or across concurrent batches — coalesce
//	                    to one function-cache fill
//	POST /prove       — discharge a qualifier set's soundness obligations
//	GET  /metrics     — request counts, p50/p99 latency, queue depth, shed
//	                    count, cache hit + coalesce rates, budget trips,
//	                    fault fires, and per-qualifier breaker state
//	GET  /healthz — liveness (503 while draining)
//	GET  /cache/{func|prover}/{hash} — serve a sealed cache record to a peer
//	                    node (with -cache-dir; see -cache-peers)
//
// With -cache-dir, both warm caches persist across restarts as checksummed
// crash-safe records; corrupt or torn records are evicted and re-proved,
// never trusted. With -cache-peers, a local cache miss consults the listed
// nodes before computing. The two namespaces have different trust anchors:
// fetched prover verdicts are admitted only after their proof certificates
// replay locally, so a lying peer (or an on-path attacker on these plain
// HTTP fetches) costs a re-prove, never a wrong Valid. Fetched checker
// results have no proof to replay — their content seal is a plain checksum
// that detects corruption, not tampering — so they are fetched only when
// -cache-secret-file configures a shared fleet secret: every served record
// carries an HMAC under it, every fetched record must verify, and without a
// secret the checker namespace simply never fetches. Give every node in a
// fleet the same secret file, and treat the secret as the thing that makes
// a peer's checker results as trustworthy as your own disk.
//
// SIGINT/SIGTERM starts a graceful drain: in-flight requests finish (up to
// -drain), new ones are answered 503, then the process exits 0.
//
// Failure containment (see DESIGN.md): request bodies over -max-body are
// answered 413; prover searches past the -max-terms/-max-clauses/-max-insts
// budgets yield transient "resource budget exceeded" Unknowns that are
// retried, never cached, and counted against a per-qualifier circuit
// breaker; requests arriving while the live heap exceeds -mem-limit are
// shed 503 with Retry-After. The -faults flag (or the QUAL_FAULTS
// environment variable) arms deterministic fault-injection points for chaos
// drills — see internal/faults for the spec grammar.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
)

func main() {
	os.Exit(run())
}

// splitPeers parses the -cache-peers list, tolerating empty segments and
// stray whitespace so "a, b," means ["a", "b"].
func splitPeers(v string) []string {
	var peers []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	return peers
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	workers := flag.Int("workers", 0, "worker pool size (default: all cores)")
	queue := flag.Int("queue", 0, "admission queue capacity (default: 2*workers)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	funcCache := flag.Int("func-cache", 0, "function result cache capacity (default 8192)")
	proverCache := flag.Int("prover-cache", 0, "prover outcome cache capacity (default 4096)")
	maxBody := flag.Int64("max-body", 0, "request body size cap in bytes; larger bodies get 413 (default 8 MiB)")
	memLimit := flag.Uint64("mem-limit", 0, "live-heap high-water mark in bytes; requests shed 503 above it (0 = off)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive infrastructure failures before a qualifier's breaker opens (default 3; negative = off)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (default 5s)")
	retry := flag.Int("retry", 0, "transient-Unknown retries per obligation with jittered backoff (default 1; negative = off)")
	retryBackoff := flag.Duration("retry-backoff", 0, "base backoff between transient retries (default 5ms)")
	maxTerms := flag.Int("max-terms", 0, "per-goal interned-term budget; trips become transient Unknowns (0 = unlimited)")
	maxClauses := flag.Int("max-clauses", 0, "per-goal clause-database budget (0 = unlimited)")
	maxInsts := flag.Int("max-insts", 0, "per-goal quantifier-instantiation budget (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persist both warm caches under this directory (crash-safe, checksummed records; restarts start warm)")
	cacheBudget := flag.Int64("cache-budget", 0, "per-namespace disk cache size in bytes before LRU eviction (0 = default 256 MiB)")
	cachePeers := flag.String("cache-peers", "", "comma-separated base URLs of peer qualserve nodes to fetch cache records from on a local miss (every fetched record is re-verified before use)")
	cacheSecretFile := flag.String("cache-secret-file", "", "file holding the shared fleet secret that authenticates peer cache records (required for checker-result peer fetch; prover fetch works without it via certificate replay)")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-attempt timeout for one peer cache fetch (default 2s)")
	peerRetries := flag.Int("peer-retries", 0, "extra fetch attempts per peer after the first (default 1; negative = off)")
	certs := flag.Bool("cert", false, "emit and replay-verify a proof certificate for every Valid prover verdict (surfaced per obligation and in /metrics)")
	faultSpec := flag.String("faults", "", "arm fault-injection points, e.g. 'simplify.prove.round=budget:every=100' (also QUAL_FAULTS)")
	flag.Parse()

	spec := *faultSpec
	if spec == "" {
		spec = os.Getenv("QUAL_FAULTS")
	}
	if err := faults.Arm(spec); err != nil {
		fmt.Fprintln(os.Stderr, "qualserve:", err)
		return 2
	}
	if faults.Armed() {
		fmt.Fprintf(os.Stderr, "qualserve: FAULT INJECTION ARMED (%s) — this process serves degraded answers by design\n", spec)
	}

	var cacheSecret []byte
	if *cacheSecretFile != "" {
		raw, err := os.ReadFile(*cacheSecretFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qualserve: -cache-secret-file:", err)
			return 2
		}
		cacheSecret = []byte(strings.TrimSpace(string(raw)))
		if len(cacheSecret) == 0 {
			fmt.Fprintf(os.Stderr, "qualserve: -cache-secret-file %s is empty\n", *cacheSecretFile)
			return 2
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	srv := server.New(server.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		RequestTimeout:     *timeout,
		DrainTimeout:       *drain,
		FuncCacheSize:      *funcCache,
		ProverCacheSize:    *proverCache,
		MaxBodyBytes:       *maxBody,
		MemoryHighWater:    *memLimit,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		RetryTransient:     *retry,
		RetryBackoff:       *retryBackoff,
		ProverMaxTerms:     *maxTerms,
		ProverMaxClauses:   *maxClauses,
		ProverMaxInstances: *maxInsts,
		EmitCertificates:   *certs,
		CacheDir:           *cacheDir,
		CacheBudget:        *cacheBudget,
		CachePeers:         splitPeers(*cachePeers),
		CacheSecret:        cacheSecret,
		PeerTimeout:        *peerTimeout,
		PeerRetries:        *peerRetries,
	})
	err := srv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		// The announce line is machine-readable: the smoke test (and any
		// supervisor binding port 0) parses the bound address from it.
		fmt.Printf("qualserve listening on %s\n", a)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qualserve:", err)
		return 1
	}
	fmt.Println("qualserve: drained, bye")
	return 0
}
