// Command qualserve runs the qualifier checking service: an HTTP+JSON API
// over the extensible typechecker and the soundness prover, built for
// long-lived concurrent serving with content-addressed incremental
// re-checking.
//
// Usage:
//
//	qualserve [-addr :8080] [-workers N] [-timeout 30s] [-drain 10s]
//	          [-func-cache N] [-prover-cache N] [-max-body N] [-mem-limit N]
//	          [-max-insts N] [-cache-dir dir] [-cache-budget N]
//	          [-cert [-cache-peers url,url [-peer-timeout 2s]]] [-faults spec]
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
//	GET  /cache/prover/{hash} — serve a sealed prover record to a peer node
//	                    (with -cache-dir; see -cache-peers)
//
// With -cache-dir, both warm caches persist across restarts as checksummed
// crash-safe records; corrupt or torn records are evicted and re-proved,
// never trusted. With -cache-peers (which requires -cert), a prover cache
// miss consults the listed nodes before proving. A fetched outcome is
// admitted only as a Valid whose proof certificate replays locally, so a
// lying peer (or an on-path attacker on these plain HTTP fetches) costs a
// re-prove, never a changed verdict. Checker results are never fetched from
// peers: they carry no proof to replay.
//
// SIGINT/SIGTERM starts a graceful drain: in-flight requests finish (up to
// -drain), new ones are answered 503, then the process exits 0.
//
// Failure containment (see DESIGN.md): request bodies over -max-body are
// answered 413; every prover search is bounded by its step budgets and a
// per-goal deadline, and one that uses up -max-insts yields a transient
// "resource budget exceeded" Unknown that is answered once (the search is
// deterministic, so a rerun would trip again), never cached, and counted
// against a per-qualifier circuit breaker (three consecutive failures open
// it for 5s); requests arriving while the live heap exceeds -mem-limit are
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
	workers := flag.Int("workers", 0, "request bodies run at once; twice as many more may wait, the rest are shed (default: all cores)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	funcCache := flag.Int("func-cache", 0, "function result cache capacity (default 8192)")
	proverCache := flag.Int("prover-cache", 0, "prover outcome cache capacity (default 4096)")
	maxBody := flag.Int64("max-body", 0, "request body size cap in bytes; larger bodies get 413 (default 8 MiB)")
	memLimit := flag.Uint64("mem-limit", 0, "live-heap high-water mark in bytes; requests shed 503 above it (0 = off)")
	maxInsts := flag.Int("max-insts", 0, "per-goal quantifier-instantiation budget; trips become transient Unknowns (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persist both warm caches under this directory (crash-safe, checksummed records; restarts start warm)")
	cacheBudget := flag.Int64("cache-budget", 0, "per-namespace disk cache size in bytes before LRU eviction (0 = default 256 MiB)")
	cachePeers := flag.String("cache-peers", "", "comma-separated base URLs of peer qualserve nodes to fetch prover records from on a local miss (requires -cert; a record is admitted only as a Valid whose certificate replays)")
	peerTimeout := flag.Duration("peer-timeout", 0, "timeout for the one fetch attempt made against each peer (default 2s)")
	certs := flag.Bool("cert", false, "emit and replay-verify a proof certificate for every Valid prover verdict (surfaced per obligation and in /metrics)")
	faultSpec := flag.String("faults", "", "arm fault-injection points, e.g. 'simplify.prove.round=budget:every=100' (also QUAL_FAULTS)")
	flag.Parse()

	peers := splitPeers(*cachePeers)
	if len(peers) > 0 && !*certs {
		// Without certificates there is nothing a peer could send that
		// replays, so the peer tier could only cost round trips.
		fmt.Fprintln(os.Stderr, "qualserve: -cache-peers requires -cert (peer prover records are admitted only when their certificates replay)")
		return 2
	}

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

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	srv := server.New(server.Config{
		Workers:            *workers,
		RequestTimeout:     *timeout,
		DrainTimeout:       *drain,
		FuncCacheSize:      *funcCache,
		ProverCacheSize:    *proverCache,
		MaxBodyBytes:       *maxBody,
		MemoryHighWater:    *memLimit,
		ProverMaxInstances: *maxInsts,
		EmitCertificates:   *certs,
		CacheDir:           *cacheDir,
		CacheBudget:        *cacheBudget,
		CachePeers:         peers,
		PeerTimeout:        *peerTimeout,
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
