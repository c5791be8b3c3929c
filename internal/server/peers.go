package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cachedisk"
	"repro/internal/faults"
)

// fpPeerFetch injects faults into every peer fetch attempt (see
// internal/faults): an armed error is a transport failure — retried, then
// charged to that peer's breaker — and an armed delay models a slow peer.
var fpPeerFetch = faults.Register("peer.fetch")

const (
	// defaultPeerTimeout bounds one fetch attempt against one peer; a warm
	// cache read is sub-millisecond, so anything slower is a sick peer.
	defaultPeerTimeout = 2 * time.Second
	// defaultPeerRetries is the extra attempts per peer after the first.
	defaultPeerRetries = 1
	// peerBackoffBase is the base of the jittered exponential backoff
	// between retry attempts against one peer.
	peerBackoffBase = 25 * time.Millisecond
	// maxPeerRecordBytes caps a fetched record body: a peer streaming
	// garbage forever must not pin memory. Far above any real record.
	maxPeerRecordBytes = 8 << 20
	// peerBreakerThreshold / peerBreakerCooldown size the per-peer circuit
	// breaker: after this many consecutive fetch failures a peer is skipped
	// until the cooldown admits a half-open probe.
	peerBreakerThreshold = 3
	peerBreakerCooldown  = 10 * time.Second
)

// peerClient fetches sealed prover records from `-cache-peers` nodes. It
// returns raw sealed bytes and checks nothing itself: the prover cache
// (internal/tiercache under simplify.Cache) unseals and decodes every record
// and admits only a Valid whose certificate replays locally, so the client's
// jobs are transport, per-peer timeout, jittered exponential retry, and the
// per-peer breaker.
type peerClient struct {
	peers   []string
	timeout time.Duration
	retries int
	client  *http.Client
	breaker *breaker
	sleep   func(time.Duration) // injectable for tests

	fetches atomic.Uint64 // fetch calls (local-miss lookups that went remote)
	hits    atomic.Uint64 // records returned (pre-verification)
	misses  atomic.Uint64 // fetches every peer missed or failed
	errors  atomic.Uint64 // failed attempts (transport, 5xx, fault)
	skipped atomic.Uint64 // per-peer skips because the peer's breaker was open
}

func newPeerClient(peers []string, timeout time.Duration, retries int) *peerClient {
	if timeout <= 0 {
		timeout = defaultPeerTimeout
	}
	if retries < 0 {
		retries = 0
	}
	return &peerClient{
		peers:   peers,
		timeout: timeout,
		retries: retries,
		client:  &http.Client{},
		breaker: newBreaker(peerBreakerThreshold, peerBreakerCooldown),
		sleep:   time.Sleep,
	}
}

// backoff returns the deterministically-jittered exponential delay before
// retry attempt `attempt` (1-based) for key on peer. Determinism (fnv over
// peer|key|attempt, the soundness retry idiom) keeps chaos runs replayable
// while still decorrelating a fleet hammering one warm peer.
func (p *peerClient) backoff(peer, key string, attempt int) time.Duration {
	base := peerBackoffBase << (attempt - 1)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", peer, key, attempt)
	// Jitter in [base/2, base): full backoff ladders, half-range jitter.
	return base/2 + time.Duration(h.Sum64()%uint64(base/2+1))
}

// fetch tries each peer in order for the sealed prover record of key,
// returning ok=false when every peer misses or fails. A 404 is a clean
// miss (healthy peer, no record — next peer, no retry); transport errors and
// non-200/404 statuses are retried with backoff, then charged to the peer's
// breaker. The returned bytes are unverified — the caller's cache layer must
// Unseal and semantically check them.
func (p *peerClient) fetch(key string) ([]byte, bool) {
	if p == nil || len(p.peers) == 0 {
		return nil, false
	}
	p.fetches.Add(1)
	hash := cachedisk.KeyHash(key)
	for _, peer := range p.peers {
		if ok, _ := p.breaker.Allow(peer); !ok {
			p.skipped.Add(1)
			continue
		}
		rec, miss := p.fetchPeer(peer, hash, key)
		if rec != nil {
			p.breaker.Record(peer, true)
			p.hits.Add(1)
			return rec, true
		}
		p.breaker.Record(peer, miss) // a clean miss is a healthy peer
	}
	p.misses.Add(1)
	return nil, false
}

// fetchPeer runs the retry loop against one peer. It returns (record, _) on
// a 200, (nil, true) on a clean 404 miss, and (nil, false) after exhausting
// retries on errors.
func (p *peerClient) fetchPeer(peer, hash, key string) ([]byte, bool) {
	url := fmt.Sprintf("%s/cache/prover/%s", peer, hash)
	for attempt := 0; ; attempt++ {
		rec, miss, err := p.attempt(url)
		if err == nil {
			return rec, miss
		}
		p.errors.Add(1)
		if attempt >= p.retries {
			return nil, false
		}
		p.sleep(p.backoff(peer, key, attempt+1))
	}
}

// attempt is one HTTP GET under the per-attempt timeout. err != nil means
// retryable (transport failure, unexpected status, injected fault); a 404
// returns (nil, true, nil).
func (p *peerClient) attempt(url string) (rec []byte, miss bool, err error) {
	if ferr := fpPeerFetch.FireErr(); ferr != nil {
		return nil, false, ferr
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerRecordBytes+1))
		if err != nil {
			return nil, false, err
		}
		if len(data) > maxPeerRecordBytes {
			return nil, false, fmt.Errorf("peer record exceeds %d bytes", maxPeerRecordBytes)
		}
		return data, false, nil
	case http.StatusNotFound:
		return nil, true, nil
	default:
		return nil, false, fmt.Errorf("peer status %d", resp.StatusCode)
	}
}

// PeerSnapshot is the peer-fetch section of GET /metrics. Hits count records
// returned by peers before verification; prover_cache.peer_rejects says how
// many of those verification refused.
type PeerSnapshot struct {
	Peers   []string        `json:"peers"`
	Fetches uint64          `json:"fetches"`
	Hits    uint64          `json:"hits"`
	Misses  uint64          `json:"misses"`
	Errors  uint64          `json:"errors"`
	Skipped uint64          `json:"skipped"`
	Breaker BreakerSnapshot `json:"breaker"`
}

func (p *peerClient) snapshot() PeerSnapshot {
	return PeerSnapshot{
		Peers:   p.peers,
		Fetches: p.fetches.Load(),
		Hits:    p.hits.Load(),
		Misses:  p.misses.Load(),
		Errors:  p.errors.Load(),
		Skipped: p.skipped.Load(),
		Breaker: p.breaker.snapshot(),
	}
}

// ---- GET /cache/prover/{hash} ----

// handleCacheGet serves a sealed prover record to a peer. It reads straight
// from the disk store — no worker-pool round trip, the read is microseconds —
// and only serves records that pass the store's own verification (a corrupt
// record is evicted server-side and answered 404, never propagated).
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		setRetryAfter(w, s.cfg.drainTimeout())
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining"})
		return
	}
	rec, ok := s.diskProver.GetSealedByHash(r.PathValue("hash"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such record"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(rec)))
	_, _ = w.Write(rec)
}
