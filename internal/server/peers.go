package server

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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

	// peerAuthHeader carries the fleet-secret HMAC of a served record. The
	// record's own seal is a plain FNV checksum any writer can recompute —
	// it detects corruption, not tampering — so function-cache entries
	// (whose content seal has the same property) are only trustworthy from
	// a peer that proves membership in the fleet by knowing the shared
	// secret. Prover records carry their own teeth (certificate replay) and
	// get the MAC as defense in depth.
	peerAuthHeader = "X-Qual-Cache-Auth"
)

// errPeerAuth marks a fetched record whose fleet-secret MAC was missing or
// wrong: a liar stays a liar, so the attempt is not retried — the failure is
// counted, charged to the peer's breaker, and the lookup falls through to
// local computation.
var errPeerAuth = errors.New("peer record failed fleet-secret authentication")

// peerAuthTag computes the hex HMAC-SHA256 of a sealed record under the
// fleet secret — what handleCacheGet attaches and attempt verifies.
func peerAuthTag(secret, record []byte) string {
	m := hmac.New(sha256.New, secret)
	m.Write(record)
	return hex.EncodeToString(m.Sum(nil))
}

// peerClient fetches sealed cache records from `-cache-peers` nodes. It
// performs exactly one check of its own — the transport-level fleet MAC,
// when a secret is configured — and otherwise returns raw sealed bytes: the
// tiered cache under both caches (internal/tiercache) unseals, decodes and
// verifies every record through the cache's codec and admit gate before
// admitting anything, so the client's remaining jobs are transport,
// per-peer timeout, jittered exponential retry, and the per-peer breaker.
type peerClient struct {
	peers   []string
	timeout time.Duration
	retries int
	secret  []byte // fleet secret; empty means unauthenticated transport
	client  *http.Client
	breaker *breaker
	sleep   func(time.Duration) // injectable for tests

	fetches     atomic.Uint64 // fetch calls (local-miss lookups that went remote)
	hits        atomic.Uint64 // records returned (pre-verification)
	misses      atomic.Uint64 // fetches every peer missed or failed
	errors      atomic.Uint64 // failed attempts (transport, 5xx, fault)
	skipped     atomic.Uint64 // per-peer skips because the peer's breaker was open
	authRejects atomic.Uint64 // records refused for a missing or wrong fleet MAC
}

func newPeerClient(peers []string, timeout time.Duration, retries int, secret []byte) *peerClient {
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
		secret:  secret,
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

// fetch tries each peer in order for the sealed record of key in namespace
// ns, returning ok=false when every peer misses or fails. A 404 is a clean
// miss (healthy peer, no record — next peer, no retry); transport errors and
// non-200/404 statuses are retried with backoff, then charged to the peer's
// breaker. The returned bytes are unverified — the caller's cache layer must
// Unseal and semantically check them.
func (p *peerClient) fetch(ns, key string) ([]byte, bool) {
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
		rec, miss := p.fetchPeer(peer, ns, hash, key)
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
// retries on errors. An authentication failure is terminal for the peer: a
// record that fails the fleet MAC will fail it again byte-for-byte, so it is
// counted and charged without burning retries.
func (p *peerClient) fetchPeer(peer, ns, hash, key string) ([]byte, bool) {
	url := fmt.Sprintf("%s/cache/%s/%s", peer, ns, hash)
	for attempt := 0; ; attempt++ {
		rec, miss, err := p.attempt(url)
		if err == nil {
			return rec, miss
		}
		p.errors.Add(1)
		if errors.Is(err, errPeerAuth) {
			p.authRejects.Add(1)
			return nil, false
		}
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
		if len(p.secret) > 0 {
			want := peerAuthTag(p.secret, data)
			if got := resp.Header.Get(peerAuthHeader); !hmac.Equal([]byte(got), []byte(want)) {
				return nil, false, errPeerAuth
			}
		}
		return data, false, nil
	case http.StatusNotFound:
		return nil, true, nil
	default:
		return nil, false, fmt.Errorf("peer status %d", resp.StatusCode)
	}
}

// PeerSnapshot is the peer-fetch section of GET /metrics. Hits count records
// returned by peers before verification; the cache sections' peer_rejects
// say how many of those verification refused. Authenticated reports whether
// a fleet secret is configured (without one, function-cache peer fetch is
// disabled entirely — see Config.CacheSecret); AuthRejects counts records
// refused for a missing or wrong fleet MAC.
type PeerSnapshot struct {
	Peers         []string        `json:"peers"`
	Authenticated bool            `json:"authenticated"`
	Fetches       uint64          `json:"fetches"`
	Hits          uint64          `json:"hits"`
	Misses        uint64          `json:"misses"`
	Errors        uint64          `json:"errors"`
	AuthRejects   uint64          `json:"auth_rejects,omitempty"`
	Skipped       uint64          `json:"skipped"`
	Breaker       BreakerSnapshot `json:"breaker"`
}

func (p *peerClient) snapshot() PeerSnapshot {
	return PeerSnapshot{
		Peers:         p.peers,
		Authenticated: len(p.secret) > 0,
		Fetches:       p.fetches.Load(),
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Errors:        p.errors.Load(),
		AuthRejects:   p.authRejects.Load(),
		Skipped:       p.skipped.Load(),
		Breaker:       p.breaker.snapshot(),
	}
}

// ---- GET /cache/{ns}/{hash} ----

// handleCacheGet serves a sealed record to a peer. It reads straight from
// the disk store — no worker-pool round trip, the read is microseconds — and
// only serves records that pass the store's own verification (a corrupt
// record is evicted server-side and answered 404, never propagated).
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		setRetryAfter(w, s.cfg.drainTimeout())
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining"})
		return
	}
	var store *cachedisk.Store
	switch r.PathValue("ns") {
	case "func":
		store = s.diskFunc
	case "prover":
		store = s.diskProver
	default:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown cache namespace"})
		return
	}
	rec, ok := store.GetSealedByHash(r.PathValue("hash"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such record"})
		return
	}
	if len(s.cfg.CacheSecret) > 0 {
		// Prove fleet membership: the requester rejects the record without
		// a matching MAC, and an on-path observer cannot mint one.
		w.Header().Set(peerAuthHeader, peerAuthTag(s.cfg.CacheSecret, rec))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(rec)))
	_, _ = w.Write(rec)
}
