package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/cachedisk"
	"repro/internal/faults"
)

// fpPeerFetch injects faults into every peer fetch attempt (see
// internal/faults): an armed error is a transport failure charged to that
// peer's breaker, and an armed delay models a slow peer.
var fpPeerFetch = faults.Register("peer.fetch")

const (
	// defaultPeerTimeout bounds one fetch attempt against one peer; a warm
	// cache read is sub-millisecond, so anything slower is a sick peer.
	defaultPeerTimeout = 2 * time.Second
	// maxPeerRecordBytes caps a fetched record body: a peer streaming
	// garbage forever must not pin memory. Far above any real record.
	maxPeerRecordBytes = 8 << 20
	// A peer's breaker opens after peerBreakerThreshold consecutive failed
	// attempts and admits a probe peerBreakerCooldown later.
	peerBreakerThreshold = 3
	peerBreakerCooldown  = 10 * time.Second
)

// peerClient fetches sealed prover records from `-cache-peers` nodes. It
// returns raw sealed bytes and checks nothing itself: the prover cache
// (internal/tiercache under simplify.Cache) unseals and decodes every record
// and admits only a Valid whose certificate replays locally, so the client's
// jobs are transport, the per-peer timeout, and the per-peer breaker. It
// makes one attempt per peer: waiting out a backoff for a second attempt
// would cost more than proving the goal locally.
type peerClient struct {
	peers   []string
	timeout time.Duration
	client  *http.Client
	breaker *breaker.Breaker

	fetches atomic.Uint64 // fetch calls (local-miss lookups that went remote)
	hits    atomic.Uint64 // records returned (pre-verification)
	misses  atomic.Uint64 // fetches every peer missed or failed
	errors  atomic.Uint64 // failed attempts (transport, 5xx, fault)
	skipped atomic.Uint64 // per-peer skips because the peer's breaker was open
}

func newPeerClient(peers []string, timeout time.Duration) *peerClient {
	if timeout <= 0 {
		timeout = defaultPeerTimeout
	}
	return &peerClient{
		peers:   peers,
		timeout: timeout,
		client:  &http.Client{},
		breaker: breaker.New(peerBreakerThreshold, peerBreakerCooldown),
	}
}

// fetch tries each peer in order for the sealed prover record of key,
// returning ok=false when every peer misses or fails. A 404 is a clean miss
// (a healthy peer without the record); a transport error or any other
// non-200 status is charged to that peer's breaker. Either way the fetch
// moves on to the next peer. The returned bytes are unverified — the
// caller's cache layer must Unseal and semantically check them.
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
		rec, miss, err := p.attempt(fmt.Sprintf("%s/cache/prover/%s", peer, hash))
		if err != nil {
			p.errors.Add(1)
			p.breaker.Record(peer, false)
			continue
		}
		p.breaker.Record(peer, true) // a clean miss is a healthy peer
		if !miss {
			p.hits.Add(1)
			return rec, true
		}
	}
	p.misses.Add(1)
	return nil, false
}

// attempt is one HTTP GET under the per-attempt timeout. err != nil is a
// failed attempt (transport failure, unexpected status, injected fault); a
// 404 returns (nil, true, nil).
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
	Peers   []string         `json:"peers"`
	Fetches uint64           `json:"fetches"`
	Hits    uint64           `json:"hits"`
	Misses  uint64           `json:"misses"`
	Errors  uint64           `json:"errors"`
	Skipped uint64           `json:"skipped"`
	Breaker breaker.Snapshot `json:"breaker"`
}

func (p *peerClient) snapshot() PeerSnapshot {
	return PeerSnapshot{
		Peers:   p.peers,
		Fetches: p.fetches.Load(),
		Hits:    p.hits.Load(),
		Misses:  p.misses.Load(),
		Errors:  p.errors.Load(),
		Skipped: p.skipped.Load(),
		Breaker: p.breaker.Snapshot(),
	}
}

// ---- GET /cache/prover/{hash} ----

// handleCacheGet serves a sealed prover record to a peer. It reads straight
// from the disk store without taking a request slot (the read is microseconds)
// and only serves records that pass the store's own verification (a corrupt
// record is evicted server-side and answered 404, never propagated).
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.respond(w, http.StatusServiceUnavailable, unavailable("server is draining", false, s.cfg.drainTimeout()))
		return
	}
	rec, ok := s.diskProver.GetSealedByHash(r.PathValue("hash"))
	if !ok {
		s.respond(w, http.StatusNotFound, errorBody{Error: "no such record"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(rec)))
	_, _ = w.Write(rec)
}
