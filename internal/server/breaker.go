package server

import (
	"sync"
	"time"
)

// Breaker sizes: consecutive failures before an entry opens, and how long it
// stays open before a half-open probe.
const (
	proveBreakerThreshold = 3
	proveBreakerCooldown  = 5 * time.Second
	peerBreakerThreshold  = 3
	peerBreakerCooldown   = 10 * time.Second
)

// maxBreakerEntries caps a breaker's map. A key has an entry only while it
// has a failure streak or is open or half-open, and the /prove breaker's
// keys come from request-supplied registries, so without a cap a client
// that can make proves fail could grow the map without limit. At the cap, a
// new key evicts the least recently used entry.
const maxBreakerEntries = 1024

// breakerState is one qualifier's position in the closed -> open ->
// half-open cycle.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (st breakerState) String() string {
	switch st {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a keyed circuit breaker. Guarding /prove, its key is one
// qualifier of one registry (proveBreakerKey): a qualifier whose obligations
// keep failing for infrastructure reasons — tripped resource budgets,
// recovered prover panics, injected faults — is cut off after `threshold`
// consecutive failures: the breaker opens and the server answers for that
// qualifier immediately with a degraded report and a Retry-After hint
// instead of burning a slot on a discharge that will fail again. After
// `cooldown` the breaker goes half-open and admits a single probe; a clean
// probe closes it, a failed one re-opens it. A closed key with no failure
// streak has no entry. The peer client keys a second breaker by peer URL.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu          sync.Mutex
	entries     map[string]*breakerEntry
	transitions uint64
	uses        uint64 // ticks on every Allow or Record that touches an entry
}

type breakerEntry struct {
	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	probeAt  time.Time // when the probe was admitted
	lastUse  uint64    // the breaker's uses count at this key's last Allow or Record
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		entries:   map[string]*breakerEntry{},
	}
}

// Allow reports whether a request for key may proceed. An open breaker
// refuses until the cooldown elapses, then admits a single half-open probe;
// requests arriving while that probe is in flight are refused. A probe
// whose outcome never gets recorded (its request was shed while queued)
// stops blocking after another cooldown, so a lost Record cannot wedge the
// breaker open forever.
func (b *breaker) Allow(key string) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil {
		return true, 0
	}
	b.uses++
	e.lastUse = b.uses
	switch e.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if remaining := b.cooldown - b.now().Sub(e.openedAt); remaining > 0 {
			return false, remaining
		}
		e.state = breakerHalfOpen
		e.probing = true
		e.probeAt = b.now()
		b.transitions++
		return true, 0
	default: // half-open
		if e.probing && b.now().Sub(e.probeAt) < b.cooldown {
			return false, b.cooldown - b.now().Sub(e.probeAt)
		}
		e.probing = true
		e.probeAt = b.now()
		return true, 0
	}
}

// Record reports the outcome of an admitted request: ok=false is a
// breaker-relevant failure (a budget trip, recovered panic, or injected
// fault — not an unsound-qualifier verdict, which is a correct answer). A
// success that leaves the key closed deletes its entry.
func (b *breaker) Record(key string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil {
		if ok {
			return
		}
		if len(b.entries) >= maxBreakerEntries {
			b.evictLeastRecentlyUsed()
		}
		e = &breakerEntry{}
		b.entries[key] = e
	}
	b.uses++
	e.lastUse = b.uses
	switch e.state {
	case breakerHalfOpen:
		b.transitions++
		if ok {
			delete(b.entries, key)
			return
		}
		e.probing = false
		e.state = breakerOpen
		e.openedAt = b.now()
	case breakerClosed:
		if ok {
			delete(b.entries, key)
			return
		}
		e.failures++
		if e.failures >= b.threshold {
			e.state = breakerOpen
			e.openedAt = b.now()
			b.transitions++
		}
	case breakerOpen:
		// A late result from a request admitted before the trip; the probe
		// cycle decides reopening, so ignore it.
	}
}

// evictLeastRecentlyUsed deletes the entry whose last Allow or Record is
// oldest. A linear scan: it runs only when a new key fails at the cap.
func (b *breaker) evictLeastRecentlyUsed() {
	var oldest *breakerEntry
	var oldestKey string
	for key, e := range b.entries {
		if oldest == nil || e.lastUse < oldest.lastUse {
			oldest, oldestKey = e, key
		}
	}
	delete(b.entries, oldestKey)
}

// BreakerEntrySnapshot is one key's exported breaker view.
type BreakerEntrySnapshot struct {
	State            string `json:"state"`
	Failures         int    `json:"consecutive_failures"`
	RetryAfterMillis int64  `json:"retry_after_ms,omitempty"`
}

// BreakerSnapshot is the exported breaker view rendered under /metrics.
// Qualifiers maps each breaker key (qualifier@registry-fingerprint for
// /prove, the peer URL for peer fetch) to its state; a key in the quiescent
// closed state with no failure streak has no entry, so it is absent.
type BreakerSnapshot struct {
	Transitions uint64                          `json:"transitions"`
	Qualifiers  map[string]BreakerEntrySnapshot `json:"qualifiers,omitempty"`
}

func (b *breaker) snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := BreakerSnapshot{Transitions: b.transitions}
	for key, e := range b.entries {
		es := BreakerEntrySnapshot{State: e.state.String(), Failures: e.failures}
		if e.state == breakerOpen {
			if remaining := b.cooldown - b.now().Sub(e.openedAt); remaining > 0 {
				es.RetryAfterMillis = remaining.Milliseconds()
			}
		}
		if out.Qualifiers == nil {
			out.Qualifiers = map[string]BreakerEntrySnapshot{}
		}
		out.Qualifiers[key] = es
	}
	return out
}
