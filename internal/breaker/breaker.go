// Package breaker is the one keyed circuit breaker. Three callers key it
// their own way: /prove by qualifier and registry, the peer client by peer
// URL, and each cachedisk store by a single key for its disk I/O. A key that
// keeps failing is cut off after `threshold` consecutive failures: the
// breaker opens and the caller answers at once (a degraded report, a skipped
// peer, a memory-only miss) instead of spending work on a call that will
// fail again. After `cooldown` the breaker goes half-open and admits a single
// probe; a clean probe closes it, a failed one re-opens it. A closed key with
// no failure streak has no entry.
package breaker

import (
	"sync"
	"time"
)

// maxEntries caps a breaker's map. A key has an entry only while it has a
// failure streak or is open or half-open, and the /prove breaker's keys come
// from request-supplied registries, so without a cap a client that can make
// proves fail could grow the map without limit. At the cap, a new key evicts
// the least recently used entry.
const maxEntries = 1024

// state is one key's position in the closed -> open -> half-open cycle.
type state int

const (
	closed state = iota
	open
	halfOpen
)

func (st state) String() string {
	switch st {
	case open:
		return "open"
	case halfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a keyed circuit breaker, safe for concurrent use. Create with
// New.
type Breaker struct {
	// Now is the breaker's clock. New sets it to time.Now; tests replace it,
	// before the breaker is shared, to step through cooldowns.
	Now func() time.Time

	threshold int
	cooldown  time.Duration

	mu          sync.Mutex
	entries     map[string]*entry
	transitions uint64
	uses        uint64 // ticks on every Allow or Record that touches an entry
}

type entry struct {
	state    state
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	probeAt  time.Time // when the probe was admitted
	lastUse  uint64    // the breaker's uses count at this key's last Allow or Record
}

// New returns a breaker that opens a key after threshold consecutive
// failures and admits a probe cooldown after it opened.
func New(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{
		Now:       time.Now,
		threshold: threshold,
		cooldown:  cooldown,
		entries:   map[string]*entry{},
	}
}

// Allow reports whether a request for key may proceed. An open breaker
// refuses until the cooldown elapses, then admits a single half-open probe;
// requests arriving while that probe is in flight are refused. A probe
// whose outcome never gets recorded (its request was shed while queued)
// stops blocking after another cooldown, so a lost Record cannot wedge the
// breaker open forever.
func (b *Breaker) Allow(key string) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil {
		return true, 0
	}
	b.uses++
	e.lastUse = b.uses
	switch e.state {
	case closed:
		return true, 0
	case open:
		if remaining := b.cooldown - b.Now().Sub(e.openedAt); remaining > 0 {
			return false, remaining
		}
		e.state = halfOpen
		e.probing = true
		e.probeAt = b.Now()
		b.transitions++
		return true, 0
	default: // half-open
		if e.probing && b.Now().Sub(e.probeAt) < b.cooldown {
			return false, b.cooldown - b.Now().Sub(e.probeAt)
		}
		e.probing = true
		e.probeAt = b.Now()
		return true, 0
	}
}

// Record reports the outcome of an admitted request: ok=false is a failure
// the caller charges to key (for /prove a budget trip, recovered panic, or
// injected fault — not an unsound-qualifier verdict, which is a correct
// answer). A success that leaves the key closed deletes its entry.
func (b *Breaker) Record(key string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil {
		if ok {
			return
		}
		if len(b.entries) >= maxEntries {
			b.evictLeastRecentlyUsed()
		}
		e = &entry{}
		b.entries[key] = e
	}
	b.uses++
	e.lastUse = b.uses
	switch e.state {
	case halfOpen:
		b.transitions++
		if ok {
			delete(b.entries, key)
			return
		}
		e.probing = false
		e.state = open
		e.openedAt = b.Now()
	case closed:
		if ok {
			delete(b.entries, key)
			return
		}
		e.failures++
		if e.failures >= b.threshold {
			e.state = open
			e.openedAt = b.Now()
			b.transitions++
		}
	case open:
		// A late result from a request admitted before the trip; the probe
		// cycle decides reopening, so ignore it.
	}
}

// Tripped reports whether key is open or half-open: refusing requests, or
// waiting on a probe's outcome.
func (b *Breaker) Tripped(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	return e != nil && e.state != closed
}

// evictLeastRecentlyUsed deletes the entry whose last Allow or Record is
// oldest. A linear scan: it runs only when a new key fails at the cap.
func (b *Breaker) evictLeastRecentlyUsed() {
	var oldest *entry
	var oldestKey string
	for key, e := range b.entries {
		if oldest == nil || e.lastUse < oldest.lastUse {
			oldest, oldestKey = e, key
		}
	}
	delete(b.entries, oldestKey)
}

// EntrySnapshot is one key's exported breaker view.
type EntrySnapshot struct {
	State            string `json:"state"`
	Failures         int    `json:"consecutive_failures"`
	RetryAfterMillis int64  `json:"retry_after_ms,omitempty"`
}

// Snapshot is the exported breaker view rendered under qualserve's
// /metrics. Qualifiers maps each breaker key (qualifier@registry-fingerprint
// for /prove, the peer URL for peer fetch) to its state; a key in the
// quiescent closed state with no failure streak has no entry, so it is
// absent.
type Snapshot struct {
	Transitions uint64                   `json:"transitions"`
	Qualifiers  map[string]EntrySnapshot `json:"qualifiers,omitempty"`
}

// Snapshot renders every key's state.
func (b *Breaker) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := Snapshot{Transitions: b.transitions}
	for key, e := range b.entries {
		es := EntrySnapshot{State: e.state.String(), Failures: e.failures}
		if e.state == open {
			if remaining := b.cooldown - b.Now().Sub(e.openedAt); remaining > 0 {
				es.RetryAfterMillis = remaining.Milliseconds()
			}
		}
		if out.Qualifiers == nil {
			out.Qualifiers = map[string]EntrySnapshot{}
		}
		out.Qualifiers[key] = es
	}
	return out
}
