// Package tiercache is the tiered memoizing cache under both warm caches:
// the checker's per-function results in memory (checker.FuncCache, whose
// disk tier keeps per-file records of its own) and the prover's per-goal
// outcomes (simplify.Cache). A Cache owns the memory LRU,
// singleflight coalescing of concurrent fills, disk write-through, the
// disk-then-peer probe on a memory miss, eviction of refused entries at
// their source, and the counters. Each user supplies its key derivation, a
// Codec for the persisted payload (laid out with internal/wire, inside
// cachedisk's record framing), and per lookup an admit gate and a fill.
//
// Trust checks plug in at two places: Codec.Decode runs on every disk and
// peer payload, and admit runs on a value from any tier, told which tier
// served it, before that tier counts or promotes the value. Whatever a tier
// must prove beyond decoding, a peer's evidence included, is admit's rule.
package tiercache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/cachedisk"
)

// Stats is a snapshot of a cache's counters. Every Do call counts exactly
// one of Hits, Misses and Coalesced, by the Source it returns.
type Stats struct {
	// Hits counts lookups served from any tier; Misses counts lookups whose
	// value the caller's own fill computed.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Rejected counts memory entries and disk records refused by admit or by
	// the decoder; each is evicted from every tier that held it.
	Rejected uint64 `json:"rejected"`
	// Coalesced counts lookups that joined another caller's in-progress fill
	// of the same key: of N concurrent identical lookups, one is a Miss and
	// N-1 are Coalesced.
	Coalesced uint64 `json:"coalesced"`
	// DiskHits and PeerHits are the Hits the disk and peer tiers served;
	// PeerRejects counts peer records refused by unsealing, decoding or
	// admit.
	DiskHits    uint64 `json:"disk_hits"`
	PeerHits    uint64 `json:"peer_hits"`
	PeerRejects uint64 `json:"peer_rejects"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Source says where Do found its value. Each Source maps to one counter:
// Memory, Disk and Peer to Hits, Computed to Misses, and Coalesced and
// Abandoned to Coalesced. Do's admit gate sees Memory, Disk or Peer.
type Source int

const (
	Computed Source = iota // the caller's own fill ran
	Memory                 // Memory, Disk, Peer: served from that tier after admit
	Disk
	Peer
	Coalesced // shared another caller's concurrent fill
	Abandoned // done closed while waiting on another caller's fill
)

// PeerFetch fetches the sealed cachedisk record for a key from the peer
// tier, returning ok=false on a miss or when every peer failed — any failure
// is just a miss. The server package supplies the HTTP implementation, so
// the caches never import the network.
type PeerFetch func(key string) (sealed []byte, ok bool)

// Cache is a thread-safe tiered cache of V values keyed by string. The zero
// value is not usable; call New.
type Cache[V any] struct {
	codec    Codec[V]
	capacity int

	// The list and maps are allocated on first write, so a short-lived cache
	// that never stores a value costs one allocation.
	mu      sync.Mutex
	lru     list.List // of *entry[V]; front is most recently used
	entries map[string]*list.Element
	flights map[string]*flight[V]

	// Counters are atomics rather than fields under mu: the coalescing and
	// external-tier paths count outside the map lock.
	hits, misses, evictions, rejected, coalesced atomic.Uint64
	diskHits, peerHits, peerRejects              atomic.Uint64

	// Optional external tiers, attached before concurrent use and immutable
	// after.
	disk      *cachedisk.Store
	peerFetch PeerFetch
}

type entry[V any] struct {
	key string
	val V
}

// flight is one in-progress fill. The filling caller writes val and ok
// before closing done, and waiters read them only after done closes, so the
// close publishes them. ok=false means the fill produced no storable value
// (or panicked), and each waiter computes its own.
type flight[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// New returns an empty cache holding at most capacity values in memory.
func New[V any](capacity int, codec Codec[V]) *Cache[V] {
	return &Cache[V]{codec: codec, capacity: capacity}
}

// WithDisk attaches a disk tier: memory misses probe store, and every stored
// value is written through to it. Attach before sharing the cache across
// goroutines. A nil store is a no-op.
func (c *Cache[V]) WithDisk(store *cachedisk.Store) {
	c.disk = store
}

// WithPeerFetch attaches a peer tier consulted when the disk tier misses.
// Attach before sharing the cache across goroutines.
func (c *Cache[V]) WithPeerFetch(fetch PeerFetch) {
	c.peerFetch = fetch
}

// Codec returns the codec the cache persists its values with.
func (c *Cache[V]) Codec() Codec[V] { return c.codec }

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Rejected:    c.rejected.Load(),
		Coalesced:   c.coalesced.Load(),
		DiskHits:    c.diskHits.Load(),
		PeerHits:    c.peerHits.Load(),
		PeerRejects: c.peerRejects.Load(),
	}
}

// Len returns the number of values held in memory.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// ForEach calls fn on every value held in memory, under the cache lock,
// without touching recency or the counters.
func (c *Cache[V]) ForEach(fn func(key string, v V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[V])
		fn(e.key, e.val)
	}
}

// Do returns the value for key and where it came from.
//
// A memory entry is served when admit (nil admits everything) accepts it.
// Otherwise the first caller for key becomes the filler: it probes the disk
// tier, then the peer tier, and failing both calls fill, which reports
// whether its value may be stored. Concurrent callers for the same key wait
// for the filler and share its value (Coalesced), or run their own fill when
// it produced nothing storable. A waiter whose done channel closes first
// stops waiting and gets Abandoned.
//
// admit runs outside the cache lock, with the tier that holds the value,
// before any tier counts or promotes it, so Hits, DiskHits and PeerHits
// count exactly the values served. A refused value is evicted from every
// tier that holds it. Waiters skip admit: the filler's value either passed
// admit on its way in from a tier or was just computed, and callers derive
// equal admit gates for equal keys.
func (c *Cache[V]) Do(done <-chan struct{}, key string, admit func(v V, src Source) bool, fill func() (V, bool)) (V, Source) {
	c.mu.Lock()
	for {
		el, ok := c.entries[key]
		if !ok {
			break
		}
		e := el.Value.(*entry[V])
		c.mu.Unlock()
		if admit == nil || admit(e.val, Memory) {
			c.mu.Lock()
			// The entry may have moved or gone while admit ran.
			if el, ok := c.entries[key]; ok {
				c.lru.MoveToFront(el)
			}
			c.mu.Unlock()
			c.hits.Add(1)
			return e.val, Memory
		}
		c.rejected.Add(1)
		c.disk.Delete(key)
		c.mu.Lock()
		// Drop the refused entry unless a concurrent store replaced it.
		if el, ok := c.entries[key]; ok && el.Value.(*entry[V]) == e {
			c.lru.Remove(el)
			delete(c.entries, key)
		}
	}
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		// A waiter is Coalesced from the moment it joins; when the fill
		// stores nothing, it runs its own and its lookup moves to Misses.
		c.coalesced.Add(1)
		select {
		case <-fl.done:
		case <-done:
			var zero V
			return zero, Abandoned
		}
		if fl.ok {
			return fl.val, Coalesced
		}
		c.coalesced.Add(^uint64(0))
		v, _ := c.compute(key, fill)
		return v, Computed
	}
	fl := &flight[V]{done: make(chan struct{})}
	if c.flights == nil {
		c.flights = map[string]*flight[V]{}
	}
	c.flights[key] = fl
	c.mu.Unlock()
	// Deferred so that a panicking fill still releases the waiters. The
	// value reaches memory before the flight is retired, so a lookup never
	// finds the key in neither place while a fill is under way.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(fl.done)
	}()
	if v, src, ok := c.probe(key, admit); ok {
		fl.val, fl.ok = v, true
		return v, src
	}
	fl.val, fl.ok = c.compute(key, fill)
	return fl.val, Computed
}

// compute counts a Miss, then runs fill and stores a storable value.
func (c *Cache[V]) compute(key string, fill func() (V, bool)) (V, bool) {
	c.misses.Add(1)
	v, ok := fill()
	if ok {
		c.store(key, v)
	}
	return v, ok
}

// probe looks key up in the disk tier, then the peer tier. A disk record the
// decoder or admit refuses is deleted and counted as Rejected; a peer record
// that fails unsealing, decoding or admit is counted as a PeerReject and
// never written. An accepted value is promoted to memory, and a peer value is
// also written through to disk.
func (c *Cache[V]) probe(key string, admit func(v V, src Source) bool) (V, Source, bool) {
	var zero V
	if c.disk == nil && c.peerFetch == nil {
		return zero, 0, false
	}
	if payload, ok := c.disk.Get(key); ok {
		v, err := c.codec.Decode(payload)
		if err == nil && (admit == nil || admit(v, Disk)) {
			c.hits.Add(1)
			c.diskHits.Add(1)
			c.insert(key, v)
			return v, Disk, true
		}
		c.rejected.Add(1)
		c.disk.Delete(key)
	}
	if c.peerFetch == nil {
		return zero, 0, false
	}
	sealed, ok := c.peerFetch(key)
	if !ok {
		return zero, 0, false
	}
	// The record must unseal against the exact key asked for.
	var v V
	payload, err := cachedisk.Unseal(sealed, key)
	if err == nil {
		v, err = c.codec.Decode(payload)
	}
	if err != nil || (admit != nil && !admit(v, Peer)) {
		c.peerRejects.Add(1)
		return zero, 0, false
	}
	c.hits.Add(1)
	c.peerHits.Add(1)
	c.store(key, v)
	return v, Peer, true
}

// store puts v in memory and writes it through to the disk tier. The value
// is encoded only when a disk is attached.
func (c *Cache[V]) store(key string, v V) {
	c.insert(key, v)
	if c.disk != nil {
		c.disk.Put(key, c.codec.Encode(v))
	}
}

// insert inserts into the memory tier, evicting the least recently used
// entry when full. Storing a present key replaces its value and refreshes
// its recency without counting an eviction.
func (c *Cache[V]) insert(key string, v V) {
	e := &entry[V]{key: key, val: v}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).key)
		c.evictions.Add(1)
	}
	if c.entries == nil {
		c.entries = map[string]*list.Element{}
	}
	c.entries[key] = c.lru.PushFront(e)
}
