package simplify

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"repro/internal/cachedisk"
	"repro/internal/logic"
)

// DefaultCacheCapacity bounds a cache created with capacity <= 0.
const DefaultCacheCapacity = 4096

// CacheStats is a snapshot of a cache's counters. Hits/Misses/Evictions
// describe the in-memory tier; the external-tier counters below stay zero
// unless a disk store or peer fetcher is attached (see persist.go).
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// DiskHits counts memory misses served from the disk tier; PeerHits
	// counts misses served (and verified) from a cache peer. Both also count
	// toward Misses — the layers report independently.
	DiskHits uint64
	PeerHits uint64
	// PeerRejects counts peer records refused by verification: bad seal,
	// undecodable payload, or a Valid whose certificate failed replay.
	PeerRejects uint64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a thread-safe memoizing store of proof outcomes, keyed by the
// canonical serialized form of (axiom-set fingerprint, search options, goal
// formula). A cached outcome's verdict is exactly what a fresh search would
// produce: the prover is deterministic given its inputs, and the only input
// that varies between calls — the shared lemma pool below — can never flip a
// verdict (lemmas are implied by the axiom base, so they only prune search).
// Telemetry counters on a cached outcome are the stored search's, which may
// differ from a rerun's if the pool has since grown. Sharing one cache
// across qualifiers (or whole ProveAll runs) therefore never changes
// verdicts — it only skips repeated searches. Eviction is
// least-recently-used.
//
// The cache also hosts the cross-goal lemma pools: per axiom-set
// fingerprint, the ground clauses CDCL learned from axiom-base material
// alone (untainted by any goal). Obligation N+1 of a qualifier starts with
// obligation N's lemmas. Pools invalidate exactly like outcomes do — the
// fingerprint covers the axioms and options, so a registry change keys a
// fresh pool.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // of *cacheEntry; front is most recently used
	entries  map[string]*list.Element
	stats    CacheStats

	lemmaMu sync.Mutex
	lemmas  map[string]*lemmaPool

	// Optional external tiers, attached before concurrent use and immutable
	// after (WithDisk / WithPeerFetch in persist.go). Lemma pools stay
	// process-local: they are pruning hints, not verdicts, and re-deriving
	// them is cheap.
	disk      *cachedisk.Store
	peerFetch PeerFetch
}

type cacheEntry struct {
	key     string
	outcome Outcome
}

// NewCache returns an empty cache holding at most capacity outcomes
// (DefaultCacheCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		entries:  map[string]*list.Element{},
	}
}

// admitFunc is the caller's fetch-time gate: it reports whether a stored
// outcome may be served for this lookup (under EmitCertificates, whether its
// certificate replays for the goal). nil admits everything.
type admitFunc func(Outcome) bool

// get returns the cached outcome for key, marking it most recently used. On
// a memory miss it falls through to the disk and peer tiers when attached
// (externalGet, persist.go) — those probes run outside the cache lock, so a
// slow disk or peer never blocks concurrent memory hits.
//
// admit runs before any tier counts or promotes an entry, so Hits, DiskHits
// and PeerHits count exactly the outcomes served. A memory entry admit
// refuses is evicted from memory and disk and counted as a miss; the caller
// re-proves.
func (c *Cache) get(key string, admit admitFunc) (Outcome, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	var out Outcome
	if ok {
		out = el.Value.(*cacheEntry).outcome
	}
	c.mu.Unlock()
	// admit (a certificate replay) runs outside the lock, so recency is
	// refreshed by key afterwards: the entry may have moved meanwhile.
	if ok && (admit == nil || admit(out)) {
		c.mu.Lock()
		c.stats.Hits++
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
		}
		c.mu.Unlock()
		return out, true
	}
	if ok {
		c.evict(key)
	}
	c.note(func(s *CacheStats) { s.Misses++ })
	if ok || (c.disk == nil && c.peerFetch == nil) {
		return Outcome{}, false
	}
	return c.externalGet(key, admit)
}

// note bumps a counter under the cache lock.
func (c *Cache) note(f func(*CacheStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// put stores the outcome for key, evicting the least recently used entry
// when the cache is full, and persists it to the disk tier when one is
// attached. The CacheHit flag is stripped before storing: it describes one
// lookup, not the outcome.
func (c *Cache) put(key string, out Outcome) {
	out.CacheHit = false
	if c.disk != nil {
		c.disk.Put(key, encodeOutcome(out))
	}
	c.putMemory(key, out)
}

// putMemory inserts into the in-memory tier only — used by put after the
// disk write-through, and by externalGet to promote disk/peer-loaded
// outcomes without re-persisting bytes that are already on disk.
func (c *Cache) putMemory(key string, out Outcome) {
	out.CacheHit = false
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).outcome = out
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		if oldest != nil {
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
			c.stats.Evictions++
		}
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, outcome: out})
}

// evict removes key from the memory tier and, when a disk tier is attached,
// deletes its record at the source of truth (counted as a corruption
// eviction there). Fetch-time verification calls this when it refuses an
// entry — a Valid without the certificate its options require, a failed
// replay — so the unverifiable bytes are not re-served on the next lookup.
func (c *Cache) evict(key string) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
		c.stats.Evictions++
	}
	c.mu.Unlock()
	c.disk.Delete(key)
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached outcomes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// ForEach calls fn on every cached outcome under the cache lock, without
// touching recency or the counters. Chaos tests use it to assert that no
// transient (fault- or budget-minted) outcome was ever stored.
func (c *Cache) ForEach(fn func(key string, out Outcome)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		fn(e.key, e.outcome)
	}
}

// Lemma pool sizing: pools per cache (one per distinct axiom fingerprint),
// lemmas per pool (FIFO-forgotten beyond the cap), and the literal-count
// ceiling on an exportable lemma (long lemmas rarely transfer and bloat
// re-interning).
const (
	maxLemmaPools    = 64
	maxLemmasPerPool = 256
	maxLemmaLits     = 8
)

// lemmaPool is one fingerprint's shared ground-lemma store. Only untainted
// lemmas land here (clauses CDCL derived from axiom-base clauses, theory
// conflicts, and trichotomy splits alone), so every pooled clause is implied
// by the axioms and importing it into any goal over the same axioms is
// sound — including across goals whose skolem constants collide, since an
// axiom-implied clause holds for every interpretation of those constants.
type lemmaPool struct {
	mu      sync.Mutex
	clauses []logic.Clause
	keys    map[string]bool
	added   uint64
	dropped uint64
}

// lemmaKey canonicalizes a ground clause as a literal-set content key.
func lemmaKey(c logic.Clause) string {
	ls := make([]string, len(c.Lits))
	for i, l := range c.Lits {
		ls[i] = l.String()
	}
	sort.Strings(ls)
	return strings.Join(ls, "|")
}

// add dedups and appends lemmas, forgetting the oldest beyond the cap.
// Returns how many were actually new (imported lemmas flow back out with a
// goal's own, so most offers are duplicates).
func (p *lemmaPool) add(cs []logic.Clause) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	admitted := 0
	for _, c := range cs {
		k := lemmaKey(c)
		if p.keys[k] {
			continue
		}
		p.keys[k] = true
		p.clauses = append(p.clauses, c)
		p.added++
		admitted++
		if len(p.clauses) > maxLemmasPerPool {
			drop := p.clauses[0]
			p.clauses = p.clauses[1:]
			delete(p.keys, lemmaKey(drop))
			p.dropped++
		}
	}
	return admitted
}

// snapshot copies the pool's clauses in insertion order.
func (p *lemmaPool) snapshot() []logic.Clause {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]logic.Clause, len(p.clauses))
	copy(out, p.clauses)
	return out
}

// lemmaPoolFor returns the pool for one axiom-set fingerprint, creating it
// on demand. Beyond maxLemmaPools no new pools are created (nil return:
// sharing silently off for the overflow fingerprint; outcomes still cache).
func (c *Cache) lemmaPoolFor(fingerprint string) *lemmaPool {
	c.lemmaMu.Lock()
	defer c.lemmaMu.Unlock()
	if p, ok := c.lemmas[fingerprint]; ok {
		return p
	}
	if len(c.lemmas) >= maxLemmaPools {
		return nil
	}
	if c.lemmas == nil {
		c.lemmas = map[string]*lemmaPool{}
	}
	p := &lemmaPool{keys: map[string]bool{}}
	c.lemmas[fingerprint] = p
	return p
}

// LemmaStats is a snapshot of the cache's lemma pools.
type LemmaStats struct {
	// Pools is the number of distinct axiom fingerprints with a pool.
	Pools int `json:"pools"`
	// Lemmas is the total clauses currently pooled across fingerprints.
	Lemmas int `json:"lemmas"`
	// Added counts lemmas ever admitted; Dropped counts FIFO forgettings.
	Added   uint64 `json:"added"`
	Dropped uint64 `json:"dropped"`
}

// LemmaStats snapshots the lemma pools' size and churn counters.
func (c *Cache) LemmaStats() LemmaStats {
	c.lemmaMu.Lock()
	defer c.lemmaMu.Unlock()
	st := LemmaStats{Pools: len(c.lemmas)}
	for _, p := range c.lemmas {
		p.mu.Lock()
		st.Lemmas += len(p.clauses)
		st.Added += p.added
		st.Dropped += p.dropped
		p.mu.Unlock()
	}
	return st
}
