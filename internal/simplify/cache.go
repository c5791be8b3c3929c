package simplify

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/logic"
	"repro/internal/tiercache"
)

// DefaultCacheCapacity bounds a cache created with capacity <= 0.
const DefaultCacheCapacity = 4096

// CacheStats is a snapshot of a cache's counters.
type CacheStats = tiercache.Stats

// Cache is a thread-safe memoizing store of proof outcomes, keyed by the
// canonical serialized form of (axiom-set fingerprint, search options, goal
// formula). A cached outcome's verdict is exactly what a fresh search would
// produce: the prover is deterministic given its inputs, and the only input
// that varies between calls — the shared lemma pool below — can never flip a
// verdict (lemmas are implied by the axiom base, so they only prune search).
// Telemetry counters on a cached outcome are the stored search's, which may
// differ from a rerun's if the pool has since grown. Sharing one cache
// across qualifiers (or whole ProveAll runs) therefore never changes
// verdicts — it only skips repeated searches.
//
// The outcomes live in a tiercache.Cache: a least-recently-used memory tier,
// optional disk and peer tiers (persist.go), and coalescing of concurrent
// proofs of one goal into one search.
//
// The cache also hosts the cross-goal lemma pools: per axiom-set
// fingerprint, the ground clauses CDCL learned from axiom-base material
// alone (untainted by any goal). Obligation N+1 of a qualifier starts with
// obligation N's lemmas. Pools invalidate exactly like outcomes do — the
// fingerprint covers the axioms and options, so a registry change keys a
// fresh pool. Pools stay process-local: they are pruning hints, not
// verdicts, and re-deriving them is cheap.
type Cache struct {
	*tiercache.Cache[Outcome]

	lemmaMu sync.Mutex
	lemmas  map[string]*lemmaPool
}

// NewCache returns an empty cache holding at most capacity outcomes
// (DefaultCacheCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{Cache: tiercache.New(capacity, outcomeCodec)}
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
