package simplify

import "repro/internal/tiercache"

// DefaultCacheCapacity bounds a cache created with capacity <= 0.
const DefaultCacheCapacity = 4096

// CacheStats is a snapshot of a cache's counters.
type CacheStats = tiercache.Stats

// Cache is a thread-safe memoizing store of proof outcomes, keyed by the
// canonical serialized form of (axiom-set fingerprint, search options, goal
// formula). The prover is deterministic and its only inputs are the axioms,
// the options and the goal, all three covered by the key, so a cached
// outcome is exactly what a fresh search would produce: verdict, reason,
// counters and trace hash alike (wall time aside; disk and peer hits carry
// the persisted fields, see encodeOutcome). Sharing one cache across
// qualifiers (or whole ProveAll runs) therefore never changes an outcome —
// it only skips repeated searches.
//
// The outcomes live in a least-recently-used memory tier with optional disk
// and peer tiers (WithDisk, WithPeerFetch; the codec is in persist.go), and
// concurrent proofs of one goal coalesce into one search.
type Cache = tiercache.Cache[Outcome]

// NewCache returns an empty cache holding at most capacity outcomes
// (DefaultCacheCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return tiercache.New(capacity, outcomeCodec)
}
