package tiercache

import (
	"errors"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cachedisk"
)

// stringCodec persists strings verbatim and refuses the payload "bad".
var stringCodec = Codec[string]{
	Encode: func(s string) []byte { return []byte(s) },
	Decode: func(b []byte) (string, error) {
		if string(b) == "bad" {
			return "", errors.New("bad payload")
		}
		return string(b), nil
	},
}

func noFill() (string, bool) { return "", false }

func openStore(t *testing.T) *cachedisk.Store {
	t.Helper()
	st, err := cachedisk.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCachePutRefreshesPresentKey pins the put-on-present-key contract: the
// value and recency are refreshed in place, with no eviction counted and no
// length change.
func TestCachePutRefreshesPresentKey(t *testing.T) {
	c := New(2, stringCodec)
	c.store("k1", "valid")
	c.store("k2", "first")
	c.store("k1", "refreshed")
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("re-put of a present key counted %d eviction(s)", s.Evictions)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after re-put, want 2", got)
	}

	// The re-put moved k1 to the front, so a third key evicts k2.
	c.store("k3", "valid")
	if v, src := c.Do(nil, "k1", nil, noFill); src != Memory || v != "refreshed" {
		t.Errorf("k1 = (%q, %v), want the refreshed value present", v, src)
	}
	if _, src := c.Do(nil, "k2", nil, noFill); src == Memory {
		t.Error("least-recently-used key survived eviction")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want exactly 1", s.Evictions)
	}
}

// TestCacheStatsConsistentUnderConcurrentOverlap hammers one cache with
// concurrent lookups and puts over overlapping keys, plus lookups of keys
// only the disk tier holds. Capacity covers every distinct key, so any
// eviction could only come from a present-key re-put being miscounted; and
// every lookup must land in exactly one of Hits, Misses and Coalesced. Each
// disk-only key is served from disk exactly once, and DiskHits counts every
// lookup that returned Disk: a stored key can come back Disk too, when its
// lookup misses memory just before a concurrent store inserts it and then
// reads that store's write-through. Run under -race this also gates the
// counter updates themselves.
func TestCacheStatsConsistentUnderConcurrentOverlap(t *testing.T) {
	const (
		keys         = 32
		workers      = 8
		opsPerWorker = 400
	)
	store := openStore(t)
	for i := 0; i < keys; i++ {
		store.Put("d"+strconv.Itoa(i), []byte("on disk"))
	}
	c := New(2*keys, stringCodec)
	c.WithDisk(store)
	var gets, diskReturns atomic.Uint64
	var diskServed [keys]atomic.Uint64 // Disk returns per disk-only key
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := "k" + strconv.Itoa((w*7+i)%keys)
				switch i % 3 {
				case 0:
					c.store(k, "valid")
				case 1:
					if _, src := c.Do(nil, k, nil, noFill); src == Disk {
						diskReturns.Add(1)
					}
					gets.Add(1)
				case 2:
					d := (w*5 + i) % keys
					if _, src := c.Do(nil, "d"+strconv.Itoa(d), nil, noFill); src == Disk {
						diskReturns.Add(1)
						diskServed[d].Add(1)
					}
					gets.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	if s.Evictions != 0 {
		t.Errorf("evictions = %d with capacity >= distinct keys: a present-key re-put evicted", s.Evictions)
	}
	if total := s.Hits + s.Misses + s.Coalesced; total != gets.Load() {
		t.Errorf("Hits+Misses+Coalesced = %d, want %d (one of each per lookup)", total, gets.Load())
	}
	for d := range diskServed {
		if n := diskServed[d].Load(); n != 1 {
			t.Errorf("disk-only key d%d served from disk %d times, want once", d, n)
		}
	}
	if s.DiskHits != diskReturns.Load() || s.DiskHits > s.Hits {
		t.Errorf("DiskHits = %d of %d Hits, want the %d lookups served from disk, each a hit", s.DiskHits, s.Hits, diskReturns.Load())
	}
	if got := c.Len(); got != 2*keys {
		t.Errorf("Len = %d, want %d", got, 2*keys)
	}
}

// TestRefusedEntryEvictedEverywhere: a memory entry admit refuses is dropped
// from memory and from disk and counted as Rejected, and the lookup goes on
// to fill. A disk record the decoder refuses is deleted and counted the same
// way.
func TestRefusedEntryEvictedEverywhere(t *testing.T) {
	store := openStore(t)
	c := New(4, stringCodec)
	c.WithDisk(store)
	c.store("k", "stale")
	refuseStale := func(v string, _ Source) bool { return v != "stale" }
	v, src := c.Do(nil, "k", refuseStale, func() (string, bool) { return "fresh", true })
	if src != Computed || v != "fresh" {
		t.Fatalf("refused entry: got (%q, %v), want a fresh fill", v, src)
	}
	if s := c.Stats(); s.Rejected != 1 || s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 rejected, 0 hits, 1 miss", s)
	}
	if ds := store.Stats(); ds.CorruptEvicted != 1 {
		t.Fatalf("disk stats %+v, want the refused record deleted", ds)
	}

	store.Put("bad key", []byte("bad"))
	if _, src := c.Do(nil, "bad key", nil, noFill); src != Computed {
		t.Fatalf("undecodable disk record served from %v", src)
	}
	if s := c.Stats(); s.Rejected != 2 || s.DiskHits != 0 {
		t.Fatalf("stats %+v, want the undecodable record rejected", s)
	}
	if _, ok := store.Get("bad key"); ok {
		t.Fatal("undecodable disk record survived")
	}
}

// TestPeerValueWrittenThroughDiskValueNot: a peer value is stored to disk,
// a disk value is promoted to memory without being written again, and a
// refused peer record is counted and never written. A peer-served and a
// disk-served lookup each count one Hit and no Miss.
func TestPeerValueWrittenThroughDiskValueNot(t *testing.T) {
	peer := map[string][]byte{
		"good": cachedisk.Seal("good", []byte("from peer")),
		"bad":  cachedisk.Seal("bad", []byte("bad")),
	}
	store := openStore(t)
	c := New(4, stringCodec)
	c.WithDisk(store)
	c.WithPeerFetch(func(key string) ([]byte, bool) {
		rec, ok := peer[key]
		return rec, ok
	})
	if v, src := c.Do(nil, "good", nil, noFill); src != Peer || v != "from peer" {
		t.Fatalf("got (%q, %v), want the peer value", v, src)
	}
	if s := c.Stats(); s != (Stats{Hits: 1, PeerHits: 1}) {
		t.Fatalf("after a peer-served lookup: %+v, want one hit, from the peer, and no miss", s)
	}
	if _, src := c.Do(nil, "bad", nil, noFill); src != Computed {
		t.Fatalf("refused peer record served from %v", src)
	}
	if ds := store.Stats(); ds.Puts != 1 {
		t.Fatalf("disk puts = %d, want only the accepted peer value", ds.Puts)
	}

	c2 := New(4, stringCodec)
	c2.WithDisk(store)
	if v, src := c2.Do(nil, "good", nil, noFill); src != Disk || v != "from peer" {
		t.Fatalf("restart: got (%q, %v), want the disk value", v, src)
	}
	if s := c2.Stats(); s != (Stats{Hits: 1, DiskHits: 1}) {
		t.Fatalf("after a disk-served lookup: %+v, want one hit, from disk, and no miss", s)
	}
	if ds := store.Stats(); ds.Puts != 1 {
		t.Fatalf("disk puts = %d after a disk hit, want it not rewritten", ds.Puts)
	}
	if s := c.Stats(); s.PeerHits != 1 || s.PeerRejects != 1 {
		t.Fatalf("stats %+v, want 1 peer hit and 1 peer reject", s)
	}
}

// TestAdmitSeesServingTier: admit is told which tier holds the value it
// judges, so one gate can ask more of a peer than of the local tiers. A
// gate that refuses peer values turns a peer record into a PeerReject, while
// the same payload on disk, and then in memory, is served.
func TestAdmitSeesServingTier(t *testing.T) {
	store := openStore(t)
	store.Put("local", []byte("v"))
	c := New(4, stringCodec)
	c.WithDisk(store)
	c.WithPeerFetch(func(string) ([]byte, bool) {
		return cachedisk.Seal("remote", []byte("v")), true
	})
	var seen []Source
	localOnly := func(_ string, src Source) bool {
		seen = append(seen, src)
		return src != Peer
	}
	if _, src := c.Do(nil, "local", localOnly, noFill); src != Disk {
		t.Fatalf("disk record served from %v", src)
	}
	if _, src := c.Do(nil, "local", localOnly, noFill); src != Memory {
		t.Fatalf("promoted record served from %v", src)
	}
	if _, src := c.Do(nil, "remote", localOnly, noFill); src != Computed {
		t.Fatalf("refused peer record served from %v", src)
	}
	if want := []Source{Disk, Memory, Peer}; !slices.Equal(seen, want) {
		t.Fatalf("admit saw %v, want %v", seen, want)
	}
	if s := c.Stats(); s.Hits != 2 || s.DiskHits != 1 || s.PeerRejects != 1 || s.Rejected != 0 {
		t.Fatalf("stats %+v, want the disk and memory hits served and the peer record refused", s)
	}
}

// TestFillPanicReleasesWaiters: a filling caller that panics still retires
// its flight, and a waiter computes its own value instead of hanging.
func TestFillPanicReleasesWaiters(t *testing.T) {
	c := New(4, stringCodec)
	entered, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(nil, "k", nil, func() (string, bool) {
			close(entered)
			<-release
			panic("fill failed")
		})
	}()
	<-entered
	got := make(chan Source, 1)
	go func() {
		_, src := c.Do(nil, "k", nil, func() (string, bool) { return "own", true })
		got <- src
	}()
	for c.Stats().Coalesced != 1 {
		runtime.Gosched()
	}
	close(release)
	if r := <-panicked; r == nil {
		t.Fatal("the fill's panic did not reach its caller")
	}
	if src := <-got; src != Computed {
		t.Fatalf("waiter got %v, want its own fill", src)
	}
	// Both lookups ran a fill: the waiter's moved from Coalesced to Misses.
	if s := c.Stats(); s.Misses != 2 || s.Coalesced != 0 {
		t.Fatalf("stats %+v, want 2 misses and no coalesced lookup", s)
	}
	if v, src := c.Do(nil, "k", nil, noFill); src != Memory || v != "own" {
		t.Fatalf("waiter's storable fill not stored: (%q, %v)", v, src)
	}
}
