// Package cachedisk is the durable warm-state layer under the in-process
// caches: a content-addressed, disk-backed store of fingerprint → verdict
// blobs, in the style of the go build cache. Both warm stores — the prover
// outcome cache (internal/simplify) and the checker's file records
// (internal/checker, one per source file) — persist through one of these, so
// a restarted process (a redeployed qualserve node, a relaunched
// `qualcheck -watch` daemon) opens warm instead of re-proving the world.
//
// The store's invariant is that no corrupt, truncated, torn, or stale byte
// is ever returned as a payload:
//
//   - every record carries a magic header, a format version, its full key,
//     and an FNV-64a checksum trailer over everything before it, framed and
//     read with internal/wire like every other persisted format; a load
//     re-verifies all four and re-checks that the embedded key matches the
//     requested one (hash collisions and adversarially renamed files both
//     fail here);
//   - commits are atomic: the record is written to a same-directory temp
//     file and renamed into place, so a reader observes either the old
//     record or the new one, never a torn mix. A crash inside the commit
//     window leaves only a temp file, which Open sweeps;
//   - a record that fails any load check is evicted on the spot and counted
//     (Stats.CorruptEvicted) — the caller sees a plain miss and re-derives.
//
// Durability is best-effort by design: the store protects the verdicts'
// integrity, not their availability. Disk failures (ENOSPC, EIO, permission
// flips) never surface to the caller — after a few consecutive I/O errors
// the store's circuit breaker (internal/breaker) degrades it to memory-only
// (every Get misses, every Put is dropped) and periodically admits a probe
// to heal. A read or write admitted before the breaker opened cannot close
// the open breaker by finishing cleanly; the probe cycle decides.
package cachedisk

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/faults"
	"repro/internal/wire"
)

// Fault-injection points for the disk tier (see internal/faults). Armed via
// qualserve -faults (or QUAL_FAULTS) or faults.Arm in tests, they let the
// chaos harness exercise every disk failure mode deterministically: a write
// fault is an I/O error charged to the breaker, a commit fault aborts
// between the temp write and the rename (the kill-9 torn-write window), a
// load fault fails a read, an evict fault fails a removal.
var (
	fpWrite  = faults.Register("cachedisk.write")
	fpCommit = faults.Register("cachedisk.commit")
	fpLoad   = faults.Register("cachedisk.load")
	fpEvict  = faults.Register("cachedisk.evict")
)

const (
	// recMagic + recVersion head every record; bumping the version makes
	// every existing record "stale format", which loads self-heal by
	// evicting (never by guessing at old layouts).
	recMagic   = "QDSK"
	recVersion = byte(1)

	// recExt and tmpExt name committed records and in-flight temp files.
	recExt = ".qc"
	tmpExt = ".tmp"

	// DefaultBudget bounds the store's total record bytes when Open is
	// given budget <= 0.
	DefaultBudget = 256 << 20

	// failureThreshold consecutive I/O errors open the degrade breaker;
	// reopenCooldown later a single probe operation is admitted.
	failureThreshold = 3
	reopenCooldown   = 30 * time.Second

	// ioKey is the one key of a store's breaker: all of its disk I/O.
	ioKey = "io"
)

// ErrCorrupt is the (internal) load-failure class counted in
// Stats.CorruptEvicted: short records, bad magic, stale versions, checksum
// mismatches, and key mismatches all wrap it.
var ErrCorrupt = errors.New("cachedisk: corrupt record")

// KeyHash is the content address of a cache key: the hex of the first 16
// bytes of its SHA-256. It names the record file on disk and is the public
// identifier peers fetch by (the raw key never appears in a URL; the record
// embeds it and the requester re-verifies the match).
func KeyHash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:16])
}

// Seal frames a payload into a record: magic, version, the key and the
// payload each with a uvarint length prefix, and the FNV-64a checksum trailer
// over everything before it (wire.AppendSum).
func Seal(key string, payload []byte) []byte {
	b := make([]byte, 0, len(recMagic)+1+2*binary.MaxVarintLen64+len(key)+len(payload)+8)
	b = append(b, recMagic...)
	b = append(b, recVersion)
	b = wire.AppendString(b, key)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return wire.AppendSum(b)
}

// Unseal verifies a record end to end — magic, version, checksum, framing,
// and (when wantKey is non-empty) the embedded key — and returns its
// payload. Any failure wraps ErrCorrupt: the caller must treat the record
// as garbage, never as a verdict.
func Unseal(record []byte, wantKey string) ([]byte, error) {
	if len(record) < len(recMagic)+1+8 {
		return nil, fmt.Errorf("%w: short record (%d bytes)", ErrCorrupt, len(record))
	}
	body, ok := wire.SplitSum(record)
	if !ok {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := wire.NewDecoder(body)
	if string(d.Take(len(recMagic))) != recMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := d.Byte(); v != recVersion {
		return nil, fmt.Errorf("%w: stale format version %d", ErrCorrupt, v)
	}
	key := d.Bytes()
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: bad key framing", ErrCorrupt)
	}
	if n := d.Uvarint(); d.Err() != nil || n != uint64(d.Len()) {
		return nil, fmt.Errorf("%w: bad payload framing", ErrCorrupt)
	}
	if wantKey != "" && string(key) != wantKey {
		return nil, fmt.Errorf("%w: key mismatch", ErrCorrupt)
	}
	return d.Take(d.Len()), nil
}

// Stats snapshots the store's counters.
type Stats struct {
	// Hits and Misses count Get outcomes; Puts counts committed records.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	// CorruptEvicted counts records deleted because a load check failed
	// (short, torn, bit-rotted, stale-format, or key-mismatched records) —
	// the self-healing path. BudgetEvicted counts LRU evictions by the
	// size budget.
	CorruptEvicted uint64 `json:"corrupt_evicted"`
	BudgetEvicted  uint64 `json:"budget_evicted"`
	// WriteErrors and LoadErrors count real disk I/O failures (the ones
	// charged to the degrade breaker; corruption is not an I/O failure).
	WriteErrors uint64 `json:"write_errors"`
	LoadErrors  uint64 `json:"load_errors"`
	// Degraded reports the breaker is open: the store is memory-only until
	// a probe heals it.
	Degraded bool `json:"degraded"`
	// Entries and Bytes are the indexed record count and their total size.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Store is a crash-safe, size-budgeted, content-addressed record store
// rooted at one directory. Safe for concurrent use. The zero value is not
// usable; create with Open. A nil *Store is a valid no-op store (every Get
// misses, every Put drops), so callers can thread an optional disk tier
// without nil checks at each site.
type Store struct {
	dir     string
	budget  int64
	breaker *breaker.Breaker // degrades the store to memory-only
	tmpSeq  atomic.Uint64    // numbers this process's temp files

	mu    sync.Mutex
	index map[string]*list.Element // KeyHash -> *entry in lru
	lru   *list.List               // front = most recently used
	bytes int64
	stats Stats
}

// entry is one indexed record.
type entry struct {
	hash string
	size int64
}

// Open loads (or creates) a store rooted at dir, holding at most budget
// record bytes (DefaultBudget when budget <= 0). Existing committed records
// are indexed by file modification time (the persisted recency proxy), any
// temp files left by a crash inside a commit window are swept, and the
// budget is enforced immediately. Records are validated lazily: Open trusts
// sizes only, and every Get re-verifies the record it loads.
func Open(dir string, budget int64) (*Store, error) {
	if budget <= 0 {
		budget = DefaultBudget
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachedisk: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cachedisk: %w", err)
	}
	type seen struct {
		hash  string
		size  int64
		mtime time.Time
	}
	var found []seen
	for _, de := range ents {
		name := de.Name()
		if strings.HasSuffix(name, tmpExt) {
			// A crash between the temp write and the rename leaves exactly
			// this; the commit never happened, so the file is garbage.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, recExt) || de.IsDir() {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, seen{
			hash:  strings.TrimSuffix(name, recExt),
			size:  fi.Size(),
			mtime: fi.ModTime(),
		})
	}
	// Oldest first, name as tie-break, so the rebuilt LRU is deterministic
	// and pushes most-recent to the front last.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].hash < found[j].hash
	})
	s := &Store{
		dir:     dir,
		budget:  budget,
		breaker: breaker.New(failureThreshold, reopenCooldown),
		index:   map[string]*list.Element{},
		lru:     list.New(),
	}
	for _, f := range found {
		s.index[f.hash] = s.lru.PushFront(&entry{hash: f.hash, size: f.size})
		s.bytes += f.size
	}
	s.mu.Lock()
	s.evictOverBudgetLocked()
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory (empty for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats snapshots the counters (zero for a nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Degraded = s.breaker.Tripped(ioKey)
	st.Entries = s.lru.Len()
	st.Bytes = s.bytes
	return st
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// ---- load path ----

// Get returns the payload stored under key. A record that fails any
// integrity check is evicted (self-healing) and reported as a miss; a disk
// read error is charged to the breaker and reported as a miss. Never
// returns unverified bytes. Get is the one lookup Hits and Misses count.
func (s *Store) Get(key string) ([]byte, bool) {
	_, payload, ok := s.getSealed(KeyHash(key), key)
	if s != nil {
		s.mu.Lock()
		if ok {
			s.stats.Hits++
		} else {
			s.stats.Misses++
		}
		s.mu.Unlock()
	}
	return payload, ok
}

// GetSealedByHash returns the raw sealed record stored under a content
// address, for serving to peers. The record is verified (checksum, magic,
// version, framing) before it leaves, so a node never propagates a corrupt
// record; the requester still re-verifies, including the key match. A
// peer's request is not this node's lookup, so Hits and Misses do not count
// it; a corrupt record it finds is still evicted and counted.
func (s *Store) GetSealedByHash(hash string) ([]byte, bool) {
	if !validHash(hash) {
		return nil, false
	}
	record, _, ok := s.getSealed(hash, "")
	return record, ok
}

// validHash guards the file-name position of a peer-supplied hash: exactly
// the hex form KeyHash produces, so a crafted "hash" can never traverse
// out of the store directory.
func validHash(hash string) bool {
	if len(hash) != 32 {
		return false
	}
	for i := 0; i < len(hash); i++ {
		c := hash[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// getSealed loads, verifies, and touches one record by content address,
// returning the record and the payload its one Unseal pass found. wantKey
// additionally pins the embedded key when non-empty. It counts no hit or
// miss: Get does.
func (s *Store) getSealed(hash, wantKey string) (record, payload []byte, ok bool) {
	if s == nil {
		return nil, nil, false
	}
	s.mu.Lock()
	if _, indexed := s.index[hash]; !indexed {
		s.mu.Unlock()
		return nil, nil, false
	}
	if ok, _ := s.breaker.Allow(ioKey); !ok {
		s.mu.Unlock()
		return nil, nil, false
	}
	s.mu.Unlock()

	// The read runs outside the store lock — commit drops it around
	// writeRecord for the same reason — so one slow or hung disk read can
	// never stall every other store operation behind the mutex.
	path := filepath.Join(s.dir, hash+recExt)
	record, err := s.readRecord(path)

	s.mu.Lock()
	// Re-validate: the entry may have been evicted (budget, Delete, a
	// concurrent corrupt load) while the lock was dropped. If it is gone,
	// the bytes just read are no longer trusted — plain miss.
	el, indexed := s.index[hash]
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// The file vanished under us (an external cleaner, a shared
			// directory): drop the index entry, plain miss. The disk
			// answered, so a half-open probe counts as healthy.
			if indexed {
				s.dropLocked(el, false)
			}
			s.breaker.Record(ioKey, true)
			s.mu.Unlock()
			return nil, nil, false
		}
		s.stats.LoadErrors++
		s.breaker.Record(ioKey, false)
		s.mu.Unlock()
		return nil, nil, false
	}
	s.breaker.Record(ioKey, true)
	if !indexed {
		s.mu.Unlock()
		return nil, nil, false
	}
	payload, err = Unseal(record, wantKey)
	if err != nil {
		// Self-healing load: the record is short, torn, bit-rotted, stale,
		// or mis-keyed. Evict it at the source of truth and miss.
		s.dropLocked(el, true)
		s.stats.CorruptEvicted++
		s.mu.Unlock()
		return nil, nil, false
	}
	s.lru.MoveToFront(el)
	s.mu.Unlock()
	// Touch the file so recency survives a restart (best-effort; the
	// in-memory LRU is authoritative while the process lives).
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return record, payload, true
}

// readRecord is the faultable file read.
func (s *Store) readRecord(path string) ([]byte, error) {
	if err := fpLoad.FireErr(); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// ---- store path ----

// Put seals payload under key and commits it atomically. Errors never
// surface: a failed write is charged to the breaker (degrading the store to
// memory-only after repeated failures) and the caller's in-memory tier
// remains authoritative.
func (s *Store) Put(key string, payload []byte) {
	s.commit(KeyHash(key), Seal(key, payload))
}

// commit writes a record to a temp file and renames it into place, then
// indexes it and enforces the budget. The rename is the atomicity point: a
// crash (or an armed cachedisk.commit fault) before it leaves only a temp
// file that the next Open sweeps; a crash after it leaves a fully
// checksummed record.
func (s *Store) commit(hash string, record []byte) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if int64(len(record)) > s.budget {
		// A record larger than the whole budget would just evict everything
		// and then itself; don't bother the disk.
		s.mu.Unlock()
		return
	}
	if ok, _ := s.breaker.Allow(ioKey); !ok {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	err := s.writeRecord(hash, record)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.WriteErrors++
		s.breaker.Record(ioKey, false)
		return
	}
	s.breaker.Record(ioKey, true)
	s.stats.Puts++
	if el, ok := s.index[hash]; ok {
		e := el.Value.(*entry)
		s.bytes += int64(len(record)) - e.size
		e.size = int64(len(record))
		s.lru.MoveToFront(el)
	} else {
		s.index[hash] = s.lru.PushFront(&entry{hash: hash, size: int64(len(record))})
		s.bytes += int64(len(record))
	}
	s.evictOverBudgetLocked()
}

// writeRecord performs the faultable temp-write-then-rename commit.
func (s *Store) writeRecord(hash string, record []byte) error {
	if err := fpWrite.FireErr(); err != nil {
		return err
	}
	// Each commit writes its own temp file: writers of one key at once would
	// otherwise truncate and rename each other's half-written bytes.
	tmp := filepath.Join(s.dir, fmt.Sprintf("%s.%d-%d%s", hash, os.Getpid(), s.tmpSeq.Add(1), tmpExt))
	if err := os.WriteFile(tmp, record, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fpCommit.FireErr(); err != nil {
		// The torn-commit window: the temp file exists, the rename never
		// happens — exactly what a kill -9 here leaves behind. The fault
		// deliberately leaves the artifact on disk so tests (and the chaos
		// soak) exercise the restart sweep, not a polite cleanup path.
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, hash+recExt)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Delete removes the record stored under key, counting it as a corruption
// eviction. Cache layers call this when a record's *payload* fails their
// own integrity checks (a stale payload format, a content-seal mismatch, a
// rejected certificate) — the record framing was fine, the verdict wasn't,
// and the source of truth must not serve it again.
func (s *Store) Delete(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[KeyHash(key)]; ok {
		s.dropLocked(el, true)
		s.stats.CorruptEvicted++
	}
}

// dropLocked unindexes one record and (when remove is set) deletes its
// file. Removal failures are counted but otherwise ignored: the entry is
// already unindexed, so the store never serves it again either way.
func (s *Store) dropLocked(el *list.Element, remove bool) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.index, e.hash)
	s.bytes -= e.size
	if !remove {
		return
	}
	path := filepath.Join(s.dir, e.hash+recExt)
	if err := fpEvict.FireErr(); err == nil {
		err = os.Remove(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.stats.WriteErrors++
		}
	} else {
		s.stats.WriteErrors++
	}
}

// evictOverBudgetLocked removes least-recently-used records until the store
// fits its byte budget.
func (s *Store) evictOverBudgetLocked() {
	for s.bytes > s.budget {
		oldest := s.lru.Back()
		if oldest == nil {
			return
		}
		s.dropLocked(oldest, true)
		s.stats.BudgetEvicted++
	}
}
