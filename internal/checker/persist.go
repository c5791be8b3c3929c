package checker

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/cachedisk"
	"repro/internal/tiercache"
	"repro/internal/wire"
)

// FileRecord, the one record both tiers of the checker's cache hold, and the
// disk tier, which keeps one record per source file. Each file is its own
// program, so its diagnostics and statistics depend only on the registry,
// the verdict-changing options (flow sensitivity) and the file's bytes;
// fileKey hashes exactly those. A record stores the diagnostics without the
// file name, which the replay adds back, so byte-identical files share one
// record. A lookup runs before parse (checkSource): a hit skips parse,
// typecheck and every function lookup.
//
// cachedisk's record framing supplies the key binding and checksum, this
// codec supplies the payload layout, and the content seal, computed over the
// record's payload when it is built and recomputed on every load from disk
// and every hit in memory, supplies the semantic integrity check: a record
// whose recomputed seal disagrees with its stored seal is rejected and
// evicted no matter how clean its checksums were.
//
// Trust model: seal and checksums are plain FNV-64a, recomputable by any
// writer, so they detect corruption (bit rot, torn writes, stale formats),
// NOT deliberate tampering. A record carries no certificate to replay, so it
// is only as trustworthy as the local disk, which shares the process's trust
// domain; that is why the checker's cache has no peer tier.
const (
	fileRecordMagic   = "QFR"
	fileRecordVersion = byte(1)
	// maxPersistDiags and maxPersistCounts bound the decoded diagnostic and
	// per-qualifier counter lists so a hostile record cannot demand a giant
	// allocation.
	maxPersistDiags  = 1 << 16
	maxPersistCounts = 1 << 12
)

// FileRecord is a replayable checking outcome: the diagnostics and
// statistics of a walk, with lines counted from a base line and no file
// name (Pos.File is empty), both of which replay adds back. The memory tier
// holds one per function, counted from the function's first line, with the
// walk's own counters (restrict and memo; its maps nil, its cache counters
// zero). The disk tier holds one per file, counted from line 0, with the
// check's statistics, FuncCacheHits set to the file's function lookups (each
// counts as a hit from disk) and no misses or coalesced lookups.
type FileRecord struct {
	Diags []Diagnostic
	Stats Stats
	// seal checksums the fields above (sealFileRecord).
	seal uint64
}

// newFileRecord builds the sealed record of a walk's diagnostics and
// statistics s, in file and with lines counted from base. It refuses
// (ok=false) a result that is not safely replayable: an "internal"
// diagnostic records a recovered panic or an injected fault, both
// transient, and a diagnostic in another file or above base cannot be
// rebased.
func newFileRecord(file string, base int, diags []Diagnostic, s Stats) (*FileRecord, bool) {
	r := &FileRecord{Stats: s}
	if len(diags) > 0 {
		r.Diags = make([]Diagnostic, len(diags))
	}
	for i, d := range diags {
		if d.Code == "internal" || d.Pos.File != file || d.Pos.Line < base {
			return nil, false
		}
		d.Pos.File, d.Pos.Line = "", d.Pos.Line-base
		r.Diags[i] = d
	}
	r.seal = sealFileRecord(r)
	return r, true
}

// replay appends the record's diagnostics to diags, in file and with lines
// counted from base, and folds its statistics into s.
func (r *FileRecord) replay(file string, base int, diags []Diagnostic, s *Stats) []Diagnostic {
	diags = slices.Grow(diags, len(r.Diags))
	for _, d := range r.Diags {
		d.Pos.File, d.Pos.Line = file, base+d.Pos.Line
		diags = append(diags, d)
	}
	s.Add(r.Stats)
	return diags
}

// FileRecordCodec is the disk tier's payload codec, exported so that a
// store's records can be read back outside this package.
var FileRecordCodec = tiercache.Codec[*FileRecord]{
	Encode: encodeFileRecord,
	Decode: decodeFileRecord,
}

// fileKey is the disk-tier key of one source file checked against tab's
// registry under opts.
func fileKey(tab *tables, opts Options, src string) string {
	h := sha256.New()
	io.WriteString(h, "file\x00")
	io.WriteString(h, tab.reg.Fingerprint())
	fmt.Fprintf(h, "\x00flow=%v\x00", opts.FlowSensitive)
	io.WriteString(h, src)
	return hex.EncodeToString(h.Sum(nil))
}

// WithDisk attaches a disk tier of file records: the tree checker and
// CheckSource look each file up in store before parsing it, and store every
// file they check in full. CheckWithCache, which is handed a
// parsed program, uses the memory tier only. Attach before sharing the cache
// across goroutines. A nil store is a no-op.
func (c *FuncCache) WithDisk(store *cachedisk.Store) *FuncCache {
	c.disk = store
	return c
}

// lookupFile returns the record stored under key. A record the decoder
// refuses is deleted from the store and counted as Rejected; a served one
// counts its functions as hits from disk.
func (c *FuncCache) lookupFile(key string) (*FileRecord, bool) {
	payload, ok := c.disk.Get(key)
	if !ok {
		return nil, false
	}
	rec, err := decodeFileRecord(payload)
	if err != nil {
		c.diskRejected.Add(1)
		c.disk.Delete(key)
		return nil, false
	}
	c.diskFuncs.Add(uint64(rec.Stats.FuncCacheHits))
	return rec, true
}

// storeFile writes res, the complete check of the file name, as the record
// under key. A run cut short by its context is not stored, nor is a result
// newFileRecord refuses.
func (c *FuncCache) storeFile(key, name string, res *Result) {
	if res.Err != nil {
		return
	}
	s := res.Stats
	s.FuncCacheHits += s.FuncCacheMisses + s.FuncCacheCoalesced
	s.FuncCacheMisses, s.FuncCacheCoalesced = 0, 0
	if rec, ok := newFileRecord(name, 0, res.Diags, s); ok {
		c.disk.Put(key, encodeFileRecord(rec))
	}
}

// sealFileRecord checksums a record's replayable payload: FNV-64a over its
// persisted body, built in a stack buffer, so that sealing the record of a
// typical function allocates nothing.
func sealFileRecord(r *FileRecord) uint64 {
	var buf [512]byte
	return wire.FNV64a(appendFileRecordBody(buf[:0], r))
}

// appendFileRecordBody appends a record's fields in their persisted layout:
// the counters, the function count, each per-qualifier map as a count and
// its entries in key order, then the diagnostics.
func appendFileRecordBody(b []byte, r *FileRecord) []byte {
	s := &r.Stats
	for _, n := range []int{s.Dereferences, s.RestrictChecks, s.RestrictFailures, s.MemoHits, s.MemoMisses, s.FuncCacheHits} {
		b = binary.AppendUvarint(b, uint64(n))
	}
	for _, m := range []map[string]int{s.Annotations, s.QualCasts, s.RefUses} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = wire.AppendString(b, k)
			b = binary.AppendUvarint(b, uint64(m[k]))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(r.Diags)))
	for _, d := range r.Diags {
		b = binary.AppendUvarint(b, uint64(d.Pos.Line))
		b = binary.AppendUvarint(b, uint64(d.Pos.Col))
		b = wire.AppendString(b, d.Code)
		b = wire.AppendString(b, d.Msg)
	}
	return b
}

// encodeFileRecord serializes a record: magic, version, body, seal. The key
// is not encoded; cachedisk's record framing binds it.
func encodeFileRecord(r *FileRecord) []byte {
	b := make([]byte, 0, 256)
	b = append(b, fileRecordMagic...)
	b = append(b, fileRecordVersion)
	b = appendFileRecordBody(b, r)
	return binary.BigEndian.AppendUint64(b, r.seal)
}

// decodeFileRecord is encodeFileRecord's inverse. Beyond framing, it
// refuses a transient "internal" diagnostic and verifies the content seal:
// sealFileRecord over the decoded fields must reproduce the stored seal, so
// any accidental mutation that survives the outer checksums (or a record
// minted by a buggy writer) is refused.
func decodeFileRecord(data []byte) (*FileRecord, error) {
	if len(data) < len(fileRecordMagic)+1+8 {
		return nil, fmt.Errorf("short file-record payload")
	}
	d := wire.NewDecoder(data[:len(data)-8])
	if string(d.Take(len(fileRecordMagic))) != fileRecordMagic {
		return nil, fmt.Errorf("bad file-record magic")
	}
	if v := d.Byte(); v != fileRecordVersion {
		return nil, fmt.Errorf("stale file-record version %d", v)
	}
	storedSeal := binary.BigEndian.Uint64(data[len(data)-8:])
	r := &FileRecord{}
	s := &r.Stats
	for _, n := range []*int{&s.Dereferences, &s.RestrictChecks, &s.RestrictFailures, &s.MemoHits, &s.MemoMisses, &s.FuncCacheHits} {
		*n = int(d.Uvarint())
	}
	for _, m := range []*map[string]int{&s.Annotations, &s.QualCasts, &s.RefUses} {
		n := d.Uvarint()
		if n > maxPersistCounts {
			return nil, fmt.Errorf("counter list too long (%d)", n)
		}
		*m = make(map[string]int, min(n, 64))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			k := d.Text()
			(*m)[k] = int(d.Uvarint())
		}
	}
	n := d.Uvarint()
	if n > maxPersistDiags {
		return nil, fmt.Errorf("diagnostic list too long (%d)", n)
	}
	if n > 0 {
		r.Diags = make([]Diagnostic, 0, min(int(n), 256))
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var dg Diagnostic
		dg.Pos.Line = int(d.Uvarint())
		dg.Pos.Col = int(d.Uvarint())
		dg.Code = d.Text()
		dg.Msg = d.Text()
		// A persisted record must never replay a transient check.
		if dg.Code == "internal" {
			return nil, fmt.Errorf("transient %q diagnostic in persisted record", dg.Code)
		}
		r.Diags = append(r.Diags, dg)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Len())
	}
	if got := sealFileRecord(r); got != storedSeal {
		return nil, fmt.Errorf("content seal mismatch (stored %x, recomputed %x)", storedSeal, got)
	}
	r.seal = storedSeal
	return r, nil
}
