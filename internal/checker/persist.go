package checker

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cachedisk"
	"repro/internal/tiercache"
)

// Disk tier for the function-result cache. The tier itself is the shared
// tiered cache's (internal/tiercache); this file supplies the payload codec
// it persists entries with. cachedisk's record framing supplies the key
// binding and checksum, this codec supplies the entry layout, and the
// content seal — persisted alongside the payload and recomputed over the
// decoded entry on every load — supplies the semantic integrity check. A
// record whose recomputed seal disagrees with its stored seal is rejected
// and evicted no matter how clean its checksums were: the seal attests to
// what the walk produced, not to what the disk stored.
//
// Trust model: seal and checksums are plain FNV-64a — recomputable by any
// writer — so they detect corruption (bit rot, torn writes, stale formats),
// NOT deliberate tampering. A function entry carries no certificate to
// replay, so it is only as trustworthy as the local disk, which shares the
// process's trust domain; that is why the function cache has no peer tier.
const (
	funcEntryMagic   = "QFE"
	funcEntryVersion = byte(1)
	// maxPersistDiags bounds the decoded diagnostic count so a hostile
	// record cannot demand a giant allocation.
	maxPersistDiags = 1 << 16
)

// encodeFuncEntry serializes an entry's replayable payload plus its content
// seal. The key is not encoded — cachedisk's record framing binds it.
func encodeFuncEntry(e *funcCacheEntry) []byte {
	b := make([]byte, 0, 64)
	b = append(b, funcEntryMagic...)
	b = append(b, funcEntryVersion)
	b = binary.AppendUvarint(b, uint64(e.restrictChecks))
	b = binary.AppendUvarint(b, uint64(e.restrictFailures))
	b = binary.AppendUvarint(b, uint64(e.memoHits))
	b = binary.AppendUvarint(b, uint64(e.memoMisses))
	b = binary.AppendUvarint(b, uint64(len(e.diags)))
	for _, d := range e.diags {
		b = binary.AppendUvarint(b, uint64(d.relLine))
		b = binary.AppendUvarint(b, uint64(d.col))
		b = tiercache.AppendString(b, d.code)
		b = tiercache.AppendString(b, d.msg)
	}
	return binary.BigEndian.AppendUint64(b, e.seal)
}

// decodeFuncEntry is encodeFuncEntry's inverse. Beyond framing, it verifies
// the content seal: sealEntry over the decoded fields must reproduce the
// stored seal exactly, so any accidental mutation that survives the outer
// checksums (or a record minted by a buggy writer) is refused. The seal is
// not authentication — a deliberate forger recomputes it trivially, which is
// why entries are read only from the local disk (see the trust model above).
func decodeFuncEntry(data []byte) (*funcCacheEntry, error) {
	if len(data) < len(funcEntryMagic)+1+8 {
		return nil, fmt.Errorf("short function-entry payload")
	}
	if string(data[:len(funcEntryMagic)]) != funcEntryMagic {
		return nil, fmt.Errorf("bad function-entry magic")
	}
	if v := data[len(funcEntryMagic)]; v != funcEntryVersion {
		return nil, fmt.Errorf("stale function-entry version %d", v)
	}
	storedSeal := binary.BigEndian.Uint64(data[len(data)-8:])
	d := tiercache.NewDecoder(data[len(funcEntryMagic)+1 : len(data)-8])
	e := &funcCacheEntry{
		restrictChecks:   int(d.Uvarint()),
		restrictFailures: int(d.Uvarint()),
		memoHits:         int(d.Uvarint()),
		memoMisses:       int(d.Uvarint()),
	}
	n := d.Uvarint()
	if n > maxPersistDiags {
		return nil, fmt.Errorf("diagnostic list too long (%d)", n)
	}
	e.diags = make([]relDiag, 0, min(int(n), 256))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		e.diags = append(e.diags, relDiag{
			relLine: int(d.Uvarint()),
			col:     int(d.Uvarint()),
			code:    d.Text(),
			msg:     d.Text(),
		})
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Len())
	}
	// A persisted entry must never replay a transient walk.
	for _, dg := range e.diags {
		if dg.code == "internal" {
			return nil, fmt.Errorf("transient %q diagnostic in persisted entry", dg.code)
		}
	}
	if got := sealEntry(e); got != storedSeal {
		return nil, fmt.Errorf("content seal mismatch (stored %x, recomputed %x)", storedSeal, got)
	}
	e.seal = storedSeal
	return e, nil
}

// funcEntryCodec persists entries for the disk tier. It has no VerifyPeer:
// the function cache never attaches a peer tier.
var funcEntryCodec = tiercache.Codec[*funcCacheEntry]{
	Encode: encodeFuncEntry,
	Decode: decodeFuncEntry,
}

// WithDisk attaches a disk tier: lookups the memory tier misses probe store
// before walking, and every stored entry is persisted. Attach before sharing
// the cache across goroutines. A nil store is a no-op.
func (c *FuncCache) WithDisk(store *cachedisk.Store) *FuncCache {
	c.cache.WithDisk(store)
	return c
}
