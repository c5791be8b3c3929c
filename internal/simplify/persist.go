package simplify

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/cachedisk"
	"repro/internal/cert"
)

// Payload format for a persisted prover outcome. This is the *inner* codec:
// cachedisk's Seal/Unseal frame it with the key, a checksum, and the record
// version, so by the time decodeOutcome sees bytes they are checksum-clean —
// its own magic/version exists so the payload layout can evolve
// independently of the record framing. A stale or undecodable payload is
// evicted at the disk layer (Store.Delete), never guessed at.
const (
	outcomeMagic   = "QPV"
	outcomeVersion = byte(1)
	// maxPersistList bounds decoded list lengths (counter-example literals),
	// so a hostile payload cannot ask for a giant allocation.
	maxPersistList = 1 << 16
)

// encodeOutcome serializes the deterministic, re-servable parts of an
// outcome: verdict, search counters, reason, counter-example, trace hash,
// and the certificate when present. CacheHit and wall-clock telemetry are
// deliberately not persisted — they describe one process's view, not the
// proof.
func encodeOutcome(out Outcome) []byte {
	b := make([]byte, 0, 64)
	b = append(b, outcomeMagic...)
	b = append(b, outcomeVersion)
	b = binary.AppendUvarint(b, uint64(out.Result))
	b = binary.AppendUvarint(b, uint64(out.Rounds))
	b = binary.AppendUvarint(b, uint64(out.Instances))
	b = binary.AppendUvarint(b, uint64(out.GroundClauses))
	b = binary.AppendUvarint(b, uint64(out.Decisions))
	b = appendString(b, out.Reason)
	b = binary.AppendUvarint(b, uint64(len(out.CounterExample)))
	for _, lit := range out.CounterExample {
		b = appendString(b, lit)
	}
	b = appendString(b, out.TraceHash)
	var crt []byte
	if out.Certificate != nil {
		crt = cert.Encode(out.Certificate)
	}
	b = binary.AppendUvarint(b, uint64(len(crt)))
	b = append(b, crt...)
	return b
}

// decodeOutcome is encodeOutcome's inverse. Every length is bounds-checked
// against the remaining input; any framing violation, stale version, or
// embedded-certificate decode failure is an error — the caller treats the
// record as corrupt and evicts it.
func decodeOutcome(data []byte) (Outcome, error) {
	d := decoder{buf: data}
	if string(d.take(len(outcomeMagic))) != outcomeMagic {
		return Outcome{}, fmt.Errorf("bad outcome magic")
	}
	if v := d.byte(); v != outcomeVersion {
		return Outcome{}, fmt.Errorf("stale outcome payload version %d", v)
	}
	var out Outcome
	out.Result = Result(d.uvarint())
	out.Rounds = int(d.uvarint())
	out.Instances = int(d.uvarint())
	out.GroundClauses = int(d.uvarint())
	out.Decisions = int(d.uvarint())
	out.Reason = d.string()
	n := d.uvarint()
	if n > maxPersistList {
		return Outcome{}, fmt.Errorf("counter-example list too long (%d)", n)
	}
	if n > 0 && d.err == nil {
		out.CounterExample = make([]string, 0, min(int(n), 256))
		for i := uint64(0); i < n && d.err == nil; i++ {
			out.CounterExample = append(out.CounterExample, d.string())
		}
	}
	out.TraceHash = d.string()
	if clen := d.uvarint(); clen > 0 {
		crt, err := cert.Decode(d.take(int(clen)))
		if err != nil {
			return Outcome{}, fmt.Errorf("embedded certificate: %w", err)
		}
		if d.err == nil {
			out.Certificate = crt
		}
	}
	if d.err != nil {
		return Outcome{}, d.err
	}
	if len(d.buf) != 0 {
		return Outcome{}, fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	switch out.Result {
	case Valid, Unknown:
	default:
		return Outcome{}, fmt.Errorf("impossible verdict %d", out.Result)
	}
	// A transient outcome (deadline, budget, fault) must never have been
	// persisted; one arriving from disk or a peer is hostile or buggy bytes.
	if TransientReason(out.Reason) {
		return Outcome{}, fmt.Errorf("transient outcome %q in persisted record", out.Reason)
	}
	// Mirror the counters into Stats exactly as proveSafe does, so a
	// disk-served outcome aggregates like a fresh one (wall time excepted —
	// no search ran).
	out.Stats.Rounds = out.Rounds
	out.Stats.Decisions = out.Decisions
	out.Stats.Instantiations = out.Instances
	out.Stats.GroundClauses = out.GroundClauses
	return out, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder is a cursor with sticky error state over a payload buffer.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated outcome payload")
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.buf) {
		d.fail()
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	return string(d.take(int(n)))
}

// PeerFetch fetches the sealed cachedisk record for a cache key from the
// peer tier, returning ok=false on miss (or when every peer is down — the
// cache treats any failure as a miss and proves locally). The server package
// supplies the HTTP implementation; the cache only sees the callback, so the
// prover never imports the network.
type PeerFetch func(key string) (sealed []byte, ok bool)

// WithDisk attaches a disk tier: memory misses probe store, and every
// memoized outcome is persisted to it. Must be called before the cache is
// shared across goroutines. A nil store is a no-op.
func (c *Cache) WithDisk(store *cachedisk.Store) *Cache {
	c.disk = store
	return c
}

// WithPeerFetch attaches a peer tier consulted after the disk tier misses.
// Must be called before the cache is shared across goroutines.
func (c *Cache) WithPeerFetch(fetch PeerFetch) *Cache {
	c.peerFetch = fetch
	return c
}

// DiskStats snapshots the attached disk store's counters (zero value when no
// disk tier is attached).
func (c *Cache) DiskStats() cachedisk.Stats {
	return c.disk.Stats()
}

// externalGet probes the disk then the peer tier after a memory miss. Any
// record that fails to decode, or that the caller's admit gate refuses, is
// evicted at its source of truth (the disk store) or rejected and counted
// (the peer tier). Only admitted outcomes count as tier hits, and they are
// written through to memory (and, for peer fetches, to disk) so the next
// lookup is a memory hit.
func (c *Cache) externalGet(key string, admit admitFunc) (Outcome, bool) {
	if payload, ok := c.disk.Get(key); ok {
		out, err := decodeOutcome(payload)
		if err == nil && (admit == nil || admit(out)) {
			c.note(func(s *CacheStats) { s.DiskHits++ })
			c.putMemory(key, out)
			return out, true
		}
		// A checksum-clean record with a rotten payload (stale inner format
		// or hostile bytes), or one the gate refused: self-heal exactly like
		// disk-layer corruption.
		c.disk.Delete(key)
	}
	if c.peerFetch == nil {
		return Outcome{}, false
	}
	sealed, ok := c.peerFetch(key)
	if !ok {
		return Outcome{}, false
	}
	out, err := verifyPeerOutcome(key, sealed)
	if err != nil || (admit != nil && !admit(out)) {
		c.note(func(s *CacheStats) { s.PeerRejects++ })
		return Outcome{}, false
	}
	c.note(func(s *CacheStats) { s.PeerHits++ })
	c.putMemory(key, out)
	c.disk.Put(key, encodeOutcome(out))
	return out, true
}

// verifyPeerOutcome admits a peer-fetched sealed record only after the full
// gauntlet: the record must unseal against the exact key we asked for
// (checksum + embedded-key match), its payload must decode as a current,
// non-transient outcome, and — the teeth — a Valid verdict must carry a
// certificate that replays under cert.Verify and names this very goal. A
// peer (or a man in the middle) can therefore cause extra work, never a
// wrong Valid: the TCB for peer-sourced proofs is the replay checker.
func verifyPeerOutcome(key string, sealed []byte) (Outcome, error) {
	payload, err := cachedisk.Unseal(sealed, key)
	if err != nil {
		return Outcome{}, err
	}
	out, err := decodeOutcome(payload)
	if err != nil {
		return Outcome{}, err
	}
	if out.Result == Valid {
		if out.Certificate == nil {
			return Outcome{}, fmt.Errorf("peer Valid without certificate")
		}
		if err := cert.Verify(out.Certificate); err != nil {
			return Outcome{}, fmt.Errorf("peer certificate replay: %w", err)
		}
		// The cache key is fingerprint + NUL + canonical goal (the
		// fingerprint is hex, so the first NUL is the separator); the
		// certificate must have been minted for that goal, not a different
		// valid one.
		if i := strings.IndexByte(key, 0); i < 0 || out.Certificate.Key != key[i+1:] {
			return Outcome{}, fmt.Errorf("peer certificate key mismatch")
		}
	}
	return out, nil
}
