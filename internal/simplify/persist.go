package simplify

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/cert"
	"repro/internal/tiercache"
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
	b = binary.AppendUvarint(b, uint64(out.Stats.Rounds))
	b = binary.AppendUvarint(b, uint64(out.Stats.Instantiations))
	b = binary.AppendUvarint(b, uint64(out.Stats.GroundClauses))
	b = binary.AppendUvarint(b, uint64(out.Stats.Decisions))
	b = tiercache.AppendString(b, out.Reason)
	b = binary.AppendUvarint(b, uint64(len(out.CounterExample)))
	for _, lit := range out.CounterExample {
		b = tiercache.AppendString(b, lit)
	}
	b = tiercache.AppendString(b, out.TraceHash)
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
	d := tiercache.NewDecoder(data)
	if string(d.Take(len(outcomeMagic))) != outcomeMagic {
		return Outcome{}, fmt.Errorf("bad outcome magic")
	}
	if v := d.Byte(); v != outcomeVersion {
		return Outcome{}, fmt.Errorf("stale outcome payload version %d", v)
	}
	var out Outcome
	out.Result = Result(d.Uvarint())
	out.Stats.Rounds = int(d.Uvarint())
	out.Stats.Instantiations = int(d.Uvarint())
	out.Stats.GroundClauses = int(d.Uvarint())
	out.Stats.Decisions = int(d.Uvarint())
	out.Reason = d.Text()
	n := d.Uvarint()
	if n > maxPersistList {
		return Outcome{}, fmt.Errorf("counter-example list too long (%d)", n)
	}
	if n > 0 && d.Err() == nil {
		out.CounterExample = make([]string, 0, min(int(n), 256))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			out.CounterExample = append(out.CounterExample, d.Text())
		}
	}
	out.TraceHash = d.Text()
	if clen := d.Uvarint(); clen > 0 {
		crt, err := cert.Decode(d.Take(int(clen)))
		if err != nil {
			return Outcome{}, fmt.Errorf("embedded certificate: %w", err)
		}
		if d.Err() == nil {
			out.Certificate = crt
		}
	}
	if err := d.Err(); err != nil {
		return Outcome{}, err
	}
	if d.Len() != 0 {
		return Outcome{}, fmt.Errorf("%d trailing bytes", d.Len())
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
	return out, nil
}

// outcomeCodec persists outcomes for the disk and peer tiers. Under
// EmitCertificates every tier's values also pass ProveContext's replay gate;
// the peer check below holds whatever the local options.
var outcomeCodec = tiercache.Codec[Outcome]{
	Encode:     encodeOutcome,
	Decode:     decodeOutcome,
	VerifyPeer: verifyPeerOutcome,
}

// verifyPeerOutcome admits a peer-fetched outcome only when a Valid verdict
// carries a certificate that replays under cert.Verify and names this very
// goal. The cache has already unsealed the record against the exact key
// asked for and decoded it as a current, non-transient outcome. A peer (or a
// man in the middle) can therefore cause extra work, never a wrong Valid:
// the TCB for peer-sourced proofs is the replay checker.
func verifyPeerOutcome(key string, out Outcome) error {
	if out.Result != Valid {
		return nil
	}
	if out.Certificate == nil {
		return fmt.Errorf("peer Valid without certificate")
	}
	if err := cert.Verify(out.Certificate); err != nil {
		return fmt.Errorf("peer certificate replay: %w", err)
	}
	// The cache key is fingerprint + NUL + canonical goal (the fingerprint
	// is hex, so the first NUL is the separator); the certificate must have
	// been minted for that goal, not a different valid one.
	if i := strings.IndexByte(key, 0); i < 0 || out.Certificate.Key != key[i+1:] {
		return fmt.Errorf("peer certificate key mismatch")
	}
	return nil
}
