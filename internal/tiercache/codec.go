package tiercache

// Codec converts a cache's values to and from the payload bytes the disk and
// peer tiers carry. cachedisk's record framing binds each payload to its key
// and checksums it; the codec owns the payload layout and its own magic and
// version, so a layout can evolve independently of the framing. Payloads are
// written and read with internal/wire.
type Codec[V any] struct {
	Encode func(V) []byte
	// Decode is Encode's inverse. It must reject, never guess at, a payload
	// that is truncated, stale, or semantically impossible: its input comes
	// from disk and from peers.
	Decode func([]byte) (V, error)
}
