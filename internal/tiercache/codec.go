package tiercache

import (
	"encoding/binary"
	"errors"
)

// Codec converts a cache's values to and from the payload bytes the disk and
// peer tiers carry. cachedisk's record framing binds each payload to its key
// and checksums it; the codec owns the payload layout and its own magic and
// version, so a layout can evolve independently of the framing.
type Codec[V any] struct {
	Encode func(V) []byte
	// Decode is Encode's inverse. It must reject, never guess at, a payload
	// that is truncated, stale, or semantically impossible: its input comes
	// from disk and from peers.
	Decode func([]byte) (V, error)
}

// AppendString appends s with a uvarint length prefix, the string encoding
// Decoder.Text reads.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

var errTruncated = errors.New("truncated payload")

// Decoder is a bounds-checked cursor over a payload with a sticky error:
// after the first read past the end every read returns a zero value and Err
// reports the truncation.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.buf) }

// Take returns the next n bytes.
func (d *Decoder) Take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.buf) {
		d.err = errTruncated
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

// Byte returns the next byte.
func (d *Decoder) Byte() byte {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uvarint returns the next uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Text returns the next length-prefixed string (see AppendString).
func (d *Decoder) Text() string {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.err = errTruncated
		return ""
	}
	return string(d.Take(int(n)))
}
