// Package wire is the byte layer under every persisted format: the record
// framing of internal/cachedisk (QDSK), the proof certificates of
// internal/cert (QCRT1), the prover's outcome payload (QPV) and the checker's
// file record (QFR). Writers append with encoding/binary and AppendString;
// readers go through one Decoder, a bounds-checked cursor; QDSK and QCRT1 end
// in the checksum trailer AppendSum writes and SplitSum checks, and every
// checksum and seal is FNV64a.
//
// It imports only the standard library, so internal/cert, whose small size is
// what makes a replayed certificate trustworthy, can use it without pulling
// anything else into that trusted base.
package wire

import (
	"encoding/binary"
	"errors"
)

// errTruncated is the one error a Decoder reports: a read past the end of its
// input, or a length that the unread bytes cannot hold.
var errTruncated = errors.New("truncated payload")

// AppendString appends s with a uvarint length prefix, the string encoding
// Decoder.Text and Decoder.Bytes read.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// FNV-64a's parameters.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// FNV64a returns the 64-bit FNV-1a hash of b, the value hash/fnv's New64a
// computes, without allocating.
func FNV64a(b []byte) uint64 {
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// AppendSum appends the checksum trailer of b: FNV64a of all of b, as 8
// big-endian bytes.
func AppendSum(b []byte) []byte {
	return binary.BigEndian.AppendUint64(b, FNV64a(b))
}

// SplitSum returns the body before rec's checksum trailer and reports whether
// the trailer matches it. rec must be at least 8 bytes long.
func SplitSum(rec []byte) (body []byte, ok bool) {
	body, trailer := rec[:len(rec)-8], rec[len(rec)-8:]
	return body, binary.BigEndian.Uint64(trailer) == FNV64a(body)
}

// Decoder is a bounds-checked cursor over a payload with a sticky error:
// after the first read past the end every read returns a zero value and Err
// reports the truncation, so a format reads all of its fields and checks Err
// once.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the truncation error after a failed read, else nil.
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

// Varint returns the next zig-zag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Count returns the next uvarint as the length of a list whose elements each
// take at least min bytes (at least one), and fails when the unread bytes
// cannot hold that many: a corrupt length never drives an allocation larger
// than the input.
func (d *Decoder) Count(min int) int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)/max(min, 1)) {
		d.err = errTruncated
		return 0
	}
	return int(n)
}

// Bytes returns the next length-prefixed byte string (see AppendString),
// aliasing the input.
func (d *Decoder) Bytes() []byte {
	return d.Take(d.Count(1))
}

// Text returns the next length-prefixed string (see AppendString).
func (d *Decoder) Text() string {
	return string(d.Bytes())
}
