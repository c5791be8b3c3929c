package cert

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/wire"
)

// The QCRT1 byte form: the magic "QCRT1"; the terms, atoms, clauses and
// steps, each section a uvarint count followed by its elements; the key as a
// uvarint-length-prefixed string; and a checksum trailer, FNV-64a over
// everything before it as 8 big-endian bytes (wire.AppendSum).
//
//   - A term is a kind byte, then for kind 1 (an integer) its zig-zag
//     varint value, and for kind 0 its length-prefixed function name and a
//     counted list of argument indexes.
//   - An atom is three zig-zag varints: Op, L and R.
//   - A clause is a counted list of literals. A literal, an argument and a
//     premise are each the uvarint of their 32 bits.
//   - A step is its Kind and Expl bytes, a counted list of literals, and a
//     premise flag byte: 0 for nil premises, 1 followed by a counted list.
//
// Decode reads through one wire.Decoder, which bounds every count by the
// bytes that remain, so a corrupted length cannot allocate unboundedly. A
// wrong magic, a checksum mismatch, a field out of range or trailing bytes
// is an error.

const encMagic = "QCRT1"

// Encoding rejection reasons, testable with errors.Is.
var (
	// ErrTruncated means the input ended before the structure did.
	ErrTruncated = errors.New("cert: truncated encoding")
	// ErrChecksum means the checksum trailer does not match the body.
	ErrChecksum = errors.New("cert: checksum mismatch")
)

// appendIndexes appends a counted list of 32-bit values.
func appendIndexes[T Lit | int32](b []byte, vs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, uint64(uint32(v)))
	}
	return b
}

// Encode serializes the certificate.
func Encode(c *Certificate) []byte {
	b := append([]byte(nil), encMagic...)
	b = binary.AppendUvarint(b, uint64(len(c.Terms)))
	for i := range c.Terms {
		t := &c.Terms[i]
		if t.IsInt {
			b = append(b, 1)
			b = binary.AppendVarint(b, t.Int)
			continue
		}
		b = append(b, 0)
		b = wire.AppendString(b, t.Fn)
		b = appendIndexes(b, t.Args)
	}
	b = binary.AppendUvarint(b, uint64(len(c.Atoms)))
	for _, a := range c.Atoms {
		b = binary.AppendVarint(b, int64(a.Op))
		b = binary.AppendVarint(b, int64(a.L))
		b = binary.AppendVarint(b, int64(a.R))
	}
	b = binary.AppendUvarint(b, uint64(len(c.Clauses)))
	for _, cl := range c.Clauses {
		b = appendIndexes(b, cl)
	}
	b = binary.AppendUvarint(b, uint64(len(c.Steps)))
	for i := range c.Steps {
		st := &c.Steps[i]
		b = append(b, st.Kind, st.Expl)
		b = appendIndexes(b, st.Lits)
		if st.Premises == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = appendIndexes(b, st.Premises)
		}
	}
	b = wire.AppendString(b, c.Key)
	return wire.AppendSum(b)
}

// decoder is a wire.Decoder that also keeps the first malformed field. Every
// read after a truncation returns zero, which no field check refuses, so the
// first error in the input is whichever of the two came first.
type decoder struct {
	wire.Decoder
	malformed error
}

// reject records a malformed field unless an earlier one, or a truncation,
// came first.
func (d *decoder) reject(format string, args ...any) {
	if d.malformed == nil && d.Err() == nil {
		d.malformed = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// indexes reads a counted list of 32-bit values.
func indexes[T Lit | int32](d *decoder) []T {
	out := make([]T, d.Count(1))
	for i := range out {
		v := d.Uvarint()
		if v > math.MaxUint32 {
			d.reject("32-bit value overflow")
		}
		out[i] = T(int32(uint32(v)))
	}
	return out
}

// Decode parses an encoded certificate, verifying the magic header,
// the checksum trailer, and that no trailing bytes remain. A decoded
// certificate is structurally parsed but not yet verified — call
// Verify for that.
func Decode(data []byte) (*Certificate, error) {
	if len(data) < len(encMagic)+8 {
		return nil, ErrTruncated
	}
	if string(data[:len(encMagic)]) != encMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	body, ok := wire.SplitSum(data)
	if !ok {
		return nil, ErrChecksum
	}
	d := &decoder{Decoder: *wire.NewDecoder(body[len(encMagic):])}
	c := &Certificate{Terms: make([]Term, d.Count(1))}
	for i := range c.Terms {
		switch kind := d.Byte(); kind {
		case 1:
			c.Terms[i] = Term{Int: d.Varint(), IsInt: true}
		case 0:
			c.Terms[i] = Term{Fn: d.Text(), Args: indexes[int32](d)}
		default:
			d.reject("bad term kind %d", kind)
		}
	}
	c.Atoms = make([]Atom, d.Count(3))
	for i := range c.Atoms {
		op, l, r := d.Varint(), d.Varint(), d.Varint()
		if op < math.MinInt8 || op > math.MaxInt8 || l < math.MinInt32 || l > math.MaxInt32 || r < math.MinInt32 || r > math.MaxInt32 {
			d.reject("atom field overflow")
		}
		c.Atoms[i] = Atom{Op: int8(op), L: int32(l), R: int32(r)}
	}
	c.Clauses = make([][]Lit, d.Count(1))
	for i := range c.Clauses {
		c.Clauses[i] = indexes[Lit](d)
	}
	c.Steps = make([]Step, d.Count(3))
	for i := range c.Steps {
		st := &c.Steps[i]
		st.Kind, st.Expl = d.Byte(), d.Byte()
		st.Lits = indexes[Lit](d)
		switch flag := d.Byte(); flag {
		case 0:
		case 1:
			st.Premises = indexes[int32](d)
		default:
			d.reject("bad premise flag %d", flag)
		}
	}
	c.Key = d.Text()
	switch {
	case d.malformed != nil:
		return nil, d.malformed
	case d.Err() != nil:
		return nil, ErrTruncated
	case d.Len() != 0:
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, d.Len())
	}
	return c, nil
}
