package cert

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Binary certificate encoding: a magic header, varint-framed sections
// in declaration order, and an FNV-64a checksum trailer over
// everything before it. The format is deliberately simple — the
// decoder bounds-checks every count against the remaining input so a
// corrupted length cannot allocate unboundedly, and any trailing
// bytes, bad magic, or checksum mismatch is a decode error.

const encMagic = "QCRT1"

// Encoding rejection reasons, testable with errors.Is.
var (
	// ErrTruncated means the input ended before the structure did.
	ErrTruncated = errors.New("cert: truncated encoding")
	// ErrChecksum means the checksum trailer does not match the body.
	ErrChecksum = errors.New("cert: checksum mismatch")
)

type encBuf struct{ b []byte }

func (e *encBuf) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encBuf) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encBuf) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *encBuf) lits(lits []Lit) {
	e.uvarint(uint64(len(lits)))
	for _, l := range lits {
		e.uvarint(uint64(uint32(l)))
	}
}

// Encode serializes the certificate.
func Encode(c *Certificate) []byte {
	var e encBuf
	e.b = append(e.b, encMagic...)
	e.uvarint(uint64(len(c.Terms)))
	for i := range c.Terms {
		t := &c.Terms[i]
		if t.IsInt {
			e.b = append(e.b, 1)
			e.varint(t.Int)
			continue
		}
		e.b = append(e.b, 0)
		e.str(t.Fn)
		e.uvarint(uint64(len(t.Args)))
		for _, a := range t.Args {
			e.uvarint(uint64(uint32(a)))
		}
	}
	e.uvarint(uint64(len(c.Atoms)))
	for i := range c.Atoms {
		a := &c.Atoms[i]
		e.varint(int64(a.Op))
		e.varint(int64(a.L))
		e.varint(int64(a.R))
	}
	e.uvarint(uint64(len(c.Clauses)))
	for _, cl := range c.Clauses {
		e.lits(cl)
	}
	e.uvarint(uint64(len(c.Steps)))
	for i := range c.Steps {
		st := &c.Steps[i]
		e.b = append(e.b, st.Kind, st.Expl)
		e.lits(st.Lits)
		if st.Premises == nil {
			e.b = append(e.b, 0)
		} else {
			e.b = append(e.b, 1)
			e.uvarint(uint64(len(st.Premises)))
			for _, p := range st.Premises {
				e.uvarint(uint64(uint32(p)))
			}
		}
	}
	e.str(c.Key)
	h := fnv.New64a()
	h.Write(e.b)
	e.b = binary.BigEndian.AppendUint64(e.b, h.Sum64())
	return e.b
}

type decBuf struct{ b []byte }

func (d *decBuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decBuf) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decBuf) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, ErrTruncated
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

// count reads a collection length and bounds-checks it against the
// remaining input, where each element costs at least min bytes.
func (d *decBuf) count(min int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(len(d.b)/min) {
		return 0, ErrTruncated
	}
	return int(v), nil
}

func (d *decBuf) str() (string, error) {
	n, err := d.count(1)
	if err != nil {
		return "", err
	}
	if n > len(d.b) {
		return "", ErrTruncated
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

func (d *decBuf) i32() (int32, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("%w: 32-bit value overflow", ErrMalformed)
	}
	return int32(uint32(v)), nil
}

func (d *decBuf) lits() ([]Lit, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]Lit, n)
	for i := range out {
		v, err := d.i32()
		if err != nil {
			return nil, err
		}
		out[i] = Lit(v)
	}
	return out, nil
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
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if binary.BigEndian.Uint64(trailer) != h.Sum64() {
		return nil, ErrChecksum
	}
	d := &decBuf{b: body[len(encMagic):]}
	c := &Certificate{}
	nt, err := d.count(1)
	if err != nil {
		return nil, err
	}
	c.Terms = make([]Term, nt)
	for i := range c.Terms {
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		switch kind {
		case 1:
			v, err := d.varint()
			if err != nil {
				return nil, err
			}
			c.Terms[i] = Term{Int: v, IsInt: true}
		case 0:
			fn, err := d.str()
			if err != nil {
				return nil, err
			}
			na, err := d.count(1)
			if err != nil {
				return nil, err
			}
			args := make([]int32, na)
			for j := range args {
				if args[j], err = d.i32(); err != nil {
					return nil, err
				}
			}
			c.Terms[i] = Term{Fn: fn, Args: args}
		default:
			return nil, fmt.Errorf("%w: bad term kind %d", ErrMalformed, kind)
		}
	}
	na, err := d.count(3)
	if err != nil {
		return nil, err
	}
	c.Atoms = make([]Atom, na)
	for i := range c.Atoms {
		op, err := d.varint()
		if err != nil {
			return nil, err
		}
		l, err := d.varint()
		if err != nil {
			return nil, err
		}
		r, err := d.varint()
		if err != nil {
			return nil, err
		}
		if op < math.MinInt8 || op > math.MaxInt8 || l < math.MinInt32 || l > math.MaxInt32 || r < math.MinInt32 || r > math.MaxInt32 {
			return nil, fmt.Errorf("%w: atom field overflow", ErrMalformed)
		}
		c.Atoms[i] = Atom{Op: int8(op), L: int32(l), R: int32(r)}
	}
	nc, err := d.count(1)
	if err != nil {
		return nil, err
	}
	c.Clauses = make([][]Lit, nc)
	for i := range c.Clauses {
		if c.Clauses[i], err = d.lits(); err != nil {
			return nil, err
		}
	}
	ns, err := d.count(3)
	if err != nil {
		return nil, err
	}
	c.Steps = make([]Step, ns)
	for i := range c.Steps {
		st := &c.Steps[i]
		if st.Kind, err = d.byte(); err != nil {
			return nil, err
		}
		if st.Expl, err = d.byte(); err != nil {
			return nil, err
		}
		if st.Lits, err = d.lits(); err != nil {
			return nil, err
		}
		hasPrem, err := d.byte()
		if err != nil {
			return nil, err
		}
		switch hasPrem {
		case 0:
		case 1:
			np, err := d.count(1)
			if err != nil {
				return nil, err
			}
			st.Premises = make([]int32, np)
			for j := range st.Premises {
				if st.Premises[j], err = d.i32(); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("%w: bad premise flag %d", ErrMalformed, hasPrem)
		}
	}
	if c.Key, err = d.str(); err != nil {
		return nil, err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b))
	}
	return c, nil
}
