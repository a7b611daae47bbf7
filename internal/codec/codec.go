// Package codec is the one framed binary format of the repository's
// durable records, the machine snapshot (wse) and the solver checkpoint
// (kernels): an 8-byte header — a 7-byte magic naming the record and a
// version byte — then a little-endian body, then an FNV-1a 64 checksum
// of everything before it. An Encoder writes a record; Open checks a
// record's frame and returns a Decoder over its body, whose reads are
// bounds-checked and whose first short read latches an error, so
// corrupt input is refused and never panics.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Encoder appends one record: NewEncoder writes the header, the typed
// appends write the body, and Seal appends the checksum.
type Encoder struct{ b []byte }

// NewEncoder starts a record whose header is magic: the record's 7-byte
// name followed by its format version.
func NewEncoder(magic [8]byte) *Encoder { return &Encoder{b: append([]byte(nil), magic[:]...)} }

// Seal appends the checksum and returns the finished record.
func (e *Encoder) Seal() []byte {
	h := fnv.New64a()
	h.Write(e.b)
	return binary.LittleEndian.AppendUint64(e.b, h.Sum64())
}

func (e *Encoder) Bytes(p []byte) { e.b = append(e.b, p...) }
func (e *Encoder) Byte(v byte)    { e.b = append(e.b, v) }
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}
func (e *Encoder) U16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *Encoder) U32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Encoder) I64(v int64)   { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *Encoder) F64(v float64) { e.I64(int64(math.Float64bits(v))) }

// Decoder reads one record's body. Every read past the end latches an
// error and returns zero from then on; End reports it.
type Decoder struct {
	what string
	b    []byte
	off  int
	err  error
	zero [8]byte
}

// Open checks data's frame against magic — name, version, checksum —
// and returns a Decoder over its body. what names the record in errors
// ("wse: snapshot").
func Open(data []byte, magic [8]byte, what string) (*Decoder, error) {
	if len(data) < len(magic)+8 {
		return nil, fmt.Errorf("%s truncated (%d bytes)", what, len(data))
	}
	if [7]byte(data[:7]) != [7]byte(magic[:7]) {
		return nil, fmt.Errorf("%s: bad magic", what)
	}
	if v := data[7]; v != magic[7] {
		return nil, fmt.Errorf("%s: unsupported version %d (have %d)", what, v, magic[7])
	}
	body, sum := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(sum) {
		return nil, fmt.Errorf("%s checksum mismatch", what)
	}
	return &Decoder{what: what, b: body[len(magic):]}, nil
}

// End returns the first read error, or an error if the body holds bytes
// no read consumed.
func (d *Decoder) End() error {
	if d.err == nil && d.off != len(d.b) {
		return fmt.Errorf("%s has %d trailing bytes", d.what, len(d.b)-d.off)
	}
	return d.err
}

// Take returns the next n bytes, aliasing the record (nil once an
// error is latched).
func (d *Decoder) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.err = fmt.Errorf("%s truncated at byte %d", d.what, d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// fixed returns the next n ≤ 8 bytes, or n zero bytes once an error is
// latched.
func (d *Decoder) fixed(n int) []byte {
	if p := d.Take(n); p != nil {
		return p
	}
	return d.zero[:n]
}

func (d *Decoder) Byte() byte   { return d.fixed(1)[0] }
func (d *Decoder) Bool() bool   { return d.Byte() != 0 }
func (d *Decoder) U16() uint16  { return binary.LittleEndian.Uint16(d.fixed(2)) }
func (d *Decoder) U32() uint32  { return binary.LittleEndian.Uint32(d.fixed(4)) }
func (d *Decoder) I64() int64   { return int64(binary.LittleEndian.Uint64(d.fixed(8))) }
func (d *Decoder) F64() float64 { return math.Float64frombits(uint64(d.I64())) }

// Count reads a u32 element count and bounds it by the bytes remaining
// (each element needs at least minBytes), so corrupt input cannot force
// a huge allocation.
func (d *Decoder) Count(minBytes int) int {
	n := int(d.U32())
	if d.err == nil && n*minBytes > len(d.b)-d.off {
		d.err = fmt.Errorf("%s count %d at byte %d exceeds remaining input", d.what, n, d.off)
		return 0
	}
	return n
}
