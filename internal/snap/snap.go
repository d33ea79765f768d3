// Package snap is the versioned binary codec shared by every snapshot
// producer and consumer in the module: the magic/version/kind header,
// varint primitives, and the hardened decoder used to read untrusted
// bytes back.
//
// The format is deliberately primitive — unsigned varints, zigzag
// varints, length-prefixed byte strings — so that every structure layer
// (facade header, engine ladder, payload stores, static indexes) can
// compose its own section without a schema compiler. Robustness rules:
//
//   - the Decoder never panics on truncated or corrupt input; the first
//     violation latches an error (wrapping ErrBadSnapshot) and every
//     subsequent read returns zero values, so decode paths can be
//     written straight-line and check Err once;
//   - every count that drives an allocation must be claimed via Count
//     with the minimum encoded size of one element, which bounds the
//     allocation by the remaining input length — corrupt headers cannot
//     request multi-gigabyte slices out of a 40-byte file.
package snap

import (
	"errors"
	"fmt"
)

// Magic is the 4-byte file magic ("dynamic collection snapshot").
var Magic = [4]byte{'d', 's', 'n', 'p'}

// Version is the current snapshot format version. Decoders accept only
// versions they know; the header is written before anything else so old
// readers fail fast on new files.
const Version = 1

// Structure kinds recorded in the header.
const (
	KindCollection byte = 1
	KindRelation   byte = 2
	KindGraph      byte = 3
)

// Store encoding modes (one byte ahead of every static-store section).
const (
	// ModeItems is the rebuild fallback: the store's live items follow
	// raw and the loader reconstructs through the registered builder.
	ModeItems byte = 0
	// ModeBinary is the fast path: a marshaled static index follows,
	// plus the lazy-deletion state needed to rewrap it.
	ModeBinary byte = 1
)

// Section is one static store's encoded section — the exact bytes the
// full-snapshot encoding would emit for that store — plus the identity
// metadata incremental checkpoints key on. A store's static content is
// immutable after its build and its dead weight only grows, so a
// section with the same (Gen, Dead) as a previously persisted one is
// byte-identical and the old segment file can be reused verbatim.
type Section struct {
	// Level is the ladder slot (engine.TopLevel for top collections).
	Level int
	// Gen is the store's build generation (see engine.StoreDump.Gen).
	Gen uint64
	// Dead is the store's dead weight when the section was encoded.
	Dead int
	// Bytes is the encoded store section.
	Bytes []byte
}

// MappedStore is one static store of a v2 snapshot: a small
// heap-decoded meta record and the payload section served in place.
type MappedStore struct {
	Meta    []byte // slot, gen, mode, then the dead list or the raw items
	Payload []byte // mapped in place; empty for item-mode stores
}

// RetainFunc is told about every store opened in place: payload is the
// exact mapped byte range backing it and store the object whose
// lifetime controls when those pages can be released. The facade uses
// it for residency accounting and to madvise superseded sections away.
type RetainFunc func(payload []byte, store any)

// ErrBadSnapshot reports snapshot bytes that are not a well-formed
// snapshot of the expected kind and version: wrong magic, unknown
// version, truncation, or any internal inconsistency. Match with
// errors.Is.
var ErrBadSnapshot = errors.New("bad snapshot")

// Corruptf wraps ErrBadSnapshot with detail.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadSnapshot}, args...)...)
}

// Encoder accumulates one snapshot section in memory. Sections are
// buffered rather than streamed so sharded structures can encode their
// shards concurrently and so every section can be length-prefixed for
// the decoder's allocation bounds.
type Encoder struct {
	b []byte
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.b }

// Len reports the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.b) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.b = append(e.b, b) }

// Raw appends raw bytes with no length prefix (magic, nested sections).
func (e *Encoder) Raw(p []byte) { e.b = append(e.b, p...) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

// Varint appends a signed varint (zigzag).
func (e *Encoder) Varint(v int64) {
	e.Uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.Raw(p)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Int32s appends a length-prefixed []int32 (zigzag varints).
func (e *Encoder) Int32s(vs []int32) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Varint(int64(v))
	}
}

// Uint64s appends a length-prefixed []uint64 (varints).
func (e *Encoder) Uint64s(vs []uint64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Uvarint(v)
	}
}

// Words appends a length-prefixed []uint64 (little-endian words).
func (e *Encoder) Words(ws []uint64) {
	e.Uvarint(uint64(len(ws)))
	for _, w := range ws {
		e.b = append(e.b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
}

// Decoder reads one snapshot section. The first malformed read latches
// an error; all later reads return zero values. Decoder methods never
// panic on any input.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a byte slice for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first error encountered, wrapping ErrBadSnapshot.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// fail latches the first decode error.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = Corruptf(format, args...)
	}
}

// Fail lets callers latch a semantic validation error (beyond framing)
// on the decoder, so the "first error wins, later reads are inert"
// discipline extends to structure-level checks.
func (d *Decoder) Fail(format string, args ...any) { d.fail(format, args...) }

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	b := d.b[d.off]
	d.off++
	return b
}

// Raw reads n raw bytes as a view into the input (not a copy).
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("raw read of %d bytes with %d remaining", n, d.Remaining())
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for {
		if d.off >= len(d.b) {
			d.fail("truncated varint at byte %d", d.off)
			return 0
		}
		c := d.b[d.off]
		d.off++
		if shift == 63 && c > 1 {
			d.fail("varint overflow at byte %d", d.off)
			return 0
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
		shift += 7
		if shift > 63 {
			d.fail("varint overflow at byte %d", d.off)
			return 0
		}
	}
}

// Varint reads a signed (zigzag) varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads a boolean byte (anything non-zero is true).
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Int reads an unsigned varint and checks it fits a non-negative int.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > uint64(int(^uint(0)>>1)) {
		d.fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count reads an element count and validates it against the remaining
// input, assuming every element occupies at least minBytes encoded
// bytes (minBytes ≥ 1). This bounds any allocation driven by the count
// to the size of the input itself.
func (d *Decoder) Count(minBytes int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > d.Remaining()/minBytes {
		d.fail("count %d exceeds remaining input (%d bytes)", n, d.Remaining())
		return 0
	}
	return n
}

// Blob reads a length-prefixed byte string as a view into the input.
func (d *Decoder) Blob() []byte {
	n := d.Count(1)
	return d.Raw(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Blob()) }

// Int32s reads a length-prefixed []int32.
func (d *Decoder) Int32s() []int32 {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		v := d.Varint()
		if v < -1<<31 || v > 1<<31-1 {
			d.fail("value %d overflows int32", v)
			return nil
		}
		out[i] = int32(v)
	}
	return out
}

// Uint64s reads a length-prefixed []uint64.
func (d *Decoder) Uint64s() []uint64 {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.Uvarint()
	}
	return out
}

// Words reads a length-prefixed []uint64.
func (d *Decoder) Words() []uint64 {
	n := d.Count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		p := d.Raw(8)
		if d.err != nil {
			return nil
		}
		out[i] = uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
	}
	return out
}
