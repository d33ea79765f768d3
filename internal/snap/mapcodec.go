package snap

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The mapped codec: fixed-width little-endian arrays, every field
// 8-byte aligned, no varints. A v1 Encoder blob must be decoded
// element by element into freshly allocated heap slices; a MapEncoder
// blob is laid out so a MapView can hand back []uint64/[]int32 slices
// that alias the input buffer directly (zero-copy on little-endian
// machines with 8-aligned input, which an mmap of a page-aligned
// section always is). That is what makes O(1) mapped open possible:
// "decoding" a 100 MB wavelet level is a bounds check, not a copy.

// hostLittle reports whether the running machine stores multi-byte
// integers little-endian — the precondition for aliasing the on-disk
// layout in place. Big-endian hosts transparently fall back to the
// copying path and stay correct.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MapEncoder appends fixed-width little-endian values. Every method
// leaves the buffer 8-byte aligned, so a section built from one
// MapEncoder can be sliced apart with no padding bookkeeping.
type MapEncoder struct {
	buf []byte
}

// Bytes returns the encoded section payload.
func (e *MapEncoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *MapEncoder) Len() int { return len(e.buf) }

// U64 appends one 64-bit value.
func (e *MapEncoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *MapEncoder) pad8() {
	for len(e.buf)%8 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// Blob appends a length-prefixed byte string, padded to 8 bytes.
func (e *MapEncoder) Blob(p []byte) {
	e.U64(uint64(len(p)))
	e.buf = append(e.buf, p...)
	e.pad8()
}

// Words appends a length-prefixed []uint64.
func (e *MapEncoder) Words(ws []uint64) {
	e.U64(uint64(len(ws)))
	for _, w := range ws {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, w)
	}
}

// Int64s appends a length-prefixed []int64.
func (e *MapEncoder) Int64s(vs []int64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	}
}

// Int32s appends a length-prefixed []int32, padded to 8 bytes.
func (e *MapEncoder) Int32s(vs []int32) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
	}
	e.pad8()
}

// MapView reads a MapEncoder layout back. Like Decoder it latches the
// first error and never panics; unlike Decoder its slice accessors
// return views over the input buffer whenever the host allows it, and
// well-aligned copies otherwise. Callers must treat returned slices as
// immutable — they may alias read-only mapped memory.
type MapView struct {
	buf []byte
	off int
	err error
}

// NewMapView wraps a mapped section payload.
func NewMapView(p []byte) *MapView { return &MapView{buf: p} }

// Err returns the first error encountered.
func (v *MapView) Err() error { return v.err }

// Remaining returns the number of unread bytes.
func (v *MapView) Remaining() int { return len(v.buf) - v.off }

// Data returns the full underlying section payload (not just the
// unread tail) — the facade uses it to account and later release the
// exact mapped range a store was opened from.
func (v *MapView) Data() []byte { return v.buf }

// Fail latches a corruption error (no-op if one is already set).
func (v *MapView) Fail(format string, args ...any) {
	if v.err == nil {
		v.err = Corruptf(format, args...)
	}
}

func (v *MapView) take(n int) []byte {
	if v.err != nil {
		return nil
	}
	if n < 0 || n > v.Remaining() {
		v.Fail("mapped section truncated: need %d bytes, have %d", n, v.Remaining())
		return nil
	}
	p := v.buf[v.off : v.off+n : v.off+n]
	v.off += n
	return p
}

// U64 reads one 64-bit value.
func (v *MapView) U64() uint64 {
	p := v.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Int reads a U64 that must fit a non-negative int.
func (v *MapView) Int() int {
	u := v.U64()
	if u > math.MaxInt64 || int64(u) > int64(math.MaxInt) {
		v.Fail("mapped value %d overflows int", u)
		return 0
	}
	return int(u)
}

// count reads a length prefix for elements of elemSize bytes, bounded
// by the remaining buffer so corrupt lengths fail fast instead of
// driving a huge allocation.
func (v *MapView) count(elemSize int) int {
	n := v.Int()
	if v.err != nil {
		return 0
	}
	if n > v.Remaining()/elemSize {
		v.Fail("mapped array length %d exceeds remaining %d bytes", n, v.Remaining())
		return 0
	}
	return n
}

// Blob reads a length-prefixed byte string as a view (no copy).
func (v *MapView) Blob() []byte {
	n := v.count(1)
	p := v.take(n)
	v.take((8 - n%8) % 8) // skip pad
	return p
}

// aligned8 reports whether p starts on an 8-byte boundary.
func aligned8(p []byte) bool {
	return len(p) == 0 || uintptr(unsafe.Pointer(&p[0]))%8 == 0
}

// Words reads a length-prefixed []uint64, aliasing the buffer when the
// host is little-endian and the data is aligned.
func (v *MapView) Words() []uint64 {
	n := v.count(8)
	p := v.take(8 * n)
	if v.err != nil || n == 0 {
		return nil
	}
	return asWords(p)
}

// asWords returns p, a whole number of little-endian words, as
// []uint64: an alias when the host is little-endian and p aligned, a
// copy otherwise.
func asWords(p []byte) []uint64 {
	n := len(p) / 8
	if hostLittle && aligned8(p) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return out
}

// Int32Words reads a length-prefixed []int32 as the ⌈n/2⌉ words its
// 4n bytes and their padding fill (zero-copy when possible), for a
// reader that holds the array as a vector of 32-bit fields: value i is
// bits 32·(i%2) … of word i/2.
func (v *MapView) Int32Words() (n int, words []uint64) {
	n = v.count(4)
	p := v.take(8 * ((n + 1) / 2))
	if v.err != nil || n == 0 {
		return 0, nil
	}
	return n, asWords(p)
}

// Int64s reads a length-prefixed []int64 (zero-copy when possible).
func (v *MapView) Int64s() []int64 {
	n := v.count(8)
	p := v.take(8 * n)
	if v.err != nil || n == 0 {
		return nil
	}
	if hostLittle && aligned8(p) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// Int32s reads a length-prefixed []int32 (zero-copy when possible; the
// on-disk data is 8-aligned, which implies the 4-alignment int32
// needs).
func (v *MapView) Int32s() []int32 {
	n := v.count(4)
	p := v.take(4 * n)
	v.take((8 - (4*n)%8) % 8) // skip pad
	if v.err != nil || n == 0 {
		return nil
	}
	if hostLittle && aligned8(p) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}
