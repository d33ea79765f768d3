// Package doc defines the document type shared by every index and
// collection implementation in this module.
package doc

import "bytes"

// Doc is one document in a collection: an application-assigned identifier
// and an immutable byte payload. Payload bytes must be non-zero — the
// byte 0x00 is reserved as the document separator by the compressed
// indexes (see package fmindex).
type Doc struct {
	ID   uint64
	Data []byte
}

// Valid reports whether the payload avoids the reserved separator byte.
// bytes.IndexByte is vectorized, so validation runs at memory speed
// rather than byte-at-a-time.
func (d Doc) Valid() bool {
	return bytes.IndexByte(d.Data, 0) < 0
}

// Len returns the payload length in bytes.
func (d Doc) Len() int { return len(d.Data) }

// Clamp fits an extract request to a payload of n bytes: off into
// [0, n] and length into [0, n-off]. Every Extract clamps through it, so
// the same request reads the same bytes whichever sub-collection holds
// the document, and no int request — math.MinInt and math.MaxInt
// included — overflows on the way.
func Clamp(off, length, n int) (int, int) {
	off = min(max(off, 0), n)
	return off, min(max(length, 0), n-off)
}
