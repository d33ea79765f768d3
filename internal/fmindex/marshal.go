package fmindex

import (
	"dyncoll/internal/bitvec"
	"dyncoll/internal/snap"
	"dyncoll/internal/wavelet"
)

// Binary serialization for the three built-in static indexes. Each
// index implements the snapshot fast-path contract —
// AppendBinary/UnmarshalBinary — so snapshots of compressed levels can
// round-trip without an O(n·u(n)) rebuild at load.
//
// Decoding validates structural invariants (monotone document starts,
// sample-table sizes, in-range rows) rather than trusting the input, so
// a loaded index either answers queries within bounds or the decode
// fails with snap.ErrBadSnapshot.

// failer is the error sink both codecs share (snap.Decoder for the v1
// varint form, snap.MapView for the v2 mapped form).
type failer interface {
	Fail(format string, args ...any)
}

// checkRows validates that every value of rows lies in [0, n).
func checkRows(d failer, what string, rows []int32, n int) bool {
	for _, r := range rows {
		if int(r) < 0 || int(r) >= n {
			d.Fail("%s: row %d outside [0,%d)", what, r, n)
			return false
		}
	}
	return true
}

// EncodeTo writes the FM-index's portable form into an encoder.
func (x *Index) EncodeTo(e *snap.Encoder) {
	e.Uvarint(uint64(x.n))
	e.Uvarint(uint64(x.s))
	e.Uvarint(uint64(x.symbols))
	for _, c := range x.c {
		e.Uvarint(uint64(c))
	}
	x.bwt.EncodeTo(e)
	x.marked.EncodeTo(e)
	e.Int32s(x.saSamp)
	e.Int32s(x.isaSamp)
	e.Int32s(x.sepRows)
	e.Int32s(x.sepTargets)
	e.Int32s(x.docStarts)
	e.Uint64s(x.docIDs)
}

// AppendBinary appends the FM-index's portable form to buf (the
// snapshot fast-path contract).
func (x *Index) AppendBinary(buf []byte) ([]byte, error) {
	e := snap.Encoder{}
	x.EncodeTo(&e)
	return append(buf, e.Bytes()...), nil
}

// UnmarshalBinary replaces x with the index encoded in data, one built
// over the binary tree (Options.BinaryTree, the "fm" index). Corrupt or
// truncated input returns an error wrapping snap.ErrBadSnapshot; it
// never panics.
func (x *Index) UnmarshalBinary(data []byte) error {
	return x.unmarshal(data, func(d *snap.Decoder) sequence { return wavelet.DecodeFrom(d) })
}

// UnmarshalQuad is UnmarshalBinary for an index over the default 4-ary
// tree (the "fm4" index).
func (x *Index) UnmarshalQuad(data []byte) error {
	return x.unmarshal(data, func(d *snap.Decoder) sequence { return wavelet.DecodeQuadFrom(d) })
}

// unmarshal decodes an index whose tree decodeTree reads; the rest of
// the encoding is the same for both shapes.
func (x *Index) unmarshal(data []byte, decodeTree func(*snap.Decoder) sequence) error {
	d := snap.NewDecoder(data)
	nx := &Index{}
	nx.n = d.Int()
	nx.s = d.Int()
	nx.symbols = d.Int()
	for i := range nx.c {
		nx.c[i] = d.Int()
	}
	bwt := decodeTree(d)
	marked := bitvec.DecodeFrom(d)
	nx.saSamp = d.Int32s()
	nx.isaSamp = d.Int32s()
	nx.sepRows = d.Int32s()
	nx.sepTargets = d.Int32s()
	nx.docStarts = d.Int32s()
	nx.docIDs = d.Uint64s()
	if err := d.Err(); err != nil {
		return err
	}
	nx.bwt, nx.marked = bwt, marked
	if nx.s < 1 {
		d.Fail("fm: sample rate %d", nx.s)
	}
	if bwt.Len() != nx.n || marked.Len() != nx.n {
		d.Fail("fm: BWT %d / marks %d rows for n=%d", bwt.Len(), marked.Len(), nx.n)
	}
	if d.Err() == nil {
		prev := 0
		for b, c := range nx.c {
			if c < prev || c > nx.n {
				d.Fail("fm: C array not monotone at symbol %d", b)
				break
			}
			prev = c
		}
		if nx.c[256] != nx.n {
			d.Fail("fm: C[256] = %d, want %d", nx.c[256], nx.n)
		}
	}
	if d.Err() == nil && len(nx.saSamp) != marked.Ones() {
		d.Fail("fm: %d SA samples for %d marked rows", len(nx.saSamp), marked.Ones())
	}
	if d.Err() == nil && nx.n > 0 {
		if want := (nx.n-1)/nx.s + 2; len(nx.isaSamp) != want {
			d.Fail("fm: %d ISA samples, want %d", len(nx.isaSamp), want)
		}
	}
	if d.Err() == nil {
		checkRows(d, "fm SA samples", nx.saSamp, nx.n)
		checkRows(d, "fm ISA samples", nx.isaSamp, nx.n)
		checkRows(d, "fm separator rows", nx.sepRows, nx.n)
		checkRows(d, "fm separator targets", nx.sepTargets, nx.n)
	}
	if d.Err() == nil && len(nx.sepRows) != len(nx.sepTargets) {
		d.Fail("fm: %d separator rows for %d targets", len(nx.sepRows), len(nx.sepTargets))
	}
	if d.Err() == nil {
		for i := 1; i < len(nx.sepRows); i++ {
			if nx.sepRows[i] <= nx.sepRows[i-1] {
				d.Fail("fm: separator rows not increasing at %d", i)
				break
			}
		}
	}
	// Every separator row must be listed with an LF target, or the LF
	// step, which indexes the target table by the row's rank among the
	// separators, would index past it; listed rows strictly increase
	// and must actually carry the separator, so equal counts pin the
	// listed set to exactly the BWT's separator positions.
	if d.Err() == nil {
		if bwt.Count(uint32(Sep)) != len(nx.sepRows) {
			d.Fail("fm: %d separator rows listed, BWT holds %d", len(nx.sepRows), bwt.Count(uint32(Sep)))
		}
		for _, r := range nx.sepRows {
			if b, _ := bwt.AccessRank(int(r)); b != uint32(Sep) {
				d.Fail("fm: listed separator row %d is not a separator", r)
				break
			}
		}
	}
	// Locate walks LF until it hits a marked row; a non-empty index with
	// no marks would never terminate.
	if d.Err() == nil && nx.n > 0 && marked.Ones() == 0 {
		d.Fail("fm: non-empty index with no SA samples")
	}
	if d.Err() == nil {
		nx.check(d, nx.n)
	}
	if err := d.Err(); err != nil {
		return err
	}
	nx.buildSymTable()
	*x = *nx
	return nil
}

// EncodeTo writes the suffix-array index's portable form into an
// encoder.
func (x *SAIndex) EncodeTo(e *snap.Encoder) {
	e.Blob(x.text)
	e.Int32s(x.suff)
	e.Int32s(x.inv)
	e.Int32s(x.docStarts)
	e.Uint64s(x.docIDs)
	e.Uvarint(uint64(x.symbols))
}

// AppendBinary appends the suffix-array index's portable form to buf.
func (x *SAIndex) AppendBinary(buf []byte) ([]byte, error) {
	e := snap.Encoder{}
	x.EncodeTo(&e)
	return append(buf, e.Bytes()...), nil
}

// UnmarshalBinary replaces x with the index encoded in data.
func (x *SAIndex) UnmarshalBinary(data []byte) error {
	d := snap.NewDecoder(data)
	nx := &SAIndex{}
	nx.text = append([]byte(nil), d.Blob()...)
	nx.suff = d.Int32s()
	nx.inv = d.Int32s()
	nx.docStarts = d.Int32s()
	nx.docIDs = d.Uint64s()
	nx.symbols = d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	n := len(nx.text)
	if len(nx.suff) != n || len(nx.inv) != n {
		d.Fail("sa: %d/%d suffix rows for %d text bytes", len(nx.suff), len(nx.inv), n)
	}
	if d.Err() == nil {
		checkRows(d, "sa suffix array", nx.suff, n)
		checkRows(d, "sa inverse", nx.inv, n)
	}
	if d.Err() == nil {
		nx.check(d, n)
	}
	if err := d.Err(); err != nil {
		return err
	}
	*x = *nx
	return nil
}

// EncodeTo writes the compressed suffix array's portable form into an
// encoder.
func (x *CSA) EncodeTo(e *snap.Encoder) {
	e.Uvarint(uint64(x.n))
	e.Uvarint(uint64(x.s))
	e.Uvarint(uint64(x.symbols))
	for _, c := range x.c {
		e.Varint(int64(c))
	}
	e.Int32s(x.psiSamples)
	e.Blob(x.psiDeltas)
	e.Int32s(x.psiOffsets)
	e.Int32s(x.saSamp)
	x.saMarked.EncodeTo(e)
	e.Int32s(x.isaSamp)
	e.Int32s(x.docStarts)
	e.Uint64s(x.docIDs)
}

// AppendBinary appends the compressed suffix array's portable form to
// buf.
func (x *CSA) AppendBinary(buf []byte) ([]byte, error) {
	e := snap.Encoder{}
	x.EncodeTo(&e)
	return append(buf, e.Bytes()...), nil
}

// UnmarshalBinary replaces x with the index encoded in data.
func (x *CSA) UnmarshalBinary(data []byte) error {
	d := snap.NewDecoder(data)
	nx := &CSA{}
	nx.n = d.Int()
	nx.s = d.Int()
	nx.symbols = d.Int()
	for i := range nx.c {
		v := d.Varint()
		if v < -1<<31 || v > 1<<31-1 {
			d.Fail("csa: C entry %d overflows int32", v)
			break
		}
		nx.c[i] = int32(v)
	}
	nx.psiSamples = d.Int32s()
	nx.psiDeltas = append([]byte(nil), d.Blob()...)
	nx.psiOffsets = d.Int32s()
	nx.saSamp = d.Int32s()
	saMarked := bitvec.DecodeFrom(d)
	nx.isaSamp = d.Int32s()
	nx.docStarts = d.Int32s()
	nx.docIDs = d.Uint64s()
	if err := d.Err(); err != nil {
		return err
	}
	nx.saMarked = saMarked
	if nx.s < 1 {
		d.Fail("csa: sample rate %d", nx.s)
	}
	if saMarked.Len() != nx.n {
		d.Fail("csa: %d marked rows for n=%d", saMarked.Len(), nx.n)
	}
	if d.Err() == nil {
		prev := int32(0)
		for b, c := range nx.c {
			if c < prev || int(c) > nx.n {
				d.Fail("csa: C array not monotone at symbol %d", b)
				break
			}
			prev = c
		}
	}
	if d.Err() == nil {
		wantBlocks := 0
		if nx.n > 0 {
			wantBlocks = (nx.n-1)/psiBlock + 1
		}
		if len(nx.psiSamples) != wantBlocks || len(nx.psiOffsets) != wantBlocks {
			d.Fail("csa: %d/%d Ψ blocks, want %d", len(nx.psiSamples), len(nx.psiOffsets), wantBlocks)
		}
	}
	if d.Err() == nil {
		for i, off := range nx.psiOffsets {
			if int(off) < 0 || int(off) > len(nx.psiDeltas) || (i > 0 && off < nx.psiOffsets[i-1]) {
				d.Fail("csa: Ψ block offset %d out of order", off)
				break
			}
		}
	}
	if d.Err() == nil && len(nx.saSamp) != saMarked.Ones() {
		d.Fail("csa: %d SA samples for %d marked rows", len(nx.saSamp), saMarked.Ones())
	}
	// Locate walks Ψ until it hits a marked row; a non-empty index with
	// no marks would never terminate.
	if d.Err() == nil && nx.n > 0 && saMarked.Ones() == 0 {
		d.Fail("csa: non-empty index with no SA samples")
	}
	if d.Err() == nil && nx.n > 0 {
		if want := (nx.n + nx.s - 1) / nx.s; len(nx.isaSamp) != want {
			d.Fail("csa: %d ISA samples, want %d", len(nx.isaSamp), want)
		}
	}
	if d.Err() == nil {
		checkRows(d, "csa Ψ samples", nx.psiSamples, nx.n)
		checkRows(d, "csa SA samples", nx.saSamp, nx.n)
		checkRows(d, "csa ISA samples", nx.isaSamp, nx.n)
	}
	if d.Err() == nil {
		nx.check(d, nx.n)
	}
	if err := d.Err(); err != nil {
		return err
	}
	nx.sym.build(nx.c, nx.n)
	*x = *nx
	return nil
}
