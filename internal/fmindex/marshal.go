package fmindex

import (
	"slices"

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

// EncodeTo writes the FM-index's portable form into an encoder. An
// FMP index writes its samples as in memory: the SA samples packed, the
// shortcuts and the row of n-1. An FMM index writes them the same way
// but for the row of n-1, and its padded document table as the IDs,
// then the document ends packed. The older names write the ISA array
// their files have always held, regenerated from the SA samples: FMZ
// packs both arrays, FM and FM4 write int32 arrays.
func (x *Index) EncodeTo(e *snap.Encoder) {
	e.Uvarint(uint64(x.n))
	e.Uvarint(uint64(x.s))
	e.Uvarint(uint64(x.symbols))
	for _, c := range x.c {
		e.Uvarint(uint64(c))
	}
	x.bwt.EncodeTo(e)
	x.marked.EncodeTo(e)
	switch x.layout {
	case FMP, FMM:
		x.saSamp.encodeTo(e)
		x.isa.has.EncodeTo(e)
		x.isa.back.encodeTo(e)
		if x.layout == FMP {
			e.Uvarint(uint64(x.lastRow))
		}
	case FMZ:
		x.saSamp.encodeTo(e)
		isa := x.isaRows()
		isa.encodeTo(e)
	default:
		e.Int32s(x.saSamp.int32s(x.saScale))
		isa := x.isaRows()
		e.Int32s(isa.int32s(1))
	}
	e.Int32s(x.sepRows)
	e.Int32s(x.sepTargets)
	if x.layout == FMM {
		e.Uint64s(x.docIDs)
		x.ends.encodeTo(e)
		return
	}
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

// Decode reads an FM-index in the portable form of layout l. Corrupt or
// truncated input returns an error wrapping snap.ErrBadSnapshot; it
// never panics. Every layout decodes to the same form: the SA samples
// packed as p/s and the ISA samples as shortcuts, derived from the SA
// samples and checked against what the file stores — an FMP file's
// shortcuts, or the ISA array of the older names.
func Decode(data []byte, l Layout) (*Index, error) {
	d := snap.NewDecoder(data)
	nx := &Index{layout: l}
	nx.n = d.Int()
	nx.s = d.Int()
	nx.symbols = d.Int()
	for i := range nx.c {
		nx.c[i] = d.Int()
	}
	if l == FM {
		nx.bwt = wavelet.DecodeFrom(d)
	} else {
		nx.bwt = wavelet.DecodeQuadFrom(d)
	}
	nx.marked = bitvec.DecodeFrom(d)
	if d.Err() == nil {
		nx.checkHeader(d)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	m := nx.sampleCount()
	var stored shortcuts // an FMP or FMM file's
	var isa []int32      // an older name's ISA array
	switch l {
	case FMP, FMM:
		nx.saSamp = readPacked(d, "fm SA samples", m, m)
		if stored.has = bitvec.DecodeFrom(d); d.Err() == nil {
			stored.back = readPacked(d, "fm back pointers", stored.has.Ones(), m)
		}
		if l == FMP {
			nx.lastRow = d.Int()
		} else {
			nx.marked = nx.marked.WithoutSelect0()
		}
	case FMZ:
		nx.saSamp = readPacked(d, "fm SA samples", m, m)
		rows := readPacked(d, "fm ISA samples", isaCount(nx.n, nx.s), nx.n)
		isa = rows.int32s(1)
	default:
		sa, rows := d.Int32s(), d.Int32s()
		if d.Err() == nil && nx.checkSampleCounts(d, len(sa), len(rows)) {
			nx.saSamp = nx.divideSamples(d, sa)
			isa = rows
		}
	}
	nx.saScale = nx.s
	if d.Err() == nil {
		nx.deriveShortcuts(d, &stored, isa)
	}
	nx.sepRows = d.Int32s()
	nx.sepTargets = d.Int32s()
	if l == FMM {
		nx.docIDs = d.Uint64s()
		if d.Err() == nil {
			nx.readEnds(d)
		}
	} else {
		nx.docStarts = d.Int32s()
		nx.docIDs = d.Uint64s()
	}
	if d.Err() == nil {
		checkRows(d, "fm separator rows", nx.sepRows, nx.n)
		checkRows(d, "fm separator targets", nx.sepTargets, nx.n)
	}
	if d.Err() == nil {
		nx.checkSeparators(d)
	}
	// Every listed row must actually carry the separator: with the
	// counts equal and the rows increasing, that pins the listed set to
	// exactly the BWT's separator positions.
	if d.Err() == nil {
		for _, r := range nx.sepRows {
			if b, _ := nx.bwt.AccessRank(int(r)); b != uint32(Sep) {
				d.Fail("fm: listed separator row %d is not a separator", r)
				break
			}
		}
	}
	if d.Err() == nil {
		nx.check(d, nx.n)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	nx.buildSymTable()
	return nx, nil
}

// checkHeader validates what both codecs read before the samples: the
// sample rate, the C array, and a tree and marks of n rows, at least one
// of them marked when n > 0 (Locate walks LF until it hits a marked
// row, so an index with none would never terminate).
func (x *Index) checkHeader(f failer) {
	prev := 0
	for b, c := range x.c {
		if c < prev || c > x.n {
			f.Fail("fm: C array not monotone at symbol %d", b)
			return
		}
		prev = c
	}
	switch {
	case x.s < 1:
		f.Fail("fm: sample rate %d", x.s)
	case x.c[256] != x.n:
		f.Fail("fm: C[256] = %d, want %d", x.c[256], x.n)
	case x.bwt.Len() != x.n || x.marked.Len() != x.n:
		f.Fail("fm: BWT %d / marks %d rows for n=%d", x.bwt.Len(), x.marked.Len(), x.n)
	case x.layout != FMM && x.marked.Ones() != saBound(x.n, x.s):
		f.Fail("fm: %d marked rows, want ⌈%d/%d⌉", x.marked.Ones(), x.n, x.s)
	}
}

// sampleCount is the number of SA samples a file of the index's layout
// holds: ⌈n/s⌉, or in FMM one per marked row, which the document table
// must then account for (readEnds).
func (x *Index) sampleCount() int {
	if x.layout == FMM {
		return x.marked.Ones()
	}
	return saBound(x.n, x.s)
}

// readEnds reads an FMM file's document ends, after its IDs, and
// checks that the padded layout they give has a sampled position for
// every marked row.
func (x *Index) readEnds(d interface {
	failer
	Int() int
	Words() []uint64
	Err() error
}) {
	m := x.marked.Ones()
	x.pad = x.s
	x.ends = readPacked(d, "fm document ends", len(x.docIDs), m*x.s+1)
	if d.Err() == nil && x.span() != m*x.s {
		d.Fail("fm: documents span %d positions, %d marked rows at rate %d", x.span(), m, x.s)
	}
}

// divideSamples packs the SA samples an "fm" or "fm4" file stores whole
// as p/s, the form in memory, failing f unless every one is a multiple
// of s below n.
func (x *Index) divideSamples(f failer, sa []int32) packed {
	p := newPacked(len(sa), saBound(x.n, x.s))
	for i, v := range sa {
		if v < 0 || int(v) >= x.n || int(v)%x.s != 0 {
			f.Fail("fm SA samples: %d at %d is not a multiple of %d below %d", v, i, x.s, x.n)
			break
		}
		p.set(i, uint64(int(v)/x.s))
	}
	return p
}

// deriveShortcuts derives the shortcuts from the SA samples, failing f
// unless those are a permutation and what the file stores agrees:
// stored, an FMP file's shortcuts, element for element and pointer for
// pointer; or isa, the ISA array of an older name, row for row, its
// last row, that of n-1, below n.
func (x *Index) deriveShortcuts(f failer, stored *shortcuts, isa []int32) {
	sc, ok := newShortcuts(x.saSamp, x.marked)
	if !ok {
		f.Fail("fm SA samples: not a permutation of [0,%d)", x.saSamp.n)
		return
	}
	x.isa = sc
	if stored.has != nil {
		if !stored.equal(&sc) {
			f.Fail("fm shortcuts: not those the SA samples give")
		}
	} else if x.n > 0 {
		x.lastRow = int(isa[len(isa)-1])
		if want := x.isaRows(); !slices.Equal(want.int32s(1), isa) {
			f.Fail("fm ISA samples: not the rows the SA samples give")
		}
	}
	if x.n > 0 && (x.lastRow < 0 || x.lastRow >= x.n) {
		f.Fail("fm: row %d of position n-1 outside [0,%d)", x.lastRow, x.n)
	}
}

// checkSampleCounts validates the lengths of int32 sample arrays: one
// SA sample per marked row, and isaCount ISA samples.
func (x *Index) checkSampleCounts(f failer, sa, isa int) bool {
	switch {
	case sa != x.marked.Ones():
		f.Fail("fm: %d SA samples for %d marked rows", sa, x.marked.Ones())
	case isa != isaCount(x.n, x.s):
		f.Fail("fm: %d ISA samples, want %d", isa, isaCount(x.n, x.s))
	default:
		return true
	}
	return false
}

// checkSeparators validates the separator tables: one target per row,
// rows strictly increasing, and as many rows as the BWT holds
// separators. Every separator row must be listed with an LF target, or
// the LF step, which indexes the target table by the row's rank among
// the separators, would index past it.
func (x *Index) checkSeparators(f failer) {
	if len(x.sepRows) != len(x.sepTargets) {
		f.Fail("fm: %d separator rows for %d targets", len(x.sepRows), len(x.sepTargets))
		return
	}
	for i := 1; i < len(x.sepRows); i++ {
		if x.sepRows[i] <= x.sepRows[i-1] {
			f.Fail("fm: separator rows not increasing at %d", i)
			return
		}
	}
	if seps := x.bwt.Count(uint32(Sep)); seps != len(x.sepRows) {
		f.Fail("fm: %d separator rows listed, BWT holds %d", len(x.sepRows), seps)
	}
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
