package fmindex

import (
	"dyncoll/internal/bitvec"
	"dyncoll/internal/snap"
	"dyncoll/internal/wavelet"
)

// Mapped (v2) forms of the three built-in indexes. The v1 codec in
// marshal.go decodes element by element into heap; these lay out every
// heavy array — BWT levels, rank directories, sample tables, Ψ deltas,
// suffix arrays — in the fixed-width MapView format so an open is a
// bounds-checked aliasing pass over mapped memory. Validation budget:
// everything alphabet- or directory-sized is checked exactly as in
// UnmarshalBinary; the per-element row scans (checkRows) over
// corpus-sized arrays are deliberately skipped, since they would make
// open O(n) again — full payload integrity is the opt-in CRC verify
// pass one layer up.

// EncodeMapped writes the FM-index in mapped form. An FMP index writes
// its SA samples, its shortcuts and their select samples as word
// sections, then the row of n-1; the older names write the ISA array,
// regenerated as EncodeTo does: FMZ packs both arrays, FM and FM4 write
// int32 arrays.
func (x *Index) EncodeMapped(e *snap.MapEncoder) {
	e.U64(uint64(x.n))
	e.U64(uint64(x.s))
	e.U64(uint64(x.symbols))
	c := make([]int64, len(x.c))
	for i, v := range x.c {
		c[i] = int64(v)
	}
	e.Int64s(c)
	x.bwt.EncodeMapped(e)
	x.marked.EncodeMapped(e)
	switch x.layout {
	case FMP, FMM:
		x.saSamp.encodeMapped(e)
		x.isa.has.EncodeMapped(e)
		x.isa.back.encodeMapped(e)
		x.isa.sel.encodeMapped(e)
		if x.layout == FMP {
			e.U64(uint64(x.lastRow))
		}
	case FMZ:
		x.saSamp.encodeMapped(e)
		isa := x.isaRows()
		isa.encodeMapped(e)
	default:
		e.Int32s(x.saSamp.int32s(x.saScale))
		isa := x.isaRows()
		e.Int32s(isa.int32s(1))
	}
	e.Int32s(x.sepRows)
	e.Int32s(x.sepTargets)
	if x.layout == FMM {
		e.Words(x.docIDs)
		x.ends.encodeMapped(e)
		return
	}
	e.Int32s(x.docStarts)
	e.Words(x.docIDs)
}

// OpenMapped reconstructs an FM-index of layout l from a mapped
// payload. The samples are views: an FMP file's packed words and
// shortcuts; an FMZ file's packed arrays, or an FM or FM4 file's int32
// arrays as width-32 vectors, of which the ISA array serves sampleRow
// in place of shortcuts, since deriving them would read every sample.
func OpenMapped(mv *snap.MapView, l Layout) (*Index, error) {
	nx := &Index{layout: l}
	nx.n = mv.Int()
	nx.s = mv.Int()
	nx.symbols = mv.Int()
	c := mv.Int64s()
	if l == FM {
		nx.bwt = wavelet.ViewMapped(mv)
	} else {
		nx.bwt = wavelet.ViewMappedQuad(mv)
	}
	nx.marked = bitvec.ViewMapped(mv)
	if err := mv.Err(); err != nil {
		return nil, err
	}
	if len(c) != len(nx.c) {
		mv.Fail("fm: C array has %d entries", len(c))
		return nil, mv.Err()
	}
	for b, v := range c {
		if v < 0 || v > int64(nx.n) {
			mv.Fail("fm: C array entry %d out of range at symbol %d", v, b)
			return nil, mv.Err()
		}
		nx.c[b] = int(v)
	}
	nx.checkHeader(mv)
	if err := mv.Err(); err != nil {
		return nil, err
	}
	m := nx.sampleCount()
	switch l {
	case FMP, FMM:
		nx.saSamp = readPacked(mv, "fm SA samples", m, m)
		if nx.isa.has = bitvec.ViewMapped(mv); mv.Err() != nil {
			return nil, mv.Err()
		}
		if nx.isa.has.Len() != m {
			mv.Fail("fm shortcuts: %d elements, want %d", nx.isa.has.Len(), m)
			return nil, mv.Err()
		}
		nx.isa.back = readPacked(mv, "fm back pointers", nx.isa.has.Ones(), m)
		nx.isa.sel = readPacked(mv, "fm select samples", selCount(m), nx.n)
		if l == FMP {
			nx.lastRow = mv.Int()
		}
		nx.saScale = nx.s
	case FMZ:
		nx.saSamp = readPacked(mv, "fm SA samples", m, m)
		nx.isaSamp = readPacked(mv, "fm ISA samples", isaCount(nx.n, nx.s), nx.n)
		nx.saScale = nx.s
	default:
		nx.saSamp, nx.isaSamp, nx.saScale = viewInt32s(mv), viewInt32s(mv), 1
		if mv.Err() == nil {
			nx.checkSampleCounts(mv, nx.saSamp.n, nx.isaSamp.n)
		}
	}
	if mv.Err() == nil && nx.isaSamp.n > 0 {
		nx.lastRow = nx.isaSamp.get(nx.isaSamp.n - 1)
	}
	if mv.Err() == nil && nx.n > 0 && (nx.lastRow < 0 || nx.lastRow >= nx.n) {
		mv.Fail("fm: row %d of position n-1 outside [0,%d)", nx.lastRow, nx.n)
	}
	nx.sepRows = mv.Int32s()
	nx.sepTargets = mv.Int32s()
	if l == FMM {
		if nx.docIDs = mv.Words(); mv.Err() == nil {
			nx.readEnds(mv)
		}
	} else {
		nx.docStarts = mv.Int32s()
		nx.docIDs = mv.Words()
	}
	if mv.Err() == nil {
		nx.checkSeparators(mv)
	}
	if mv.Err() == nil {
		nx.check(mv, nx.n)
	}
	if mv.Remaining() != 0 {
		mv.Fail("fm: %d trailing bytes in mapped payload", mv.Remaining())
	}
	if err := mv.Err(); err != nil {
		return nil, err
	}
	nx.buildSymTable()
	return nx, nil
}

// EncodeMapped writes the plain suffix-array index in mapped form.
func (x *SAIndex) EncodeMapped(e *snap.MapEncoder) {
	e.U64(uint64(x.symbols))
	e.Blob(x.text)
	e.Int32s(x.suff)
	e.Int32s(x.inv)
	e.Int32s(x.docStarts)
	e.Words(x.docIDs)
}

// OpenMappedSA reconstructs a plain suffix-array index over a mapped
// payload.
func OpenMappedSA(mv *snap.MapView) (*SAIndex, error) {
	nx := &SAIndex{}
	nx.symbols = mv.Int()
	nx.text = mv.Blob()
	nx.suff = mv.Int32s()
	nx.inv = mv.Int32s()
	nx.docStarts = mv.Int32s()
	nx.docIDs = mv.Words()
	if err := mv.Err(); err != nil {
		return nil, err
	}
	n := len(nx.text)
	if len(nx.suff) != n || len(nx.inv) != n {
		mv.Fail("sa: %d/%d suffix rows for %d text bytes", len(nx.suff), len(nx.inv), n)
	}
	if mv.Err() == nil {
		nx.check(mv, n)
	}
	if mv.Remaining() != 0 {
		mv.Fail("sa: %d trailing bytes in mapped payload", mv.Remaining())
	}
	if err := mv.Err(); err != nil {
		return nil, err
	}
	return nx, nil
}

// EncodeMapped writes the compressed suffix array in mapped form.
func (x *CSA) EncodeMapped(e *snap.MapEncoder) {
	e.U64(uint64(x.n))
	e.U64(uint64(x.s))
	e.U64(uint64(x.symbols))
	c := make([]int32, len(x.c))
	copy(c, x.c[:])
	e.Int32s(c)
	e.Int32s(x.psiSamples)
	e.Blob(x.psiDeltas)
	e.Int32s(x.psiOffsets)
	e.Int32s(x.saSamp)
	x.saMarked.EncodeMapped(e)
	e.Int32s(x.isaSamp)
	e.Int32s(x.docStarts)
	e.Words(x.docIDs)
}

// OpenMappedCSA reconstructs a compressed suffix array over a mapped
// payload. The Ψ block directory (offsets into the delta stream) is
// validated in full — it is O(n/64) and an out-of-order offset would
// send the varint reader out of bounds — while the delta bytes and
// sample rows themselves are trusted like every other bulk payload.
func OpenMappedCSA(mv *snap.MapView) (*CSA, error) {
	nx := &CSA{}
	nx.n = mv.Int()
	nx.s = mv.Int()
	nx.symbols = mv.Int()
	c := mv.Int32s()
	nx.psiSamples = mv.Int32s()
	nx.psiDeltas = mv.Blob()
	nx.psiOffsets = mv.Int32s()
	nx.saSamp = mv.Int32s()
	saMarked := bitvec.ViewMapped(mv)
	nx.isaSamp = mv.Int32s()
	nx.docStarts = mv.Int32s()
	nx.docIDs = mv.Words()
	if err := mv.Err(); err != nil {
		return nil, err
	}
	nx.saMarked = saMarked
	if len(c) != len(nx.c) {
		mv.Fail("csa: C array has %d entries", len(c))
		return nil, mv.Err()
	}
	prev := int32(0)
	for b, v := range c {
		if v < prev || int(v) > nx.n {
			mv.Fail("csa: C array not monotone at symbol %d", b)
			return nil, mv.Err()
		}
		prev = v
		nx.c[b] = v
	}
	wantBlocks := 0
	if nx.n > 0 {
		wantBlocks = (nx.n-1)/psiBlock + 1
	}
	switch {
	case nx.s < 1:
		mv.Fail("csa: sample rate %d", nx.s)
	case saMarked.Len() != nx.n:
		mv.Fail("csa: %d marked rows for n=%d", saMarked.Len(), nx.n)
	case len(nx.psiSamples) != wantBlocks || len(nx.psiOffsets) != wantBlocks:
		mv.Fail("csa: %d/%d Ψ blocks, want %d", len(nx.psiSamples), len(nx.psiOffsets), wantBlocks)
	case len(nx.saSamp) != saMarked.Ones():
		mv.Fail("csa: %d SA samples for %d marked rows", len(nx.saSamp), saMarked.Ones())
	case nx.n > 0 && saMarked.Ones() == 0:
		mv.Fail("csa: non-empty index with no SA samples")
	case nx.n > 0 && len(nx.isaSamp) != (nx.n+nx.s-1)/nx.s:
		mv.Fail("csa: %d ISA samples, want %d", len(nx.isaSamp), (nx.n+nx.s-1)/nx.s)
	}
	if mv.Err() == nil {
		for i, off := range nx.psiOffsets {
			if int(off) < 0 || int(off) > len(nx.psiDeltas) || (i > 0 && off < nx.psiOffsets[i-1]) {
				mv.Fail("csa: Ψ block offset %d out of order", off)
				break
			}
		}
	}
	if mv.Err() == nil {
		nx.check(mv, nx.n)
	}
	if mv.Remaining() != 0 {
		mv.Fail("csa: %d trailing bytes in mapped payload", mv.Remaining())
	}
	if err := mv.Err(); err != nil {
		return nil, err
	}
	nx.sym.build(nx.c, nx.n)
	return nx, nil
}
