package wavelet

import (
	"math"

	"dyncoll/internal/huffman"
	"dyncoll/internal/snap"
)

// Quad codecs. Both forms store the alphabet, every symbol's code
// length and frequency — which fix the codes (canonical), the node
// table and every level's digit count — and then the levels' digit
// words:
//
//	v1:     sigma, n, σ lengths, σ frequencies (uvarints), then each
//	        level's words (snap Words); the directories are rebuilt
//	        at load, as Seal rebuilds a bit vector's.
//	mapped: sigma, n, lengths (int32s), frequencies (words), the level
//	        count, then each level's words, block entries and
//	        superblock entries verbatim, so an open aliases them.
//
// Decoding recomputes the layout from the header and then checks that
// the digits agree with it: every node's run holds exactly as many of
// each digit as its child covers, which keeps every rank projection
// inside its child. The v1 decoder reads those counts from the
// directory it has just built; the mapped opener first checks the
// stored directory's shape (monotone, one full block per entry) in
// O(n/256), as bitvec.ViewMapped does, and trusts the words beneath
// it like every other mapped payload.

// EncodeTo writes the tree's portable form into an encoder.
func (q *Quad) EncodeTo(e *snap.Encoder) {
	e.Uvarint(uint64(q.sigma))
	e.Uvarint(uint64(q.n))
	for _, c := range q.codes {
		e.Uvarint(uint64(c.Len))
	}
	for _, f := range q.freq {
		e.Uvarint(uint64(f))
	}
	for i := range q.levels {
		e.Words(q.levels[i].words)
	}
}

// EncodeMapped writes the tree in mapped form.
func (q *Quad) EncodeMapped(e *snap.MapEncoder) {
	e.U64(uint64(q.sigma))
	e.U64(uint64(q.n))
	lens := make([]int32, q.sigma)
	freq := make([]uint64, q.sigma)
	for c := range lens {
		lens[c], freq[c] = int32(q.codes[c].Len), uint64(q.freq[c])
	}
	e.Int32s(lens)
	e.Words(freq)
	e.U64(uint64(len(q.levels)))
	for i := range q.levels {
		q.levels[i].encodeMapped(e)
	}
}

// encodeMapped writes a level's words and directory verbatim.
func (lv *quadLevel) encodeMapped(e *snap.MapEncoder) {
	e.Words(lv.words)
	e.Words(lv.blocks)
	e.Int32s(lv.supers)
}

// decodeQuadLevel reads a v1 level of n digits and builds its
// directory.
func decodeQuadLevel(d *snap.Decoder, n int) (quadLevel, bool) {
	words := d.Words()
	if d.Err() != nil || !checkWords(d, words, n) {
		return quadLevel{}, false
	}
	return newQuadLevel(words, n), true
}

// viewQuadLevel aliases a mapped level of n digits.
func viewQuadLevel(mv *snap.MapView, n int) (quadLevel, bool) {
	lv := quadLevel{words: mv.Words(), n: n, blocks: mv.Words(), supers: mv.Int32s()}
	if mv.Err() != nil || !checkWords(mv, lv.words, n) || !lv.checkDirectory(mv) {
		return quadLevel{}, false
	}
	return lv, true
}

// newQuadHeader validates a decoded header and lays the tree out; nil
// after a latched failure.
func newQuadHeader(f failer, sigma, n int, lens []int, freq []int64) *Quad {
	if sigma < 1 || sigma > 256 || n < 0 || n > math.MaxInt32 {
		f.Fail("wavelet: 4-ary tree of %d symbols over alphabet %d", n, sigma)
		return nil
	}
	var total int64
	for c, l := range lens {
		if freq[c] < 0 || freq[c] > math.MaxInt32 || (l > 0) != (freq[c] > 0) {
			f.Fail("wavelet: symbol %d has code length %d and frequency %d", c, l, freq[c])
			return nil
		}
		total += freq[c]
	}
	if total != int64(n) {
		f.Fail("wavelet: frequencies sum to %d, want %d", total, n)
		return nil
	}
	if !huffman.Kraft4(lens) {
		f.Fail("wavelet: 4-ary code lengths admit no prefix code")
		return nil
	}
	return &Quad{sigma: sigma, n: n, codes: huffman.Canonical4(lens), freq: freq}
}

// failer is the error sink of both decoders.
type failer interface {
	Fail(format string, args ...any)
}

// checkCounts verifies, through the levels' directories, that every
// node's run holds exactly the digits its children cover.
func (q *Quad) checkCounts(f failer) bool {
	want := make([][4]int, len(q.nodes))
	for c, fr := range q.freq {
		for _, st := range q.steps[q.at[c]:q.at[c+1]] {
			want[st.node][st.digit] += int(fr)
		}
	}
	for i, nd := range q.nodes {
		lv := &q.levels[nd.depth]
		end := int(nd.off)
		for _, w := range want[i] {
			end += w
		}
		for d, w := range want[i] {
			lo, hi := lv.rank(uint(d), int(nd.off)), lv.rank(uint(d), end)
			if lo != int(nd.before[d]) || hi-lo != w {
				f.Fail("wavelet: node %d holds %d of digit %d, want %d", i, hi-lo, d, w)
				return false
			}
		}
	}
	return true
}

// checkWords verifies a level's word count and that the digits past
// its end are zero.
func checkWords(f failer, words []uint64, n int) bool {
	if len(words) != (n+31)/32 {
		f.Fail("wavelet: %d words for %d digits", len(words), n)
		return false
	}
	if rem := n % 32; rem != 0 && words[len(words)-1]>>(2*uint(rem)) != 0 {
		f.Fail("wavelet: stray digits beyond level length %d", n)
		return false
	}
	return true
}

// DecodeQuadFrom reads a 4-ary tree from a decoder; corrupt input
// latches an error on d and returns nil. Every allocation is bounded by
// the input: σ ≤ 256 and the words are counted against the bytes left.
func DecodeQuadFrom(d *snap.Decoder) *Quad {
	sigma, n := d.Int(), d.Int()
	if d.Err() != nil {
		return nil
	}
	if sigma < 1 || sigma > 256 {
		d.Fail("wavelet: 4-ary alphabet %d", sigma)
		return nil
	}
	lens, freq := make([]int, sigma), make([]int64, sigma)
	for c := range lens {
		lens[c] = d.Int()
	}
	for c := range freq {
		freq[c] = int64(d.Int())
	}
	if d.Err() != nil {
		return nil
	}
	q := newQuadHeader(d, sigma, n, lens, freq)
	if q == nil {
		return nil
	}
	for i, nd := range q.layout() {
		var ok bool
		if q.levels[i], ok = decodeQuadLevel(d, nd); !ok {
			return nil
		}
	}
	if !q.checkCounts(d) {
		return nil
	}
	return q
}

// ViewMappedQuad reconstructs a 4-ary tree from mapped form, aliasing
// the digit words and directories.
func ViewMappedQuad(mv *snap.MapView) *Quad {
	sigma, n := mv.Int(), mv.Int()
	lens32 := mv.Int32s()
	freq64 := mv.Words()
	nLevels := mv.Int()
	if mv.Err() != nil {
		return nil
	}
	if len(lens32) != sigma || len(freq64) != sigma || sigma > 256 {
		mv.Fail("wavelet: 4-ary header of %d/%d entries for alphabet %d", len(lens32), len(freq64), sigma)
		return nil
	}
	lens, freq := make([]int, sigma), make([]int64, sigma)
	for c := range lens {
		if freq64[c] > math.MaxInt32 {
			mv.Fail("wavelet: symbol %d frequency %d", c, freq64[c])
			return nil
		}
		lens[c], freq[c] = int(lens32[c]), int64(freq64[c])
	}
	q := newQuadHeader(mv, sigma, n, lens, freq)
	if q == nil {
		return nil
	}
	digits := q.layout()
	if nLevels != len(digits) {
		mv.Fail("wavelet: %d levels, layout has %d", nLevels, len(digits))
		return nil
	}
	for i, nd := range digits {
		var ok bool
		if q.levels[i], ok = viewQuadLevel(mv, nd); !ok {
			return nil
		}
	}
	if !q.checkCounts(mv) {
		return nil
	}
	return q
}

// checkDirectory validates a stored directory's shape: one entry per
// block boundary, superblock-relative entries that start each
// superblock at zero, and absolute counts that never fall and grow by
// exactly one block of digits per entry.
func (lv *quadLevel) checkDirectory(f failer) bool {
	nb := quadBlocks(len(lv.words))
	if len(lv.blocks) != nb+1 || len(lv.supers) != 4*(nb/quadSuperBlocks+1) {
		f.Fail("wavelet: directory of %d/%d entries for %d blocks", len(lv.blocks), len(lv.supers), nb)
		return false
	}
	var prev [4]int
	for e := 0; e <= nb; e++ {
		sum := 0
		for d := range prev {
			a := lv.entry(uint(d), e)
			if a < prev[d] || (e%quadSuperBlocks == 0 && uint16(lv.blocks[e]>>(16*d)) != 0) {
				f.Fail("wavelet: directory entry %d malformed", e)
				return false
			}
			prev[d] = a
			sum += a
		}
		if sum != e*quadBlockDigits {
			f.Fail("wavelet: directory entry %d counts %d digits", e, sum)
			return false
		}
	}
	return true
}
