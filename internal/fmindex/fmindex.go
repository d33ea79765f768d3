// Package fmindex implements the static compressed indexes that plug into
// the paper's static-to-dynamic transformations.
//
// Index is an FM-index over a document collection: the Burrows–Wheeler
// transform of the concatenated documents stored in a Huffman-shaped
// wavelet tree — 4-ary by default, binary on request — plus
// suffix-array samples with sampling rate s, packed into ⌈log₂⌈n/s⌉⌉
// bits each (packed.go), and the inverse-suffix-array samples as
// shortcuts through them (shortcuts.go).
// It answers
//
//   - Range (range-finding): the suffix-array interval of a pattern via
//     backward search, O(|P|) rank operations;
//   - Locate: the (document, offset) of one suffix-array row, O(s) rank
//     operations (tlocate = O(s));
//   - Extract: ℓ symbols of any document, O(s + ℓ) rank operations
//     (textract = O(s + ℓ));
//   - SuffixRank: the suffix-array row of a given text position, O(s)
//     rank operations (tSA = O(s)).
//
// This is the interface contract the paper demands of the static index Is
// ("range-finding and locating", plus tSA; Section 2). The concrete index
// stands in for the mmphf-based indexes of Belazzougui–Navarro and Barbay
// et al. — see DESIGN.md §2 for the substitution argument.
//
// Documents may contain any byte except 0x00, which is reserved as the
// document separator. The public API in package dyncoll enforces this.
package fmindex

import (
	"fmt"
	"sync"

	"dyncoll/internal/bitvec"
	"dyncoll/internal/doc"
	"dyncoll/internal/sa"
	"dyncoll/internal/snap"
	"dyncoll/internal/wavelet"
)

// sequence is the wavelet tree that holds the BWT: a *wavelet.Quad,
// the 4-ary tree whose walks visit about half the levels, or the
// binary *wavelet.Tree that indexes written as "fm" keep. Queries
// reach it through these methods — Range makes one RankPair call per
// pattern symbol — and the LF lanes through a two-way type switch
// (lfSteps), so one Index type serves both shapes.
type sequence interface {
	Len() int
	Count(c uint32) int
	RankPair(c uint32, i, j int) (int, int)
	AccessRank(i int) (uint32, int)
	ReadAll(dst, scratch []byte) []byte
	SizeBits() int64
	EncodeTo(e *snap.Encoder)
	EncodeMapped(e *snap.MapEncoder)
}

// buildScratch pools the transient construction buffers — concatenated
// text, BWT bytes, inverse suffix array, and the SA-IS workspace — so
// the engine's repeated rebuilds recycle their scratch instead of
// re-allocating O(n) memory per merge. Each build goroutine checks one
// scratch out of the pool for the duration of its build; a rebuild's
// input side (AppendDocs) checks one out for its LF array.
type buildScratch struct {
	text []byte
	bwt  []byte
	inv  []int32 // row-indexed int32 table: CSA inverse SA, FM separator rows, AppendDocs' LF array
	psi  []int32 // CSA builds only
	saws sa.Workspace
	// A merge's (merge.go): the walked side's and the base's BWT, a
	// decode's scratch, the LF array of whichever it walks, the walked
	// rows' positions and the base's symbol counts by block.
	mergeW, mergeB, decode []byte
	mergeLF, mergePos, occ []int32
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// Sep is the reserved document separator byte.
const Sep byte = 0

// Doc is one document: an application-assigned identifier and its payload.
type Doc = doc.Doc

// Index is a static FM-index over a document collection.
type Index struct {
	n       int // total length of the concatenation (symbols + one separator per doc)
	s       int // SA sampling rate
	bwt     sequence
	c       [257]int // c[b] = number of BWT symbols < b; c[256] = n
	marked  *bitvec.Vector
	saSamp  packed    // SA values at marked rows, ordered by row, each divided by saScale
	saScale int       // s, or 1 for samples an "fm" or "fm4" file stores whole, viewed by a mapped open
	isa     shortcuts // the rows of positions 0, s, 2s, … through saSamp
	lastRow int       // the row of position n-1; an fmm index needs none (docSpan)
	// isaSamp is the ISA array of an "fm", "fm4" or "fmz" file, viewed
	// in place by a mapped open, which then leaves isa empty: the rows
	// of positions 0, s, 2s, …, and n-1. Empty otherwise.
	isaSamp packed
	layout  Layout

	// Separator rows need explicit LF targets: with a shared separator
	// byte, the rank-based LF formula can be off by one at rows whose BWT
	// character is the separator (the cyclic wrap row does not in general
	// sort first among them). sepRows lists those rows in increasing
	// order; sepTargets[i] is the true LF target of sepRows[i].
	sepRows    []int32
	sepTargets []int32

	docTable

	// sym resolves a row's first symbol without the binary search over
	// the C array; derived from c, rebuilt on load, never serialized.
	sym symTable
}

// buildSymTable derives the row→symbol table from the C array.
func (x *Index) buildSymTable() {
	var bound [257]int32
	for b, v := range x.c {
		bound[b] = int32(v)
	}
	x.sym.build(bound, x.n)
}

// Layout is the form of an FM index: its tree and its codec, one per
// registered FM index name. In memory all four hold their SA samples
// packed and their ISA samples as shortcuts; they differ in the tree
// and in how files store the samples.
type Layout uint8

const (
	// FMP, the default ("fmp"): the 4-ary tree, and files store the
	// samples as in memory, the ISA samples as shortcuts.
	FMP Layout = iota
	// FMZ ("fmz"): the 4-ary tree, and files store the SA samples
	// packed and the ISA samples as a packed array of rows.
	FMZ
	// FM4 ("fm4"): the 4-ary tree, and files store the samples as
	// int32 arrays, which a read views as width-32 vectors.
	FM4
	// FM ("fm"): FM4's codec over the binary Huffman-shaped tree.
	FM
	// FMM ("fmm"): FMP's tree and samples over rows in multi-string
	// order and documents in a padded layout, so that an index over a
	// list of documents is the same however it was produced, and
	// indexes merge and purge without sorting (merge.go).
	FMM
)

// Options configure index construction.
type Options struct {
	// SampleRate is the suffix-array sampling rate s; locate costs O(s)
	// rank operations and the samples take O(n/s·log n) bits. Default 16.
	SampleRate int
	// Layout picks the tree and the codec; the zero value is FMP.
	Layout Layout
}

func (o Options) withDefaults() Options {
	if o.SampleRate <= 0 {
		o.SampleRate = 16
	}
	return o
}

// Build constructs the index over the given documents. Document data must
// not contain the separator byte 0x00.
//
// Construction recycles its scratch (concat buffer, SA-IS workspace,
// BWT bytes) through a pool shared across builds.
func Build(docs []Doc, opts Options) *Index {
	opts = opts.withDefaults()
	if opts.Layout == FMM {
		return buildFMM(docs, opts.SampleRate)
	}
	total := 0
	for _, d := range docs {
		total += len(d.Data) + 1
	}
	sc := scratchPool.Get().(*buildScratch)
	text := sa.Grow(sc.text, total)[:0]
	idx := &Index{s: opts.SampleRate, saScale: opts.SampleRate, layout: opts.Layout}
	text = idx.appendDocs(text, docs)
	sc.text = text
	idx.n = len(text)
	if idx.n == 0 {
		idx.bwt = newSequence(nil, make([]int64, 256), opts.Layout)
		idx.marked = bitvec.FromBools(nil)
		idx.saSamp = newPacked(0, 0)
		idx.isa, _ = newShortcuts(idx.saSamp, idx.marked)
		idx.buildSymTable()
		scratchPool.Put(sc)
		return idx
	}

	suff := sa.SuffixArrayWS(text, &sc.saws)
	n, rate, nDocs := idx.n, idx.s, len(docs)

	// The separator is the smallest byte, so the separator suffixes are
	// exactly rows 0 … nDocs-1: those rows alone say which row each
	// document's separator sorts to — a DocCount-entry table, not a full
	// inverse array — and the last document's is the row of position n-1.
	sepRowOf := sa.Grow(sc.inv, nDocs)
	sc.inv = sepRowOf
	for row, p := range suff[:nDocs] {
		d, _ := idx.posToDoc(int(p))
		sepRowOf[d] = int32(row)
	}

	// Everything else the index keeps comes out of one pass over suff:
	// the cyclic BWT over the concatenation itself (its last byte is a
	// separator, so suffix order is well defined; see package comment)
	// and its symbol counts, which give C and the Huffman code lengths;
	// SA samples and mark bits at rows whose suffix position is ≡ 0
	// (mod s), from which the ISA samples follow; and the
	// exact LF target of every row whose BWT symbol is the separator —
	// such a row holds a document start, and its target is the row of
	// the preceding document's separator (cyclically).
	bwtBytes := sa.Grow(sc.bwt, n)
	sc.bwt = bwtBytes
	var freq [256]int64
	marks := make([]uint64, (n+63)/64)
	// Sampled positions are the multiples of s below n, so an SA sample
	// is stored as p/s < ⌈n/s⌉.
	idx.saSamp = newPacked(saBound(n, rate), saBound(n, rate))
	idx.lastRow = int(sepRowOf[nDocs-1])
	sampled := 0
	idx.sepRows = make([]int32, 0, nDocs)
	idx.sepTargets = make([]int32, 0, nDocs)
	m := reciprocal(rate)
	for row, p := range suff {
		before := int(p) - 1
		if before < 0 {
			before = n - 1
		}
		b := text[before]
		bwtBytes[row] = b
		freq[b]++
		if divides(m, p) {
			marks[row>>6] |= 1 << (uint(row) & 63)
			idx.saSamp.set(sampled, uint64(int(p)/rate))
			sampled++
		}
		if b == Sep {
			d, _ := idx.posToDoc(int(p))
			idx.sepRows = append(idx.sepRows, int32(row))
			idx.sepTargets = append(idx.sepTargets, sepRowOf[(d+nDocs-1)%nDocs])
		}
	}
	sum := 0
	for b, f := range freq {
		idx.c[b] = sum
		sum += int(f)
	}
	idx.c[256] = sum
	idx.buildSymTable()
	idx.marked = bitvec.FromWords(marks, n)
	idx.isa, _ = newShortcuts(idx.saSamp, idx.marked)
	idx.bwt = newSequence(bwtBytes, freq[:], opts.Layout)
	scratchPool.Put(sc)
	return idx
}

// newSequence builds the BWT's wavelet tree from its counted bytes.
func newSequence(bwt []byte, freq []int64, l Layout) sequence {
	if l == FM {
		return wavelet.NewHuffmanBytesCounted(bwt, freq)
	}
	return wavelet.NewQuadBytesCounted(bwt, freq)
}

// reciprocal returns m = ⌈2⁶⁴/s⌉ mod 2⁶⁴, with which divides tests
// s | p by one multiply: p·m wraps to at most m-1 exactly when p is a
// multiple of s (Lemire, Kaser & Kurz, "Faster remainder by direct
// computation", 2019; exact for any 32-bit p and s ≥ 1). It keeps the
// division off every row of a build but the sampled ones.
func reciprocal(s int) uint64 { return ^uint64(0)/uint64(s) + 1 }

func divides(m uint64, p int32) bool { return uint64(p)*m <= m-1 }

// saBound is the number of positions below n sampled at rate s, ⌈n/s⌉:
// the number of SA samples, and the bound of each stored as p/s.
func saBound(n, s int) int { return (n + s - 1) / s }

// isaCount is the number of ISA samples of n rows at rate s: one per
// multiple of s below n, and one for n-1.
func isaCount(n, s int) int {
	if n == 0 {
		return 0
	}
	return (n-1)/s + 2
}

// SALen reports the number of suffix-array rows (the universe of the
// deletion bitmap kept by the semi-dynamic wrapper).
func (x *Index) SALen() int { return x.n }

// SampleRate reports the SA sampling rate s.
func (x *Index) SampleRate() int { return x.s }

// Range returns the half-open suffix-array interval [lo, hi) of rows
// whose suffixes start with pattern, via backward search. An empty
// pattern yields the full interval; an absent pattern yields lo == hi.
// Patterns containing the separator byte never match.
func (x *Index) Range(pattern []byte) (lo, hi int) {
	if len(pattern) == 0 {
		return 0, x.n
	}
	// From the full interval the first backward step needs no rank: the
	// rows whose suffix starts with b are c[b] … c[b+1] by definition.
	last := len(pattern) - 1
	lo, hi = x.c[pattern[last]], x.c[int(pattern[last])+1]
	for i := last - 1; i >= 0 && lo < hi; i-- {
		b := pattern[i]
		// Both interval endpoints rank the same symbol, so one fused
		// walk shares the node path and bit-vector directory loads.
		rl, rh := x.bwt.RankPair(uint32(b), lo, hi)
		lo = x.c[b] + rl
		hi = x.c[b] + rh
	}
	return lo, hi
}

// Locate maps a suffix-array row to the document index and offset of the
// suffix start. Offsets equal to DocLen(doc) denote the document's
// trailing separator.
func (x *Index) Locate(row int) (doc, off int) {
	if row < 0 || row >= x.n {
		panic(fmt.Sprintf("fmindex: Locate(%d) out of range [0,%d)", row, x.n))
	}
	loc := [1]uint64{uint64(row)}
	x.LocateRows(loc[:])
	return int(loc[0] >> 32), int(uint32(loc[0]))
}

// SuffixRank returns the suffix-array row of the suffix starting at the
// given document offset (tSA in the paper). off may equal DocLen(doc),
// addressing the trailing separator.
func (x *Index) SuffixRank(doc, off int) int {
	start, end, endRow := x.docSpan(doc)
	pos := start + off
	if off < 0 || off > x.DocLen(doc) {
		panic(fmt.Sprintf("fmindex: SuffixRank position %d out of range", pos))
	}
	row := 0
	x.walkRange(pos, pos+1, end, endRow, func(_, r int, _ byte) { row = r })
	return row
}

// Extract returns length symbols of document d starting at offset off,
// clamped to the document payload. The symbols are the BWT symbols its
// LF lanes read, written right to left within each lane.
func (x *Index) Extract(d, off, length int) []byte {
	off, length = doc.Clamp(off, length, x.DocLen(d))
	if length == 0 {
		return nil
	}
	start, end, endRow := x.docSpan(d)
	lo := start + off
	out := make([]byte, length)
	x.walkRange(lo, lo+length, end, endRow, func(q, _ int, b byte) { out[q-lo] = b })
	return out
}

// docSpan is what a walk over document d needs: the position of its
// first symbol, one past the last position a walk over it may start
// at, and the row of that position, the one sampled position that need
// not be a multiple of s — in the concatenation n-1, whose row is
// lastRow; in the padded layout d's separator, whose row is d, as the
// separators sort first and by document.
func (x *Index) docSpan(d int) (start, end, endRow int) {
	if x.pad == 0 {
		return int(x.docStarts[d]), x.n, x.lastRow
	}
	return x.start(d), x.ends.get(d), d
}

// Space is an index's footprint in bits, section by section.
type Space struct {
	Tree       int64 // the BWT's wavelet tree with its rank directories
	Marks      int64 // the sampled-row bit vector with its rank directory
	SASamples  int64
	ISASamples int64 // the shortcuts with their select samples, or a mapped file's ISA array; and the row of n-1 but in fmm
	SepTables  int64 // separator rows and their LF targets
	DocTable   int64 // document starts and IDs
	Symbols    int64 // the C array and the row→symbol table derived from it
}

// Add returns the section-by-section sum of two footprints.
func (sp Space) Add(o Space) Space {
	return Space{
		Tree:       sp.Tree + o.Tree,
		Marks:      sp.Marks + o.Marks,
		SASamples:  sp.SASamples + o.SASamples,
		ISASamples: sp.ISASamples + o.ISASamples,
		SepTables:  sp.SepTables + o.SepTables,
		DocTable:   sp.DocTable + o.DocTable,
		Symbols:    sp.Symbols + o.Symbols,
	}
}

// Total is the sum of the sections.
func (sp Space) Total() int64 {
	return sp.Tree + sp.Marks + sp.SASamples + sp.ISASamples + sp.SepTables + sp.DocTable + sp.Symbols
}

// Space reports the index's footprint section by section.
func (x *Index) Space() Space {
	return Space{
		Tree:       x.bwt.SizeBits(),
		Marks:      x.marked.SizeBits(),
		SASamples:  x.saSamp.sizeBits(),
		ISASamples: x.isa.sizeBits() + x.isaSamp.sizeBits() + x.lastRowBits(),
		SepTables:  int64(len(x.sepRows)+len(x.sepTargets)) * 32,
		DocTable:   x.docTable.sizeBits(),
		Symbols:    int64(len(x.c))*64 + x.sym.sizeBits(),
	}
}

// lastRowBits is what the row of n-1 costs: a word, but in fmm, which
// keeps none.
func (x *Index) lastRowBits() int64 {
	if x.layout == FMM {
		return 0
	}
	return 64
}

// SizeBits is the index footprint in bits for space accounting: the
// sum of its Space sections.
func (x *Index) SizeBits() int64 { return x.Space().Total() }
