package core

import (
	"slices"

	"dyncoll/internal/doc"
	"dyncoll/internal/dynbits"
	"dyncoll/internal/engine"
	"dyncoll/internal/sparsebits"
)

// SemiDynamic wraps a StaticIndex with the paper's lazy-deletion
// machinery (Section 2, "Supporting Document Deletions"):
//
//   - a bitmap B over suffix-array rows, B[j] = 0 iff row j belongs to a
//     deleted document, stored in the structure V of Lemma 2 or 3 (see
//     newRowBitmap) so the live rows of any range are reported in O(1)
//     each;
//   - optionally (Theorem 1) a rank-capable copy of B so live rows in a
//     range can be counted in O(log n).
//
// Deleting a document costs tSA + O(logᵋ n) per symbol: each of its
// suffix rows is located with SuffixRank and cleared in V. The wrapper
// never rebuilds itself — it is the document instance of the engine's
// static payload contract, and the engine purges and rebuilds whole
// sub-collections through the configured Build function.
type SemiDynamic struct {
	idx   StaticIndex
	alive rowBitmap       // nil = no deletions yet (deferred wrapper)
	cnt   *dynbits.Vector // nil unless counting is enabled and alive exists

	tau      int  // Lemma 3 word width, kept for deferred materialization
	counting bool // Theorem 1 rank structure requested

	byID    map[uint64]int // live doc ID → doc index within idx
	live    int            // live payload symbols
	deleted int            // deleted payload symbols
}

// rowBitmap is the deletion bitmap V: all ones at first, bits only ever
// cleared.
type rowBitmap interface {
	Zero(i int)
	Report(s, e int, fn func(pos int) bool)
	Count1(s, e int) int
	SizeBits() int64
}

// newRowBitmap picks V's representation. Lemma 3 stores each τ-bit word
// as the list of its zeros, which undercuts Lemma 2's plain n bits only
// once τ is well past the machine word: below that a word's list header
// alone outweighs the word. The engine's automatic τ is log n / log log n
// — single digits — so in practice this is the dense form.
func newRowBitmap(n, tau int) rowBitmap {
	if tau < 64 {
		return sparsebits.NewDense(n)
	}
	return sparsebits.NewCompressed(n, tau)
}

// lfStepper is the optional fast-deletion interface: LF maps a suffix
// row to the row of the suffix one position earlier.
type lfStepper interface {
	LF(row int) int
}

// NewSemiDynamic wraps idx. tau sets the Lemma 3 word width; counting
// attaches the Theorem 1 rank structure.
func NewSemiDynamic(idx StaticIndex, tau int, counting bool) *SemiDynamic {
	s := NewSemiDynamicDeferred(idx, tau, counting)
	s.materialize()
	return s
}

// NewSemiDynamicDeferred wraps idx like NewSemiDynamic but without
// allocating the deletion bitmaps: a nil bitmap means "every row is
// live", so a mapped store with no deletions costs O(docs) heap to
// open instead of O(n) bits. The bitmaps materialize on the first
// Delete, under the same external write serialization every mutation
// already requires.
func NewSemiDynamicDeferred(idx StaticIndex, tau int, counting bool) *SemiDynamic {
	if tau < 2 {
		tau = 2
	}
	if tau > 4096 {
		tau = 4096
	}
	s := &SemiDynamic{
		idx:      idx,
		tau:      tau,
		counting: counting,
		byID:     make(map[uint64]int, idx.DocCount()),
	}
	for i := 0; i < idx.DocCount(); i++ {
		s.byID[idx.DocID(i)] = i
		s.live += idx.DocLen(i)
	}
	return s
}

// materialize allocates the all-ones deletion bitmaps of a deferred
// wrapper; no-op once they exist.
func (s *SemiDynamic) materialize() {
	if s.alive != nil {
		return
	}
	s.alive = newRowBitmap(s.idx.SALen(), s.tau)
	if s.counting {
		s.cnt = dynbits.New(s.idx.SALen(), true)
	}
}

// Index exposes the wrapped static index.
func (s *SemiDynamic) Index() StaticIndex { return s.idx }

// LiveWeight and DeadWeight report live/deleted payload symbols
// (engine.Store).
func (s *SemiDynamic) LiveWeight() int { return s.live }
func (s *SemiDynamic) DeadWeight() int { return s.deleted }

// DocCount reports the number of live documents.
func (s *SemiDynamic) DocCount() int { return len(s.byID) }

// Delete lazily removes document id, reporting its symbol weight
// (engine.Store).
func (s *SemiDynamic) Delete(id uint64) (int, bool) {
	d, ok := s.byID[id]
	if !ok {
		return 0, false
	}
	delete(s.byID, id)
	s.materialize()
	dl := s.idx.DocLen(d)
	// Clear every suffix row of the document, separator included, so
	// neither reporting nor counting ever sees it again. When the index
	// exposes the LF mapping, one O(dl) walk from the separator row visits
	// them all; otherwise fall back to dl separate SuffixRank calls.
	if lf, ok := s.idx.(lfStepper); ok {
		row := s.idx.SuffixRank(d, dl)
		for off := dl; ; off-- {
			s.alive.Zero(row)
			if s.cnt != nil {
				s.cnt.Set(row, false)
			}
			if off == 0 {
				break
			}
			row = lf.LF(row)
		}
	} else {
		for off := 0; off <= dl; off++ {
			row := s.idx.SuffixRank(d, off)
			s.alive.Zero(row)
			if s.cnt != nil {
				s.cnt.Set(row, false)
			}
		}
	}
	s.live -= dl
	s.deleted += dl
	return dl, true
}

// FindFunc reports the live occurrences of pattern in suffix-array
// order (Part).
func (s *SemiDynamic) FindFunc(pattern []byte, fn func(Occurrence) bool) {
	if len(pattern) == 0 {
		s.findEverything(fn)
		return
	}
	lo, hi := s.idx.Range(pattern)
	if lo >= hi {
		return
	}
	if s.alive == nil { // no deletions: every row of the range is live
		for row := lo; row < hi; row++ {
			d, off := s.idx.Locate(row)
			if !fn(Occurrence{DocID: s.idx.DocID(d), Off: off}) {
				return
			}
		}
		return
	}
	s.alive.Report(lo, hi-1, func(row int) bool {
		d, off := s.idx.Locate(row)
		return fn(Occurrence{DocID: s.idx.DocID(d), Off: off})
	})
}

// positionLister is the optional position-ordered enumeration fast
// path: an index that can pack a row range's (docIndex, offset) pairs
// into sortable uint64 words without per-row interface dispatch.
type positionLister interface {
	AppendPositions(lo, hi int, dst []uint64) []uint64
}

// FindGroupedFunc reports the occurrences of pattern grouped by
// document, offsets ascending within each document. It materializes the
// match positions as packed docIndex<<32|offset words and sorts them —
// the suffix-array range arrives in lexicographic row order, so the
// grouping has to be imposed; one flat uint64 sort is the cheapest way.
func (s *SemiDynamic) FindGroupedFunc(pattern []byte, fn func(Occurrence) bool) {
	if len(pattern) == 0 {
		// Every live position, already contiguous per document.
		s.findEverything(fn)
		return
	}
	lo, hi := s.idx.Range(pattern)
	if lo >= hi {
		return
	}
	var packed []uint64
	if pl, ok := s.idx.(positionLister); ok && s.alive == nil {
		packed = pl.AppendPositions(lo, hi, make([]uint64, 0, hi-lo))
	} else {
		packed = make([]uint64, 0, hi-lo)
		collect := func(row int) bool {
			d, off := s.idx.Locate(row)
			packed = append(packed, uint64(d)<<32|uint64(uint32(off)))
			return true
		}
		if s.alive == nil {
			for row := lo; row < hi; row++ {
				collect(row)
			}
		} else {
			s.alive.Report(lo, hi-1, collect)
		}
	}
	slices.Sort(packed)
	for _, p := range packed {
		if !fn(Occurrence{DocID: s.idx.DocID(int(p >> 32)), Off: int(uint32(p))}) {
			return
		}
	}
}

// findEverything reports every live position (empty-pattern semantics).
func (s *SemiDynamic) findEverything(fn func(Occurrence) bool) {
	for id, d := range s.byID {
		dl := s.idx.DocLen(d)
		for off := 0; off < dl; off++ {
			if !fn(Occurrence{DocID: id, Off: off}) {
				return
			}
		}
	}
}

// Count is the number of live occurrences of pattern (Part).
func (s *SemiDynamic) Count(pattern []byte) int {
	if len(pattern) == 0 {
		return s.live
	}
	lo, hi := s.idx.Range(pattern)
	if lo >= hi {
		return 0
	}
	if s.alive == nil { // no deletions: the whole range is live
		return hi - lo
	}
	if s.cnt != nil {
		return s.cnt.Count1(lo, hi-1)
	}
	// Counting through the deletion bitmap directly (per-word popcounts,
	// no per-position callback) keeps the enumeration fallback cheap and
	// allocation-free.
	return s.alive.Count1(lo, hi-1)
}

// Extract reads a live document's payload. The wrapper clamps the
// length, so reading a whole document needs no DocLen call first and
// holds for an index whose Extract does not clamp.
func (s *SemiDynamic) Extract(id uint64, off, length int) ([]byte, bool) {
	d, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return s.idx.Extract(d, off, min(length, s.idx.DocLen(d)-off)), true
}

// DocLen is the payload length of a live document (Part).
func (s *SemiDynamic) DocLen(id uint64) (int, bool) {
	d, ok := s.byID[id]
	if !ok {
		return 0, false
	}
	return s.idx.DocLen(d), true
}

// LiveKeys returns the IDs of the live documents — a cheap snapshot, no
// payload extraction (engine.Store).
func (s *SemiDynamic) LiveKeys() []uint64 {
	out := make([]uint64, 0, len(s.byID))
	for id := range s.byID {
		out = append(out, id)
	}
	return out
}

// docAppender is the optional bulk materialization path: an index that
// can decompress many of its documents in one pass (fmindex.Index
// inverts its BWT once) instead of paying textract per symbol. Indexes
// without it are read document by document through Extract.
type docAppender interface {
	AppendDocs(docIdxs []int, dst []doc.Doc) []doc.Doc
}

// liveDocIdxs lists the live documents' indices in ascending order, so
// what a rebuild reads — and with it the bytes of the store it writes —
// does not depend on map iteration order.
func (s *SemiDynamic) liveDocIdxs() []int {
	idxs := make([]int, 0, len(s.byID))
	for _, d := range s.byID {
		idxs = append(idxs, d)
	}
	slices.Sort(idxs)
	return idxs
}

// appendDocs appends the documents idxs of idx to dst.
func appendDocs(idx StaticIndex, idxs []int, dst []doc.Doc) []doc.Doc {
	if a, ok := idx.(docAppender); ok {
		return a.AppendDocs(idxs, dst)
	}
	for _, di := range idxs {
		dst = append(dst, doc.Doc{
			ID:   idx.DocID(di),
			Data: idx.Extract(di, 0, idx.DocLen(di)),
		})
	}
	return dst
}

// Snapshot captures the live document indices so their payloads can be
// extracted later — possibly on another goroutine — from the immutable
// static index (engine.Snapshotter). Lazy deletions touch only the
// wrapper's bitmaps, never the index, so the deferred extraction is
// race-free; documents deleted after the snapshot are weeded out when
// the build result is installed.
func (s *SemiDynamic) Snapshot() engine.Snapshot[doc.Doc] {
	idxs, idx := s.liveDocIdxs(), s.idx
	return engine.Snapshot[doc.Doc]{
		Count: len(idxs),
		Materialize: func(dst []doc.Doc) []doc.Doc {
			return appendDocs(idx, idxs, dst)
		},
	}
}

// LiveItems materializes the live documents (engine.Store).
func (s *SemiDynamic) LiveItems() []doc.Doc {
	return appendDocs(s.idx, s.liveDocIdxs(), make([]doc.Doc, 0, len(s.byID)))
}

// SizeBits estimates the footprint (engine.Store).
func (s *SemiDynamic) SizeBits() int64 {
	total := s.idx.SizeBits()
	if s.alive != nil {
		total += s.alive.SizeBits()
	}
	if s.cnt != nil {
		total += s.cnt.SizeBits()
	}
	return total
}
