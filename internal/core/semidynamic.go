package core

import (
	"slices"
	"sync"

	"dyncoll/internal/doc"
	"dyncoll/internal/engine"
	"dyncoll/internal/sparsebits"
)

// SemiDynamic wraps a StaticIndex with the paper's lazy-deletion
// machinery (Section 2, "Supporting Document Deletions"):
//
//   - a bitmap B over suffix-array rows, B[j] = 0 iff row j belongs to a
//     deleted document, stored in the structure V of Lemma 2 (see
//     sparsebits.Dense) so the live rows of any range are reported in
//     O(1) each;
//   - optionally (Theorem 1) a rank structure over the same B, so live
//     rows in a range can be counted in O(log n).
//
// A store with no deletions needs neither: B is made, all ones, by the
// store's first Delete, under the write serialization every mutation
// already holds. Until then every row is live, and a store — built,
// loaded or mapped — costs only its index.
//
// Deleting a document costs tSA + O(logᵋ n) per symbol: each of its
// suffix rows is located with SuffixRank and cleared in V. The wrapper
// never rebuilds itself — it is the document instance of the engine's
// static payload contract, and the engine purges and rebuilds whole
// sub-collections through the configured Build function.
type SemiDynamic struct {
	idx      StaticIndex
	alive    *sparsebits.Dense // B; nil = no deletions yet
	counting bool              // B carries Theorem 1's rank structure

	byID    map[uint64]int // live doc ID → doc index within idx
	live    int            // live payload symbols
	deleted int            // deleted payload symbols

	// zeroRow clears one row of B. Delete hands it to the index through
	// an interface, which would heap-allocate a closure made per call;
	// this one is made once per wrapper.
	zeroRow func(row int)
}

// docRowWalker is the optional bulk delete path: an index that can list
// a document's suffix-array rows in one walk (fmindex.Index runs its LF
// lanes over the document) instead of one SuffixRank per offset.
type docRowWalker interface {
	ForDocRows(d int, fn func(row int))
}

// rowLocator is the optional bulk locate: an index that locates many
// rows at once (fmindex.Index walks them as parallel LF lanes), each
// replaced in place by its location packed as docIndex<<32 | offset.
type rowLocator interface {
	LocateRows(rows []uint64)
}

// locateChunk is how many rows FindFunc hands the index per bulk
// locate: enough to fill its lanes, few enough that a stop after the
// first occurrence wastes little.
const locateChunk = 16

// NewSemiDynamic wraps idx. counting attaches the Theorem 1 rank
// structure to B; neither is allocated until the first Delete.
func NewSemiDynamic(idx StaticIndex, counting bool) *SemiDynamic {
	s := &SemiDynamic{
		idx:      idx,
		counting: counting,
		byID:     make(map[uint64]int, idx.DocCount()),
	}
	s.zeroRow = func(row int) { s.alive.Zero(row) }
	for i := 0; i < idx.DocCount(); i++ {
		s.byID[idx.DocID(i)] = i
		s.live += idx.DocLen(i)
	}
	return s
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
	if s.alive == nil {
		s.alive = sparsebits.NewDense(s.idx.SALen(), s.counting)
	}
	dl := s.idx.DocLen(d)
	// Clear every suffix row of the document, separator included, so
	// neither reporting nor counting ever sees it again.
	if w, ok := s.idx.(docRowWalker); ok {
		w.ForDocRows(d, s.zeroRow)
	} else {
		for off := 0; off <= dl; off++ {
			s.zeroRow(s.idx.SuffixRank(d, off))
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
	// Live rows are located a chunk at a time and reported in row order,
	// so a stop wastes less than one chunk of locates.
	c := chunkPool.Get().(*rowChunk)
	defer chunkPool.Put(c)
	*c = rowChunk{}
	if s.alive == nil { // no deletions: every row of the range is live
		for row := lo; row < hi && c.add(s, row, fn); row++ {
		}
	} else {
		s.alive.Report(lo, hi-1, func(row int) bool { return c.add(s, row, fn) })
	}
	if !c.stopped {
		c.flush(s, fn)
	}
}

// rowChunk gathers FindFunc's live rows for one bulk locate. It goes to
// the index through an interface, which would put a new one on the heap
// for every part of every query, so chunkPool recycles them.
type rowChunk struct {
	rows    [locateChunk]uint64
	n       int
	stopped bool // fn has returned false
}

var chunkPool = sync.Pool{New: func() any { return new(rowChunk) }}

// add queues row and reports the chunk once it is full; it returns
// false once fn has.
func (c *rowChunk) add(s *SemiDynamic, row int, fn func(Occurrence) bool) bool {
	c.rows[c.n] = uint64(row)
	if c.n++; c.n < locateChunk {
		return true
	}
	return c.flush(s, fn)
}

// flush locates the queued rows in place and passes their occurrences
// to fn in order.
func (c *rowChunk) flush(s *SemiDynamic, fn func(Occurrence) bool) bool {
	rows := c.rows[:c.n]
	c.n = 0
	s.locate(rows)
	for _, p := range rows {
		if !fn(s.occurrence(p)) {
			c.stopped = true
			return false
		}
	}
	return true
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
	// The live rows, then their locations in place: one bulk locate over
	// the whole range.
	packed := make([]uint64, 0, hi-lo)
	if s.alive == nil {
		for row := lo; row < hi; row++ {
			packed = append(packed, uint64(row))
		}
	} else {
		s.alive.Report(lo, hi-1, func(row int) bool {
			packed = append(packed, uint64(row))
			return true
		})
	}
	s.locate(packed)
	slices.Sort(packed)
	for _, p := range packed {
		if !fn(s.occurrence(p)) {
			return
		}
	}
}

// locate replaces each rows[k], a suffix-array row, by its location
// packed as docIndex<<32 | offset.
func (s *SemiDynamic) locate(rows []uint64) {
	if l, ok := s.idx.(rowLocator); ok {
		l.LocateRows(rows)
		return
	}
	for k, row := range rows {
		d, off := s.idx.Locate(int(row))
		rows[k] = uint64(d)<<32 | uint64(uint32(off))
	}
}

// occurrence unpacks a located row.
func (s *SemiDynamic) occurrence(p uint64) Occurrence {
	return Occurrence{DocID: s.idx.DocID(int(p >> 32)), Off: int(uint32(p))}
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
	// B's own count: a Fenwick rank with counting on, otherwise one
	// popcount per word of the range. Neither calls back or allocates.
	return s.alive.Count1(lo, hi-1)
}

// Extract reads a live document's payload. The wrapper clamps the
// request as C0 does (doc.Clamp), so reading a whole document needs no
// DocLen call first, any request reads the same bytes in every part,
// and an index whose Extract does not clamp is only asked for bytes it
// has.
func (s *SemiDynamic) Extract(id uint64, off, length int) ([]byte, bool) {
	d, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	off, length = doc.Clamp(off, length, s.idx.DocLen(d))
	if length == 0 {
		return nil, true
	}
	return s.idx.Extract(d, off, length), true
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
		Count:  len(idxs),
		Weight: s.live,
		Materialize: func(dst []doc.Doc) []doc.Doc {
			return appendDocs(idx, idxs, dst)
		},
		Source: liveIndex{idx: idx, live: idxs},
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
	return total
}
