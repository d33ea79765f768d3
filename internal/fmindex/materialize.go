package fmindex

import (
	"slices"

	"dyncoll/internal/sa"
)

// AppendDocs appends the documents docIdxs — any subset of the index, in
// any order — to dst, payloads included. It is the bulk counterpart of
// Extract for callers that decompress most of a store (every rebuild
// does): instead of one wavelet-tree rank walk per symbol it inverts
// the BWT once.
//
//  1. The BWT is decoded whole (ReadAll), which touches no rank
//     directory, and then a counting sort over the C array turns each
//     row's symbol into its LF target —
//     row's symbol b is the k-th b so far, so LF(row) = c[b] + k. The
//     separator rows are then patched from sepTargets, as the LF step
//     (lfSteps) patches them.
//  2. Each wanted document is recovered right to left by following that
//     flat array from its separator's row; the symbol at each step is
//     the first column of the row reached.
//
// The LF array (4 bytes per row) and the decoded BWT are transient:
// both are checked out of the build-scratch pool and the index retains
// nothing. All payloads share one slab allocation, so a store
// costs O(1) allocations however many documents it holds. Like Extract
// it reads only immutable index state and is safe on any goroutine.
func (x *Index) AppendDocs(docIdxs []int, dst []Doc) []Doc {
	total := 0
	for _, d := range docIdxs {
		total += x.DocLen(d)
	}
	dst = slices.Grow(dst, len(docIdxs))
	slab := make([]byte, total)
	base := len(dst)
	for _, d := range docIdxs {
		dl := x.DocLen(d)
		dst = append(dst, Doc{ID: x.docIDs[d], Data: slab[:dl:dl]})
		slab = slab[dl:]
	}
	if total > 0 { // else nothing but empty documents: no row to visit
		sc := scratchPool.Get().(*buildScratch)
		x.walk(x.lfArray(sc), docIdxs, dst[base:])
		scratchPool.Put(sc)
	}
	return dst
}

const (
	// walkLanes is how many LF walks advance together, here and in the
	// query-time lanes (lanes.go). Every step of a walk is a load from a
	// random row of an array far larger than cache, and each depends on
	// the one before, so a single walk runs at one memory latency per
	// step; independent walks advanced in lockstep keep that many misses
	// in flight instead.
	walkLanes = 8
	// walkSeg caps a segment's length, so one long document is still
	// split across lanes. Starting a segment costs at most s extra steps
	// from an ISA sample, under 2 % at the default sampling rate.
	walkSeg = 1024
)

// walk fills out[k].Data, already sized, with document docIdxs[k].
func (x *Index) walk(lf []int32, docIdxs []int, out []Doc) {
	type lane struct {
		row int32
		buf []byte // the segment's still-unwritten prefix; filled from its end
	}
	var lanes [walkLanes]lane
	active := 0
	k, rest := 0, 0 // next segment ends at offset rest of document docIdxs[k]
	if len(out) > 0 {
		rest = len(out[0].Data)
	}
	for {
		for active < walkLanes && k < len(out) {
			if rest == 0 {
				if k++; k < len(out) {
					rest = len(out[k].Data)
				}
				continue
			}
			// SuffixRank of the segment's end, over the flat array.
			start, docEnd, endRow := x.docSpan(docIdxs[k])
			end := start + rest
			j := sampleAfter(end, x.s, docEnd)
			row := x.sampleRow(j, endRow)
			for ; j > end; j-- {
				row = int(lf[row])
			}
			seg := min(rest, walkSeg)
			lanes[active] = lane{row: int32(row), buf: out[k].Data[rest-seg : rest]}
			active++
			rest -= seg
		}
		if active == 0 {
			return
		}
		steps := len(lanes[0].buf)
		for _, l := range lanes[1:active] {
			steps = min(steps, len(l.buf))
		}
		for j := 1; j <= steps; j++ {
			for i := 0; i < active; i++ {
				l := &lanes[i]
				l.row = lf[l.row]
				l.buf[len(l.buf)-j] = x.sym.at(int(l.row))
			}
		}
		live := 0
		for _, l := range lanes[:active] {
			if l.buf = l.buf[:len(l.buf)-steps]; len(l.buf) > 0 {
				lanes[live] = l
				live++
			}
		}
		active = live
	}
}

// lfArray materializes the LF mapping of every row into sc.inv,
// decoding the BWT into sc.bwt.
func (x *Index) lfArray(sc *buildScratch) []int32 {
	lf := sa.Grow(sc.inv, x.n)
	sc.inv = lf
	var next [256]int32
	for b := range next {
		next[b] = int32(x.c[b])
	}
	sc.bwt = sa.Grow(sc.bwt, x.n)
	sc.text = x.bwt.ReadAll(sc.bwt, sc.text)
	for row, b := range sc.bwt {
		lf[row] = next[b]
		next[b]++
	}
	for i, r := range x.sepRows {
		lf[r] = x.sepTargets[i]
	}
	return lf
}
