// Package baseline implements the prior-art dynamic indexes the paper
// compares against (Table 2):
//
//   - DynFM — a dynamic compressed index in the style of Chan–Hon–Lam [9],
//     Mäkinen–Navarro [30, 31] and Navarro–Nekrich [35]: the collection's
//     BWT is maintained in a dynamic wavelet tree, so every query symbol
//     costs one dynamic rank, i.e. Θ(log n) per symbol — the
//     Fredman–Saks-bounded behaviour the paper circumvents;
//   - STIndex — the uncompressed O(n log n)-bit generalized-suffix-tree
//     solution (the paper's Section A.2 strawman), fastest but fat.
//
// Both expose the same operations as the paper's transformations so the
// benchmark harness can run identical workloads over all three.
package baseline

import (
	"fmt"
	"sort"

	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/dynseq"
)

// DynFM is a dynamic FM-index over a document collection. The BWT of the
// collection (each document treated as its own cycle, terminated by the
// reserved separator 0x00) lives in a dynamic wavelet tree; inserting or
// deleting a document runs the standard per-symbol BWT update loop, and
// queries run backward search — every step a dynamic rank.
type DynFM struct {
	bwt    *dynseq.Wavelet   // the BWT sequence, separators included
	marked *dynseq.BitVector // rows carrying a suffix-array sample
	// samples[k] packs (docSlot << 32 | offset) for the k-th marked row.
	samples *dynseq.Uint64Array

	// counts[c] is the number of occurrences of symbol c in the BWT;
	// prefix sums give the C array. σ ≤ 256, so plain recomputation of
	// C[c] costs O(σ) — cheaper in practice than a Fenwick at this size.
	counts [256]int

	// sepDocs[i] is the document whose separator row is row i of the
	// $-block (rows [0, ρ)). Kept as a slice: ρ documents cost O(ρ)
	// per update, matching the O(ρ log n) bits the paper budgets for
	// navigation between documents.
	sepDocs []uint64

	meta   map[uint64]*docMeta
	slots  []uint64 // docSlot → document ID
	s      int      // sample rate
	length int      // total payload symbols
}

type docMeta struct {
	slot int
	len  int
}

// NewDynFM creates an empty baseline index with suffix-array sample rate
// s (locate walks at most s-1 LF steps, each a dynamic rank).
func NewDynFM(s int) *DynFM {
	if s <= 0 {
		s = 16
	}
	return &DynFM{
		bwt:     dynseq.NewWavelet(),
		marked:  dynseq.NewBitVector(),
		samples: dynseq.NewUint64Array(),
		meta:    make(map[uint64]*docMeta),
		s:       s,
	}
}

// Len reports the number of live payload symbols.
func (f *DynFM) Len() int { return f.length }

// DocCount reports the number of live documents.
func (f *DynFM) DocCount() int { return len(f.meta) }

// Has reports whether document id is present.
func (f *DynFM) Has(id uint64) bool {
	_, ok := f.meta[id]
	return ok
}

// cOf returns C[c]: the number of BWT symbols strictly smaller than c.
func (f *DynFM) cOf(c byte) int {
	n := 0
	for x := 0; x < int(c); x++ {
		n += f.counts[x]
	}
	return n
}

// lf maps row p with symbol c at it to the row of the suffix starting one
// position earlier: LF(p) = C[c] + rank_c(bwt, p).
func (f *DynFM) lf(p int, c byte) int {
	return f.cOf(c) + f.bwt.Rank(c, p)
}

// Insert adds a document by the textbook dynamic-BWT construction: the
// separator row first, then one LF-guided insertion per symbol, right to
// left. Each symbol costs O(log n · log σ) — the baseline's bottleneck.
func (f *DynFM) Insert(d doc.Doc) error {
	if _, dup := f.meta[d.ID]; dup {
		return fmt.Errorf("baseline: insert id %d: %w", d.ID, core.ErrDuplicateID)
	}
	if !d.Valid() {
		return fmt.Errorf("baseline: insert id %d: %w", d.ID, core.ErrReservedByte)
	}
	m := len(d.Data)
	slot := len(f.slots)
	f.slots = append(f.slots, d.ID)
	f.meta[d.ID] = &docMeta{slot: slot, len: m}

	if m == 0 {
		// An empty document is just a separator row at the end of the
		// $-block; it matches no pattern and needs no samples.
		p := len(f.sepDocs)
		f.insertRow(p, 0, true, packSample(slot, 0))
		f.sepDocs = append(f.sepDocs, d.ID)
		return nil
	}

	// Row of the new separator suffix: append to the end of the $-block.
	// Its BWT symbol is the document's last payload symbol.
	p := len(f.sepDocs)
	f.sepDocs = append(f.sepDocs, d.ID)
	f.insertRow(p, d.Data[m-1], (m%f.s) == 0, packSample(slot, m))

	// Insert suffixes T[k..] for k = m down to 1 (1-based); the suffix
	// T[k..] has BWT symbol T[k-1], or the separator for k = 1. Offsets
	// are 0-based: suffix T[k..] starts at offset k-1.
	//
	// Until the document's own separator symbol lands in the BWT (at
	// k = 1), the first column of the conceptual rotation matrix holds one
	// more separator than the BWT column — the new "$" row exists but its
	// BWT 0-symbol does not yet. cOf counts the BWT column, so every LF
	// during construction is adjusted by +1 for that pending separator.
	for k := m; k >= 1; k-- {
		c := f.bwtSymbolFor(d.Data, k)
		// LF from the row we just inserted (suffix T[k+1..] at row p with
		// symbol T[k]) gives the row of suffix T[k..].
		p = f.lf(p, d.Data[k-1]) + 1
		off := k - 1
		f.insertRow(p, c, off%f.s == 0, packSample(slot, off))
	}
	f.length += m
	return nil
}

// bwtSymbolFor returns the BWT symbol of the suffix starting at 1-based
// position k: the preceding symbol, or the separator for the first one.
func (f *DynFM) bwtSymbolFor(data []byte, k int) byte {
	if k == 1 {
		return 0
	}
	return data[k-2]
}

// insertRow inserts one BWT row at position p with symbol c; sampled rows
// carry a locate sample.
func (f *DynFM) insertRow(p int, c byte, sampled bool, sample uint64) {
	f.bwt.Insert(p, c)
	f.counts[c]++
	f.marked.Insert(p, sampled)
	if sampled {
		f.samples.Insert(f.marked.Rank1(p), sample)
	}
}

// deleteRow removes the BWT row at position p, returning its symbol.
func (f *DynFM) deleteRow(p int) byte {
	if f.marked.Get(p) {
		f.samples.Delete(f.marked.Rank1(p))
	}
	f.marked.Delete(p)
	c := f.bwt.Delete(p)
	f.counts[c]--
	return c
}

func packSample(slot, off int) uint64 {
	return uint64(slot)<<32 | uint64(uint32(off))
}

func unpackSample(v uint64) (slot, off int) {
	return int(v >> 32), int(uint32(v))
}

// Delete removes document id by the reverse walk: starting from the
// document's separator row, repeatedly delete the row and follow LF until
// the document's first suffix (whose BWT symbol is the separator) is
// gone. Each step is a dynamic rank + delete, Θ(log n) apiece.
func (f *DynFM) Delete(id uint64) bool {
	md, ok := f.meta[id]
	if !ok {
		return false
	}
	// Locate the separator row within the $-block.
	var p int = -1
	for i, d := range f.sepDocs {
		if d == id {
			p = i
			break
		}
	}
	if p < 0 {
		panic("baseline: separator row missing")
	}
	f.sepDocs = append(f.sepDocs[:p], f.sepDocs[p+1:]...)

	// Collect every row of the document by LF-walking the still-intact
	// BWT (where first-column and BWT-column counts agree, so plain LF is
	// exact), then remove the rows in descending order so earlier
	// deletions never shift the positions of later ones.
	rows := make([]int, 0, md.len+1)
	for {
		rows = append(rows, p)
		c := f.bwt.Access(p)
		if c == 0 {
			break
		}
		p = f.lf(p, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rows)))
	for _, row := range rows {
		f.deleteRow(row)
	}
	delete(f.meta, id)
	f.length -= md.len
	return true
}

// Range runs backward search for pattern, returning the half-open BWT row
// interval of suffixes starting with it. Each pattern symbol costs two
// dynamic ranks.
func (f *DynFM) Range(pattern []byte) (lo, hi int) {
	lo, hi = 0, f.bwt.Len()
	for i := len(pattern) - 1; i >= 0 && lo < hi; i-- {
		c := pattern[i]
		base := f.cOf(c)
		lo = base + f.bwt.Rank(c, lo)
		hi = base + f.bwt.Rank(c, hi)
	}
	return lo, hi
}

// Count returns the number of occurrences of pattern.
func (f *DynFM) Count(pattern []byte) int {
	if len(pattern) == 0 {
		return f.length
	}
	lo, hi := f.Range(pattern)
	return hi - lo
}

// Occurrence is one pattern match.
type Occurrence struct {
	DocID uint64
	Off   int
}

// Locate maps a BWT row to its (document, offset) by LF-walking to the
// nearest sampled row — at most s-1 dynamic ranks.
func (f *DynFM) Locate(row int) Occurrence {
	steps := 0
	p := row
	for !f.marked.Get(p) {
		c := f.bwt.Access(p)
		p = f.lf(p, c)
		steps++
	}
	slot, off := unpackSample(f.samples.Get(f.marked.Rank1(p)))
	return Occurrence{DocID: f.slots[slot], Off: off + steps}
}

// Find returns every occurrence of pattern. Matches that land on a
// separator offset (pattern absent) cannot arise because patterns never
// contain the separator byte.
func (f *DynFM) Find(pattern []byte) []Occurrence {
	var out []Occurrence
	f.FindFunc(pattern, func(o Occurrence) bool {
		out = append(out, o)
		return true
	})
	return out
}

// FindFunc streams occurrences of pattern; stops early when fn returns
// false. Empty patterns match every live position.
func (f *DynFM) FindFunc(pattern []byte, fn func(Occurrence) bool) {
	if len(pattern) == 0 {
		for id, md := range f.meta {
			for off := 0; off < md.len; off++ {
				if !fn(Occurrence{DocID: id, Off: off}) {
					return
				}
			}
		}
		return
	}
	lo, hi := f.Range(pattern)
	for row := lo; row < hi; row++ {
		if !fn(f.Locate(row)) {
			return
		}
	}
}

// Extract reconstructs length payload symbols of document id starting at
// off by LF-walking backward from the document's separator row. The cost
// is O((docLen - off) · log n · log σ): the baseline has no forward
// extraction shortcut, mirroring the textract × log n factor of Table 2's
// prior rows. The window is clamped to the payload as every Extract in
// the module clamps it (doc.Clamp).
func (f *DynFM) Extract(id uint64, off, length int) ([]byte, bool) {
	md, ok := f.meta[id]
	if !ok {
		return nil, false
	}
	off, length = doc.Clamp(off, length, md.len)
	// Find the separator row.
	p := -1
	for i, d := range f.sepDocs {
		if d == id {
			p = i
			break
		}
	}
	if p < 0 {
		return nil, false
	}
	// Walking LF from the separator yields T[m], T[m-1], …; collect the
	// window [off, off+length).
	out := make([]byte, length)
	pos := md.len // offset of the symbol the next LF step reveals, 1-based
	for pos > off {
		c := f.bwt.Access(p)
		if c == 0 {
			break
		}
		if pos <= off+length {
			out[pos-off-1] = c
		}
		p = f.lf(p, c)
		pos--
	}
	return out, true
}

// DocLen reports the payload length of document id.
func (f *DynFM) DocLen(id uint64) (int, bool) {
	md, ok := f.meta[id]
	if !ok {
		return 0, false
	}
	return md.len, true
}

// SampleRate reports the locate sampling rate s.
func (f *DynFM) SampleRate() int { return f.s }

// SizeBits estimates the index footprint.
func (f *DynFM) SizeBits() int64 {
	return f.bwt.SizeBits() + f.marked.SizeBits() + f.samples.SizeBits() +
		int64(len(f.sepDocs))*64 + int64(len(f.slots))*64 + int64(len(f.meta))*3*64
}
