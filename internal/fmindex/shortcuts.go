package fmindex

import (
	"math/bits"
	"slices"

	"dyncoll/internal/bitvec"
)

// ISA samples as shortcuts through the SA samples.
//
// The m-th marked row, in row order, stores π(m) = SA/s in saSamp, and
// π is a permutation of [0, M), M = ⌈n/s⌉: each multiple of s below n
// starts the suffix of exactly one marked row. So the ISA sample of
// position k·s — the row an LF walk from k·s starts at — is the row of
// mark π⁻¹(k), and an array of ISA samples would store π a second time,
// inverted. The index keeps instead the shortcuts of Munro, Raman, Raman
// and Rao (Succinct representations of permutations and functions, TCS
// 2012): on every cycle of π longer than shortcutStep, every
// shortcutStep-th element carries a back pointer to the element
// shortcutStep steps before it on the cycle. π⁻¹(k) then costs at most
// shortcutStep reads of π: follow π from k until an element carries a
// pointer, jump back along it, and follow π again up to the element
// whose image is k. A select over the marks, started from a sample,
// turns that element into its row.
//
// Position n-1 is the one ISA sample not of the form k·s; its row is
// kept whole, as Index.lastRow.

const (
	// shortcutStep is t, the cycle distance every back pointer spans: an
	// inverse reads π at most t times, and the pointers take about
	// ⌈log₂ M⌉/t bits per element. DESIGN.md ("ISA samples as
	// shortcuts through the SA samples") gives the measurements behind 4.
	shortcutStep = 4
	// markSample is how many marks apart the select samples are.
	markSample = 64
	// markScan is how many words of marks a select counts from its
	// sample before it leaves the rest to the marks' own Select1: 64
	// marks span 16 words at the default rate, and a longer span occurs
	// only where few suffixes of the region start at a sampled position.
	markScan = 32
)

// shortcuts finds π⁻¹ through π, and the rows of marks.
type shortcuts struct {
	has  *bitvec.Vector // over [0, M): the elements that carry a back pointer
	back packed         // π^-t of each element has lists, in element order
	sel  packed         // the rows of marks 0, markSample, 2·markSample, …
}

// newShortcuts derives the shortcuts of π, the SA samples of an index
// whose marked rows are marks. ok is false when π is not a permutation
// of [0, π.n).
func newShortcuts(pi packed, marks *bitvec.Vector) (sc shortcuts, ok bool) {
	seen := make([]uint64, (pi.n+63)/64)
	has := make([]uint64, len(seen))
	pairs := make([]uint64, 0, pi.n/shortcutStep+1) // e<<32 | b, in cycle order
	if !forEachShortcut(&pi, seen, func(e, b int) {
		has[e>>6] |= 1 << (e & 63)
		pairs = append(pairs, uint64(e)<<32|uint64(b))
	}) {
		return shortcuts{}, false
	}
	sc.has = bitvec.FromWords(has, pi.n)
	sc.back = newPacked(len(pairs), pi.n)
	for _, p := range pairs {
		sc.back.set(sc.has.Rank1(int(p>>32)), uint64(uint32(p)))
	}
	sc.sel = newPacked(selCount(marks.Ones()), marks.Len())
	m, next := 0, 0 // marks before this word; the next mark to sample
	for w, word := range marks.Words() {
		c := bits.OnesCount64(word)
		for ; next < m+c; next += markSample {
			sc.sel.set(next/markSample, uint64(w<<6|bitvec.SelectInWord(word, next-m)))
		}
		m += c
	}
	return sc, true
}

// selCount is the number of select samples over ones marks.
func selCount(ones int) int { return (ones + markSample - 1) / markSample }

// forEachShortcut walks π cycle by cycle, each from its smallest
// element c₀, and calls fn(e, b) for every element e that carries a back
// pointer, b = π^-t(e): on a cycle of length L > t, the elements c_it
// for 0 ≤ it < L, so no run of elements without one is t long. It
// reports false as soon as it finds that π is not a permutation: a value
// out of range, or one reached twice.
func forEachShortcut(pi *packed, seen []uint64, fn func(e, b int)) bool {
	const t = shortcutStep
	var ring [t]int // ring[i%t] holds c_i of the last t elements walked
	for lead := range pi.n {
		if seen[lead>>6]&(1<<(lead&63)) != 0 {
			continue
		}
		e, i := lead, 0
		for {
			seen[e>>6] |= 1 << (e & 63)
			if i >= t && i%t == 0 {
				fn(e, ring[i%t])
			}
			ring[i%t] = e
			i++
			next := pi.get(e)
			if next == lead {
				break
			}
			if next >= pi.n || seen[next>>6]&(1<<(next&63)) != 0 {
				return false
			}
			e = next
		}
		if i > t {
			fn(lead, ring[i%t]) // c_{L-t}
		}
	}
	return true
}

// forEachMark calls fn(m, row) for every marked row, m its rank.
func forEachMark(marks *bitvec.Vector, fn func(m, row int)) {
	m := 0
	for w, word := range marks.Words() {
		for ; word != 0; word &= word - 1 {
			fn(m, w<<6|bits.TrailingZeros64(word))
			m++
		}
	}
}

// equal reports whether two shortcut sets hold the same elements and
// pointers; the select samples follow from the marks.
func (sc *shortcuts) equal(o *shortcuts) bool {
	return sc.has.Len() == o.has.Len() && slices.Equal(sc.has.Words(), o.has.Words()) &&
		sc.back.width == o.back.width && slices.Equal(sc.back.words, o.back.words)
}

// sizeBits is the shortcuts' footprint; a mapped index of an older name
// has none.
func (sc *shortcuts) sizeBits() int64 {
	if sc.has == nil {
		return 0
	}
	return sc.has.SizeBits() + sc.back.sizeBits() + sc.sel.sizeBits()
}

// markRowFrom is the row of mark m, m < M, given row, that of the select
// sample at or below it: it counts marks from there, and leaves a run of
// more than markScan words to the marks' own Select1.
func (x *Index) markRowFrom(m, row int) int {
	words := x.marked.Words()
	if w := row >> 6; w < len(words) {
		rem := m % markSample
		word := words[w] &^ (1<<(row&63) - 1)
		for end := min(w+markScan, len(words)); ; {
			if c := bits.OnesCount64(word); rem >= c {
				rem -= c
			} else {
				return w<<6 | bitvec.SelectInWord(word, rem)
			}
			if w++; w == end {
				break
			}
			word = words[w]
		}
	}
	return x.marked.Select1(m + 1)
}

// isaRows is the ISA array files of the older names store: the row of
// every position k·s, then the row of n-1. A mapped open of such a file
// holds it already; otherwise one pass over the marks regenerates it
// from π.
func (x *Index) isaRows() packed {
	if x.isaSamp.n != 0 {
		return x.isaSamp
	}
	isa := newPacked(isaCount(x.n, x.s), x.n)
	if x.n > 0 {
		forEachMark(x.marked, func(m, row int) { isa.set(x.saSamp.get(m), uint64(row)) })
		isa.set(isa.n-1, uint64(x.lastRow))
	}
	return isa
}
