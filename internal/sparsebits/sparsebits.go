// Package sparsebits implements the deletion bitmaps of Lemmas 2 and 3 of
// the paper: a bit vector B of n bits, initially all ones, in which bits
// are only ever cleared (zero(i)) and the set positions of any range can be
// reported in O(k) time, k the output size.
//
// Two representations are provided:
//
//   - Dense (Lemma 2): one machine word per 64 bits plus a bitsucc.Set of
//     non-empty word indices; O(n) bits. It can carry Theorem 1's rank
//     structure over B as well: a Fenwick tree (Fenwick, "A new data
//     structure for cumulative frequency tables", 1994) over its words'
//     popcounts, so counting the ones of a range costs O(log n).
//   - Compressed (Lemma 3): for a vector with at most n/τ zeros, words of
//     τ bits are stored as sorted lists of their zero positions, so total
//     space is O(n·log τ/τ) bits; the same non-empty-word directory drives
//     reporting.
//
// Both support zero(i) in O(logᵋ n)-class time (here O(log₆₄ n) via the
// word directory) and report(s,e) in O(k). New picks between them.
package sparsebits

import (
	"fmt"
	"math/bits"

	"dyncoll/internal/bitsucc"
)

// Bitmap is a deletion bitmap in either representation: all ones at
// first, bits only ever cleared.
type Bitmap interface {
	Len() int
	Get(i int) bool
	Zero(i int)
	Report(s, e int, fn func(pos int) bool)
	Count1(s, e int) int
	SizeBits() int64
}

// compressedMinTau is the least τ at which Lemma 3's form is smaller
// than Lemma 2's by Compressed's own SizeBits accounting. A τ-word costs
// a 192-bit slice header plus 16 bits per zero, at most one zero per τ
// bits: ≈ 208/τ bits per row, against Dense's ≈ 1.02. τ = 128 still
// loses (≈ 1.6); τ = 256 wins (≈ 0.82).
const compressedMinTau = 256

// New returns n one-bits for a structure whose lazy-deletion parameter
// is τ, with Theorem 1's rank structure when counting is set. It picks
// the smaller form, and Dense whenever counting: only Dense ranks. The
// engine's automatic τ is log n / log log n — single digits — so in
// practice this is the dense form.
func New(n, tau int, counting bool) Bitmap {
	if tau < compressedMinTau || counting {
		return NewDense(n, counting)
	}
	return NewCompressed(n, tau)
}

// Dense is the Lemma 2 structure: n bits, all initially one, supporting
// Zero(i) and Report(s,e) with O(n) bits of space.
type Dense struct {
	n     int
	words []uint64
	dir   *bitsucc.Set // indices of non-empty (≠0) words
	zeros int
	// rank is the Fenwick tree over word popcounts, 1-based: rank[i]
	// sums words (i − lowbit(i), i]. nil unless asked for; 32 bits per
	// word, so half a bit per row.
	rank []int32
}

// NewDense creates a Dense vector of n one-bits, with the rank
// structure if rank is set.
func NewDense(n int, rank bool) *Dense {
	if n < 0 {
		panic("sparsebits: negative length")
	}
	nw := (n + 63) / 64
	d := &Dense{n: n, words: make([]uint64, nw), dir: bitsucc.NewFull(nw)}
	for i := range d.words {
		d.words[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		d.words[nw-1] = 1<<uint(rem) - 1
	}
	if rank {
		// Linear Fenwick build: each node adds itself into its parent.
		d.rank = make([]int32, nw+1)
		for i := 1; i <= nw; i++ {
			d.rank[i] += int32(bits.OnesCount64(d.words[i-1]))
			if p := i + i&-i; p <= nw {
				d.rank[p] += d.rank[i]
			}
		}
	}
	return d
}

// Len reports the number of bits.
func (d *Dense) Len() int { return d.n }

// Zeros reports how many bits have been cleared.
func (d *Dense) Zeros() int { return d.zeros }

// Get reports the bit at position i.
func (d *Dense) Get(i int) bool {
	if i < 0 || i >= d.n {
		panic(fmt.Sprintf("sparsebits: Get(%d) out of range [0,%d)", i, d.n))
	}
	return d.words[i>>6]&(1<<uint(i&63)) != 0
}

// Zero clears bit i. Clearing an already-cleared bit is a no-op.
func (d *Dense) Zero(i int) {
	if i < 0 || i >= d.n {
		panic(fmt.Sprintf("sparsebits: Zero(%d) out of range [0,%d)", i, d.n))
	}
	w, b := i>>6, uint(i&63)
	if d.words[w]&(1<<b) == 0 {
		return
	}
	d.words[w] &^= 1 << b
	d.zeros++
	if d.words[w] == 0 {
		d.dir.Remove(w)
	}
	for i := w + 1; i < len(d.rank); i += i & -i {
		d.rank[i]--
	}
}

// Report calls fn for every set bit position in [s, e], in increasing
// order. If fn returns false, reporting stops. Cost is O(k) in the number
// of reported positions (plus O(1) directory steps per non-empty word).
func (d *Dense) Report(s, e int, fn func(pos int) bool) {
	if s < 0 {
		s = 0
	}
	if e >= d.n {
		e = d.n - 1
	}
	if s > e {
		return
	}
	ws, we := s>>6, e>>6
	w := d.dir.Next(ws)
	for w >= 0 && w <= we {
		word := d.words[w]
		if w == ws {
			word &= ^uint64(0) << uint(s&63)
		}
		if w == we {
			if r := uint(e & 63); r != 63 {
				word &= 1<<(r+1) - 1
			}
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !fn(w<<6 + b) {
				return
			}
			word &= word - 1
		}
		w = d.dir.Next(w + 1)
	}
}

// Count1 returns the number of set bits in [s, e], with no directory
// probe and no callback. With the rank structure it walks the Fenwick
// tree from both ends of the span until they meet, O(log(span/64))
// steps; without, it popcounts every word of the span.
func (d *Dense) Count1(s, e int) int {
	if s < 0 {
		s = 0
	}
	if e >= d.n {
		e = d.n - 1
	}
	if s > e {
		return 0
	}
	ws, we := s>>6, e>>6
	first := ^uint64(0) << uint(s&63)
	last := ^uint64(0) >> uint(63-e&63)
	if ws == we {
		return bits.OnesCount64(d.words[ws] & first & last)
	}
	n := bits.OnesCount64(d.words[ws]&first) + bits.OnesCount64(d.words[we]&last)
	if d.rank == nil {
		for _, w := range d.words[ws+1 : we] {
			n += bits.OnesCount64(w)
		}
		return n
	}
	// Words ws+1 … we−1 hold prefix(we) − prefix(ws+1) ones. Both prefix
	// walks clear low bits, so they meet where the two indices' high bits
	// agree, and the shared rest of the walk cancels.
	lo, hi := ws+1, we
	for hi > lo {
		n += int(d.rank[hi])
		hi &= hi - 1
	}
	for lo > hi {
		n -= int(d.rank[lo])
		lo &= lo - 1
	}
	return n
}

// SizeBits estimates the memory footprint in bits.
func (d *Dense) SizeBits() int64 {
	return int64(len(d.words))*64 + int64(len(d.rank))*32 + d.dir.SizeBits()
}

// Compressed is the Lemma 3 structure: n bits with an expected O(n/τ)
// zeros, stored in O(n·log τ/τ) bits. The vector is partitioned into
// words of τ bits; each word stores only the sorted positions of its
// zeros (log τ bits each in principle; uint16 here, requiring τ ≤ 65536).
// A directory tracks which τ-words still contain at least one set bit.
type Compressed struct {
	n     int
	tau   int
	words [][]uint16 // zero positions within each τ-word, sorted
	dir   *bitsucc.Set
	zeros int
}

// NewCompressed creates a Compressed vector of n one-bits with word size τ.
func NewCompressed(n, tau int) *Compressed {
	if n < 0 {
		panic("sparsebits: negative length")
	}
	if tau < 1 || tau > 1<<16 {
		panic(fmt.Sprintf("sparsebits: tau %d out of range [1,65536]", tau))
	}
	nw := (n + tau - 1) / tau
	return &Compressed{n: n, tau: tau, words: make([][]uint16, nw), dir: bitsucc.NewFull(nw)}
}

// Len reports the number of bits.
func (c *Compressed) Len() int { return c.n }

// Zeros reports how many bits have been cleared.
func (c *Compressed) Zeros() int { return c.zeros }

// Tau reports the word size τ.
func (c *Compressed) Tau() int { return c.tau }

// wordLen reports the number of bits in word w (the last word may be short).
func (c *Compressed) wordLen(w int) int {
	if (w+1)*c.tau <= c.n {
		return c.tau
	}
	return c.n - w*c.tau
}

// Get reports the bit at position i.
func (c *Compressed) Get(i int) bool {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("sparsebits: Get(%d) out of range [0,%d)", i, c.n))
	}
	w, off := i/c.tau, uint16(i%c.tau)
	for _, z := range c.words[w] {
		if z == off {
			return false
		}
		if z > off {
			break
		}
	}
	return true
}

// Zero clears bit i. Clearing an already-cleared bit is a no-op.
func (c *Compressed) Zero(i int) {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("sparsebits: Zero(%d) out of range [0,%d)", i, c.n))
	}
	w, off := i/c.tau, uint16(i%c.tau)
	zs := c.words[w]
	// Insert off into the sorted list if absent.
	lo := sortedSearch(zs, int(off))
	if lo < len(zs) && zs[lo] == off {
		return
	}
	zs = append(zs, 0)
	copy(zs[lo+1:], zs[lo:])
	zs[lo] = off
	c.words[w] = zs
	c.zeros++
	if len(zs) == c.wordLen(w) {
		c.dir.Remove(w)
	}
}

// Report calls fn for every set bit position in [s, e] in increasing order.
// If fn returns false, reporting stops.
func (c *Compressed) Report(s, e int, fn func(pos int) bool) {
	if s < 0 {
		s = 0
	}
	if e >= c.n {
		e = c.n - 1
	}
	if s > e {
		return
	}
	ws, we := s/c.tau, e/c.tau
	w := c.dir.Next(ws)
	for w >= 0 && w <= we {
		base := w * c.tau
		zs := c.words[w]
		zi := 0
		lo, hi := 0, c.wordLen(w)-1
		if w == ws {
			lo = s - base
		}
		if w == we {
			hi = e - base
		}
		// Advance zi to the first zero ≥ lo.
		for zi < len(zs) && int(zs[zi]) < lo {
			zi++
		}
		for pos := lo; pos <= hi; pos++ {
			if zi < len(zs) && int(zs[zi]) == pos {
				zi++
				continue
			}
			if !fn(base + pos) {
				return
			}
		}
		w = c.dir.Next(w + 1)
	}
}

// Count1 returns the number of set bits in [s, e]. Unlike counting via
// Report, it works per τ-word — span length minus the zeros falling in
// the span, found by two binary searches in the word's sorted zero
// list — so the cost is O(words touched · log τ) instead of O(bits),
// and no callback is involved.
func (c *Compressed) Count1(s, e int) int {
	if s < 0 {
		s = 0
	}
	if e >= c.n {
		e = c.n - 1
	}
	if s > e {
		return 0
	}
	ws, we := s/c.tau, e/c.tau
	n := 0
	w := c.dir.Next(ws)
	for w >= 0 && w <= we {
		base := w * c.tau
		lo, hi := 0, c.wordLen(w)-1
		if w == ws {
			lo = s - base
		}
		if w == we {
			hi = e - base
		}
		if hi >= lo {
			zs := c.words[w]
			// Zeros in [lo, hi]: first zero ≥ lo to first zero > hi.
			zlo := sortedSearch(zs, lo)
			zhi := sortedSearch(zs, hi+1)
			n += (hi - lo + 1) - (zhi - zlo)
		}
		w = c.dir.Next(w + 1)
	}
	return n
}

// sortedSearch returns the index of the first element of zs that is
// ≥ v (a closure-free sort.Search).
func sortedSearch(zs []uint16, v int) int {
	lo, hi := 0, len(zs)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(zs[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SizeBits estimates the memory footprint in bits.
func (c *Compressed) SizeBits() int64 {
	var n int64
	for _, zs := range c.words {
		n += int64(len(zs)) * 16
	}
	// Each word's list costs a slice header: pointer, length, capacity.
	n += int64(len(c.words)) * 192
	return n + c.dir.SizeBits()
}
