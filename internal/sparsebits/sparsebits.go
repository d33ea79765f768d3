// Package sparsebits implements the deletion bitmaps of Lemmas 2 and 3 of
// the paper: a bit vector B of n bits, initially all ones, in which bits
// are only ever cleared (zero(i)) and the set positions of any range can be
// reported in O(k) time, k the output size.
//
// Two representations are provided:
//
//   - Dense (Lemma 2): one machine word per 64 bits plus a bitsucc.Set of
//     non-empty word indices; O(n) bits.
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

// New returns n one-bits for a structure whose lazy-deletion parameter
// is τ. Lemma 3 stores each τ-bit word as the list of its zeros, which
// undercuts Lemma 2's plain n bits only once τ is well past the machine
// word: below that a word's list header alone outweighs the word. The
// engine's automatic τ is log n / log log n — single digits — so in
// practice this is the dense form.
func New(n, tau int) Bitmap {
	if tau < 64 {
		return NewDense(n)
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
}

// NewDense creates a Dense vector of n one-bits.
func NewDense(n int) *Dense {
	if n < 0 {
		panic("sparsebits: negative length")
	}
	nw := (n + 63) / 64
	d := &Dense{n: n, words: make([]uint64, nw), dir: bitsucc.New(nw)}
	for i := 0; i < nw; i++ {
		d.words[i] = ^uint64(0)
		d.dir.Add(i)
	}
	if rem := n % 64; rem != 0 && nw > 0 {
		d.words[nw-1] = 1<<uint(rem) - 1
		if d.words[nw-1] == 0 {
			d.dir.Remove(nw - 1)
		}
	}
	if n == 0 && nw == 0 {
		d.words = nil
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

// Count1 returns the number of set bits in [s, e]: one popcount per
// machine word of the span, no directory probe and no callback.
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
	for _, w := range d.words[ws+1 : we] {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendRange appends all set positions in [s, e] to dst and returns it.
func (d *Dense) AppendRange(dst []int, s, e int) []int {
	d.Report(s, e, func(pos int) bool {
		dst = append(dst, pos)
		return true
	})
	return dst
}

// SizeBits estimates the memory footprint in bits.
func (d *Dense) SizeBits() int64 {
	return int64(len(d.words))*64 + d.dir.SizeBits()
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
	c := &Compressed{n: n, tau: tau, words: make([][]uint16, nw), dir: bitsucc.New(nw)}
	for i := 0; i < nw; i++ {
		c.dir.Add(i)
	}
	return c
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

// AppendRange appends all set positions in [s, e] to dst and returns it.
func (c *Compressed) AppendRange(dst []int, s, e int) []int {
	c.Report(s, e, func(pos int) bool {
		dst = append(dst, pos)
		return true
	})
	return dst
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
