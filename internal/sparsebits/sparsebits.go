// Package sparsebits implements the deletion bitmap of Lemma 2 of the
// paper: a bit vector B of n bits, initially all ones, in which bits are
// only ever cleared (zero(i)) and the set positions of any range can be
// reported in O(k) time, k the output size.
//
// Dense stores one machine word per 64 bits plus a bitsucc.Set of
// non-empty word indices; O(n) bits, zero(i) in O(logᵋ n)-class time
// (here O(log₆₄ n) via the word directory) and report(s,e) in O(k). It
// can carry Theorem 1's rank structure over B as well: a Fenwick tree
// (Fenwick, "A new data structure for cumulative frequency tables",
// 1994) over its words' popcounts, so counting the ones of a range costs
// O(log n). Lemma 3's O(n·log τ/τ)-bit form is not implemented: it is
// smaller than this one only from τ = 256, and the engine's automatic τ
// is at most 12 (DESIGN, "Lemma 2 or Lemma 3 for V").
package sparsebits

import (
	"fmt"
	"math/bits"

	"dyncoll/internal/bitsucc"
)

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
