// Package bitsucc implements a hierarchical 64-ary bitmap tree over a
// fixed integer universe [0, u). It supports Set, Clear, Contains, Next,
// Prev and Report (enumerate members of a range) with O(log₆₄ u) worst-case
// cost per operation — at most 5 levels for u ≤ 2³⁰, effectively constant.
//
// The structure substitutes for the dynamic one-dimensional range-reporting
// data structure of Mortensen, Pagh and Pătrașcu (STOC 2005) used in Lemma 2
// of the paper: the paper needs to report all non-empty machine words of a
// deletion bitmap in O(1) time per reported word with O(logᵋ n) updates;
// the 64-ary tree achieves O(1)-per-item reporting with O(log₆₄ u) updates,
// which is within the paper's bounds for all universe sizes reachable in a
// single address space.
package bitsucc

import (
	"fmt"
	"math/bits"
)

// Set is a dynamic subset of [0, u) supporting constant-ish time
// predecessor/successor and range reporting.
type Set struct {
	universe int
	levels   [][]uint64 // levels[0] is the leaf bitmap; each higher level summarizes 64 words below
	count    int
}

// New creates an empty set over universe [0, u).
func New(u int) *Set {
	if u < 0 {
		panic("bitsucc: negative universe")
	}
	s := &Set{universe: u}
	n := (u + 63) / 64
	for {
		if n == 0 {
			n = 1
		}
		s.levels = append(s.levels, make([]uint64, n))
		if n == 1 {
			break
		}
		n = (n + 63) / 64
	}
	return s
}

// NewFull creates the set holding all of [0, u). Each level is written
// directly — level l+1 has one bit per word of level l, all of them
// non-empty — so it costs O(u/64) word stores.
func NewFull(u int) *Set {
	s := New(u)
	s.count = u
	members := u // level l+1 holds one member per word of level l
	for _, words := range s.levels {
		if members == 0 {
			break // the empty universe's one leaf word stays empty
		}
		for i := range words {
			words[i] = ^uint64(0)
		}
		if rem := members % 64; rem != 0 {
			words[len(words)-1] = 1<<uint(rem) - 1
		}
		members = len(words)
	}
	return s
}

// Universe reports the universe size u.
func (s *Set) Universe() int { return s.universe }

// Len reports the number of elements currently in the set.
func (s *Set) Len() int { return s.count }

// Contains reports whether x is in the set.
func (s *Set) Contains(x int) bool {
	if x < 0 || x >= s.universe {
		return false
	}
	return s.levels[0][x>>6]&(1<<uint(x&63)) != 0
}

// Add inserts x. It reports whether x was newly added.
func (s *Set) Add(x int) bool {
	if x < 0 || x >= s.universe {
		panic(fmt.Sprintf("bitsucc: Add(%d) outside universe [0,%d)", x, s.universe))
	}
	if s.Contains(x) {
		return false
	}
	for l := range s.levels {
		w, b := x>>6, uint(x&63)
		had := s.levels[l][w] != 0
		s.levels[l][w] |= 1 << b
		if had {
			break // summaries above are already set
		}
		x = w
	}
	s.count++
	return true
}

// Remove deletes x. It reports whether x was present.
func (s *Set) Remove(x int) bool {
	if x < 0 || x >= s.universe {
		return false
	}
	if !s.Contains(x) {
		return false
	}
	for l := range s.levels {
		w, b := x>>6, uint(x&63)
		s.levels[l][w] &^= 1 << b
		if s.levels[l][w] != 0 {
			break // word still non-empty; summaries stay set
		}
		x = w
	}
	s.count--
	return true
}

// Next returns the smallest element ≥ x, or -1 if none exists.
func (s *Set) Next(x int) int {
	if x < 0 {
		x = 0
	}
	if x >= s.universe {
		return -1
	}
	return s.next(0, x)
}

func (s *Set) next(level, x int) int {
	if level >= len(s.levels) {
		return -1
	}
	w, b := x>>6, uint(x&63)
	if w < len(s.levels[level]) {
		if rest := s.levels[level][w] >> b << b; rest != 0 {
			return w<<6 + bits.TrailingZeros64(rest)
		}
	}
	// Ascend: find the next non-empty word at this level.
	nw := s.next(level+1, w+1)
	if nw < 0 {
		return -1
	}
	return nw<<6 + bits.TrailingZeros64(s.levels[level][nw])
}

// Prev returns the largest element ≤ x, or -1 if none exists.
func (s *Set) Prev(x int) int {
	if x >= s.universe {
		x = s.universe - 1
	}
	if x < 0 {
		return -1
	}
	return s.prev(0, x)
}

func (s *Set) prev(level, x int) int {
	if level >= len(s.levels) || x < 0 {
		return -1
	}
	w, b := x>>6, uint(x&63)
	if w < len(s.levels[level]) {
		mask := ^uint64(0) >> (63 - b)
		if rest := s.levels[level][w] & mask; rest != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(rest)
		}
	}
	pw := s.prev(level+1, w-1)
	if pw < 0 {
		return -1
	}
	return pw<<6 + 63 - bits.LeadingZeros64(s.levels[level][pw])
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int { return s.Next(0) }

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int { return s.Prev(s.universe - 1) }

// Report calls fn for each element in [lo, hi] in increasing order.
// If fn returns false, reporting stops early.
func (s *Set) Report(lo, hi int, fn func(x int) bool) {
	x := s.Next(lo)
	for x >= 0 && x <= hi {
		if !fn(x) {
			return
		}
		x = s.Next(x + 1)
	}
}

// AppendRange appends all elements in [lo, hi] to dst and returns it.
func (s *Set) AppendRange(dst []int, lo, hi int) []int {
	s.Report(lo, hi, func(x int) bool {
		dst = append(dst, x)
		return true
	})
	return dst
}

// SizeBits estimates the memory footprint of the structure in bits.
func (s *Set) SizeBits() int64 {
	var n int64
	for _, l := range s.levels {
		n += int64(len(l)) * 64
	}
	return n
}
