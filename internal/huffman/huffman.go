// Package huffman provides canonical Huffman codes and empirical-entropy
// estimators.
//
// The paper's space bounds are stated in terms of the k-th order empirical
// entropy Hk of the stored text (Manzini, J.ACM 2001). This package
// supplies:
//
//   - code-length computation and canonical code assignment used by the
//     Huffman-shaped wavelet tree in package wavelet, which compresses a
//     sequence to |S|·(H0(S)+1) + o(·) bits;
//   - H0 and Hk estimators used by the space-accounting experiments
//     (cmd/benchtables) to report bits-per-symbol against the entropy
//     baseline.
package huffman

import (
	"fmt"
	"math"
	"sort"
)

// Code describes the canonical Huffman code of one symbol.
type Code struct {
	Symbol int
	Len    int    // code length in bits; 0 if the symbol does not occur
	Bits   uint64 // code value, MSB-first in the low Len bits
}

// item is a Huffman heap node.
type item struct {
	weight int64
	index  int // tree node index
}

// less orders items by weight, ties by node index: a strict total
// order, so the merge sequence — and with it every code length — is
// fixed by the frequencies alone.
func (a item) less(b item) bool {
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return a.index < b.index
}

// itemHeap is a binary min-heap of items. It is written out instead of
// going through container/heap, whose interface{} elements cost one
// allocation per push and pop.
type itemHeap []item

func (h *itemHeap) push(x item) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s[i].less(s[up]) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
}

func (h *itemHeap) pop() item {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if s[c].less(s[least]) {
				least = c
			}
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// CodeLengths returns the Huffman code length for each symbol given its
// frequency. Symbols with zero frequency get length 0. If exactly one
// symbol occurs it is assigned length 1.
func CodeLengths(freq []int64) []int { return codeLengths(freq, 2) }

// codeLengths returns arity-ary Huffman code lengths: each merge joins
// the arity lightest nodes, after the zero-weight dummies that make
// (leaves − 1) divisible by arity − 1 have been added (none for a
// binary code), so every internal node but the one beside the dummies
// is full.
func codeLengths(freq []int64, arity int) []int {
	lens := make([]int, len(freq))
	nLeaves := 0
	for s, f := range freq {
		if f < 0 {
			panic(fmt.Sprintf("huffman: negative frequency for symbol %d", s))
		}
		if f > 0 {
			nLeaves++
		}
	}
	if nLeaves == 0 {
		return lens
	}
	if nLeaves == 1 {
		for s, f := range freq {
			if f > 0 {
				lens[s] = 1
			}
		}
		return lens
	}
	dummies := (arity - 1 - (nLeaves-1)%(arity-1)) % (arity - 1)
	h := make(itemHeap, 0, nLeaves+dummies)
	parent := make([]int, 0, 2*(nLeaves+dummies)-1)
	for _, f := range freq {
		if f > 0 {
			parent = append(parent, -1)
			h.push(item{weight: f, index: len(parent) - 1})
		}
	}
	for range dummies {
		parent = append(parent, -1)
		h.push(item{weight: 0, index: len(parent) - 1})
	}
	for len(h) > 1 {
		parent = append(parent, -1)
		ni := len(parent) - 1
		var w int64
		for range arity {
			x := h.pop()
			parent[x.index] = ni
			w += x.weight
		}
		h.push(item{weight: w, index: ni})
	}
	// Depth of each leaf = code length.
	depth := make([]int, len(parent))
	for i := len(parent) - 2; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
	}
	li := 0
	for s, f := range freq {
		if f > 0 {
			lens[s] = depth[li]
			li++
		}
	}
	return lens
}

// Canonical assigns canonical code values to the given code lengths.
// The returned slice is indexed by symbol and contains only symbols with
// non-zero length (others have Len 0).
func Canonical(lens []int) []Code { return canonical(lens, 1) }

// canonical assigns canonical values to code lengths counted in digits
// of digitBits bits each, shortest codes first, ties by symbol.
func canonical(lens []int, digitBits int) []Code {
	codes := make([]Code, len(lens))
	type sl struct{ sym, l int }
	var order []sl
	for s, l := range lens {
		codes[s].Symbol = s
		if l > 0 {
			order = append(order, sl{s, l})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].l != order[j].l {
			return order[i].l < order[j].l
		}
		return order[i].sym < order[j].sym
	})
	var code uint64
	prevLen := 0
	for _, e := range order {
		code <<= uint(digitBits * (e.l - prevLen))
		prevLen = e.l
		codes[e.sym] = Code{Symbol: e.sym, Len: e.l, Bits: code}
		code++
	}
	return codes
}

// Build computes canonical Huffman codes for the given frequencies.
func Build(freq []int64) []Code {
	return Canonical(CodeLengths(freq))
}

// Freq counts byte frequencies of s over an alphabet of size sigma.
// Bytes ≥ sigma panic.
func Freq(s []byte, sigma int) []int64 {
	f := make([]int64, sigma)
	for _, b := range s {
		if int(b) >= sigma {
			panic(fmt.Sprintf("huffman: symbol %d outside alphabet of size %d", b, sigma))
		}
		f[b]++
	}
	return f
}

// H0 returns the zero-order empirical entropy of the frequency vector in
// bits per symbol.
func H0(freq []int64) float64 {
	var n int64
	for _, f := range freq {
		n += f
	}
	if n == 0 {
		return 0
	}
	var h float64
	for _, f := range freq {
		if f > 0 {
			p := float64(f) / float64(n)
			h -= p * math.Log2(p)
		}
	}
	return h
}

// H0Bytes returns the zero-order empirical entropy of s in bits/symbol.
func H0Bytes(s []byte) float64 {
	return H0(Freq(s, 256))
}

// Hk returns the k-th order empirical entropy of s in bits per symbol:
// the weighted average of the zero-order entropies of the symbol
// distributions following each length-k context.
func Hk(s []byte, k int) float64 {
	if k <= 0 {
		return H0Bytes(s)
	}
	if len(s) <= k {
		return 0
	}
	ctx := make(map[string]map[byte]int64)
	for i := k; i < len(s); i++ {
		c := string(s[i-k : i])
		m := ctx[c]
		if m == nil {
			m = make(map[byte]int64)
			ctx[c] = m
		}
		m[s[i]]++
	}
	var total float64
	for _, m := range ctx {
		var n int64
		for _, f := range m {
			n += f
		}
		var h float64
		for _, f := range m {
			p := float64(f) / float64(n)
			h -= p * math.Log2(p)
		}
		total += h * float64(n)
	}
	return total / float64(len(s))
}

// AverageLen returns the expected code length in bits per symbol of the
// given codes under the given frequencies — the compressed size the
// Huffman-shaped wavelet tree will achieve, up to redundancy.
func AverageLen(codes []Code, freq []int64) float64 {
	var n, bits int64
	for s, f := range freq {
		n += f
		bits += f * int64(codes[s].Len)
	}
	if n == 0 {
		return 0
	}
	return float64(bits) / float64(n)
}

// MaxDigits bounds a 4-ary code's length in base-4 digits, so that a
// code's 2·Len bits fit a Code's Bits and a Kraft4 term, 4^(MaxDigits−len),
// fits a uint64.
const MaxDigits = 31

// CodeLengths4 returns 4-ary Huffman code lengths, in base-4 digits,
// for the given frequencies. A single occurring symbol gets length 1,
// symbols that do not occur get 0. Should a code exceed MaxDigits — a
// chain of 32 merges needs a total weight beyond 2³¹, since each merge
// in it weighs at least the one before plus three times the one before
// that — every occurring symbol gets the fixed width ⌈log₄ σ⌉ instead.
func CodeLengths4(freq []int64) []int {
	lens := codeLengths(freq, 4)
	longest, occurring := 0, 0
	for _, l := range lens {
		longest = max(longest, l)
		if l > 0 {
			occurring++
		}
	}
	if longest <= MaxDigits {
		return lens
	}
	width := 1
	for 1<<(2*width) < occurring {
		width++
	}
	for s, l := range lens {
		if l > 0 {
			lens[s] = width
		}
	}
	return lens
}

// Kraft4 reports whether 4-ary code lengths, each in [0, MaxDigits],
// leave room for a prefix-free code: Σ 4^−len ≤ 1 over the nonzero
// lengths. Canonical4 assumes it. The sum stops as soon as it passes
// 1: a term is at most 4^(MaxDigits−1), so it never wraps.
func Kraft4(lens []int) bool {
	const one = 1 << (2 * MaxDigits)
	var sum uint64 // in units of 4^−MaxDigits
	for _, l := range lens {
		if l < 0 || l > MaxDigits {
			return false
		}
		if l > 0 {
			if sum += 1 << (2 * uint(MaxDigits-l)); sum > one {
				return false
			}
		}
	}
	return true
}

// Canonical4 assigns canonical 4-ary code values to code lengths that
// satisfy Kraft4. A Code's Len then counts base-4 digits and Bits holds
// the 2·Len-bit value, most significant digit first.
func Canonical4(lens []int) []Code { return canonical(lens, 2) }

// Build4 computes canonical 4-ary Huffman codes for the given
// frequencies.
func Build4(freq []int64) []Code {
	return Canonical4(CodeLengths4(freq))
}
