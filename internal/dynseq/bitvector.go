// Package dynseq provides dynamic sequences with rank/select support:
// a bit vector, a byte wavelet tree, and a uint64 array, all supporting
// insertion and deletion at arbitrary positions in O(log n) time.
//
// These are the substrate of the PRIOR-ART baseline (package baseline):
// every dynamic compressed index before the paper — Chan–Hon–Lam [9],
// Mäkinen–Navarro [30, 31], Navarro–Nekrich [35] — routes all queries
// through rank on a dynamic sequence, which by Fredman–Saks costs
// Ω(log n / log log n) per call. The paper's framework exists to avoid
// exactly this structure on the query path; implementing it faithfully is
// what lets the benchmarks show the gap.
//
// The implementation is a B+tree whose leaves hold small bit blocks and
// whose internal nodes cache subtree bit and one counts, giving
// O(log n) insert, delete, get, rank, and select with word-parallel
// leaf operations.
package dynseq

import (
	"math/bits"

	"dyncoll/internal/bitvec"
)

const (
	leafMaxWords = 64 // 4096 bits per full leaf
	leafMinWords = 16 // merge threshold
	maxKids      = 16
	minKids      = 6
)

// BitVector is a dynamic bit sequence supporting insertion and deletion
// of bits at arbitrary positions plus rank and select, all in O(log n).
type BitVector struct {
	root *bnode
}

type bnode struct {
	// Internal nodes use kids; leaves use words. size and ones cover the
	// whole subtree.
	kids  []*bnode
	words []uint64
	size  int
	ones  int
}

func (n *bnode) leaf() bool { return n.kids == nil }

// NewBitVector returns an empty dynamic bit vector.
func NewBitVector() *BitVector {
	return &BitVector{root: &bnode{words: make([]uint64, 0, 4)}}
}

// Len reports the number of bits.
func (v *BitVector) Len() int { return v.root.size }

// Ones reports the number of 1-bits.
func (v *BitVector) Ones() int { return v.root.ones }

// Get returns the bit at position i.
func (v *BitVector) Get(i int) bool {
	if i < 0 || i >= v.root.size {
		panic("dynseq: Get out of range")
	}
	n := v.root
	for !n.leaf() {
		for _, k := range n.kids {
			if i < k.size {
				n = k
				break
			}
			i -= k.size
		}
	}
	return n.words[i>>6]>>(uint(i)&63)&1 == 1
}

// Rank1 returns the number of 1-bits in positions [0, i).
func (v *BitVector) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i > v.root.size {
		i = v.root.size
	}
	n := v.root
	r := 0
	for !n.leaf() {
		for _, k := range n.kids {
			if i <= k.size {
				n = k
				break
			}
			i -= k.size
			r += k.ones
		}
	}
	w := 0
	for ; (w+1)<<6 <= i; w++ {
		r += bits.OnesCount64(n.words[w])
	}
	if rem := i - w<<6; rem > 0 {
		r += bits.OnesCount64(n.words[w] << (64 - uint(rem)) >> (64 - uint(rem)))
	}
	return r
}

// Rank0 returns the number of 0-bits in positions [0, i).
func (v *BitVector) Rank0(i int) int {
	if i < 0 {
		i = 0
	}
	if i > v.root.size {
		i = v.root.size
	}
	return i - v.Rank1(i)
}

// Select1 returns the position of the k-th 1-bit (0-based), or -1.
func (v *BitVector) Select1(k int) int {
	if k < 0 || k >= v.root.ones {
		return -1
	}
	n := v.root
	pos := 0
	for !n.leaf() {
		for _, kid := range n.kids {
			if k < kid.ones {
				n = kid
				break
			}
			k -= kid.ones
			pos += kid.size
		}
	}
	for w := 0; ; w++ {
		c := bits.OnesCount64(n.words[w])
		if k < c {
			return pos + w<<6 + bitvec.SelectInWord(n.words[w], k)
		}
		k -= c
	}
}

// Select0 returns the position of the k-th 0-bit (0-based), or -1.
func (v *BitVector) Select0(k int) int {
	if k < 0 || k >= v.root.size-v.root.ones {
		return -1
	}
	n := v.root
	pos := 0
	for !n.leaf() {
		for _, kid := range n.kids {
			z := kid.size - kid.ones
			if k < z {
				n = kid
				break
			}
			k -= z
			pos += kid.size
		}
	}
	for w := 0; ; w++ {
		nbits := n.size - w<<6
		if nbits > 64 {
			nbits = 64
		}
		c := nbits - bits.OnesCount64(n.words[w]<<(64-uint(nbits))>>(64-uint(nbits)))
		if k < c {
			return pos + w<<6 + bitvec.SelectInWord(^n.words[w], k)
		}
		k -= c
	}
}

// Insert inserts bit b at position i (0 ≤ i ≤ Len).
func (v *BitVector) Insert(i int, b bool) {
	if i < 0 || i > v.root.size {
		panic("dynseq: Insert out of range")
	}
	if sib := v.root.insert(i, b); sib != nil {
		old := v.root
		v.root = &bnode{
			kids: []*bnode{old, sib},
			size: old.size + sib.size,
			ones: old.ones + sib.ones,
		}
	}
}

// insert adds the bit and returns a new right sibling if the node split.
func (n *bnode) insert(i int, b bool) *bnode {
	n.size++
	if b {
		n.ones++
	}
	if n.leaf() {
		leafInsert(n, i, b)
		if n.size >= leafMaxWords<<6 {
			return n.splitLeaf()
		}
		return nil
	}
	var c int
	for c = 0; c < len(n.kids)-1; c++ {
		if i <= n.kids[c].size {
			break
		}
		i -= n.kids[c].size
	}
	if sib := n.kids[c].insert(i, b); sib != nil {
		n.kids = append(n.kids, nil)
		copy(n.kids[c+2:], n.kids[c+1:])
		n.kids[c+1] = sib
		if len(n.kids) > maxKids {
			return n.splitInternal()
		}
	}
	return nil
}

// leafInsert shifts the tail of the leaf right by one bit and writes b.
func leafInsert(n *bnode, i int, b bool) {
	if n.size > len(n.words)<<6 {
		n.words = append(n.words, 0)
	}
	w := i >> 6
	off := uint(i) & 63
	carry := n.words[w] >> 63
	low := n.words[w] & (1<<off - 1)
	high := n.words[w] &^ (1<<off - 1)
	n.words[w] = low | high<<1
	if b {
		n.words[w] |= 1 << off
	}
	for j := w + 1; j < len(n.words); j++ {
		next := n.words[j] >> 63
		n.words[j] = n.words[j]<<1 | carry
		carry = next
	}
}

// splitLeaf moves the upper half of the leaf's bits to a new sibling.
func (n *bnode) splitLeaf() *bnode {
	half := len(n.words) / 2
	rightWords := make([]uint64, len(n.words)-half)
	copy(rightWords, n.words[half:])
	rightSize := n.size - half<<6
	n.words = n.words[:half]
	n.size = half << 6
	sib := &bnode{words: rightWords, size: rightSize}
	sib.ones = countOnes(rightWords, rightSize)
	n.ones = countOnes(n.words, n.size)
	return sib
}

func (n *bnode) splitInternal() *bnode {
	half := len(n.kids) / 2
	rightKids := make([]*bnode, len(n.kids)-half)
	copy(rightKids, n.kids[half:])
	n.kids = n.kids[:half]
	sib := &bnode{kids: rightKids}
	recount(n)
	recount(sib)
	return sib
}

func recount(n *bnode) {
	n.size, n.ones = 0, 0
	for _, k := range n.kids {
		n.size += k.size
		n.ones += k.ones
	}
}

func countOnes(words []uint64, nbits int) int {
	c := 0
	for w := 0; w<<6 < nbits; w++ {
		rem := nbits - w<<6
		if rem >= 64 {
			c += bits.OnesCount64(words[w])
		} else {
			c += bits.OnesCount64(words[w] << (64 - uint(rem)) >> (64 - uint(rem)))
		}
	}
	return c
}

// Delete removes the bit at position i and returns its value.
func (v *BitVector) Delete(i int) bool {
	if i < 0 || i >= v.root.size {
		panic("dynseq: Delete out of range")
	}
	b := v.root.remove(i)
	if !v.root.leaf() && len(v.root.kids) == 1 {
		v.root = v.root.kids[0]
	}
	return b
}

func (n *bnode) remove(i int) bool {
	if n.leaf() {
		b := leafDelete(n, i)
		n.size--
		if b {
			n.ones--
		}
		return b
	}
	var c int
	for c = 0; c < len(n.kids)-1; c++ {
		if i < n.kids[c].size {
			break
		}
		i -= n.kids[c].size
	}
	b := n.kids[c].remove(i)
	n.size--
	if b {
		n.ones--
	}
	n.fixUnderflow(c)
	return b
}

// fixUnderflow merges or rebalances child c with a neighbour when it gets
// too small.
func (n *bnode) fixUnderflow(c int) {
	k := n.kids[c]
	under := false
	if k.leaf() {
		under = k.size <= leafMinWords<<6 && len(n.kids) > 1
	} else {
		under = len(k.kids) < minKids && len(n.kids) > 1
	}
	if !under {
		return
	}
	// Merge with the right neighbour if any, else the left one.
	j := c + 1
	if j >= len(n.kids) {
		j = c - 1
		c, j = j, c
	}
	left, right := n.kids[c], n.kids[j]
	if left.leaf() {
		mergeLeaves(left, right)
		if len(left.words) > leafMaxWords {
			sib := left.splitLeaf()
			n.kids[j] = sib
			return
		}
	} else {
		left.kids = append(left.kids, right.kids...)
		recount(left)
		if len(left.kids) > maxKids {
			sib := left.splitInternal()
			n.kids[j] = sib
			return
		}
	}
	n.kids = append(n.kids[:j], n.kids[j+1:]...)
}

// mergeLeaves appends right's bits to left.
func mergeLeaves(left, right *bnode) {
	for i := 0; i < right.size; i++ {
		b := right.words[i>>6]>>(uint(i)&63)&1 == 1
		if left.size >= len(left.words)<<6 {
			left.words = append(left.words, 0)
		}
		if b {
			left.words[left.size>>6] |= 1 << (uint(left.size) & 63)
		}
		left.size++
		if b {
			left.ones++
		}
	}
}

// leafDelete removes bit i from the leaf, shifting the tail left.
func leafDelete(n *bnode, i int) bool {
	w := i >> 6
	off := uint(i) & 63
	b := n.words[w]>>off&1 == 1
	low := n.words[w] & (1<<off - 1)
	high := n.words[w] >> (off + 1) << off
	if off == 63 {
		high = 0
	}
	n.words[w] = low | high
	for j := w + 1; j < len(n.words); j++ {
		n.words[j-1] |= n.words[j] << 63
		n.words[j] >>= 1
	}
	if (n.size-1)>>6 < len(n.words)-1 {
		n.words = n.words[:len(n.words)-1]
	}
	return b
}

// SizeBits estimates the memory footprint in bits.
func (v *BitVector) SizeBits() int64 {
	var total int64
	var walk func(n *bnode)
	walk = func(n *bnode) {
		total += 3 * 64 // struct overhead
		total += int64(len(n.words)) * 64
		total += int64(len(n.kids)) * 64
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(v.root)
	return total
}
