// Package wavelet implements static wavelet trees over integer alphabets,
// providing Access, Rank and Select in O(code length) bit-vector
// operations per query.
//
// Two shapes are supported:
//
//   - Balanced: every symbol gets a ⌈log₂ σ⌉-bit code; queries cost
//     O(log σ).
//   - Huffman: symbols get canonical Huffman codes computed from their
//     frequencies, so the tree stores |S|·(H0(S)+1) + o(·) bits and
//     queries on symbol c cost O(len(code(c))) — the compressed sequence
//     representation required by the paper's space bounds (Table 1 space
//     column, and the string S of Section 5).
//
// Layout: the tree is pointer-free. Nodes live in one slice in
// level-order (children named by index), and the bit runs of all nodes
// at a depth are concatenated into one shared bitvec.Vector per level.
// A node-local rank is the level vector's rank at the node's offset
// minus a precomputed ones-before count, so Access/Rank/Select walk
// array indexes with one rank-directory probe per level instead of
// chasing per-node heap objects — and a build allocates O(levels)
// vectors instead of O(nodes).
//
// The tree is immutable; the dynamic sequence needed by the *baseline*
// (prior-art) index lives in internal/baseline.
package wavelet

import (
	"cmp"
	"fmt"
	"slices"

	"dyncoll/internal/bitvec"
	"dyncoll/internal/huffman"
)

// Tree is a static wavelet tree over symbols in [0, sigma).
type Tree struct {
	sigma  int
	n      int
	codes  []huffman.Code   // per-symbol path from the root; Len==0 → absent
	nodes  []node           // level-order; root at index 0; empty iff n == 0
	levels []*bitvec.Vector // levels[d] = concatenated bit runs of depth-d internal nodes
}

// node is one flat tree node. Internal nodes own the bit run
// [off, off+count) of levels[depth]; leaves record their symbol and
// occurrence count.
type node struct {
	off        int32 // bit offset of this node's run within its level vector
	onesBefore int32 // set bits in the level vector before off
	count      int32 // sequence length at this node (bits for internal, occurrences for leaf)
	zero, one  int32 // child node indexes; -1 if absent
	leaf       int32 // symbol at this leaf; -1 for internal nodes
	depth      int32
}

// rank1 returns the number of set bits in the node's first i bits.
func (t *Tree) rank1(nd *node, i int) int {
	return t.levels[nd.depth].Rank1(int(nd.off)+i) - int(nd.onesBefore)
}

// rank1Pair returns the node-local Rank1 of both i and j (i ≤ j) in one
// shared scan.
func (t *Tree) rank1Pair(nd *node, i, j int) (int, int) {
	ri, rj := t.levels[nd.depth].Rank1Pair(int(nd.off)+i, int(nd.off)+j)
	return ri - int(nd.onesBefore), rj - int(nd.onesBefore)
}

// getRank1 returns the node's bit i and the node-local Rank1(i).
func (t *Tree) getRank1(nd *node, i int) (bool, int) {
	b, r := t.levels[nd.depth].GetRank1(int(nd.off) + i)
	return b, r - int(nd.onesBefore)
}

// select1 returns the node-local position of the k-th set bit (1-based).
func (t *Tree) select1(nd *node, k int) int {
	return t.levels[nd.depth].Select1(int(nd.onesBefore)+k) - int(nd.off)
}

// select0 returns the node-local position of the k-th unset bit (1-based).
func (t *Tree) select0(nd *node, k int) int {
	zerosBefore := int(nd.off) - int(nd.onesBefore)
	return t.levels[nd.depth].Select0(zerosBefore+k) - int(nd.off)
}

// NewHuffman builds a Huffman-shaped wavelet tree of s over [0, sigma);
// code lengths follow symbol frequencies in s.
func NewHuffman(s []uint32, sigma int) *Tree { return build(s, sigma) }

// NewHuffmanBytes builds a Huffman-shaped tree over a byte string with
// alphabet [0, sigma). The byte path skips the []uint32 conversion the
// general constructors pay, so index rebuilds feed the BWT in directly.
func NewHuffmanBytes(s []byte, sigma int) *Tree { return build(s, sigma) }

// NewHuffmanBytesCounted is NewHuffmanBytes over [0, len(freq)) for a
// caller that has already counted s: freq[c] must be the number of
// occurrences of c in s.
func NewHuffmanBytesCounted(s []byte, freq []int64) *Tree {
	return scatter(s, huffman.Build(freq), freq)
}

func build[S byte | uint32](s []S, sigma int) *Tree {
	freq := frequencies(s, sigma)
	return scatter(s, huffman.Build(freq), freq)
}

// frequencies counts the symbols of s over [0, sigma).
func frequencies[S byte | uint32](s []S, sigma int) []int64 {
	if sigma < 1 {
		panic("wavelet: sigma must be ≥ 1")
	}
	freq := make([]int64, sigma)
	for _, c := range s {
		if int(c) >= sigma {
			panic(fmt.Sprintf("wavelet: symbol %d outside alphabet [0,%d)", c, sigma))
		}
		freq[c]++
	}
	return freq
}

// scatter builds the tree of s under prefix-free codes in one pass over
// the sequence. The codes and frequencies fix the whole node table
// (layout), so every node's bit run has a known place before any symbol
// is read; the pass then walks each symbol's root-to-leaf path and
// writes its code bits through per-node cursors — the i-th symbol to
// reach a node writes the node's i-th bit, the mirror image of Decoder.
// All levels share one word slab, so a cursor is a single bit position.
//
// One builder serves bytes and integers alike. The cursors and walks of
// a byte alphabet sit in L1; an integer alphabet of 10⁵ distinct symbols
// builds about as fast as the level-by-level partition this replaced
// (kept as the tests' reference), and at 10⁶ the scattered writes cost
// 1.8× what the partition's sequential passes did — the price of not
// keeping two builders for alphabets only a very large relation has.
func scatter[S byte | uint32](s []S, codes []huffman.Code, freq []int64) *Tree {
	t := &Tree{sigma: len(codes), n: len(s), codes: codes}
	if len(s) == 0 {
		return t
	}
	steps, at, levelBits := t.layout(freq)
	base := make([]int, len(levelBits)+1) // first slab word of each level
	for d, nb := range levelBits {
		base[d+1] = base[d] + (nb+63)/64
	}
	words := make([]uint64, base[len(levelBits)])
	cur := make([]int, len(t.nodes))
	for i := range t.nodes {
		if nd := &t.nodes[i]; nd.leaf < 0 {
			cur[i] = base[nd.depth]*64 + int(nd.off)
		}
	}
	for _, c := range s {
		for _, st := range steps[at[c]:at[int(c)+1]] {
			p := cur[st>>1]
			cur[st>>1] = p + 1
			words[p>>6] |= uint64(st&1) << (uint(p) & 63)
		}
	}
	t.levels = make([]*bitvec.Vector, len(levelBits))
	for d, nb := range levelBits {
		t.levels[d] = bitvec.FromWords(words[base[d]:base[d+1]:base[d+1]], nb)
	}
	return t
}

// layout computes the node table — level order, zero child before one
// child, exactly the order a breadth-first build over the sequence
// discovers nodes in — from the codes and symbol frequencies alone. It
// returns each occurring symbol's walk, steps[at[c]:at[c+1]] holding
// node<<1|bit per code bit, and the bit length of every level.
func (t *Tree) layout(freq []int64) (steps []uint32, at []int32, levelBits []int) {
	codes := t.codes
	at = make([]int32, len(codes)+1)
	present := make([]int32, 0, min(len(codes), t.n))
	for c, f := range freq {
		at[c+1] = at[c]
		if f > 0 {
			present = append(present, int32(c))
			at[c+1] += int32(codes[c].Len)
		}
	}
	steps = make([]uint32, at[len(codes)])
	// Left-aligned, prefix-free codes sort the leaves left to right, so
	// every node covers a contiguous range of present and a prefix sum
	// over that order gives any node's count.
	slices.SortFunc(present, func(a, b int32) int {
		return cmp.Compare(codes[a].Bits<<uint(64-codes[a].Len), codes[b].Bits<<uint(64-codes[b].Len))
	})
	upTo := make([]int64, len(present)+1)
	for i, c := range present {
		upTo[i+1] = upTo[i] + freq[c]
	}
	type span struct{ node, lo, hi int32 }
	level := append(make([]span, 0, len(present)), span{0, 0, int32(len(present))})
	next := make([]span, 0, len(present))
	// A tree whose internal nodes all have two children — any Huffman
	// shape over two or more symbols — has 2·leaves − 1 nodes.
	t.nodes = append(make([]node, 0, 2*len(present)), node{zero: -1, one: -1, leaf: -1})
	for depth := 0; len(level) > 0; depth++ {
		var bitsHere, onesHere int64
		next = next[:0]
		for _, sp := range level {
			// Work on a copy: appending child nodes below may reallocate
			// t.nodes, so writes go back by index at the end.
			nd := t.nodes[sp.node]
			nd.depth = int32(depth)
			nd.count = int32(upTo[sp.hi] - upTo[sp.lo])
			// A range whose first symbol has used up its code is that one
			// symbol: a leaf. Every other range writes one bit per symbol.
			if l := codes[present[sp.lo]].Len; l == depth || l == 0 {
				nd.leaf = present[sp.lo]
				t.nodes[sp.node] = nd
				continue
			}
			nd.off, nd.onesBefore = int32(bitsHere), int32(onesHere)
			mid := sp.lo // first symbol of the range whose bit here is 1
			for i := sp.lo; i < sp.hi; i++ {
				c := present[i]
				bit := uint32(codes[c].Bits>>uint(codes[c].Len-depth-1)) & 1
				steps[int(at[c])+depth] = uint32(sp.node)<<1 | bit
				if bit == 0 {
					mid = i + 1
				}
			}
			bitsHere += int64(nd.count)
			onesHere += upTo[sp.hi] - upTo[mid]
			if mid > sp.lo {
				nd.zero = int32(len(t.nodes))
				t.nodes = append(t.nodes, node{zero: -1, one: -1, leaf: -1})
				next = append(next, span{nd.zero, sp.lo, mid})
			}
			if sp.hi > mid {
				nd.one = int32(len(t.nodes))
				t.nodes = append(t.nodes, node{zero: -1, one: -1, leaf: -1})
				next = append(next, span{nd.one, mid, sp.hi})
			}
			t.nodes[sp.node] = nd
		}
		if bitsHere > 0 {
			levelBits = append(levelBits, int(bitsHere))
		}
		level, next = next, level
	}
	return steps, at, levelBits
}

// Len reports the sequence length.
func (t *Tree) Len() int { return t.n }

// Sigma reports the alphabet size.
func (t *Tree) Sigma() int { return t.sigma }

// Access returns the symbol at position i.
func (t *Tree) Access(i int) uint32 {
	c, _ := t.AccessRank(i)
	return c
}

// AccessRank returns the symbol c at position i together with
// Rank(c, i), in one root-to-leaf walk: the projected index that Access
// maintains at each level is exactly the node-local rank, so when the
// walk reaches the leaf it has already computed the symbol's rank. The
// FM-index LF mapping (one Access plus one Rank on the same row) is
// this operation, so fusing it halves every LF step. It is AccessRanks
// at one position.
func (t *Tree) AccessRank(i int) (uint32, int) {
	pos, sym := [1]int{i}, [1]uint32{}
	t.AccessRanks(pos[:], sym[:])
	return sym[0], pos[0]
}

// AccessRanks is AccessRank at several positions at once: it sets
// sym[k] to the symbol at pos[k] and replaces pos[k] by that symbol's
// rank there. The walks advance level by level, each level stepping
// every position not yet at its leaf, so the directory and word loads
// of independent positions are in flight together where one walk is a
// chain of dependent cache misses. The step loads both children before
// the bit is known, so the child and the projected position are picked
// by conditional moves rather than a branch on the bit read, which
// would mispredict half the time and turn the walks back into that
// chain. len(sym) must be at least len(pos).
func (t *Tree) AccessRanks(pos []int, sym []uint32) {
	sym = sym[:len(pos)]
	for k, i := range pos {
		if i < 0 || i >= t.n {
			panic(fmt.Sprintf("wavelet: AccessRanks position %d out of range [0,%d)", i, t.n))
		}
		sym[k] = 0 // the node each walk is at; the root first
	}
	for walking := true; walking; {
		walking = false
		for k, ni := range sym {
			nd := &t.nodes[ni]
			if nd.leaf >= 0 {
				continue
			}
			walking = true
			zero, one := nd.zero, nd.one
			bit, r1 := t.getRank1(nd, pos[k])
			i, next := pos[k]-r1, zero
			if bit {
				i, next = r1, one
			}
			pos[k], sym[k] = i, uint32(next)
		}
	}
	for k, ni := range sym {
		sym[k] = uint32(t.nodes[ni].leaf)
	}
}

// Rank returns the number of occurrences of symbol c in positions [0, i).
// i may equal Len().
func (t *Tree) Rank(c uint32, i int) int {
	if i < 0 || i > t.n {
		panic(fmt.Sprintf("wavelet: Rank(_, %d) out of range [0,%d]", i, t.n))
	}
	if int(c) >= t.sigma || t.n == 0 {
		return 0
	}
	code := t.codes[c]
	if code.Len == 0 && t.sigma > 1 {
		return 0 // symbol never occurs (Huffman shape)
	}
	ni := int32(0)
	nd := &t.nodes[0]
	for depth := int32(0); ni >= 0 && nd.leaf < 0; depth++ {
		r1 := t.rank1(nd, i)
		if code.Bits>>uint(int32(code.Len)-depth-1)&1 == 1 {
			i = r1
			ni = nd.one
		} else {
			i = i - r1
			ni = nd.zero
		}
		if ni >= 0 {
			nd = &t.nodes[ni]
		}
	}
	if ni < 0 || nd.leaf != int32(c) {
		return 0
	}
	return i
}

// RankPair returns Rank(c, i) and Rank(c, j) for i ≤ j, walking the
// symbol's root-to-leaf path once and ranking both interval endpoints
// with shared superblock and word loads at every level. Backward search
// projects [lo, hi) through exactly this pair, so fusing the two
// traversals halves the pointer and directory work of the query path.
func (t *Tree) RankPair(c uint32, i, j int) (int, int) {
	if i > j {
		panic(fmt.Sprintf("wavelet: RankPair(_, %d, %d) not ordered", i, j))
	}
	if i < 0 || j > t.n {
		panic(fmt.Sprintf("wavelet: RankPair(_, %d, %d) out of range [0,%d]", i, j, t.n))
	}
	if int(c) >= t.sigma || t.n == 0 {
		return 0, 0
	}
	code := t.codes[c]
	if code.Len == 0 && t.sigma > 1 {
		return 0, 0
	}
	ni := int32(0)
	nd := &t.nodes[0]
	for depth := int32(0); ni >= 0 && nd.leaf < 0; depth++ {
		ri, rj := t.rank1Pair(nd, i, j)
		if code.Bits>>uint(int32(code.Len)-depth-1)&1 == 1 {
			i, j = ri, rj
			ni = nd.one
		} else {
			i, j = i-ri, j-rj
			ni = nd.zero
		}
		if ni >= 0 {
			nd = &t.nodes[ni]
		}
	}
	if ni < 0 || nd.leaf != int32(c) {
		return 0, 0
	}
	return i, j
}

// Select returns the position of the k-th occurrence (1-based) of symbol
// c, or -1 if c occurs fewer than k times.
func (t *Tree) Select(c uint32, k int) int {
	if k < 1 || int(c) >= t.sigma || t.n == 0 {
		return -1
	}
	code := t.codes[c]
	if code.Len == 0 && t.sigma > 1 {
		return -1
	}
	// Walk down recording the path (code length ≤ 64 bounds the depth),
	// then walk back up with Select.
	var path [64]struct {
		ni  int32
		bit bool
	}
	steps := 0
	ni := int32(0)
	nd := &t.nodes[0]
	for depth := int32(0); ni >= 0 && nd.leaf < 0; depth++ {
		bit := code.Bits>>uint(int32(code.Len)-depth-1)&1 == 1
		path[steps].ni, path[steps].bit = ni, bit
		steps++
		if bit {
			ni = nd.one
		} else {
			ni = nd.zero
		}
		if ni >= 0 {
			nd = &t.nodes[ni]
		}
	}
	if ni < 0 || nd.leaf != int32(c) {
		return -1
	}
	if k > int(nd.count) {
		return -1
	}
	pos := k - 1 // position within the leaf's virtual sequence
	for i := steps - 1; i >= 0; i-- {
		st := &t.nodes[path[i].ni]
		if path[i].bit {
			pos = t.select1(st, pos+1)
		} else {
			pos = t.select0(st, pos+1)
		}
	}
	return pos
}

// Count returns the number of occurrences of symbol c in the whole
// sequence.
func (t *Tree) Count(c uint32) int { return t.Rank(c, t.n) }

// SizeBits estimates the memory footprint of the level bit vectors and
// the node table in bits, for space-accounting experiments.
func (t *Tree) SizeBits() int64 {
	var total int64
	for _, lv := range t.levels {
		total += lv.SizeBits()
	}
	total += int64(len(t.nodes)) * 28 * 8 // 7 × int32 fields per node
	return total
}
