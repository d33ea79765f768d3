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
	"fmt"
	"math/bits"

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

// balancedCodes assigns every symbol of [0, sigma) its fixed-width
// ⌈log₂ σ⌉-bit code (zero-length codes for the single-symbol alphabet,
// which yields a leaf-only tree).
func balancedCodes(sigma int) []huffman.Code {
	if sigma < 1 {
		panic("wavelet: sigma must be ≥ 1")
	}
	w := bits.Len(uint(sigma - 1))
	codes := make([]huffman.Code, sigma)
	for c := range codes {
		codes[c] = huffman.Code{Symbol: c, Len: w, Bits: uint64(c)}
	}
	return codes
}

// NewBalanced builds a balanced wavelet tree of s over alphabet [0, sigma).
func NewBalanced(s []uint32, sigma int) *Tree {
	return build(s, sigma, balancedCodes(sigma))
}

// NewHuffman builds a Huffman-shaped wavelet tree of s over [0, sigma);
// code lengths follow symbol frequencies in s.
func NewHuffman(s []uint32, sigma int) *Tree {
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
	codes := huffman.Build(freq)
	return build(s, sigma, codes)
}

// NewBalancedBytes builds a balanced tree over a byte string with
// alphabet [0, sigma).
func NewBalancedBytes(s []byte, sigma int) *Tree {
	codes := balancedCodes(sigma)
	for _, c := range s {
		if int(c) >= sigma {
			panic(fmt.Sprintf("wavelet: symbol %d outside alphabet [0,%d)", c, sigma))
		}
	}
	return buildSeq(s, sigma, codes, nil)
}

// NewHuffmanBytes builds a Huffman-shaped tree over a byte string with
// alphabet [0, sigma). The byte path skips the []uint32 conversion the
// general constructors pay, so index rebuilds feed the BWT in directly.
func NewHuffmanBytes(s []byte, sigma int) *Tree {
	return NewHuffmanBytesScratch(s, sigma, nil)
}

// BuildScratch holds the two symbol buffers a byte-string build
// partitions back and forth between, for a caller that builds tree after
// tree. The zero value is ready to use; not safe for concurrent builds.
type BuildScratch [2][]byte

// NewHuffmanBytesScratch is NewHuffmanBytes with its transient buffers
// taken from (and left in) sc, which may be nil.
func NewHuffmanBytesScratch(s []byte, sigma int, sc *BuildScratch) *Tree {
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
	codes := huffman.Build(freq)
	return buildSeq(s, sigma, codes, (*[2][]byte)(sc))
}

func build(s []uint32, sigma int, codes []huffman.Code) *Tree {
	for _, c := range s {
		if int(c) >= sigma {
			panic(fmt.Sprintf("wavelet: symbol %d outside alphabet [0,%d)", c, sigma))
		}
	}
	return buildSeq(s, sigma, codes, nil)
}

// buildSeq constructs the flat tree breadth-first. Two ping-pong symbol
// buffers carry the per-node segments from one depth to the next: a
// stable partition of each internal node's segment writes its zeros
// then its ones, which is exactly the level-order segment layout of the
// children. The whole build allocates the node slice, one bit vector
// per level — sized once, from the segments that will write to it — and
// two symbol buffers, which it takes from bufs when the caller has some
// to lend.
func buildSeq[S byte | uint32](s []S, sigma int, codes []huffman.Code, bufs *[2][]S) *Tree {
	t := &Tree{sigma: sigma, n: len(s), codes: codes}
	if len(s) == 0 {
		return t
	}
	type segment struct {
		node       int32
		start, end int32
	}
	if bufs == nil {
		bufs = new([2][]S)
	}
	for i, b := range bufs {
		if cap(b) < len(s) {
			bufs[i] = make([]S, len(s))
		}
	}
	cur, next := bufs[0][:len(s)], bufs[1][:len(s)]
	copy(cur, s)
	segs := []segment{{node: 0, start: 0, end: int32(len(s))}}
	var nextSegs []segment
	t.nodes = append(t.nodes, node{zero: -1, one: -1, leaf: -1})
	// bitAt[c] is symbol c's code bit at the current depth: one byte
	// load per symbol in the hot partition loops instead of a code
	// struct load plus shifts.
	bitAt := make([]uint8, sigma)
	for depth := int32(0); len(segs) > 0; depth++ {
		for c, code := range codes {
			if int32(code.Len) > depth {
				bitAt[c] = uint8(code.Bits >> uint(int32(code.Len)-depth-1) & 1)
			}
		}
		// A segment whose symbols have used up their code is one symbol:
		// a leaf. Every other segment writes one bit per symbol.
		isLeaf := func(sg segment) bool {
			l := int32(codes[cur[sg.start]].Len)
			return l == depth || l == 0
		}
		levelBits := 0
		for _, sg := range segs {
			if !isLeaf(sg) {
				levelBits += int(sg.end - sg.start)
			}
		}
		lv := bitvec.New(levelBits)
		levelOnes := int32(0)
		nextSegs = nextSegs[:0]
		nextPos := int32(0)
		for _, sg := range segs {
			// Work on a copy: appending child nodes below may reallocate
			// t.nodes, so writes go back by index at the end.
			nd := t.nodes[sg.node]
			nd.depth = depth
			nd.count = sg.end - sg.start
			if isLeaf(sg) {
				nd.leaf = int32(cur[sg.start])
				t.nodes[sg.node] = nd
				continue
			}
			nd.off = int32(lv.Len())
			nd.onesBefore = levelOnes
			// First pass: emit the code bits at this depth, 64 at a time.
			shift := uint(0)
			var reg uint64
			ones := int32(0)
			for _, c := range cur[sg.start:sg.end] {
				bit := bitAt[c]
				reg |= uint64(bit) << shift
				ones += int32(bit)
				if shift++; shift == 64 {
					lv.AppendWord(reg, 64)
					reg, shift = 0, 0
				}
			}
			if shift > 0 {
				lv.AppendWord(reg, int(shift))
			}
			levelOnes += ones
			// Second pass: stable-partition the segment into the next
			// buffer — zeros first, then ones.
			zw := nextPos
			ow := nextPos + (sg.end - sg.start - ones)
			zeroStart, oneStart := zw, ow
			for _, c := range cur[sg.start:sg.end] {
				if bitAt[c] == 1 {
					next[ow] = c
					ow++
				} else {
					next[zw] = c
					zw++
				}
			}
			nextPos = ow
			if zw > zeroStart {
				nd.zero = int32(len(t.nodes))
				t.nodes = append(t.nodes, node{zero: -1, one: -1, leaf: -1})
				nextSegs = append(nextSegs, segment{node: nd.zero, start: zeroStart, end: zw})
			}
			if ow > oneStart {
				nd.one = int32(len(t.nodes))
				t.nodes = append(t.nodes, node{zero: -1, one: -1, leaf: -1})
				nextSegs = append(nextSegs, segment{node: nd.one, start: oneStart, end: ow})
			}
			t.nodes[sg.node] = nd
		}
		if levelBits > 0 {
			lv.Seal()
			t.levels = append(t.levels, lv)
		}
		cur, next = next, cur
		segs, nextSegs = nextSegs, segs
	}
	return t
}

// Len reports the sequence length.
func (t *Tree) Len() int { return t.n }

// Sigma reports the alphabet size.
func (t *Tree) Sigma() int { return t.sigma }

// Access returns the symbol at position i.
func (t *Tree) Access(i int) uint32 {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("wavelet: Access(%d) out of range [0,%d)", i, t.n))
	}
	nd := &t.nodes[0]
	for nd.leaf < 0 {
		bit, r1 := t.getRank1(nd, i)
		if bit {
			i = r1
			nd = &t.nodes[nd.one]
		} else {
			i = i - r1
			nd = &t.nodes[nd.zero]
		}
	}
	return uint32(nd.leaf)
}

// AccessRank returns the symbol c at position i together with
// Rank(c, i), in one root-to-leaf walk: the projected index that Access
// maintains at each level is exactly the node-local rank, so when the
// walk reaches the leaf it has already computed the symbol's rank. The
// FM-index LF mapping (one Access plus one Rank on the same row) is
// this operation, so fusing it halves every LF step.
func (t *Tree) AccessRank(i int) (uint32, int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("wavelet: AccessRank(%d) out of range [0,%d)", i, t.n))
	}
	nd := &t.nodes[0]
	for nd.leaf < 0 {
		bit, r1 := t.getRank1(nd, i)
		if bit {
			i = r1
			nd = &t.nodes[nd.one]
		} else {
			i = i - r1
			nd = &t.nodes[nd.zero]
		}
	}
	return uint32(nd.leaf), i
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
