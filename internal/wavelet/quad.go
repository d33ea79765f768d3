package wavelet

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"dyncoll/internal/huffman"
)

// Quad is a static Huffman-shaped 4-ary wavelet tree over a byte
// alphabet (Ferragina, Manzini, Mäkinen & Navarro, TALG 2007; Bowe,
// "Multiary wavelet trees in practice", 2010). Every symbol gets a
// canonical 4-ary Huffman code (huffman.Build4), and a node writes one
// base-4 digit per symbol it routes instead of one bit, so a root-to-
// leaf walk visits about half the levels of the binary Tree: a
// sequence of zero-order entropy H₀ costs about H₀/2 + 1 levels per
// symbol instead of H₀ + 1. The FM-index's backward search, LF steps
// and bulk decoding walk it; relations keep the binary Tree, whose
// Select this shape does not offer.
//
// Layout: pointer-free, as Tree is. The digit runs of all internal
// nodes at a depth are packed, 32 digits per word, into one level, and
// each level carries its own digit-rank directory (quadLevel). Nodes
// live in one level-order table; a child is another node's index or,
// at a leaf, ^symbol. Every occurring symbol also has its root-to-leaf
// path spelled out (steps), so a rank walk reads its per-level offsets
// from one short run of the table rather than chasing child links.
type Quad struct {
	sigma  int
	n      int
	codes  []huffman.Code // 4-ary: Len in digits; Len==0 → absent
	freq   []int64        // occurrences per symbol; with the code lengths it fixes the layout
	levels []quadLevel
	nodes  []quadNode // internal nodes, level order; root at 0; empty iff n == 0
	steps  []quadStep // steps[at[c]:at[c+1]]: symbol c's path, one step per depth
	at     []int32
}

// quadNode is one internal node: the digit run [off, off+count) of its
// level, the count of every digit in the level before off, and the
// next hop by digit.
type quadNode struct {
	off    int32
	before [4]int32
	child  [4]int32 // a node index, or ^symbol at a leaf; a digit no symbol takes is never followed
	depth  int32
}

// quadStep is one level of a symbol's walk: its node, that node's run
// offset, the symbol's digit there and the count of that digit in the
// level before the run.
type quadStep struct {
	off, before int32
	node        uint16
	digit       uint8
}

// NewQuadBytesCounted builds a 4-ary Huffman-shaped tree over a byte
// string s with alphabet [0, len(freq)), len(freq) ≤ 256, for a caller
// that has already counted s: freq[c] must be the number of occurrences
// of c in s (huffman.Freq counts them).
//
// The codes and frequencies fix the whole node table before any symbol
// is read, so the build is one scatter pass over s, as Tree's is: each
// symbol walks its steps and writes one digit per level through its
// node's cursor. All levels share one word slab.
func NewQuadBytesCounted(s []byte, freq []int64) *Quad {
	if len(freq) < 1 || len(freq) > 256 {
		panic(fmt.Sprintf("wavelet: 4-ary alphabet %d outside [1,256]", len(freq)))
	}
	q := &Quad{sigma: len(freq), n: len(s), codes: huffman.Build4(freq), freq: freq}
	digits := q.layout()
	base := make([]int, len(digits)+1) // first slab word of each level
	for d, nd := range digits {
		base[d+1] = base[d] + (nd+31)/32
	}
	words := make([]uint64, base[len(digits)])
	cur := make([]int, len(q.nodes))
	for i, nd := range q.nodes {
		cur[i] = base[nd.depth]*32 + int(nd.off)
	}
	steps, at := q.steps, q.at
	for _, c := range s {
		for _, st := range steps[at[c]:at[int(c)+1]] {
			p := cur[st.node]
			cur[st.node] = p + 1
			words[p>>5] |= uint64(st.digit) << (uint(p) & 31 << 1)
		}
	}
	for d, nd := range digits {
		q.levels[d] = newQuadLevel(words[base[d]:base[d+1]:base[d+1]], nd)
	}
	return q
}

// layout computes the node table and every symbol's steps from the
// codes and frequencies alone — level order, children by digit, the
// order a breadth-first build discovers nodes in — and returns the
// digit count of every level. It allocates q.levels, unfilled.
func (q *Quad) layout() (digits []int) {
	codes := q.codes
	q.at = make([]int32, len(codes)+1)
	present := make([]int32, 0, len(codes))
	for c, f := range q.freq {
		q.at[c+1] = q.at[c]
		if f > 0 {
			present = append(present, int32(c))
			q.at[c+1] += int32(codes[c].Len)
		}
	}
	q.steps = make([]quadStep, q.at[len(codes)])
	if len(present) == 0 {
		return nil
	}
	// Left-aligned prefix-free codes sort the leaves left to right, so
	// every node covers a contiguous run of present and a prefix sum
	// over that order gives any node's count.
	key := func(c int32) uint64 { return codes[c].Bits << uint(64-2*codes[c].Len) }
	slices.SortFunc(present, func(a, b int32) int { return cmp.Compare(key(a), key(b)) })
	upTo := make([]int64, len(present)+1)
	for i, c := range present {
		upTo[i+1] = upTo[i] + q.freq[c]
	}
	digit := func(c int32, depth int) uint8 {
		return uint8(codes[c].Bits>>uint(2*(codes[c].Len-depth-1))) & 3
	}
	type span struct{ node, lo, hi int32 }
	level := []span{{0, 0, int32(len(present))}}
	var next []span
	q.nodes = append(q.nodes, quadNode{})
	for depth := 0; len(level) > 0; depth++ {
		var before [4]int64
		var here int64
		next = next[:0]
		for _, sp := range level {
			// Work on a copy: appending child nodes below may reallocate
			// q.nodes, so the node goes back by index at the end.
			nd := q.nodes[sp.node]
			nd.depth = int32(depth)
			nd.off = int32(here)
			for d := range before {
				nd.before[d] = int32(before[d])
			}
			for i := sp.lo; i < sp.hi; {
				d := digit(present[i], depth)
				j := i + 1
				for j < sp.hi && digit(present[j], depth) == d {
					j++
				}
				before[d] += upTo[j] - upTo[i]
				for _, c := range present[i:j] {
					q.steps[int(q.at[c])+depth] = quadStep{off: nd.off, before: nd.before[d], node: uint16(sp.node), digit: d}
				}
				if c := present[i]; codes[c].Len == depth+1 {
					nd.child[d] = ^c // prefix-free: a code ending here is alone in its run
				} else {
					nd.child[d] = int32(len(q.nodes))
					next = append(next, span{nd.child[d], i, j})
					q.nodes = append(q.nodes, quadNode{})
				}
				i = j
			}
			q.nodes[sp.node] = nd
			here += upTo[sp.hi] - upTo[sp.lo]
		}
		digits = append(digits, int(here))
		level, next = next, level
	}
	q.levels = make([]quadLevel, len(digits))
	return digits
}

// Len reports the sequence length.
func (q *Quad) Len() int { return q.n }

// AccessRank returns the symbol c at position i together with
// Rank(c, i): AccessRanks at one position.
func (q *Quad) AccessRank(i int) (uint32, int) {
	pos, sym := [1]int{i}, [1]uint32{}
	q.AccessRanks(pos[:], sym[:])
	return sym[0], pos[0]
}

// AccessRanks sets sym[k] to the symbol at pos[k] and replaces pos[k]
// by that symbol's rank there, advancing all walks together one level
// at a time as Tree.AccessRanks does. A step reads the digit at the
// position, counts that digit in the same quarter of words, and takes
// the child and the before-count at the digit's index of the node's
// tables: nothing branches on the digit. len(sym) must be at least
// len(pos).
func (q *Quad) AccessRanks(pos []int, sym []uint32) {
	sym = sym[:len(pos)]
	for k, i := range pos {
		if i < 0 || i >= q.n {
			panic(fmt.Sprintf("wavelet: AccessRanks position %d out of range [0,%d)", i, q.n))
		}
		sym[k] = 0 // the node each walk is at, the root first; ^symbol once at its leaf
	}
	for walking := true; walking; {
		walking = false
		for k, ni := range sym {
			if int32(ni) < 0 {
				continue
			}
			walking = true
			nd := &q.nodes[ni]
			d, r := q.levels[nd.depth].digitRank(int(nd.off) + pos[k])
			pos[k], sym[k] = r-int(nd.before[d]), uint32(nd.child[d])
		}
	}
	for k, ni := range sym {
		sym[k] = ^ni
	}
}

// Count returns the number of occurrences of symbol c.
func (q *Quad) Count(c uint32) int {
	if int(c) >= q.sigma {
		return 0
	}
	return int(q.freq[c])
}

// RankPair returns Rank(c, i) and Rank(c, j) for i ≤ j, walking c's
// steps once; at each level both endpoints share one quarter of words
// whenever they fall in it (quadLevel.rankPair).
func (q *Quad) RankPair(c uint32, i, j int) (int, int) {
	if i > j {
		panic(fmt.Sprintf("wavelet: RankPair(_, %d, %d) not ordered", i, j))
	}
	if i < 0 || j > q.n {
		panic(fmt.Sprintf("wavelet: RankPair(_, %d, %d) out of range [0,%d]", i, j, q.n))
	}
	if int(c) >= q.sigma {
		return 0, 0
	}
	steps := q.steps[q.at[c]:q.at[c+1]]
	if len(steps) == 0 {
		return 0, 0
	}
	levels := q.levels[:len(steps)]
	for k := range steps {
		st := &steps[k]
		ri, rj := levels[k].rankPair(uint(st.digit), int(st.off)+i, int(st.off)+j)
		i, j = ri-int(st.before), rj-int(st.before)
	}
	return i, j
}

// SizeBits is the in-memory footprint of the digit words, their rank
// directories and the node and step tables, in bits.
func (q *Quad) SizeBits() int64 {
	var total int64
	for i := range q.levels {
		lv := &q.levels[i]
		total += int64(len(lv.words)+len(lv.blocks))*64 + int64(len(lv.supers))*32
	}
	total += int64(len(q.nodes)) * 40 * 8 // 10 × int32 fields per node
	total += int64(len(q.steps)) * 12 * 8
	return total
}

// ReadAll writes the whole sequence to dst[:Len()] a level at a time,
// from the deepest: an internal node's symbols are its digits, each
// replaced by the next symbol of the child it names, or by the symbol
// of a leaf child. A level is then one sequential pass over its digits
// and over the child runs it reads, with no branch on a digit, where a
// symbol-by-symbol reader would walk each down the tree on its own. The
// levels alternate between dst and scratch, which ReadAll grows to
// Len() and returns for reuse.
func (q *Quad) ReadAll(dst, scratch []byte) []byte {
	if q.n == 0 {
		return scratch
	}
	if cap(scratch) < q.n {
		scratch = make([]byte, q.n)
	}
	bufs := [2][]byte{dst[:q.n], scratch[:q.n]}
	end := len(q.nodes)
	for d := len(q.levels) - 1; d >= 0; d-- {
		out, in, lv := bufs[d&1], bufs[(d+1)&1], &q.levels[d]
		first := end
		for first > 0 && q.nodes[first-1].depth == int32(d) {
			first--
		}
		for ni := first; ni < end; ni++ {
			nd := &q.nodes[ni]
			runEnd := lv.n
			if ni+1 < end {
				runEnd = int(q.nodes[ni+1].off)
			}
			var src [4][]byte
			var step, cur [4]int
			for k, ch := range nd.child {
				if ch < 0 {
					src[k] = symbolBytes[^ch : ^ch+1]
				} else {
					src[k], step[k] = in[q.nodes[ch].off:], 1
				}
			}
			for p := int(nd.off); p < runEnd; p++ {
				dg := lv.words[p>>5] >> (uint(p) & 31 << 1) & 3
				out[p] = src[dg][cur[dg]]
				cur[dg] += step[dg]
			}
		}
		end = first
	}
	return scratch
}

// symbolBytes[c] is c: a leaf's one-symbol run for ReadAll.
var symbolBytes = func() (t [256]byte) {
	for c := range t {
		t[c] = byte(c)
	}
	return t
}()

const (
	quadBlockDigits = 256 // digits per directory block: 8 words
	quadSuperBlocks = 256 // blocks per superblock: 65,536 digits
	evenBits        = 0x5555555555555555
)

// quadLevel is one depth's packed digits and their rank directory.
//
// The directory keeps, for every 256-digit block boundary, the count of
// each of the four digits before it, split in two: blocks[e] packs four
// 16-bit counts relative to the boundary's superblock (65,536 digits),
// supers[4·(e>>8)+d] the absolute counts before that superblock. That
// is 64 bits per 512 bits of digits (12.5 %) plus 128 bits per 2¹⁷,
// under the binary level's 18.75 % for superRank and select hints, and
// a rank adds the two entries without deriving any digit from the
// others. Digits past the level's end count as digit 0 (their bits are
// zero), in the directory and in the kernel alike, so a count backward
// from the end of the last block stays exact.
type quadLevel struct {
	words  []uint64
	n      int      // digits
	blocks []uint64 // nBlocks+1 entries
	supers []int32  // 4 per superblock, for superblocks 0 … nBlocks>>8
}

// quadBlocks is the number of directory blocks over nw words.
func quadBlocks(nw int) int { return (nw + 7) / 8 }

// newQuadLevel wraps n digits in words and builds the directory.
func newQuadLevel(words []uint64, n int) quadLevel {
	nb := quadBlocks(len(words))
	lv := quadLevel{
		words:  words,
		n:      n,
		blocks: make([]uint64, nb+1),
		supers: make([]int32, 4*(nb/quadSuperBlocks+1)),
	}
	var abs, sup [4]int64
	for e := 0; e <= nb; e++ {
		if e%quadSuperBlocks == 0 {
			sup = abs
			for d := range sup {
				lv.supers[4*(e/quadSuperBlocks)+d] = int32(sup[d])
			}
		}
		var rel uint64
		for d := range abs {
			rel |= uint64(abs[d]-sup[d]) << (16 * uint(d))
		}
		lv.blocks[e] = rel
		if e == nb {
			break
		}
		var c [4]int64
		for _, w := range words[8*e : min(8*e+8, len(words))] {
			lo, hi := w&evenBits, w>>1&evenBits
			three := int64(bits.OnesCount64(lo & hi))
			c[1] += int64(bits.OnesCount64(lo)) - three
			c[2] += int64(bits.OnesCount64(hi)) - three
			c[3] += three
		}
		c[0] = quadBlockDigits - c[1] - c[2] - c[3]
		for d := range abs {
			abs[d] += c[d]
		}
	}
	return lv
}

// entry returns the count of digit d before block boundary e.
func (lv *quadLevel) entry(d uint, e int) int {
	return int(lv.supers[e>>8<<2|int(d)]) + int(uint16(lv.blocks[e]>>(16*d)))
}

// quarter returns the four words of the quarter holding digit i, an
// aligned half of a block; words missing at the end of the level read
// as zero and are never loaded. The words come back as four scalars:
// Go keeps an array of more than one element in memory, which would
// put a store and a reload on every rank's dependency chain.
func (lv *quadLevel) quarter(i int) (q0, q1, q2, q3 uint64) {
	ws := lv.words[i>>5&^3:]
	if len(ws) >= 4 {
		return ws[0], ws[1], ws[2], ws[3]
	}
	switch len(ws) {
	case 3:
		return ws[0], ws[1], ws[2], 0
	case 2:
		return ws[0], ws[1], 0, 0
	case 1:
		return ws[0], 0, 0, 0
	}
	return 0, 0, 0, 0
}

// match marks, in the even bit of each of w's 32 digits, the digits
// equal to d.
func match(w uint64, d uint) uint64 {
	y := w ^ uint64(3^d)*evenBits // digit d becomes 11
	return y & (y >> 1) & evenBits
}

// lowBits is the mask of a word's bits below bit x: none for x ≤ 0,
// all for x ≥ 64, with no branch (bitvec's before).
func lowBits(x int) uint64 {
	return (1<<uint(x) - 1) &^ uint64(x>>63)
}

// rank returns the count of digit d in positions [0, i), i ≤ n. In the
// lower quarter of a block it counts forward from the block's entry
// over the digits of the quarter before i, in the upper one backward
// from the next block's entry over the digits from i on: four masked
// popcounts of match masks either way, the masks chosen by arithmetic
// (flip turns "before i" into "from i on") rather than by a loop
// bounded by i — bitvec's kernel at two bits per digit, written out
// because the compiler inlines no helper this size.
func (lv *quadLevel) rank(d uint, i int) int {
	q0, q1, q2, q3 := lv.quarter(i)
	up := i >> 7 & 1
	flip := -uint64(up)
	sub := i & 127 << 1 // bit offset of digit i in the quarter
	c := bits.OnesCount64(match(q0, d)&(lowBits(sub)^flip)) +
		bits.OnesCount64(match(q1, d)&(lowBits(sub-64)^flip)) +
		bits.OnesCount64(match(q2, d)&(lowBits(sub-128)^flip)) +
		bits.OnesCount64(match(q3, d)&(lowBits(sub-192)^flip))
	return lv.entry(d, i>>8+up) + (c ^ -up) + up
}

// digitRank returns the digit at position i < n and its rank there.
func (lv *quadLevel) digitRank(i int) (uint, int) {
	d := uint(lv.words[i>>5]>>(uint(i)&31<<1)) & 3
	return d, lv.rank(d, i)
}

// rankPair returns rank(d, i) and rank(d, j), i ≤ j. Endpoints in one
// quarter share its loads, its digit matching and its directory entry;
// backward search's intervals narrow into one quarter within a few
// steps.
func (lv *quadLevel) rankPair(d uint, i, j int) (int, int) {
	if i>>7 != j>>7 {
		return lv.rank(d, i), lv.rank(d, j)
	}
	q0, q1, q2, q3 := lv.quarter(i)
	m0, m1, m2, m3 := match(q0, d), match(q1, d), match(q2, d), match(q3, d)
	up := i >> 7 & 1
	flip := -uint64(up)
	si, sj := i&127<<1, j&127<<1
	ci := bits.OnesCount64(m0&(lowBits(si)^flip)) +
		bits.OnesCount64(m1&(lowBits(si-64)^flip)) +
		bits.OnesCount64(m2&(lowBits(si-128)^flip)) +
		bits.OnesCount64(m3&(lowBits(si-192)^flip))
	cj := bits.OnesCount64(m0&(lowBits(sj)^flip)) +
		bits.OnesCount64(m1&(lowBits(sj-64)^flip)) +
		bits.OnesCount64(m2&(lowBits(sj-128)^flip)) +
		bits.OnesCount64(m3&(lowBits(sj-192)^flip))
	base := lv.entry(d, i>>8+up)
	return base + (ci ^ -up) + up, base + (cj ^ -up) + up
}
