// Package bitvec provides static bit vectors with constant-time rank and
// near-constant-time select support.
//
// A Vector stores n bits in ⌈n/64⌉ machine words. Rank support adds one
// absolute count per 512-bit superblock boundary, and a rank counts at
// most four words from the nearer boundary, giving O(1) Rank1/Rank0. Select is
// answered by a binary search over superblock counts accelerated with
// positional hints sampled every selectSample ones, giving O(log n) worst
// case and close to O(1) in practice.
//
// Vectors in this package are immutable after Seal; the dynamic variants
// used for lazy deletion live in package sparsebits.
package bitvec

import (
	"fmt"
	"math/bits"
)

const (
	wordBits      = 64
	superWords    = 8 // words per superblock: 512 bits
	superBits     = wordBits * superWords
	selectSample  = 512 // one select hint per this many set bits
	selectSample0 = 512 // and per this many zero bits
)

// Vector is a static bit vector with rank/select support.
//
// The zero value is an empty vector. Bits are appended with AppendBit or
// AppendWord and the vector must be sealed with Seal before rank or select
// queries are issued.
type Vector struct {
	words  []uint64
	n      int // number of valid bits
	sealed bool

	// rank directory
	superRank []int64 // ones before each superblock

	// select hints: superblock index containing the (k*selectSample)-th one/zero
	selHint1 []int32
	selHint0 []int32

	ones int
}

// New returns an empty vector with capacity for n bits pre-allocated.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative capacity")
	}
	return &Vector{words: make([]uint64, 0, (n+wordBits-1)/wordBits)}
}

// FromBools builds a sealed vector from a slice of booleans.
func FromBools(bs []bool) *Vector {
	v := New(len(bs))
	for _, b := range bs {
		v.AppendBit(b)
	}
	v.Seal()
	return v
}

// FromWords builds a sealed vector from words containing n valid bits.
// The words slice is used directly (not copied).
func FromWords(words []uint64, n int) *Vector {
	if n < 0 || n > len(words)*wordBits {
		panic("bitvec: bit count out of range of words")
	}
	v := &Vector{words: words, n: n}
	v.Seal()
	return v
}

// Len reports the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Ones reports the number of set bits. Valid after Seal.
func (v *Vector) Ones() int { return v.ones }

// Zeros reports the number of unset bits. Valid after Seal.
func (v *Vector) Zeros() int { return v.n - v.ones }

// AppendBit appends one bit. Must not be called after Seal.
func (v *Vector) AppendBit(b bool) {
	if v.sealed {
		panic("bitvec: append to sealed vector")
	}
	w, off := v.n/wordBits, uint(v.n%wordBits)
	if w == len(v.words) {
		v.words = append(v.words, 0)
	}
	if b {
		v.words[w] |= 1 << off
	}
	v.n++
}

// AppendWord appends the low nbits bits of w (LSB first). It shifts
// whole words instead of looping bit-at-a-time, so bulk producers (the
// wavelet-tree builder, marshal translation) append 64 bits per call.
func (v *Vector) AppendWord(w uint64, nbits int) {
	if nbits < 0 || nbits > wordBits {
		panic("bitvec: AppendWord bit count out of range")
	}
	if v.sealed {
		panic("bitvec: append to sealed vector")
	}
	if nbits == 0 {
		return
	}
	w &= lowMask(nbits)
	off := uint(v.n % wordBits)
	if off == 0 {
		v.words = append(v.words, w)
	} else {
		v.words[len(v.words)-1] |= w << off
		if int(off)+nbits > wordBits {
			v.words = append(v.words, w>>(wordBits-off))
		}
	}
	v.n += nbits
}

// Get reports the bit at position i (0-based).
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Get(%d) out of range [0,%d)", i, v.n))
	}
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Seal freezes the vector and builds the rank/select directories.
// Seal is idempotent.
func (v *Vector) Seal() {
	if v.sealed {
		return
	}
	v.sealed = true
	nSuper := (len(v.words) + superWords - 1) / superWords
	v.superRank = make([]int64, nSuper+1)
	ones := 0
	for s := 0; s < nSuper; s++ {
		v.superRank[s] = int64(ones)
		end := (s + 1) * superWords
		if end > len(v.words) {
			end = len(v.words)
		}
		for _, w := range v.words[s*superWords : end] {
			ones += bits.OnesCount64(w)
		}
	}
	v.superRank[nSuper] = int64(ones)
	v.ones = ones
	v.buildSelectHints()
}

func (v *Vector) buildSelectHints() {
	// selHint1[h] is the superblock containing the (h*selectSample+1)-th
	// set bit; selHint0[h] likewise for zero bits. These bracket the
	// binary search in Select1/Select0.
	nSuper := len(v.superRank) - 1
	v.selHint1 = make([]int32, 0, v.ones/selectSample+2)
	v.selHint0 = make([]int32, 0, (v.n-v.ones)/selectSample0+2)
	next1, next0 := 1, 1
	for s := 0; s < nSuper; s++ {
		onesThrough := int(v.superRank[s+1])
		bitsThrough := (s + 1) * superBits
		if bitsThrough > v.n {
			bitsThrough = v.n
		}
		zerosThrough := bitsThrough - onesThrough
		for next1 <= onesThrough {
			v.selHint1 = append(v.selHint1, int32(s))
			next1 += selectSample
		}
		for next0 <= zerosThrough {
			v.selHint0 = append(v.selHint0, int32(s))
			next0 += selectSample0
		}
	}
}

// Rank1 returns the number of set bits in positions [0, i).
// i may equal Len(), in which case the total popcount is returned.
func (v *Vector) Rank1(i int) int {
	if i < 0 || i > v.n {
		panic(fmt.Sprintf("bitvec: Rank1(%d) out of range [0,%d]", i, v.n))
	}
	if !v.sealed {
		panic("bitvec: rank on unsealed vector")
	}
	_, r := v.rank(i)
	return r
}

// rank returns Rank1(i) and the word holding bit i (zero past the last
// word), counting from the nearer of the two directory entries around
// i. A superblock's eight words split into two aligned quarters of four:
// in the lower quarter the count runs forward from superRank[s] over
// the bits of the quarter before i, in the upper one backward from
// superRank[s+1] over the bits of the quarter from i on — the quarter
// ends where the superblock does. Either way it is four masked
// popcounts of one quarter, the masks chosen by arithmetic rather than
// by a loop whose trip count depends on i, so nothing mispredicts and
// no directory beyond superRank is needed. The last quarter of a vector
// may be short; its missing words count as zero and are never read,
// which matters for mapped words that end at a read-only page.
func (v *Vector) rank(i int) (word uint64, r int) {
	w := i >> 6
	q := v.words[w&^3:]
	var short [4]uint64
	if len(q) < 4 {
		copy(short[:], q)
		q = short[:]
	}
	q = q[:4]
	// up is 1 in the upper quarter, where flip turns "bits before i"
	// masks into "bits from i on".
	up := w >> 2 & 1
	flip := -uint64(up)
	sub := i & 255 // bit offset of i in the quarter
	c := bits.OnesCount64(q[0]&(before(sub)^flip)) +
		bits.OnesCount64(q[1]&(before(sub-64)^flip)) +
		bits.OnesCount64(q[2]&(before(sub-128)^flip)) +
		bits.OnesCount64(q[3]&(before(sub-192)^flip))
	// Forward: superRank[s] + c. Backward: superRank[s+1] − c.
	return q[w&3], int(v.superRank[w>>3+up]) + (c ^ -up) + up
}

// before is the mask of a word's bits below bit x: none for x ≤ 0, all
// for x ≥ 64. Go defines a shift by 64 or more as 0, and the sign of x
// clears the rest, so no branch decides which.
func before(x int) uint64 {
	return (1<<uint(x) - 1) &^ uint64(x>>63)
}

// Rank0 returns the number of unset bits in positions [0, i).
func (v *Vector) Rank0(i int) int { return i - v.Rank1(i) }

// Rank1Pair returns Rank1(i) and Rank1(j) for i ≤ j in one pass: the
// superblock base and the whole words up to i are loaded once and the
// scan continues from there to j, instead of two independent
// traversals. Backward search always ranks both interval endpoints on
// the same symbol path, which makes this the query hot path's
// fundamental operation.
func (v *Vector) Rank1Pair(i, j int) (ri, rj int) {
	if i > j {
		panic(fmt.Sprintf("bitvec: Rank1Pair(%d, %d) not ordered", i, j))
	}
	if i < 0 || j > v.n {
		panic(fmt.Sprintf("bitvec: Rank1Pair(%d, %d) out of range [0,%d]", i, j, v.n))
	}
	if !v.sealed {
		panic("bitvec: rank on unsealed vector")
	}
	s := i / superBits
	if j/superBits != s {
		// Endpoints in different superblocks: each starts from its own
		// directory entry anyway. Within one superblock the shared
		// forward scan stays: backward search's endpoints are usually a
		// few words apart, and two nearer-entry ranks measured slower
		// there (BenchmarkFMRange).
		_, ri = v.rank(i)
		_, rj = v.rank(j)
		return ri, rj
	}
	r := int(v.superRank[s])
	w := s * superWords
	wi, wj := i/wordBits, j/wordBits
	for ; w < wi; w++ {
		r += bits.OnesCount64(v.words[w])
	}
	ri = r
	if rem := uint(i % wordBits); rem != 0 {
		ri += bits.OnesCount64(v.words[wi] & (1<<rem - 1))
	}
	for ; w < wj; w++ {
		r += bits.OnesCount64(v.words[w])
	}
	rj = r
	if rem := uint(j % wordBits); rem != 0 {
		rj += bits.OnesCount64(v.words[wj] & (1<<rem - 1))
	}
	return ri, rj
}

// GetRank1 returns the bit at position i together with Rank1(i),
// sharing the superblock and word loads of the two lookups. This is
// the per-level step of wavelet-tree Access.
func (v *Vector) GetRank1(i int) (bool, int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: GetRank1(%d) out of range [0,%d)", i, v.n))
	}
	if !v.sealed {
		panic("bitvec: rank on unsealed vector")
	}
	word, r := v.rank(i)
	return word>>(uint(i)&63)&1 == 1, r
}

// Select1 returns the position of the k-th set bit (1-based k).
// It panics if k is out of range [1, Ones()].
func (v *Vector) Select1(k int) int {
	if k < 1 || k > v.ones {
		panic(fmt.Sprintf("bitvec: Select1(%d) out of range [1,%d]", k, v.ones))
	}
	// Bracket the superblock search with hints, then binary search for
	// the largest superblock lo with superRank[lo] < k.
	h := (k - 1) / selectSample
	lo := int(v.selHint1[h])
	hi := len(v.superRank) - 2
	if h+1 < len(v.selHint1) {
		hi = int(v.selHint1[h+1])
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(v.superRank[mid]) < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - int(v.superRank[lo])
	w := lo * superWords
	for {
		c := bits.OnesCount64(v.words[w])
		if rem <= c {
			break
		}
		rem -= c
		w++
	}
	return w*wordBits + SelectInWord(v.words[w], rem-1)
}

// Select0 returns the position of the k-th unset bit (1-based k).
func (v *Vector) Select0(k int) int {
	zeros := v.n - v.ones
	if k < 1 || k > zeros {
		panic(fmt.Sprintf("bitvec: Select0(%d) out of range [1,%d]", k, zeros))
	}
	// A vector without select-0 hints (WithoutSelect0) searches every
	// superblock.
	lo, hi := 0, len(v.superRank)-2
	if h := (k - 1) / selectSample0; len(v.selHint0) > 0 {
		lo = int(v.selHint0[h])
		if h+1 < len(v.selHint0) {
			hi = int(v.selHint0[h+1])
		}
	}
	zerosBefore := func(s int) int { return s*superBits - int(v.superRank[s]) }
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if zerosBefore(mid) < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - zerosBefore(lo)
	w := lo * superWords
	for {
		bitsHere := wordBits
		if (w+1)*wordBits > v.n {
			bitsHere = v.n - w*wordBits
		}
		c := bitsHere - bits.OnesCount64(v.words[w]&lowMask(bitsHere))
		if rem <= c {
			break
		}
		rem -= c
		w++
	}
	return w*wordBits + SelectInWord(^v.words[w], rem-1)
}

// WithoutSelect0 returns v without its select-0 hints, for a vector
// that is never or seldom Select0'd: they cost 32 bits per 512 zeros,
// and Select0 on the result binary-searches every superblock. v must be
// sealed; the two share their words and rank directory.
func (v *Vector) WithoutSelect0() *Vector {
	if !v.sealed {
		panic("bitvec: WithoutSelect0 before Seal")
	}
	nv := *v
	nv.selHint0 = nil
	return &nv
}

// Words exposes the underlying words (read-only by convention).
func (v *Vector) Words() []uint64 { return v.words }

// SizeBits estimates the in-memory footprint of the vector and its rank
// directories in bits, for space-accounting experiments.
func (v *Vector) SizeBits() int64 {
	s := int64(len(v.words)) * 64
	s += int64(len(v.superRank)) * 64
	s += int64(len(v.selHint1)+len(v.selHint0)) * 32
	return s
}

func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// SelectInWord is the position of the one of word that has r ones
// below it (r is 0-based and below the word's popcount), without a
// branch on the bits: the byte that holds it comes from the bytes'
// running popcounts compared with r all at once (Vigna, "Broadword
// implementation of rank/select queries", WEA 2008), the bit from a
// table over bytes.
func SelectInWord(word uint64, r int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	c := word - word>>1&0x5555555555555555
	c = c&0x3333333333333333 + c>>2&0x3333333333333333
	c = (c + c>>4) & 0x0f0f0f0f0f0f0f0f * ones // byte i: the ones of bytes 0…i
	at := bits.OnesCount64((uint64(r)*ones|highs-c)&highs) * 8
	below := int(c << 8 >> at & 0xff)
	return at + int(selectInByte[(r-below)<<8|int(word>>at&0xff)])
}

// selectInByte[r<<8 | b] is the position of the one of byte b that has
// r ones below it.
var selectInByte = func() (t [8 << 8]uint8) {
	for b := range 256 {
		r := 0
		for i := range 8 {
			if b>>i&1 != 0 {
				t[r<<8|b] = uint8(i)
				r++
			}
		}
	}
	return t
}()
