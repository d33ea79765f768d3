package fmindex

import (
	"fmt"
	"sort"

	"dyncoll/internal/bitvec"
	"dyncoll/internal/doc"
	"dyncoll/internal/sa"
)

// CSA is a compressed suffix array in the style of Sadakane (Table 1 row
// [39]): instead of the BWT it stores the Ψ function — Ψ(i) is the
// suffix-array row of the suffix one position *later* in the text — in a
// delta-compressed form, plus the C array and sampled SA/ISA entries.
//
//   - Range-finding: binary search over suffix-array rows, comparing the
//     pattern against a suffix by walking Ψ (O(|P| log n)).
//   - Locate: walk Ψ forward to the next sampled row (O(s)).
//   - Extract: jump to an ISA sample, then one symbol per Ψ step
//     (O(s + ℓ)).
//
// Ψ is increasing within each first-symbol run, so its deltas are small
// on compressible text; they are stored varint-encoded in blocks with
// absolute samples, giving a compressed representation that needs no
// rank/select machinery at all — a genuinely different index family from
// the FM-index, exercising the framework's index-agnosticism.
type CSA struct {
	n int // rows (total symbols including separators)

	c [257]int32 // c[b] = first row whose suffix starts with symbol b

	// Ψ storage: blocks of psiBlock entries; psiSamples holds the
	// absolute value at each block start, psiDeltas the varint-encoded
	// positive deltas within a block (Ψ restarts are encoded absolutely
	// via a zero marker since Ψ only decreases across first-symbol runs).
	psiSamples []int32
	psiDeltas  []byte
	psiOffsets []int32 // byte offset of each block in psiDeltas

	s        int // sampling rate
	saSamp   []int32
	saMarked *bitvec.Vector
	isaSamp  []int32

	docTable

	// sym resolves a row's first symbol without the binary search over
	// the C array; derived from c, rebuilt on load, never serialized.
	sym symTable
}

const psiBlock = 64

// BuildCSA constructs the compressed suffix array over docs. Like
// Build, it checks its construction scratch out of the shared pool and
// validates payloads with the vectorized separator scan.
func BuildCSA(docs []Doc, opts Options) *CSA {
	opts = opts.withDefaults()
	total := 0
	for _, d := range docs {
		total += len(d.Data) + 1
	}
	sc := scratchPool.Get().(*buildScratch)
	text := sa.Grow(sc.text, total)[:0]
	x := &CSA{s: opts.SampleRate}
	text = x.appendDocs(text, docs)
	sc.text = text
	x.n = len(text)
	if x.n == 0 {
		x.saMarked = bitvec.New(0)
		x.saMarked.Seal()
		x.sym.build(x.c, 0)
		scratchPool.Put(sc)
		return x
	}

	suf := sa.SuffixArrayWS(text, &sc.saws)
	inv := sa.Grow(sc.inv, x.n)
	for i, p := range suf {
		inv[p] = int32(i)
	}
	sc.inv = inv

	// C array over the first column.
	var counts [257]int32
	for _, b := range text {
		counts[b]++
	}
	var acc int32
	for b := 0; b < 257; b++ {
		x.c[b] = acc
		if b < 256 {
			acc += counts[b]
		}
	}

	// Ψ[i] = inv[suf[i]+1], wrapping each position to row of the suffix
	// one later; the last text position wraps to the row of suffix 0 so
	// every walk stays total (never followed across separators in
	// practice because samples stop it first).
	psi := sa.Grow(sc.psi, x.n)
	for i := 0; i < x.n; i++ {
		p := int(suf[i]) + 1
		if p == x.n {
			p = 0
		}
		psi[i] = inv[p]
	}
	sc.psi = psi
	x.encodePsi(psi)

	// SA samples at text positions ≡ 0 (mod s), marked per row so Locate
	// can stop its Ψ walk, plus ISA samples for every s-th text position.
	marked := bitvec.New(0)
	for i := 0; i < x.n; i++ {
		sampled := int(suf[i])%x.s == 0
		if sampled {
			x.saSamp = append(x.saSamp, suf[i])
		}
		marked.AppendBit(sampled)
	}
	marked.Seal()
	x.saMarked = marked

	x.isaSamp = make([]int32, (x.n+x.s-1)/x.s)
	for p := 0; p < x.n; p += x.s {
		x.isaSamp[p/x.s] = inv[p]
	}
	x.sym.build(x.c, x.n)
	scratchPool.Put(sc)
	return x
}

// encodePsi delta-encodes Ψ in blocks.
func (x *CSA) encodePsi(psi []int32) {
	for i, v := range psi {
		if i%psiBlock == 0 {
			x.psiSamples = append(x.psiSamples, v)
			x.psiOffsets = append(x.psiOffsets, int32(len(x.psiDeltas)))
			continue
		}
		prev := psi[i-1]
		delta := int64(v) - int64(prev)
		// ZigZag so occasional decreases (run boundaries) stay compact.
		u := uint64(delta<<1) ^ uint64(delta>>63)
		for u >= 0x80 {
			x.psiDeltas = append(x.psiDeltas, byte(u)|0x80)
			u >>= 7
		}
		x.psiDeltas = append(x.psiDeltas, byte(u))
	}
}

// Psi returns Ψ(row): the row of the suffix starting one text position
// later. It decodes the row's block up to the requested entry (O(psiBlock)
// byte operations, a constant).
func (x *CSA) Psi(row int) int {
	if row < 0 || row >= x.n {
		panic(fmt.Sprintf("fmindex: Psi(%d) out of range", row))
	}
	b := row / psiBlock
	v := int64(x.psiSamples[b])
	pos := int(x.psiOffsets[b])
	for i := b*psiBlock + 1; i <= row; i++ {
		var u uint64
		shift := 0
		for {
			c := x.psiDeltas[pos]
			pos++
			u |= uint64(c&0x7f) << shift
			if c < 0x80 {
				break
			}
			shift += 7
		}
		delta := int64(u>>1) ^ -int64(u&1)
		v += delta
	}
	return int(v)
}

// firstSymbol returns the first symbol of the suffix at the given row
// via the sampled row→symbol table; the binary search it replaces ran
// once per Ψ step in Extract and per compared symbol in Range.
func (x *CSA) firstSymbol(row int) byte {
	return x.sym.at(row)
}

// SALen reports the number of suffix-array rows.
func (x *CSA) SALen() int { return x.n }

// SampleRate reports the sampling rate s.
func (x *CSA) SampleRate() int { return x.s }

// compareSuffix lexicographically compares pattern against the suffix at
// row, reading suffix symbols by walking Ψ. Separators (symbol 0)
// terminate the suffix as smallest.
func (x *CSA) compareSuffix(pattern []byte, row int) int {
	r := row
	for i := 0; i < len(pattern); i++ {
		c := x.firstSymbol(r)
		if c == 0 {
			return +1 // suffix exhausted → suffix < pattern
		}
		if pattern[i] != c {
			if pattern[i] < c {
				return -1
			}
			return +1
		}
		r = x.Psi(r)
	}
	return 0
}

// Range returns the half-open row interval of suffixes starting with
// pattern via binary search (O(|P| log n) Ψ steps). The upper-bound
// search is fused with the lower one: it restarts from lo instead of
// row 0 — one extra comparison decides emptiness, and the second
// search only bisects the [lo, n) tail.
func (x *CSA) Range(pattern []byte) (lo, hi int) {
	if len(pattern) == 0 {
		return 0, x.n
	}
	lo = sort.Search(x.n, func(i int) bool { return x.compareSuffix(pattern, i) <= 0 })
	if lo == x.n || x.compareSuffix(pattern, lo) != 0 {
		return lo, lo
	}
	hi = lo + 1 + sort.Search(x.n-lo-1, func(i int) bool { return x.compareSuffix(pattern, lo+1+i) < 0 })
	return lo, hi
}

// Locate maps a row to (document index, offset) by walking Ψ to the next
// sampled row (at most s-1 steps).
func (x *CSA) Locate(row int) (doc, off int) {
	steps := 0
	r := row
	for !x.saMarked.Get(r) {
		r = x.Psi(r)
		steps++
	}
	pos := int(x.saSamp[x.saMarked.Rank1(r)]) - steps
	if pos < 0 {
		pos += x.n
	}
	return x.posToDoc(pos)
}

// SuffixRank returns the row of the suffix starting at (doc, off): jump
// to the preceding ISA sample and walk Ψ forward (at most s-1 steps).
func (x *CSA) SuffixRank(doc, off int) int {
	pos := int(x.docStarts[doc]) + off
	if pos < 0 || pos >= x.n {
		panic(fmt.Sprintf("fmindex: SuffixRank position %d out of range", pos))
	}
	r := int(x.isaSamp[pos/x.s])
	for i := pos / x.s * x.s; i < pos; i++ {
		r = x.Psi(r)
	}
	return r
}

// Extract returns length payload symbols of document d starting at off:
// one ISA jump then one Ψ step per symbol (O(s + ℓ)).
func (x *CSA) Extract(d, off, length int) []byte {
	off, length = doc.Clamp(off, length, x.DocLen(d))
	if length == 0 {
		return nil
	}
	r := x.SuffixRank(d, off)
	out := make([]byte, length)
	for i := 0; i < length; i++ {
		out[i] = x.firstSymbol(r)
		r = x.Psi(r)
	}
	return out
}

// SizeBits estimates the index footprint.
func (x *CSA) SizeBits() int64 {
	total := int64(len(x.psiSamples))*32 + int64(len(x.psiDeltas))*8 +
		int64(len(x.psiOffsets))*32 +
		int64(len(x.saSamp))*32 + int64(len(x.isaSamp))*32 + 257*32
	total += x.saMarked.SizeBits() + x.docTable.sizeBits()
	return total
}
