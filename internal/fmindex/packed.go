package fmindex

import (
	"math/bits"

	"dyncoll/internal/snap"
)

// packed is a vector of unsigned integers of one fixed width, 1 to 32
// bits, laid end to end in little-endian words: value i occupies bits
// i·width … i·width+width-1 of the word stream. It holds the FM index's
// SA samples, back pointers and select samples, and an fmz file's ISA
// samples, at their information bound instead of 32 bits each. A
// width-32 vector has exactly the bytes of an int32 array, so the
// samples of files that store int32 arrays are viewed in place.
type packed struct {
	words []uint64
	width uint
	n     int
}

// widthFor is the width of values below bound: ⌈log₂ bound⌉, and at
// least 1.
func widthFor(bound int) uint {
	if bound <= 1 {
		return 1
	}
	return uint(bits.Len(uint(bound - 1)))
}

// wordsFor is the number of words n values of the given width fill.
func wordsFor(n int, width uint) int { return (n*int(width) + 63) / 64 }

// newPacked returns a zeroed vector of n values below bound.
func newPacked(n, bound int) packed {
	w := widthFor(bound)
	return packed{words: make([]uint64, wordsFor(n, w)), width: w, n: n}
}

// set stores v, which must fit the width, in slot i.
func (p *packed) set(i int, v uint64) {
	bit := uint(i) * p.width
	w, off := bit>>6, bit&63
	mask := uint64(1)<<p.width - 1
	p.words[w] = p.words[w]&^(mask<<off) | v<<off
	if off+p.width > 64 {
		p.words[w+1] = p.words[w+1]&^(mask>>(64-off)) | v>>(64-off)
	}
}

// get returns value i. It reads the word holding the value's low bits
// and, unless that is the last word, the next one, which holds the rest
// of a value that straddles the boundary: reading it whether or not the
// value does spares a branch that mispredicts on random reads. A value
// that straddles a boundary starts before the last word, so the next
// word is read whenever it is needed.
func (p *packed) get(i int) int {
	bit := uint(i) * p.width
	w, off := bit>>6, bit&63
	v := p.words[w] >> off
	if w+1 < uint(len(p.words)) {
		v |= p.words[w+1] << (64 - off) // off = 0 shifts everything out
	}
	return int(v & (1<<p.width - 1))
}

// sizeBits is the vector's footprint.
func (p *packed) sizeBits() int64 { return int64(len(p.words)) * 64 }

// int32s widens every value times scale into an int32 array, the form
// "fm" and "fm4" files store.
func (p *packed) int32s(scale int) []int32 {
	out := make([]int32, p.n)
	for i := range out {
		out[i] = int32(p.get(i) * scale)
	}
	return out
}

// encodeTo writes the v1 form: the width, then the words.
func (p *packed) encodeTo(e *snap.Encoder) {
	e.Uvarint(uint64(p.width))
	e.Words(p.words)
}

// encodeMapped writes the mapped form: the width, then the words.
func (p *packed) encodeMapped(e *snap.MapEncoder) {
	e.U64(uint64(p.width))
	e.Words(p.words)
}

// readPacked reads a vector of n values below bound, in the v1 form
// when d is a *snap.Decoder and the mapped one, aliasing its words,
// when it is a *snap.MapView. The width must be the one bound gives and
// the words exactly those n values fill; n and bound must already be
// checked against the index, since they size the words expected.
func readPacked(d interface {
	failer
	Int() int
	Words() []uint64
	Err() error
}, what string, n, bound int) packed {
	width := d.Int()
	words := d.Words()
	if d.Err() != nil {
		return packed{}
	}
	switch want := widthFor(bound); {
	case width != int(want):
		d.Fail("%s: width %d, want %d for values below %d", what, width, want, bound)
	case len(words) != wordsFor(n, want):
		d.Fail("%s: %d words for %d values of %d bits", what, len(words), n, want)
	default:
		return packed{words: words, width: want, n: n}
	}
	return packed{}
}

// viewInt32s views a mapped int32 array as a width-32 vector, in
// place where the host allows it.
func viewInt32s(mv *snap.MapView) packed {
	n, words := mv.Int32Words()
	return packed{words: words, width: 32, n: n}
}
