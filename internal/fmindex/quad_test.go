package fmindex

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dyncoll/internal/huffman"
	"dyncoll/internal/snap"
	"dyncoll/internal/textgen"
	"dyncoll/internal/wavelet"
)

// codeLens returns the length of every byte's code in x's tree — the
// levels a walk for it visits, bits for the binary tree and digits for
// the 4-ary one — from the BWT's counted frequencies, which fix both
// trees' codes.
func codeLens(x *Index) []int {
	freq := make([]int64, 256)
	for b := range freq {
		freq[b] = int64(x.c[b+1] - x.c[b])
	}
	if _, ok := x.bwt.(*wavelet.Quad); ok {
		return huffman.CodeLengths4(freq)
	}
	return huffman.CodeLengths(freq)
}

// shapePair is the same 1 MiB textgen corpus (σ 64, order 2, seed 1)
// indexed over each tree shape.
var shapePair = sync.OnceValues(func() (fm4, fm *Index) {
	docs := textgen.NewCollection(textgen.CollectionOptions{Seed: 1}).GenerateTotal(1 << 20)
	return Build(docs, Options{}), Build(docs, Options{Layout: FM})
})

// levelsPerSymbol is the frequency-weighted code length of x's tree
// over its BWT, separators included: the levels an average walk visits.
func levelsPerSymbol(x *Index) float64 {
	var levels int64
	for b, l := range codeLens(x) {
		levels += int64(x.c[b+1]-x.c[b]) * int64(l)
	}
	return float64(levels) / float64(x.n)
}

// rangeLevels runs Range's backward search on pattern and returns the
// tree levels its rank walks visit.
func rangeLevels(x *Index, pattern []byte) int {
	lens := codeLens(x)
	last := len(pattern) - 1
	lo, hi := x.c[pattern[last]], x.c[int(pattern[last])+1]
	levels := 0
	for i := last - 1; i >= 0 && lo < hi; i-- {
		b := pattern[i]
		levels += lens[b]
		rl, rh := x.bwt.RankPair(uint32(b), lo, hi)
		lo, hi = x.c[b]+rl, x.c[b]+rh
	}
	if wlo, whi := x.Range(pattern); lo != wlo || hi != whi {
		panic("rangeLevels diverged from Range")
	}
	return levels
}

// lfLevels extracts [off, off+length) of document d and returns the
// levels its LF steps visit: an LF step that reads symbol b walks b's
// code to its leaf.
func lfLevels(x *Index, d, off, length int) int {
	lens := codeLens(x)
	levels := 0
	start, end, endRow := x.docSpan(d)
	lo := start + off
	x.walkRange(lo, lo+length, end, endRow, func(_, _ int, b byte) { levels += lens[b] })
	return levels
}

// TestQuadWalkLevels is the level gate of the 4-ary tree: over one
// corpus, its codes average at most 3.05 digits where the binary
// tree's average about 6.02 bits, and over a fixed set of planted
// patterns its backward searches and LF steps visit at most 0.55× the
// levels the binary tree's do. The levels are counted here, from the
// codes, never on the query path.
func TestQuadWalkLevels(t *testing.T) {
	fm4, fm := shapePair()
	digits, bits := levelsPerSymbol(fm4), levelsPerSymbol(fm)
	t.Logf("code length: fm4 %.4f digits, fm %.4f bits per symbol", digits, bits)
	if digits > 3.05 {
		t.Fatalf("fm4 codes average %.4f digits, want ≤ 3.05", digits)
	}
	if math.Abs(bits-6.02) > 0.05 {
		t.Fatalf("fm codes average %.4f bits, want about 6.02: the corpus changed", bits)
	}
	rng := rand.New(rand.NewSource(38))
	var r4, r2, l4, l2 int
	for range 500 {
		d := rng.Intn(fm4.DocCount())
		dl := fm4.DocLen(d)
		length := 4 + rng.Intn(9)
		off := rng.Intn(dl - length + 1)
		p := fm4.Extract(d, off, length)
		r4 += rangeLevels(fm4, p)
		r2 += rangeLevels(fm, p)
		l4 += lfLevels(fm4, d, off, 64)
		l2 += lfLevels(fm, d, off, 64)
	}
	t.Logf("backward search: fm4 %d levels, fm %d (%.3f×); LF steps: fm4 %d, fm %d (%.3f×)",
		r4, r2, float64(r4)/float64(r2), l4, l2, float64(l4)/float64(l2))
	if float64(r4) > 0.55*float64(r2) {
		t.Fatalf("fm4 backward search visits %d levels, fm %d: above 0.55×", r4, r2)
	}
	if float64(l4) > 0.55*float64(l2) {
		t.Fatalf("fm4 LF steps visit %d levels, fm %d: above 0.55×", l4, l2)
	}
}

// TestQuadSpace is the space gate of the 4-ary tree on the same
// corpus: the fm4 index takes no more bits per symbol than fm, its tree
// and rank directory no more than the binary tree with its directory
// and select hints, and its v1 and mapped encodings at most 1 % more
// bytes than fm's.
func TestQuadSpace(t *testing.T) {
	fm4, fm := shapePair()
	per := func(x *Index) float64 { return float64(x.SizeBits()) / float64(x.SymbolCount()) }
	t.Logf("index: fm4 %.3f, fm %.3f bits/symbol; tree: fm4 %d, fm %d bits",
		per(fm4), per(fm), fm4.bwt.SizeBits(), fm.bwt.SizeBits())
	if per(fm4) > per(fm) {
		t.Fatalf("fm4 takes %.3f bits/symbol, fm %.3f", per(fm4), per(fm))
	}
	if fm4.bwt.SizeBits() > fm.bwt.SizeBits() {
		t.Fatalf("4-ary tree takes %d bits, binary %d", fm4.bwt.SizeBits(), fm.bwt.SizeBits())
	}
	encodings := func(x *Index) (v1, v2 int) {
		data, err := x.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var me snap.MapEncoder
		x.EncodeMapped(&me)
		return len(data), me.Len()
	}
	v1q, v2q := encodings(fm4)
	v1b, v2b := encodings(fm)
	t.Logf("v1: fm4 %d, fm %d bytes; mapped: fm4 %d, fm %d bytes", v1q, v1b, v2q, v2b)
	if float64(v1q) > 1.01*float64(v1b) || float64(v2q) > 1.01*float64(v2b) {
		t.Fatalf("fm4 encodes to %d/%d bytes (v1/mapped), fm to %d/%d: above +1 %%", v1q, v2q, v1b, v2b)
	}
}

// allocated reports the heap bytes fn allocates, as the least over
// three calls.
func allocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n < least {
			least = n
		}
	}
	return least
}

// TestQuadIndexTruncationSweep: every proper prefix of an fm4 index's
// v1 and mapped encodings fails with snap.ErrBadSnapshot, never a
// panic, and no prefix makes the decoder allocate more than a small
// multiple of itself beyond the alphabet-sized tables (code book, node
// and step tables, C array) every decode sets up.
func TestQuadIndexTruncationSweep(t *testing.T) {
	x := Build(testDocs(5, rand.New(rand.NewSource(38))), Options{SampleRate: 4, Layout: FM4})
	v1, err := x.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var me snap.MapEncoder
	x.EncodeMapped(&me)
	const fixed = 64 << 10
	for name, c := range map[string]struct {
		data   []byte
		decode func([]byte) error
	}{
		"v1": {v1, func(p []byte) error {
			_, err := Decode(p, FM4)
			return err
		}},
		"mapped": {me.Bytes(), func(p []byte) error {
			_, err := OpenMapped(snap.NewMapView(p), FM4)
			return err
		}},
	} {
		for cut := 0; cut < len(c.data); cut++ {
			p := c.data[:cut:cut]
			var err error
			n := allocated(func() { err = c.decode(p) })
			if !errors.Is(err, snap.ErrBadSnapshot) {
				t.Fatalf("%s prefix %d/%d: err = %v, want ErrBadSnapshot", name, cut, len(c.data), err)
			}
			if limit := uint64(16*cut + fixed); n > limit {
				t.Fatalf("%s prefix %d: decoding allocated %d bytes (limit %d)", name, cut, n, limit)
			}
		}
	}
}
