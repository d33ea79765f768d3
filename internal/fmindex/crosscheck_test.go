package fmindex

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dyncoll/internal/doc"
	"dyncoll/internal/textgen"
)

// occ is a (doc, off) pair for comparisons.
type occ struct{ d, o int }

func allOccs(x interface {
	Range(p []byte) (int, int)
	Locate(row int) (int, int)
}, p []byte) []occ {
	lo, hi := x.Range(p)
	out := make([]occ, 0, hi-lo)
	for r := lo; r < hi; r++ {
		d, o := x.Locate(r)
		out = append(out, occ{d, o})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].o < out[j].o
	})
	return out
}

// TestFMAgreesWithSAIndex cross-checks the two static indexes — built on
// completely different machinery (BWT backward search vs suffix-array
// binary search) — over random collections and patterns.
func TestFMAgreesWithSAIndex(t *testing.T) {
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 6, MinLen: 5, MaxLen: 300, Seed: 404,
	})
	docs := gen.GenerateTotal(20_000)
	fm := Build(docs, Options{SampleRate: 4})
	sa := BuildSA(docs)

	ps := textgen.NewPatternSampler(docs, 3)
	var pats [][]byte
	for _, l := range []int{1, 2, 3, 5, 9, 17} {
		for i := 0; i < 10; i++ {
			pats = append(pats, ps.Planted(l))
			pats = append(pats, ps.Random(l, 6))
		}
	}
	for _, p := range pats {
		a := allOccs(fm, p)
		b := allOccs(sa, p)
		if len(a) != len(b) {
			t.Fatalf("pattern %v: FM %d occs, SA %d occs", p, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pattern %v: occ %d differs: %v vs %v", p, i, a[i], b[i])
			}
		}
	}
}

// TestFMSuffixRankLocateRoundTrip verifies SuffixRank and Locate are
// mutual inverses on every position.
func TestFMSuffixRankLocateRoundTrip(t *testing.T) {
	docs := []doc.Doc{
		{ID: 1, Data: []byte("mississippi")},
		{ID: 2, Data: []byte("sip")},
		{ID: 3, Data: []byte("p")},
	}
	for _, s := range []int{1, 2, 3, 4, 7, 16, 1000} {
		x := Build(docs, Options{SampleRate: s})
		for d := 0; d < x.DocCount(); d++ {
			for off := 0; off < x.DocLen(d); off++ {
				row := x.SuffixRank(d, off)
				gd, go_ := x.Locate(row)
				if gd != d || go_ != off {
					t.Fatalf("s=%d: Locate(SuffixRank(%d,%d)) = (%d,%d)", s, d, off, gd, go_)
				}
			}
		}
	}
}

// TestDividesMatchesRemainder holds the build's multiply-and-compare
// sampling test to the % it replaced, across the int32 range.
func TestDividesMatchesRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, s := range []int{1, 2, 3, 7, 16, 1000, 1 << 20, 1<<31 - 1} {
		m := reciprocal(s)
		check := func(p int32) {
			if got, want := divides(m, p), int(p)%s == 0; got != want {
				t.Fatalf("divides(%d | %d) = %v", s, p, got)
			}
		}
		for p := int32(0); p < 5000; p++ {
			check(p)
			check(math.MaxInt32 - p)
		}
		for i := 0; i < 200000; i++ {
			p := rng.Int31()
			check(p)
			check(p / int32(s) * int32(s)) // a multiple near p
		}
	}
}

// TestFMLFWalk verifies the reference LF mapping traverses a document's
// suffix rows in decreasing offset order.
func TestFMLFWalk(t *testing.T) {
	docs := []doc.Doc{{ID: 7, Data: []byte("abracadabra")}}
	x := Build(docs, Options{SampleRate: 4})
	dl := x.DocLen(0)
	row := x.SuffixRank(0, dl) // separator row
	for off := dl; off > 0; off-- {
		next := x.scalarLF(row)
		d, o := x.Locate(next)
		if d != 0 || o != off-1 {
			t.Fatalf("LF from off %d landed at (%d,%d)", off, d, o)
		}
		row = next
	}
}

// TestFMExtractClamping checks boundary clamping.
func TestFMExtractClamping(t *testing.T) {
	x := Build([]doc.Doc{{ID: 1, Data: []byte{9, 8, 7}}}, Options{})
	if got := x.Extract(0, -5, 2); !bytes.Equal(got, []byte{9, 8}) {
		t.Fatalf("negative offset: %v", got)
	}
	if got := x.Extract(0, 1, 100); !bytes.Equal(got, []byte{8, 7}) {
		t.Fatalf("overlong: %v", got)
	}
	if got := x.Extract(0, 10, 5); got != nil {
		t.Fatalf("past end: %v", got)
	}
	if got := x.Extract(0, 1, 0); got != nil {
		t.Fatalf("zero length: %v", got)
	}
}

// TestFMEmptyAndTinyDocs covers zero-length documents among normal ones.
func TestFMEmptyAndTinyDocs(t *testing.T) {
	docs := []doc.Doc{
		{ID: 1, Data: nil},
		{ID: 2, Data: []byte{3}},
		{ID: 3, Data: nil},
		{ID: 4, Data: []byte{3, 3}},
	}
	x := Build(docs, Options{SampleRate: 2})
	if x.SymbolCount() != 3 {
		t.Fatalf("SymbolCount = %d", x.SymbolCount())
	}
	lo, hi := x.Range([]byte{3})
	if hi-lo != 3 {
		t.Fatalf("Range(3) width = %d", hi-lo)
	}
	if x.DocLen(0) != 0 || x.DocLen(1) != 1 {
		t.Fatal("DocLen wrong")
	}
}

// TestFMFullAlphabet uses all 255 payload byte values.
func TestFMFullAlphabet(t *testing.T) {
	data := make([]byte, 255)
	for i := range data {
		data[i] = byte(i + 1)
	}
	x := Build([]doc.Doc{{ID: 1, Data: data}}, Options{SampleRate: 4})
	for i := 0; i < 255; i++ {
		lo, hi := x.Range(data[i : i+1])
		if hi-lo != 1 {
			t.Fatalf("byte %d: width %d", i+1, hi-lo)
		}
		d, off := x.Locate(lo)
		if d != 0 || off != i {
			t.Fatalf("byte %d located at (%d,%d)", i+1, d, off)
		}
	}
	if got := x.Extract(0, 0, 255); !bytes.Equal(got, data) {
		t.Fatal("full extract mismatch")
	}
}

// TestFMQuickVsNaive is a property test of Count against brute force.
func TestFMQuickVsNaive(t *testing.T) {
	f := func(raw []byte, praw []byte) bool {
		if len(raw) == 0 {
			raw = []byte{1}
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = b%5 + 1
		}
		if len(praw) > 6 {
			praw = praw[:6]
		}
		p := make([]byte, len(praw))
		for i, b := range praw {
			p[i] = b%5 + 1
		}
		if len(p) == 0 {
			p = []byte{1}
		}
		x := Build([]doc.Doc{{ID: 1, Data: data}}, Options{SampleRate: 3})
		lo, hi := x.Range(p)
		want := 0
		for off := 0; off+len(p) <= len(data); off++ {
			if bytes.Equal(data[off:off+len(p)], p) {
				want++
			}
		}
		return hi-lo == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSAIndexSuffixRank mirrors the round-trip test for the plain index.
func TestSAIndexSuffixRank(t *testing.T) {
	docs := []doc.Doc{
		{ID: 1, Data: []byte("banana")},
		{ID: 2, Data: []byte("bandana")},
	}
	x := BuildSA(docs)
	for d := 0; d < x.DocCount(); d++ {
		for off := 0; off <= x.DocLen(d); off++ {
			row := x.SuffixRank(d, off)
			if off == x.DocLen(d) {
				continue // separator rows don't locate to payload
			}
			gd, go_ := x.Locate(row)
			if gd != d || go_ != off {
				t.Fatalf("Locate(SuffixRank(%d,%d)) = (%d,%d)", d, off, gd, go_)
			}
		}
	}
}
