package fmindex

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dyncoll/internal/textgen"
	"dyncoll/internal/wavelet"
)

// collection is a reference model over a set of documents.
type collection []Doc

// occurrences finds all (docIdx, offset) pairs where pattern occurs.
func (c collection) occurrences(pattern []byte) [][2]int {
	var out [][2]int
	for d, doc := range c {
		for off := 0; off+len(pattern) <= len(doc.Data); off++ {
			if bytes.Equal(doc.Data[off:off+len(pattern)], pattern) {
				out = append(out, [2]int{d, off})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func randomDocs(rng *rand.Rand, nDocs, maxLen, sigma int) collection {
	docs := make(collection, nDocs)
	for i := range docs {
		data := make([]byte, 1+rng.Intn(maxLen))
		for j := range data {
			data[j] = byte(1 + rng.Intn(sigma))
		}
		docs[i] = Doc{ID: uint64(i + 1), Data: data}
	}
	return docs
}

// searcher is the common query interface of Index and SAIndex.
type searcher interface {
	SALen() int
	SymbolCount() int
	DocCount() int
	DocID(i int) uint64
	DocLen(i int) int
	Range(pattern []byte) (lo, hi int)
	Locate(row int) (doc, off int)
	SuffixRank(doc, off int) int
	Extract(doc, off, length int) []byte
	SizeBits() int64
}

var indexBuilders = map[string]func(docs []Doc) searcher{
	"fm":    func(docs []Doc) searcher { return Build(docs, Options{SampleRate: 4, Layout: FM}) },
	"fm1":   func(docs []Doc) searcher { return Build(docs, Options{SampleRate: 1, Layout: FM}) },
	"fm4":   func(docs []Doc) searcher { return Build(docs, Options{SampleRate: 4}) },
	"fm4-1": func(docs []Doc) searcher { return Build(docs, Options{SampleRate: 1}) },
	"fmm":   func(docs []Doc) searcher { return Build(docs, Options{SampleRate: 4, Layout: FMM}) },
	"fmm-1": func(docs []Doc) searcher { return Build(docs, Options{SampleRate: 1, Layout: FMM}) },
	"sa":    func(docs []Doc) searcher { return BuildSA(docs) },
}

// findAll runs range + locate and returns sorted (doc, off) pairs,
// filtering out any separator hits (there should be none for non-empty
// patterns).
func findAll(x searcher, pattern []byte) [][2]int {
	lo, hi := x.Range(pattern)
	var out [][2]int
	for row := lo; row < hi; row++ {
		d, off := x.Locate(row)
		out = append(out, [2]int{d, off})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func pairsEqual(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyIndex(t *testing.T) {
	for name, mk := range indexBuilders {
		x := mk(nil)
		if x.SALen() != 0 || x.DocCount() != 0 || x.SymbolCount() != 0 {
			t.Fatalf("%s: empty index has content", name)
		}
		lo, hi := x.Range([]byte("a"))
		if lo != hi {
			t.Fatalf("%s: empty index matched a pattern", name)
		}
	}
}

func TestSingleDoc(t *testing.T) {
	docs := collection{{ID: 9, Data: []byte("banana")}}
	for name, mk := range indexBuilders {
		x := mk(docs)
		if x.DocCount() != 1 || x.DocID(0) != 9 || x.DocLen(0) != 6 {
			t.Fatalf("%s: doc metadata wrong", name)
		}
		if x.SymbolCount() != 6 || x.SALen() != 7 {
			t.Fatalf("%s: sizes wrong: symbols=%d salen=%d", name, x.SymbolCount(), x.SALen())
		}
		got := findAll(x, []byte("ana"))
		want := [][2]int{{0, 1}, {0, 3}}
		if !pairsEqual(got, want) {
			t.Fatalf("%s: ana occurrences = %v, want %v", name, got, want)
		}
		if got := findAll(x, []byte("nab")); len(got) != 0 {
			t.Fatalf("%s: phantom match %v", name, got)
		}
		if got := x.Extract(0, 1, 4); !bytes.Equal(got, []byte("anan")) {
			t.Fatalf("%s: Extract = %q", name, got)
		}
	}
}

func TestMultiDocAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, mk := range indexBuilders {
		for _, sigma := range []int{2, 4, 26} {
			docs := randomDocs(rng, 20, 200, sigma)
			x := mk(docs)
			for trial := 0; trial < 60; trial++ {
				// Half planted patterns, half random.
				var pattern []byte
				if trial%2 == 0 {
					d := rng.Intn(len(docs))
					data := docs[d].Data
					off := rng.Intn(len(data))
					l := 1 + rng.Intn(min(6, len(data)-off))
					pattern = append([]byte{}, data[off:off+l]...)
				} else {
					pattern = make([]byte, 1+rng.Intn(5))
					for j := range pattern {
						pattern[j] = byte(1 + rng.Intn(sigma))
					}
				}
				got := findAll(x, pattern)
				want := docs.occurrences(pattern)
				if !pairsEqual(got, want) {
					t.Fatalf("%s σ=%d: pattern %q: got %v, want %v", name, sigma, pattern, got, want)
				}
			}
		}
	}
}

func TestPatternSpanningDocsNeverMatches(t *testing.T) {
	docs := collection{
		{ID: 1, Data: []byte("abc")},
		{ID: 2, Data: []byte("def")},
	}
	for name, mk := range indexBuilders {
		x := mk(docs)
		if got := findAll(x, []byte("cd")); len(got) != 0 {
			t.Fatalf("%s: cross-document match %v", name, got)
		}
		if got := findAll(x, []byte("cdef")); len(got) != 0 {
			t.Fatalf("%s: cross-document match %v", name, got)
		}
	}
}

func TestEmptyPatternMatchesEverything(t *testing.T) {
	docs := collection{{ID: 1, Data: []byte("xy")}}
	for name, mk := range indexBuilders {
		x := mk(docs)
		lo, hi := x.Range(nil)
		if hi-lo != x.SALen() {
			t.Fatalf("%s: empty pattern range [%d,%d)", name, lo, hi)
		}
	}
}

// TestRangeFirstStepFromCounts holds Range, which reads its first
// backward step off the C array, to the interval the textbook loop gives
// when it ranks both ends of every step — for every single byte
// (separator and absent bytes included), planted and random longer
// patterns, and patterns ending in the separator, over all three forms
// of an index.
func TestRangeFirstStepFromCounts(t *testing.T) {
	byRank := func(x *Index, pattern []byte) (lo, hi int) {
		lo, hi = 0, x.n
		rank := func(c byte, i int) int {
			r, _ := x.bwt.RankPair(uint32(c), i, i)
			return r
		}
		for i := len(pattern) - 1; i >= 0 && lo < hi; i-- {
			b := pattern[i]
			lo, hi = x.c[b]+rank(b, lo), x.c[b]+rank(b, hi)
		}
		return lo, hi
	}
	rng := rand.New(rand.NewSource(15))
	col := randomDocs(rng, 40, 200, 5)
	col = append(col, Doc{ID: 9001}, Doc{ID: 9002, Data: []byte{255, 254, 255}})
	var pats [][]byte
	for b := 0; b < 256; b++ {
		pats = append(pats, []byte{byte(b)})
	}
	for i := 0; i < 200; i++ {
		d := col[rng.Intn(len(col))].Data
		if len(d) == 0 {
			continue
		}
		off := rng.Intn(len(d))
		p := bytes.Clone(d[off : off+rng.Intn(min(8, len(d)-off))+1])
		switch i % 4 {
		case 1:
			p[rng.Intn(len(p))] = byte(1 + rng.Intn(6)) // mostly absent
		case 2:
			p = append(p, Sep)
		case 3:
			p = append([]byte{Sep}, p...)
		}
		pats = append(pats, p)
	}
	for form, x := range indexForms(t, col, 4) {
		for _, p := range pats {
			lo, hi := x.Range(p)
			if wlo, whi := byRank(x, p); lo != wlo || hi != whi {
				t.Fatalf("%s: Range(%v) = [%d,%d), rank-both-ends gives [%d,%d)", form, p, lo, hi, wlo, whi)
			}
		}
		if lo, hi := x.Range(nil); lo != 0 || hi != x.n {
			t.Fatalf("%s: Range(nil) = [%d,%d), want [0,%d)", form, lo, hi, x.n)
		}
	}
}

func TestSuffixRankRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	docs := randomDocs(rng, 10, 100, 8)
	for name, mk := range indexBuilders {
		x := mk(docs)
		for d := 0; d < x.DocCount(); d++ {
			for off := 0; off <= x.DocLen(d); off += 1 + off/7 {
				row := x.SuffixRank(d, off)
				gd, goff := x.Locate(row)
				if gd != d || goff != off {
					t.Fatalf("%s: SuffixRank/Locate round trip (%d,%d) → row %d → (%d,%d)",
						name, d, off, row, gd, goff)
				}
			}
		}
	}
}

func TestExtractFullDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs := randomDocs(rng, 15, 150, 26)
	for name, mk := range indexBuilders {
		x := mk(docs)
		for d, doc := range docs {
			if got := x.Extract(d, 0, len(doc.Data)); !bytes.Equal(got, doc.Data) {
				t.Fatalf("%s: full extract of doc %d wrong", name, d)
			}
		}
	}
}

func TestExtractClamping(t *testing.T) {
	docs := collection{{ID: 1, Data: []byte("hello")}}
	builders := map[string]func(docs []Doc) searcher{
		"csa": func(docs []Doc) searcher { return BuildCSA(docs, Options{SampleRate: 4}) },
	}
	for name, mk := range indexBuilders {
		builders[name] = mk
	}
	for name, mk := range builders {
		x := mk(docs)
		if got := x.Extract(0, 3, 100); !bytes.Equal(got, []byte("lo")) {
			t.Fatalf("%s: clamped extract = %q", name, got)
		}
		if got := x.Extract(0, 10, 5); got != nil {
			t.Fatalf("%s: out-of-range extract = %q", name, got)
		}
		if got := x.Extract(0, 2, 0); got != nil {
			t.Fatalf("%s: zero-length extract = %q", name, got)
		}
		// Requests whose end overflows an int clamp like any other.
		if got := x.Extract(0, 1, math.MaxInt); !bytes.Equal(got, []byte("ello")) {
			t.Fatalf("%s: Extract(0, 1, MaxInt) = %q", name, got)
		}
		if got := x.Extract(0, math.MinInt, 2); !bytes.Equal(got, []byte("he")) {
			t.Fatalf("%s: Extract(0, MinInt, 2) = %q", name, got)
		}
		if got := x.Extract(0, math.MaxInt, math.MaxInt); got != nil {
			t.Fatalf("%s: Extract(0, MaxInt, MaxInt) = %q", name, got)
		}
	}
}

func TestSeparatorInDocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build([]Doc{{ID: 1, Data: []byte{1, 0, 2}}}, Options{})
}

func TestQuickFMvsSA(t *testing.T) {
	// Property: FM-index and suffix-array index agree on every query.
	f := func(seed int64, sigmaRaw uint8) bool {
		sigma := int(sigmaRaw)%30 + 1
		rng := rand.New(rand.NewSource(seed))
		docs := randomDocs(rng, 1+rng.Intn(8), 80, sigma)
		fm := Build(docs, Options{SampleRate: 3})
		sx := BuildSA(docs)
		for trial := 0; trial < 10; trial++ {
			pattern := make([]byte, 1+rng.Intn(4))
			for j := range pattern {
				pattern[j] = byte(1 + rng.Intn(sigma))
			}
			if !pairsEqual(findAll(fm, pattern), findAll(sx, pattern)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleRateSpaceTradeoff(t *testing.T) {
	// Larger s must shrink the sample arrays (Table 1 space column).
	rng := rand.New(rand.NewSource(4))
	docs := randomDocs(rng, 5, 4000, 26)
	s4 := Build(docs, Options{SampleRate: 4})
	s64 := Build(docs, Options{SampleRate: 64})
	if s64.SizeBits() >= s4.SizeBits() {
		t.Fatalf("s=64 index (%d bits) not smaller than s=4 (%d bits)",
			s64.SizeBits(), s4.SizeBits())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// treeShapes names the two trees an Index can hold, for benchmarks
// that price both.
var treeShapes = []struct {
	name   string
	layout Layout
}{{"fm4", FM4}, {"fm", FM}}

func BenchmarkFMRange(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	docs := randomDocs(rng, 50, 4000, 26)
	pats := make([][]byte, 64)
	for i := range pats {
		d := rng.Intn(len(docs))
		off := rng.Intn(len(docs[d].Data) - 8)
		pats[i] = docs[d].Data[off : off+8]
	}
	for _, shape := range treeShapes {
		x := Build(docs, Options{SampleRate: 16, Layout: shape.layout})
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.Range(pats[i&63])
			}
		})
	}
}

// BenchmarkRangeDispatch prices Range's one interface call per pattern
// symbol: Range against the same loop calling the 4-ary tree directly,
// on a store of the bench corpus.
func BenchmarkRangeDispatch(b *testing.B) {
	docs := textgen.NewCollection(textgen.CollectionOptions{Seed: 1}).GenerateTotal(280 << 10)
	x := Build(docs, Options{})
	q := x.bwt.(*wavelet.Quad)
	rng := rand.New(rand.NewSource(5))
	pats := make([][]byte, 64)
	for i := range pats {
		d := docs[rng.Intn(len(docs))].Data
		off := rng.Intn(len(d) - 8)
		pats[i] = d[off : off+8]
	}
	direct := func(pattern []byte) (lo, hi int) {
		last := len(pattern) - 1
		lo, hi = x.c[pattern[last]], x.c[int(pattern[last])+1]
		for i := last - 1; i >= 0 && lo < hi; i-- {
			b := pattern[i]
			rl, rh := q.RankPair(uint32(b), lo, hi)
			lo, hi = x.c[b]+rl, x.c[b]+rh
		}
		return lo, hi
	}
	for _, impl := range []struct {
		name string
		rng  func([]byte) (int, int)
	}{{"interface", x.Range}, {"direct", direct}} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				impl.rng(pats[i&63])
			}
		})
	}
}

func BenchmarkFMLocate(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	docs := randomDocs(rng, 50, 4000, 26)
	x := Build(docs, Options{SampleRate: 16})
	rows := make([]int, 1024)
	for i := range rows {
		rows[i] = rng.Intn(x.SALen())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Locate(rows[i&1023])
	}
}
