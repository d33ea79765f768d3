package fmindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyncoll/internal/snap"
)

// encodings returns an index's v1 and v2 bytes.
func encodings(x *Index) (v1, v2 []byte) {
	var e snap.Encoder
	x.EncodeTo(&e)
	var me snap.MapEncoder
	x.EncodeMapped(&me)
	return e.Bytes(), me.Bytes()
}

// mergeCase splits docs into parts at the given cuts, keeps the
// documents keep says to, and holds rebuild to Build over the kept
// documents in order: the same v1 and v2 bytes, and no row of the
// result more than s-1 LF steps from a sample.
func mergeCase(t *testing.T, docs []Doc, s int, cuts []int, dead []bool) {
	t.Helper()
	var parts []part
	var kept []Doc
	for i, lo := range cuts {
		hi := len(docs)
		if i+1 < len(cuts) {
			hi = cuts[i+1]
		}
		p := part{X: Build(docs[lo:hi], Options{SampleRate: s, Layout: FMM}), Keep: []int{}}
		for d := lo; d < hi; d++ {
			if !dead[d] {
				p.Keep = append(p.Keep, d-lo)
				kept = append(kept, docs[d])
			}
		}
		parts = append(parts, p)
	}
	got, ok := rebuild(parts)
	if !ok {
		t.Fatal("rebuild refused fmm parts")
	}
	want := Build(kept, Options{SampleRate: s, Layout: FMM})
	g1, g2 := encodings(got)
	w1, w2 := encodings(want)
	if !bytes.Equal(g1, w1) || !bytes.Equal(g2, w2) {
		t.Fatalf("s=%d cuts=%v dead=%v docs=%q: rebuilt bytes differ from a build's (v1 %d/%d, v2 %d/%d bytes)",
			s, cuts, dead, docs, len(g1), len(w1), len(g2), len(w2))
	}
	var sym [1]uint32
	for row := range got.n {
		r := [1]int{row}
		for steps := 0; !got.marked.Get(r[0]); steps++ {
			if steps == s-1 {
				t.Fatalf("s=%d: row %d is %d LF steps from a sample", s, row, steps+1)
			}
			got.lfSteps(r[:], sym[:])
		}
	}
}

// randomMergeDocs draws documents of the shapes a merge must get
// right: empty, one symbol, exactly s symbols, copies of one another,
// and random ones.
func randomMergeDocs(rng *rand.Rand, n, s int) []Doc {
	docs := make([]Doc, n)
	for i := range docs {
		var data []byte
		switch rng.Intn(6) {
		case 0:
		case 1:
			data = []byte{byte('a' + rng.Intn(3))}
		case 2:
			data = bytes.Repeat([]byte{'a'}, s)
		case 3:
			if i > 0 {
				data = docs[rng.Intn(i)].Data
			}
		default:
			data = make([]byte, rng.Intn(4*s+3))
			for j := range data {
				data[j] = byte('a' + rng.Intn(1+rng.Intn(4)))
			}
		}
		docs[i] = Doc{ID: uint64(100 + i), Data: data}
	}
	return docs
}

func TestMergeEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for it := range 400 {
		s := []int{1, 2, 3, 4, 16}[it%5]
		docs := randomMergeDocs(rng, 1+rng.Intn(12), s)
		cuts := []int{0}
		for d := 1; d < len(docs); d++ {
			if rng.Intn(3) == 0 {
				cuts = append(cuts, d)
			}
		}
		dead := make([]bool, len(docs))
		for d := range dead {
			dead[d] = it%4 != 0 && rng.Intn(3) == 0
		}
		t.Run(fmt.Sprint(it), func(t *testing.T) { mergeCase(t, docs, s, cuts, dead) })
	}
}

// TestRebuildRefusesOtherLayouts: only fmm indexes of one rate merge.
func TestRebuildRefusesOtherLayouts(t *testing.T) {
	docs := []Doc{{ID: 1, Data: []byte("abc")}}
	fmm := Build(docs, Options{SampleRate: 4, Layout: FMM})
	for _, other := range []*Index{Build(docs, Options{SampleRate: 4}), Build(docs, Options{SampleRate: 8, Layout: FMM})} {
		if _, ok := rebuild([]part{{X: fmm, Keep: []int{0}}, {X: other, Keep: []int{0}}}); ok {
			t.Fatalf("rebuild took a %v index of rate %d beside an fmm one of rate 4", other.layout, other.s)
		}
	}
}

// FuzzMergeEqualsBuild is the merge oracle: documents cut out of data
// at 0xff bytes, split into parts and thinned by ctl, a sample rate of
// 1 to 17, and rebuild held to Build over what survives.
func FuzzMergeEqualsBuild(f *testing.F) {
	f.Add([]byte("abracadabra\xffabracadabra\xff\xffa\xffbanana"), uint64(0x5a5a), uint8(3))
	f.Add([]byte("aaaa\xffaaaa\xffaaaa\xffa\xff\xff"), uint64(0xf0f0), uint8(3))
	f.Add([]byte("mississippi\xffmiss\xffissi\xffppi"), uint64(12345), uint8(0))
	f.Add([]byte("\xff\xff\xff"), uint64(7), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, ctl uint64, rate uint8) {
		s := 1 + int(rate%17)
		var docs []Doc
		for i, d := range bytes.Split(data, []byte{0xff}) {
			d = bytes.ReplaceAll(d, []byte{0}, []byte{1})
			docs = append(docs, Doc{ID: uint64(i), Data: d})
		}
		if len(docs) > 64 {
			docs = docs[:64]
		}
		rng := rand.New(rand.NewSource(int64(ctl)))
		cuts := []int{0}
		dead := make([]bool, len(docs))
		for d := range docs {
			if d > 0 && rng.Intn(3) == 0 {
				cuts = append(cuts, d)
			}
			dead[d] = rng.Intn(4) == 0
		}
		mergeCase(t, docs, s, cuts, dead)
	})
}

// TestRankTable holds the block table's ranks to counting, for
// alphabets that take one to four blocks of 64 rows per 64 symbols.
func TestRankTable(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, sigma := range []int{1, 3, 64, 65, 200, 256} {
		bwt := make([]byte, 3000+rng.Intn(500))
		var c [257]int
		for i := range bwt {
			bwt[i] = byte(rng.Intn(sigma))
			c[int(bwt[i])+1]++
		}
		for s := range 256 {
			c[s+1] += c[s]
		}
		table := newRankTable(bwt, &c, new(buildScratch))
		for range 2000 {
			sym, p := byte(rng.Intn(256)), rng.Intn(len(bwt)+1)
			if got, want := table.rank(sym, p), bytes.Count(bwt[:p], []byte{sym}); got != want {
				t.Fatalf("σ=%d: rank(%d, %d) = %d, want %d", sigma, sym, p, got, want)
			}
		}
	}
}

// TestFMMHostile: an fmm payload whose padded document table
// contradicts its rows or its marks, or whose SA samples are not a
// permutation, fails the v1 decoder with ErrBadSnapshot, and the mapped
// open refuses the table cases alike.
func TestFMMHostile(t *testing.T) {
	x := Build(testDocs(40, rand.New(rand.NewSource(53))), Options{SampleRate: 4, Layout: FMM})
	ends := func(y *Index) *packed {
		y.ends.words = slices.Clone(y.ends.words)
		return &y.ends
	}
	last := x.DocCount() - 1
	checkHostile(t, x, FMM, []hostileCase{
		{"document ending at its start", func(x, y *Index) { ends(y).set(1, uint64(x.start(1))) }},
		{"last document one symbol longer", func(x, y *Index) { ends(y).set(last, uint64(x.ends.get(last)+1)) }},
		{"last document a stride longer", func(x, y *Index) { ends(y).set(last, uint64(x.ends.get(last)+x.s)) }},
		{"SA sample repeated", func(_, y *Index) { y.saSamp.set(0, uint64(y.saSamp.get(1))) }},
	}, map[string]bool{
		"document ending at its start": true, "last document one symbol longer": true, "last document a stride longer": true,
	})
}
