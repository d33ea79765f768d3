package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyncoll/internal/doc"
)

// TestParkedAnswersAsBuilt holds the parked payload to a built store
// over the same documents: Count, FindFunc as a multiset,
// FindGroupedFunc's grouping, Extract at extreme offsets, DocLen, the
// live sets and a Snapshot after deletes must all agree. Small
// alphabets make overlapping matches common; the patterns include the
// empty pattern and patterns longer than any document.
func TestParkedAnswersAsBuilt(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sigma := 1 + rng.Intn(4)
		docs := make([]doc.Doc, 1+rng.Intn(12))
		for i := range docs {
			data := make([]byte, rng.Intn(40))
			for j := range data {
				data[j] = 'a' + byte(rng.Intn(sigma))
			}
			docs[i] = doc.Doc{ID: uint64(100 + 3*i), Data: data}
		}
		if seed == 1 {
			docs = []doc.Doc{{ID: 1, Data: []byte("aaaaaaa")}, {ID: 2, Data: []byte("a")}, {ID: 3}}
		}
		p := newParked(docs)
		built := NewSemiDynamic(fmBuilder(docs), false)
		checkParkedAgainst(t, seed, p, built, rng, sigma)
		for _, d := range docs {
			if rng.Intn(3) == 0 {
				pw, pok := p.Delete(d.ID)
				bw, bok := built.Delete(d.ID)
				if pw != bw || pok != bok {
					t.Fatalf("seed %d: Delete(%d) = %d,%v, built %d,%v", seed, d.ID, pw, pok, bw, bok)
				}
			}
		}
		checkParkedAgainst(t, seed, p, built, rng, sigma)
		// A rebuild over the snapshot must see the built store's live
		// documents, in the order they were parked.
		sn := p.Snapshot()
		got := sn.Materialize(nil)
		if len(got) != sn.Count || !slices.EqualFunc(got, p.LiveItems(), docEqual) {
			t.Fatalf("seed %d: snapshot yields %d documents (Count %d), LiveItems %d", seed, len(got), sn.Count, len(p.LiveItems()))
		}
		var want []doc.Doc
		for _, d := range docs {
			if _, ok := built.DocLen(d.ID); ok {
				want = append(want, d)
			}
		}
		if !slices.EqualFunc(got, want, docEqual) {
			t.Fatalf("seed %d: snapshot %v, want %v", seed, got, want)
		}
	}
}

func docEqual(a, b doc.Doc) bool { return a.ID == b.ID && string(a.Data) == string(b.Data) }

func checkParkedAgainst(t *testing.T, seed int64, p *parked, built *SemiDynamic, rng *rand.Rand, sigma int) {
	t.Helper()
	if p.LiveWeight() != built.LiveWeight() || p.DeadWeight() != built.DeadWeight() {
		t.Fatalf("seed %d: weight %d/%d, built %d/%d", seed, p.LiveWeight(), p.DeadWeight(), built.LiveWeight(), built.DeadWeight())
	}
	pk, bk := p.LiveKeys(), built.LiveKeys()
	slices.Sort(pk)
	slices.Sort(bk)
	if !slices.Equal(pk, bk) {
		t.Fatalf("seed %d: LiveKeys %v, built %v", seed, pk, bk)
	}
	if !sameDocSet(p.LiveItems(), built.LiveItems()) {
		t.Fatalf("seed %d: LiveItems differ", seed)
	}
	patterns := [][]byte{nil, []byte("a"), []byte("aa"), []byte("aaa"), make([]byte, 50)}
	for i := range patterns[4] {
		patterns[4][i] = 'a'
	}
	for range 30 {
		pat := make([]byte, 1+rng.Intn(4))
		for j := range pat {
			pat[j] = 'a' + byte(rng.Intn(sigma+1))
		}
		patterns = append(patterns, pat)
	}
	for _, pat := range patterns {
		if got, want := p.Count(pat), built.Count(pat); got != want {
			t.Fatalf("seed %d: Count(%q) = %d, built %d", seed, pat, got, want)
		}
		got, want := collectOccs(p.FindFunc, pat), collectOccs(built.FindFunc, pat)
		slices.SortFunc(got, cmpOcc)
		slices.SortFunc(want, cmpOcc)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: FindFunc(%q) = %v, built %v", seed, pat, got, want)
		}
		// Grouped: each document's occurrences contiguous, offsets
		// ascending, and the same multiset.
		grouped := collectOccs(p.FindGroupedFunc, pat)
		done := map[uint64]bool{}
		for i, o := range grouped {
			if i > 0 && grouped[i-1].DocID == o.DocID {
				if grouped[i-1].Off >= o.Off {
					t.Fatalf("seed %d: FindGroupedFunc(%q) offsets not ascending: %v", seed, pat, grouped)
				}
				continue
			}
			if done[o.DocID] {
				t.Fatalf("seed %d: FindGroupedFunc(%q) splits document %d: %v", seed, pat, o.DocID, grouped)
			}
			done[o.DocID] = true
		}
		slices.SortFunc(grouped, cmpOcc)
		if !slices.Equal(grouped, want) {
			t.Fatalf("seed %d: FindGroupedFunc(%q) = %v, built %v", seed, pat, grouped, want)
		}
	}
	extremes := []int{math.MinInt, -1, 0, 1, 3, 39, math.MaxInt}
	for _, id := range append(bk, 99999) {
		pl, pok := p.DocLen(id)
		bl, bok := built.DocLen(id)
		if pl != bl || pok != bok {
			t.Fatalf("seed %d: DocLen(%d) = %d,%v, built %d,%v", seed, id, pl, pok, bl, bok)
		}
		for _, off := range extremes {
			for _, length := range extremes {
				pd, pok := p.Extract(id, off, length)
				bd, bok := built.Extract(id, off, length)
				if string(pd) != string(bd) || pok != bok {
					t.Fatalf("seed %d: Extract(%d, %d, %d) = %q,%v, built %q,%v", seed, id, off, length, pd, pok, bd, bok)
				}
			}
		}
	}
}

func collectOccs(find func([]byte, func(Occurrence) bool), pat []byte) []Occurrence {
	var out []Occurrence
	find(pat, func(o Occurrence) bool {
		out = append(out, o)
		return true
	})
	return out
}

func cmpOcc(a, b Occurrence) int { return cmp.Or(cmp.Compare(a.DocID, b.DocID), a.Off-b.Off) }

func sortedByID(docs []doc.Doc) []doc.Doc {
	slices.SortFunc(docs, func(a, b doc.Doc) int { return cmp.Compare(a.ID, b.ID) })
	return docs
}

func sameDocSet(a, b []doc.Doc) bool {
	return slices.EqualFunc(sortedByID(slices.Clone(a)), sortedByID(slices.Clone(b)), docEqual)
}

// TestParkedOwnsItsBytes overwrites the caller's buffers after the
// worst-case InsertBatch returns, while the batch is parked (the build
// is held): the parked documents must answer as before, and so must the
// store built from them.
func TestParkedOwnsItsBytes(t *testing.T) {
	gate := make(chan struct{})
	w := NewWorstCase(Options{Builder: func(docs []doc.Doc) StaticIndex {
		<-gate
		return fmBuilder(docs)
	}})
	var docs []doc.Doc
	for i := range 64 {
		docs = append(docs, doc.Doc{ID: uint64(i + 1), Data: []byte("abracadabra-parked")})
	}
	if err := w.InsertBatch(docs); err != nil {
		t.Fatal(err)
	}
	// Any other update, even one that deletes nothing, closes the open
	// top the batch sits in and launches its (held) build.
	w.Delete(0)
	for _, d := range docs {
		for j := range d.Data {
			d.Data[j] = 'z'
		}
	}
	check := func(when string) {
		t.Helper()
		if got := w.Count([]byte("abra")); got != 2*len(docs) {
			t.Fatalf("%s: Count(abra) = %d, want %d", when, got, 2*len(docs))
		}
		if got := w.Count([]byte("z")); got != 0 {
			t.Fatalf("%s: Count(z) = %d, want 0", when, got)
		}
		if data, ok := w.Extract(7, 0, math.MaxInt); !ok || string(data) != "abracadabra-parked" {
			t.Fatalf("%s: Extract(7) = %q, %v", when, data, ok)
		}
	}
	check("parked")
	if st := w.Stats(); st.Parked != w.Len() || st.PendingBuilds != 1 {
		t.Fatalf("%d of %d symbols parked, %d builds in flight: want all, one", st.Parked, w.Len(), st.PendingBuilds)
	}
	close(gate)
	w.WaitIdle()
	check("built")
}
