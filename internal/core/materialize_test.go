package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"dyncoll/internal/doc"
	"dyncoll/internal/textgen"
)

func materializeDocs(n int, seed int64) []doc.Doc {
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 8, MinLen: 20, MaxLen: 200, Seed: seed,
	})
	docs := make([]doc.Doc, n)
	for i := range docs {
		docs[i] = gen.NextDoc()
	}
	return docs
}

// TestMaterializeOrderAndPaths checks both ways a store hands its live
// documents to a rebuild — the deferred Snapshot and LiveItems — over an
// index with the bulk reader (FM) and indexes without it (SA, CSA):
// exactly the live documents, payloads intact, in ascending document
// index, so a rebuilt store's bytes do not depend on map iteration.
func TestMaterializeOrderAndPaths(t *testing.T) {
	docs := materializeDocs(120, 3)
	for name, build := range map[string]Builder{"fm": fmBuilder, "sa": saBuilder, "csa": csaBuilder} {
		s := NewSemiDynamic(build(docs), false)
		snapBefore := s.Snapshot()
		var want []doc.Doc
		for i, d := range docs {
			if i%3 == 1 {
				if _, ok := s.Delete(d.ID); !ok {
					t.Fatalf("%s: delete %d failed", name, d.ID)
				}
				continue
			}
			want = append(want, d)
		}
		same := func(got, want []doc.Doc) bool {
			return slices.EqualFunc(got, want, func(a, b doc.Doc) bool {
				return a.ID == b.ID && bytes.Equal(a.Data, b.Data)
			})
		}
		if got := s.LiveItems(); !same(got, want) {
			t.Errorf("%s: LiveItems is not the live documents in index order", name)
		}
		sn := s.Snapshot()
		if got := sn.Materialize(nil); sn.Count != len(want) || !same(got, want) {
			t.Errorf("%s: Snapshot is not the live documents in index order", name)
		}
		// A snapshot taken before the deletions still reads every document.
		if got := snapBefore.Materialize(nil); !same(got, docs) {
			t.Errorf("%s: earlier Snapshot lost documents to later deletions", name)
		}
	}
}

// TestMaterializeRaceFree materializes a store's snapshot on another
// goroutine — as a background build does — while this one deletes from
// and queries the same store. Deletions touch only the wrapper's
// bitmaps and the bulk reader only the immutable index and its own
// scratch, so -race must stay silent and the snapshot must still yield
// every document it captured.
func TestMaterializeRaceFree(t *testing.T) {
	docs := materializeDocs(300, 9)
	s := NewSemiDynamic(fmBuilder(docs), true)
	const builders = 3
	results := make([][]doc.Doc, builders)
	var wg sync.WaitGroup
	for b := range results {
		sn := s.Snapshot()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				results[b] = sn.Materialize(results[b][:0])
			}
		}()
	}
	for i, d := range docs {
		if i%2 == 0 {
			s.Delete(d.ID)
		}
		s.Count(d.Data[:3])
		s.FindFunc(d.Data[:4], func(Occurrence) bool { return true })
		s.Extract(d.ID, 0, 10)
	}
	wg.Wait()
	for b, got := range results {
		if len(got) != len(docs) {
			t.Fatalf("builder %d materialized %d of %d documents", b, len(got), len(docs))
		}
		for i, d := range docs {
			if got[i].ID != d.ID || !bytes.Equal(got[i].Data, d.Data) {
				t.Fatalf("builder %d: document %d corrupted", b, i)
			}
		}
	}
}

// TestMaterializeAllocsPerStore pins what a rebuild's input side
// allocates to the store, not its documents: the index list, one payload
// slab and the decoder — whether the store holds 8 documents or 800.
func TestMaterializeAllocsPerStore(t *testing.T) {
	allocs := func(n int) float64 {
		s := NewSemiDynamic(fmBuilder(materializeDocs(n, 17)), false)
		dst := make([]doc.Doc, 0, n)
		return testing.AllocsPerRun(20, func() { s.Snapshot().Materialize(dst) })
	}
	few, many := allocs(8), allocs(800)
	if many > few+1 || many > 8 {
		t.Fatalf("materializing allocates per document: %v allocs for 8 docs, %v for 800", few, many)
	}
}
