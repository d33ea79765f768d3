package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dyncoll/internal/doc"
	"dyncoll/internal/oracle"
	"dyncoll/internal/textgen"
)

// variant describes one dynamized-collection configuration under test.
type variant struct {
	name string
	mk   func() dynamic
}

func variants() []variant {
	return []variant{
		{"T1/fm", func() dynamic {
			return NewAmortized(Options{Builder: fmBuilder})
		}},
		{"T1/fm/counting", func() dynamic {
			return NewAmortized(Options{Builder: fmBuilder, Counting: true})
		}},
		{"T1/sa", func() dynamic {
			return NewAmortized(Options{Builder: saBuilder})
		}},
		{"T3/fm", func() dynamic {
			return NewAmortized(Options{Builder: fmBuilder, Ratio2: true})
		}},
		{"T2/fm/inline", func() dynamic {
			return NewWorstCase(Options{Builder: fmBuilder, Inline: true})
		}},
		{"T2/fm/background", func() dynamic {
			return NewWorstCase(Options{Builder: fmBuilder})
		}},
		{"T2/fm/counting", func() dynamic {
			return NewWorstCase(Options{Builder: fmBuilder, Inline: true, Counting: true})
		}},
		{"T2/sa", func() dynamic {
			return NewWorstCase(Options{Builder: saBuilder, Inline: true})
		}},
		{"T1/csa", func() dynamic {
			return NewAmortized(Options{Builder: csaBuilder})
		}},
		{"T2/csa", func() dynamic {
			return NewWorstCase(Options{Builder: csaBuilder, Inline: true})
		}},
	}
}

// quiesce brings background machinery to rest so layout-sensitive checks
// are deterministic.
func quiesce(d dynamic) {
	if w, ok := d.(*WorstCase); ok {
		w.WaitIdle()
	}
}

func TestConformanceRandomOps(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			gen := textgen.NewCollection(textgen.CollectionOptions{
				Sigma: 8, MinLen: 4, MaxLen: 200, Seed: 77,
			})
			d := v.mk()
			m := new(oracle.Model)
			var live []uint64

			checkQueries := func() {
				t.Helper()
				ps := [][]byte{
					nil,
					{1},
					{byte(rng.Intn(8) + 1), byte(rng.Intn(8) + 1)},
					{byte(rng.Intn(8) + 1), byte(rng.Intn(8) + 1), byte(rng.Intn(8) + 1)},
				}
				if err := oracle.CheckDocs[Occurrence](m, d, ps...); err != nil {
					t.Fatal(err)
				}
			}

			for step := 0; step < 400; step++ {
				switch {
				case len(live) == 0 || rng.Float64() < 0.65:
					nd := gen.NextDoc()
					d.Insert(nd)
					m.Insert(nd)
					live = append(live, nd.ID)
				default:
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					if !d.Delete(id) {
						t.Fatalf("Delete(%d) returned false for live doc", id)
					}
					m.Delete(id)
				}
				if d.Len() != m.Len() || d.DocCount() != m.DocCount() {
					t.Fatalf("step %d: Len %d, DocCount %d; want %d, %d", step, d.Len(), d.DocCount(), m.Len(), m.DocCount())
				}
				if step%25 == 0 {
					checkQueries()
				}
			}
			quiesce(d)
			checkQueries()
		})
	}
}

func TestDeleteUnknown(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			if d.Delete(42) {
				t.Fatal("Delete on empty collection returned true")
			}
			d.Insert(doc.Doc{ID: 1, Data: []byte{1, 2, 3}})
			if d.Delete(42) {
				t.Fatal("Delete of unknown ID returned true")
			}
			if !d.Delete(1) {
				t.Fatal("Delete of live ID returned false")
			}
			if d.Delete(1) {
				t.Fatal("double Delete returned true")
			}
			if d.Len() != 0 || d.DocCount() != 0 {
				t.Fatalf("collection not empty after full deletion: len=%d docs=%d", d.Len(), d.DocCount())
			}
		})
	}
}

func TestEmptyCollectionQueries(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			if occs := d.Find([]byte{1, 2}); len(occs) != 0 {
				t.Fatalf("Find on empty collection returned %d occurrences", len(occs))
			}
			if c := d.Count(nil); c != 0 {
				t.Fatalf("Count(nil) on empty collection = %d", c)
			}
			if _, ok := d.Extract(1, 0, 1); ok {
				t.Fatal("Extract on empty collection returned ok")
			}
			if _, ok := d.DocLen(1); ok {
				t.Fatal("DocLen on empty collection returned ok")
			}
			if d.Has(1) {
				t.Fatal("Has on empty collection returned true")
			}
		})
	}
}

func TestSingleSymbolAlphabet(t *testing.T) {
	// σ=1 documents (all bytes identical) stress suffix-array corner cases:
	// maximal overlap of occurrences.
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			for i := 1; i <= 6; i++ {
				data := make([]byte, 10*i)
				for j := range data {
					data[j] = 7
				}
				d.Insert(doc.Doc{ID: uint64(i), Data: data})
			}
			quiesce(d)
			p := []byte{7, 7, 7}
			want := 0
			for i := 1; i <= 6; i++ {
				want += 10*i - 2
			}
			if got := d.Count(p); got != want {
				t.Fatalf("Count = %d, want %d", got, want)
			}
			d.Delete(3)
			want -= 28
			quiesce(d)
			if got := d.Count(p); got != want {
				t.Fatalf("Count after delete = %d, want %d", got, want)
			}
		})
	}
}

func TestFindFuncEarlyStop(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			for i := 1; i <= 20; i++ {
				d.Insert(doc.Doc{ID: uint64(i), Data: []byte{1, 2, 1, 2, 1}})
			}
			quiesce(d)
			seen := 0
			d.FindFunc([]byte{1, 2}, func(Occurrence) bool {
				seen++
				return seen < 5
			})
			if seen != 5 {
				t.Fatalf("early stop delivered %d occurrences, want 5", seen)
			}
		})
	}
}

func TestManySmallThenOneHuge(t *testing.T) {
	// A document ≥ nf/τ exercises the big-document path of the worst-case
	// transformation (its own top collection, synchronous build).
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			gen := textgen.NewCollection(textgen.CollectionOptions{
				Sigma: 4, MinLen: 20, MaxLen: 60, Seed: 5,
			})
			d := v.mk()
			m := new(oracle.Model)
			for i := 0; i < 60; i++ {
				nd := gen.NextDoc()
				d.Insert(nd)
				m.Insert(nd)
			}
			huge := gen.NextDocLen(20_000)
			d.Insert(huge)
			m.Insert(huge)
			quiesce(d)

			p := huge.Data[100:106]
			if got, want := d.Count(p), m.Count(p); got != want {
				t.Fatalf("Count after huge insert = %d, want %d", got, want)
			}
			if !d.Delete(huge.ID) {
				t.Fatal("deleting huge doc failed")
			}
			m.Delete(huge.ID)
			quiesce(d)
			if got, want := d.Count(p), m.Count(p); got != want {
				t.Fatalf("Count after huge delete = %d, want %d", got, want)
			}
		})
	}
}

func TestChurnSameDocuments(t *testing.T) {
	// Insert/delete the same payloads repeatedly: stresses purge paths and
	// ownership handover across rebuilds.
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			payload := []byte{1, 2, 3, 1, 2, 3, 1, 2}
			id := uint64(0)
			for round := 0; round < 30; round++ {
				var ids []uint64
				for i := 0; i < 10; i++ {
					id++
					d.Insert(doc.Doc{ID: id, Data: payload})
					ids = append(ids, id)
				}
				for _, x := range ids[:5] {
					d.Delete(x)
				}
				want := (d.DocCount()) * 2 // each live doc has 2 non-overlapping "1 2 3"
				if got := d.Count([]byte{1, 2, 3}); got != want {
					t.Fatalf("round %d: Count = %d, want %d", round, got, want)
				}
			}
		})
	}
}

func TestDuplicateInsertErrors(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			if err := d.Insert(doc.Doc{ID: 9, Data: []byte{1}}); err != nil {
				t.Fatalf("first insert: %v", err)
			}
			if err := d.Insert(doc.Doc{ID: 9, Data: []byte{2}}); !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("duplicate insert: got %v, want ErrDuplicateID", err)
			}
			// The failed insert must not have clobbered the original.
			if got := d.Count([]byte{1}); got != 1 {
				t.Fatalf("Count after failed insert = %d, want 1", got)
			}
		})
	}
}

func TestZeroByteInsertErrors(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			err := d.Insert(doc.Doc{ID: 1, Data: []byte{1, 0, 2}})
			if !errors.Is(err, ErrReservedByte) {
				t.Fatalf("zero-byte payload: got %v, want ErrReservedByte", err)
			}
			if d.DocCount() != 0 {
				t.Fatal("rejected document was inserted")
			}
		})
	}
}

func TestGrowShrinkGrow(t *testing.T) {
	// Size drifting both ways forces global rebuilds / rebalances in both
	// directions (Section A.3).
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			gen := textgen.NewCollection(textgen.CollectionOptions{
				Sigma: 8, MinLen: 50, MaxLen: 150, Seed: 13,
			})
			d := v.mk()
			m := new(oracle.Model)
			var ids []uint64
			grow := func(k int) {
				for i := 0; i < k; i++ {
					nd := gen.NextDoc()
					d.Insert(nd)
					m.Insert(nd)
					ids = append(ids, nd.ID)
				}
			}
			shrink := func(k int) {
				for i := 0; i < k && len(ids) > 0; i++ {
					id := ids[len(ids)-1]
					ids = ids[:len(ids)-1]
					d.Delete(id)
					m.Delete(id)
				}
			}
			grow(120)
			shrink(110)
			grow(60)
			shrink(55)
			grow(200)
			quiesce(d)
			if d.Len() != m.Len() {
				t.Fatalf("Len = %d, want %d", d.Len(), m.Len())
			}
			p := []byte{3, 5}
			if got, want := d.Count(p), m.Count(p); got != want {
				t.Fatalf("Count = %d, want %d", got, want)
			}
		})
	}
}

func TestExtractSlices(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			const testID = 1 << 40 // outside the generator's ID space
			data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
			d.Insert(doc.Doc{ID: testID, Data: data})
			// Push it into a compressed level for the amortized variants.
			gen := textgen.NewCollection(textgen.CollectionOptions{Seed: 3, MinLen: 100, MaxLen: 100})
			for i := 0; i < 50; i++ {
				d.Insert(gen.NextDoc())
			}
			quiesce(d)
			cases := []struct{ off, n int }{
				{0, 10}, {0, 1}, {9, 1}, {3, 4}, {5, 0},
			}
			for _, c := range cases {
				got, ok := d.Extract(testID, c.off, c.n)
				if !ok {
					t.Fatalf("Extract(%d,%d) not ok", c.off, c.n)
				}
				want := data[c.off : c.off+c.n]
				if string(got) != string(want) {
					t.Fatalf("Extract(1,%d,%d) = %v, want %v", c.off, c.n, got, want)
				}
			}
		})
	}
}

// TestPatternLongerThanAnyDoc ensures range-finding degrades gracefully.
func TestPatternLongerThanAnyDoc(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			d.Insert(doc.Doc{ID: 1, Data: []byte{1, 2, 3}})
			p := make([]byte, 100)
			for i := range p {
				p[i] = 1
			}
			if occs := d.Find(p); len(occs) != 0 {
				t.Fatalf("Find(long pattern) returned %d occurrences", len(occs))
			}
		})
	}
}

func TestStatsShape(t *testing.T) {
	a := NewAmortized(Options{Builder: fmBuilder})
	gen := textgen.NewCollection(textgen.CollectionOptions{Seed: 1, MinLen: 30, MaxLen: 90})
	for i := 0; i < 200; i++ {
		a.Insert(gen.NextDoc())
	}
	st := a.Stats()
	if st.Levels < 2 {
		t.Fatalf("expected ≥ 2 levels, got %d", st.Levels)
	}
	if len(st.LevelSizes) != len(st.LevelCaps) {
		t.Fatalf("sizes/caps length mismatch: %d vs %d", len(st.LevelSizes), len(st.LevelCaps))
	}
	if st.LevelRebuilds == 0 && st.GlobalRebuilds == 0 {
		t.Fatal("200 insertions should have triggered rebuilds")
	}
	for i, sz := range st.LevelSizes {
		if sz > st.LevelCaps[i] {
			t.Fatalf("level %d size %d exceeds cap %d", i, sz, st.LevelCaps[i])
		}
	}
}

func TestOccurrenceOffsetsRelative(t *testing.T) {
	// The paper requires relative positions: deleting one document must
	// not shift reported offsets in others.
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			d.Insert(doc.Doc{ID: 1, Data: []byte{5, 5, 1, 2}})
			d.Insert(doc.Doc{ID: 2, Data: []byte{3, 3, 3, 1, 2}})
			quiesce(d)
			before := d.Find([]byte{1, 2})
			sortOccs(before)
			if len(before) != 2 || before[0] != (Occurrence{1, 2}) || before[1] != (Occurrence{2, 3}) {
				t.Fatalf("unexpected occurrences before delete: %v", before)
			}
			d.Delete(1)
			quiesce(d)
			after := d.Find([]byte{1, 2})
			if len(after) != 1 || after[0] != (Occurrence{2, 3}) {
				t.Fatalf("offset shifted after deletion: %v", after)
			}
		})
	}
}

func TestTauOverride(t *testing.T) {
	a := NewAmortized(Options{Builder: fmBuilder, Tau: 7})
	if a.Tau() != 7 {
		t.Fatalf("Tau() = %d, want 7", a.Tau())
	}
	w := NewWorstCase(Options{Builder: fmBuilder, Tau: 9, Inline: true})
	if w.Tau() != 9 {
		t.Fatalf("Tau() = %d, want 9", w.Tau())
	}
}

func TestSizeBitsPositive(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.mk()
			gen := textgen.NewCollection(textgen.CollectionOptions{Seed: 8})
			for i := 0; i < 30; i++ {
				d.Insert(gen.NextDoc())
			}
			quiesce(d)
			if d.SizeBits() <= 0 {
				t.Fatal("SizeBits must be positive for a non-empty collection")
			}
		})
	}
}

func TestManyPatternLengths(t *testing.T) {
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 6, Order: 1, Skew: 0.6, MinLen: 100, MaxLen: 400, Seed: 55,
	})
	docs := gen.GenerateTotal(30_000)
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("short mode")
			}
			d := v.mk()
			m := new(oracle.Model)
			for _, nd := range docs {
				d.Insert(nd)
				m.Insert(nd)
			}
			quiesce(d)
			ps := textgen.NewPatternSampler(docs, 17)
			for _, l := range []int{1, 2, 3, 5, 8, 13, 21, 34} {
				p := ps.Planted(l)
				if got, want := d.Count(p), m.Count(p); got != want {
					t.Fatalf("len %d: Count = %d, want %d", l, got, want)
				}
			}
		})
	}
}

func TestWorstCaseConcurrentReads(t *testing.T) {
	// Queries must be correct while background builds are in flight.
	d := NewWorstCase(Options{Builder: fmBuilder})
	m := new(oracle.Model)
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 8, MinLen: 50, MaxLen: 200, Seed: 66,
	})
	for i := 0; i < 300; i++ {
		nd := gen.NextDoc()
		d.Insert(nd)
		m.Insert(nd)
		if i%10 == 0 {
			p := nd.Data[:3]
			if got, want := d.Count(p), m.Count(p); got != want {
				t.Fatalf("i=%d Count = %d, want %d", i, got, want)
			}
		}
	}
	d.WaitIdle()
	if d.Len() != m.Len() {
		t.Fatalf("Len = %d, want %d", d.Len(), m.Len())
	}
}

func TestVariantNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range variants() {
		if seen[v.name] {
			t.Fatalf("duplicate variant name %q", v.name)
		}
		seen[v.name] = true
	}
}

func ExampleAmortized() {
	a := NewAmortized(Options{Builder: fmBuilder})
	a.Insert(doc.Doc{ID: 1, Data: []byte("abracadabra")})
	a.Insert(doc.Doc{ID: 2, Data: []byte("cadabra")})
	fmt.Println(a.Count([]byte("abra")))
	a.Delete(2)
	fmt.Println(a.Count([]byte("abra")))
	// Output:
	// 3
	// 2
}
