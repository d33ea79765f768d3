package baseline

import (
	"testing"

	"dyncoll/internal/doc"
	"dyncoll/internal/oracle"
)

func TestDynFMDefaults(t *testing.T) {
	x := NewDynFM(0) // invalid → default
	if x.SampleRate() != 16 {
		t.Fatalf("default sample rate = %d", x.SampleRate())
	}
	x2 := NewDynFM(-3)
	if x2.SampleRate() != 16 {
		t.Fatalf("negative sample rate not defaulted: %d", x2.SampleRate())
	}
	x3 := NewDynFM(7)
	if x3.SampleRate() != 7 {
		t.Fatalf("SampleRate = %d", x3.SampleRate())
	}
}

func TestBaselineEmptyPatternSemantics(t *testing.T) {
	for _, v := range blVariants() {
		t.Run(v.name, func(t *testing.T) {
			x := v.mk()
			x.Insert(doc.Doc{ID: 1, Data: []byte{1, 2, 3}})
			x.Insert(doc.Doc{ID: 2, Data: []byte{4}})
			if got := x.Count(nil); got != 4 {
				t.Fatalf("Count(nil) = %d, want 4", got)
			}
			seen := 0
			x.FindFunc(nil, func(Occurrence) bool {
				seen++
				return true
			})
			if seen != 4 {
				t.Fatalf("FindFunc(nil) visited %d", seen)
			}
			// Early stop on the empty-pattern path.
			seen = 0
			x.FindFunc(nil, func(Occurrence) bool {
				seen++
				return seen < 2
			})
			if seen != 2 {
				t.Fatalf("early stop visited %d", seen)
			}
		})
	}
}

func TestBaselineDocLenPaths(t *testing.T) {
	for _, v := range blVariants() {
		t.Run(v.name, func(t *testing.T) {
			x := v.mk()
			x.Insert(doc.Doc{ID: 5, Data: []byte{1, 1}})
			if n, ok := x.DocLen(5); !ok || n != 2 {
				t.Fatalf("DocLen = %d, %v", n, ok)
			}
			if _, ok := x.DocLen(6); ok {
				t.Fatal("DocLen of absent doc succeeded")
			}
		})
	}
}

func TestDynFMAbsentPattern(t *testing.T) {
	x := NewDynFM(4)
	x.Insert(doc.Doc{ID: 1, Data: []byte{1, 2, 3}})
	if got := x.Count([]byte{4}); got != 0 {
		t.Fatalf("Count(absent) = %d", got)
	}
	if occs := x.Find([]byte{3, 2, 1}); len(occs) != 0 {
		t.Fatalf("Find(absent) = %v", occs)
	}
	// Pattern longer than the whole collection.
	long := make([]byte, 50)
	for i := range long {
		long[i] = 1
	}
	if got := x.Count(long); got != 0 {
		t.Fatalf("Count(long) = %d", got)
	}
}

func TestDynFMInterleavedGrowShrink(t *testing.T) {
	x := NewDynFM(2)
	m := new(oracle.Model)
	id := uint64(1)
	payloads := [][]byte{
		{1}, {2, 2}, {1, 2, 1}, {3, 1, 3, 1}, {2, 2, 2, 2, 2},
	}
	for round := 0; round < 20; round++ {
		for _, p := range payloads {
			d := doc.Doc{ID: id, Data: p}
			x.Insert(d)
			m.Insert(d)
			id++
		}
		// Delete the two oldest surviving docs.
		for range 2 {
			id := m.Docs()[0].ID
			x.Delete(id)
			m.Delete(id)
		}
		if err := oracle.CheckDocs[Occurrence](m, x, []byte{1}, []byte{2, 2}, []byte{3, 1}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestSTIndexEarlyStopNonEmpty(t *testing.T) {
	x := NewSTIndex()
	for i := 1; i <= 5; i++ {
		x.Insert(doc.Doc{ID: uint64(i), Data: []byte{9, 9, 9, 9}})
	}
	n := 0
	x.FindFunc([]byte{9, 9}, func(Occurrence) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
	if got := x.Count(nil); got != 20 {
		t.Fatalf("Count(nil) = %d", got)
	}
}
