package binrel

import (
	"math/rand"
	"testing"
)

func TestRelationAccessors(t *testing.T) {
	r := New(Options{Tau: 6})
	if r.Tau() != 6 {
		t.Fatalf("Tau = %d", r.Tau())
	}
	auto := New(Options{})
	if auto.Tau() < 2 {
		t.Fatalf("auto Tau = %d", auto.Tau())
	}
	for i := 0; i < 300; i++ {
		r.Add(uint64(i), uint64(i%9))
	}
	if r.SizeBits() <= 0 {
		t.Fatal("SizeBits not positive")
	}
}

func TestWorstCaseRelationAccessors(t *testing.T) {
	w := New(Options{WorstCase: true, Tau: 5, Inline: true})
	if w.Tau() != 5 {
		t.Fatalf("Tau = %d", w.Tau())
	}
	m := newRelModel()
	for i := 0; i < 400; i++ {
		o, l := uint64(i%37), uint64(i%11)
		if w.Add(o, l) {
			m.add(o, l)
		}
	}
	got := w.Pairs()
	if len(got) != len(m.pairs) {
		t.Fatalf("Pairs = %d, want %d", len(got), len(m.pairs))
	}
	for _, p := range got {
		if !m.pairs[p] {
			t.Fatalf("Pairs returned absent pair %v", p)
		}
	}
}

// TestWorstCaseRelationDeferredMerge drives deletions against a level
// whose merge slot is busy, exercising pendingMerge + reconcile.
func TestWorstCaseRelationDeferredMerge(t *testing.T) {
	// Background (non-inline) mode so builds stay in flight while more
	// deletions arrive.
	w := New(Options{WorstCase: true, Tau: 2, MinCapacity: 16})
	m := newRelModel()
	rng := rand.New(rand.NewSource(888))
	for i := 0; i < 3000; i++ {
		o, l := uint64(rng.Intn(150)), uint64(rng.Intn(40))
		if rng.Float64() < 0.55 {
			if w.Add(o, l) != m.add(o, l) {
				t.Fatalf("i=%d Add disagreement", i)
			}
		} else {
			if w.Delete(o, l) != m.del(o, l) {
				t.Fatalf("i=%d Delete disagreement", i)
			}
		}
	}
	w.WaitIdle()
	if w.Len() != len(m.pairs) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(m.pairs))
	}
	for o := uint64(0); o < 150; o++ {
		if !sameU64(w.Labels(o), m.labels(o)) {
			t.Fatalf("Labels(%d) mismatch", o)
		}
	}
}
