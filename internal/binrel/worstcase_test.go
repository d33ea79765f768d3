package binrel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func wcVariants() []struct {
	name string
	mk   func() *Relation
} {
	return []struct {
		name string
		mk   func() *Relation
	}{
		{"inline", func() *Relation { return New(Options{WorstCase: true, Inline: true}) }},
		{"background", func() *Relation { return New(Options{WorstCase: true}) }},
		{"tau8", func() *Relation { return New(Options{WorstCase: true, Tau: 8, Inline: true}) }},
	}
}

func TestWorstCaseRelationRandomOps(t *testing.T) {
	for _, v := range wcVariants() {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(600))
			w := v.mk()
			m := newRelModel()
			const objects, labels = 40, 25
			for step := 0; step < 3000; step++ {
				o := uint64(rng.Intn(objects) + 1)
				l := uint64(rng.Intn(labels) + 1)
				if rng.Float64() < 0.6 {
					if w.Add(o, l) != m.add(o, l) {
						t.Fatalf("step %d: Add(%d,%d) disagreement", step, o, l)
					}
				} else {
					if w.Delete(o, l) != m.del(o, l) {
						t.Fatalf("step %d: Delete(%d,%d) disagreement", step, o, l)
					}
				}
				if w.Len() != len(m.pairs) {
					t.Fatalf("step %d: Len = %d, want %d", step, w.Len(), len(m.pairs))
				}
				if step%151 == 0 {
					o := uint64(rng.Intn(objects) + 1)
					l := uint64(rng.Intn(labels) + 1)
					if w.Related(o, l) != m.related(o, l) {
						t.Fatalf("step %d: Related disagreement", step)
					}
					if !sameU64(w.Labels(o), m.labels(o)) {
						t.Fatalf("step %d: Labels(%d) = %v, want %v", step, o, w.Labels(o), m.labels(o))
					}
					if !sameU64(w.Objects(l), m.objects(l)) {
						t.Fatalf("step %d: Objects(%d) mismatch", step, l)
					}
					if w.CountLabels(o) != len(m.labels(o)) || w.CountObjects(l) != len(m.objects(l)) {
						t.Fatalf("step %d: counts mismatch", step)
					}
				}
			}
			w.WaitIdle()
			for o := uint64(1); o <= objects; o++ {
				if !sameU64(w.Labels(o), m.labels(o)) {
					t.Fatalf("final Labels(%d) mismatch: %v vs %v", o, w.Labels(o), m.labels(o))
				}
			}
			for l := uint64(1); l <= labels; l++ {
				if !sameU64(w.Objects(l), m.objects(l)) {
					t.Fatalf("final Objects(%d) mismatch", l)
				}
			}
		})
	}
}

func TestWorstCaseRelationBasics(t *testing.T) {
	w := New(Options{WorstCase: true, Inline: true})
	if w.Delete(1, 1) {
		t.Fatal("Delete on empty succeeded")
	}
	if !w.Add(1, 1) || w.Add(1, 1) {
		t.Fatal("Add semantics wrong")
	}
	if !w.Related(1, 1) || w.Related(1, 2) {
		t.Fatal("Related wrong")
	}
	if !w.Delete(1, 1) || w.Delete(1, 1) {
		t.Fatal("Delete semantics wrong")
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d", w.Len())
	}
	if w.SizeBits() <= 0 {
		t.Fatal("SizeBits not positive for allocated structure")
	}
}

func TestWorstCaseRelationChurnBackground(t *testing.T) {
	// Heavy churn with real background builds; queries must stay exact
	// while builds are in flight.
	w := New(Options{WorstCase: true})
	m := newRelModel()
	rng := rand.New(rand.NewSource(601))
	for i := 0; i < 5000; i++ {
		o := uint64(rng.Intn(300))
		l := uint64(rng.Intn(64))
		if rng.Float64() < 0.65 {
			if w.Add(o, l) != m.add(o, l) {
				t.Fatalf("i=%d Add disagreement", i)
			}
		} else {
			if w.Delete(o, l) != m.del(o, l) {
				t.Fatalf("i=%d Delete disagreement", i)
			}
		}
		if i%500 == 0 {
			o := uint64(rng.Intn(300))
			if w.CountLabels(o) != len(m.labels(o)) {
				t.Fatalf("i=%d CountLabels(%d) = %d want %d", i, o, w.CountLabels(o), len(m.labels(o)))
			}
		}
	}
	w.WaitIdle()
	if w.Len() != len(m.pairs) {
		t.Fatalf("final Len = %d, want %d", w.Len(), len(m.pairs))
	}
	st := w.Stats()
	if st.BackgroundBuilds == 0 {
		t.Fatal("expected background builds")
	}
}

func TestWorstCaseRelationDrainAll(t *testing.T) {
	w := New(Options{WorstCase: true, Inline: true})
	for i := 0; i < 800; i++ {
		w.Add(uint64(i), uint64(i%17))
	}
	for i := 0; i < 800; i++ {
		if !w.Delete(uint64(i), uint64(i%17)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after drain", w.Len())
	}
	// Reusable after full drain.
	if !w.Add(5, 5) || !w.Related(5, 5) {
		t.Fatal("unusable after drain")
	}
}

func TestWorstCaseRelationQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		w := New(Options{WorstCase: true, MinCapacity: 8, Inline: true})
		m := newRelModel()
		for _, op := range ops {
			o := uint64(op>>8) % 12
			l := uint64(op) % 12
			if op%3 == 0 {
				if w.Delete(o, l) != m.del(o, l) {
					return false
				}
			} else {
				if w.Add(o, l) != m.add(o, l) {
					return false
				}
			}
		}
		if w.Len() != len(m.pairs) {
			return false
		}
		for o := uint64(0); o < 12; o++ {
			if !sameU64(w.Labels(o), m.labels(o)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWorstCaseRelationEarlyStop(t *testing.T) {
	w := New(Options{WorstCase: true, Inline: true})
	for i := 0; i < 200; i++ {
		w.Add(3, uint64(i))
		w.Add(uint64(i+500), 7)
	}
	n := 0
	w.LabelsOf(3, func(uint64) bool { n++; return n < 9 })
	if n != 9 {
		t.Fatalf("LabelsOf early stop visited %d", n)
	}
	n = 0
	w.ObjectsOf(7, func(uint64) bool { n++; return n < 4 })
	if n != 4 {
		t.Fatalf("ObjectsOf early stop visited %d", n)
	}
}
