package binrel

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// relModel is the brute-force reference: a set of pairs.
type relModel struct{ pairs map[Pair]bool }

func newRelModel() *relModel { return &relModel{pairs: map[Pair]bool{}} }

func (m *relModel) add(o, l uint64) bool {
	p := Pair{o, l}
	if m.pairs[p] {
		return false
	}
	m.pairs[p] = true
	return true
}

func (m *relModel) del(o, l uint64) bool {
	p := Pair{o, l}
	if !m.pairs[p] {
		return false
	}
	delete(m.pairs, p)
	return true
}

func (m *relModel) related(o, l uint64) bool { return m.pairs[Pair{o, l}] }

func (m *relModel) labels(o uint64) []uint64 {
	var out []uint64
	for p := range m.pairs {
		if p.Object == o {
			out = append(out, p.Label)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *relModel) objects(l uint64) []uint64 {
	var out []uint64
	for p := range m.pairs {
		if p.Label == l {
			out = append(out, p.Object)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameU64(a, b []uint64) bool {
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

func TestRelationRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	r := New(Options{})
	m := newRelModel()
	const objects, labels = 40, 25
	for step := 0; step < 4000; step++ {
		o := uint64(rng.Intn(objects) + 1)
		l := uint64(rng.Intn(labels) + 1)
		if rng.Float64() < 0.6 {
			if r.Add(o, l) != m.add(o, l) {
				t.Fatalf("step %d: Add(%d,%d) disagreement", step, o, l)
			}
		} else {
			if r.Delete(o, l) != m.del(o, l) {
				t.Fatalf("step %d: Delete(%d,%d) disagreement", step, o, l)
			}
		}
		if r.Len() != len(m.pairs) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(m.pairs))
		}
		if step%97 == 0 {
			o := uint64(rng.Intn(objects) + 1)
			l := uint64(rng.Intn(labels) + 1)
			if r.Related(o, l) != m.related(o, l) {
				t.Fatalf("step %d: Related(%d,%d) disagreement", step, o, l)
			}
			if !sameU64(r.Labels(o), m.labels(o)) {
				t.Fatalf("step %d: Labels(%d) = %v, want %v", step, o, r.Labels(o), m.labels(o))
			}
			if !sameU64(r.Objects(l), m.objects(l)) {
				t.Fatalf("step %d: Objects(%d) = %v, want %v", step, l, r.Objects(l), m.objects(l))
			}
			if r.CountLabels(o) != len(m.labels(o)) {
				t.Fatalf("step %d: CountLabels(%d) = %d, want %d", step, o, r.CountLabels(o), len(m.labels(o)))
			}
			if r.CountObjects(l) != len(m.objects(l)) {
				t.Fatalf("step %d: CountObjects(%d) = %d, want %d", step, l, r.CountObjects(l), len(m.objects(l)))
			}
		}
	}
	// Exhaustive final check.
	for o := uint64(1); o <= objects; o++ {
		if !sameU64(r.Labels(o), m.labels(o)) {
			t.Fatalf("final Labels(%d) mismatch", o)
		}
		if r.CountLabels(o) != len(m.labels(o)) {
			t.Fatalf("final CountLabels(%d) mismatch", o)
		}
	}
	for l := uint64(1); l <= labels; l++ {
		if !sameU64(r.Objects(l), m.objects(l)) {
			t.Fatalf("final Objects(%d) mismatch", l)
		}
	}
	if r.Stats().LevelRebuilds == 0 {
		t.Fatal("expected level rebuilds during 4000 ops")
	}
}

func TestRelationDuplicateAdd(t *testing.T) {
	r := New(Options{})
	if !r.Add(1, 2) {
		t.Fatal("first Add failed")
	}
	if r.Add(1, 2) {
		t.Fatal("duplicate Add succeeded")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Duplicate of a pair that has been pushed into a compressed level.
	for i := 0; i < 500; i++ {
		r.Add(uint64(i+10), uint64(i%7))
	}
	if r.Add(1, 2) {
		t.Fatal("duplicate Add of compressed pair succeeded")
	}
}

func TestRelationDeleteAbsent(t *testing.T) {
	r := New(Options{})
	if r.Delete(1, 1) {
		t.Fatal("Delete on empty relation succeeded")
	}
	r.Add(1, 1)
	if r.Delete(1, 2) || r.Delete(2, 1) {
		t.Fatal("Delete of absent pair succeeded")
	}
	if !r.Delete(1, 1) || r.Delete(1, 1) {
		t.Fatal("Delete of present pair misbehaved")
	}
}

func TestRelationReAddAfterDelete(t *testing.T) {
	r := New(Options{})
	// Push a pair into a compressed level, delete it lazily, re-add it.
	r.Add(1, 1)
	for i := 0; i < 300; i++ {
		r.Add(uint64(i+10), 5)
	}
	if !r.Delete(1, 1) {
		t.Fatal("delete failed")
	}
	if r.Related(1, 1) {
		t.Fatal("pair still related after delete")
	}
	if !r.Add(1, 1) {
		t.Fatal("re-add failed")
	}
	if !r.Related(1, 1) {
		t.Fatal("pair not related after re-add")
	}
	if got := r.CountObjects(5); got != 300 {
		t.Fatalf("CountObjects(5) = %d", got)
	}
}

func TestRelationEarlyStop(t *testing.T) {
	r := New(Options{})
	for i := 0; i < 100; i++ {
		r.Add(7, uint64(i))
		r.Add(uint64(i+1000), 9)
	}
	n := 0
	r.LabelsOf(7, func(uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("LabelsOf early stop visited %d", n)
	}
	n = 0
	r.ObjectsOf(9, func(uint64) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("ObjectsOf early stop visited %d", n)
	}
}

func TestRelationSkewedDegrees(t *testing.T) {
	// One hub label related to everything, plus a long tail — the shape of
	// the paper's motivating RDF workloads.
	r := New(Options{})
	m := newRelModel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		o := uint64(i + 1)
		r.Add(o, 1)
		m.add(o, 1)
		l := uint64(rng.Intn(100) + 2)
		r.Add(o, l)
		m.add(o, l)
	}
	if r.CountObjects(1) != 2000 {
		t.Fatalf("hub count = %d", r.CountObjects(1))
	}
	// Spot-check tail labels.
	for l := uint64(2); l <= 20; l++ {
		if !sameU64(r.Objects(l), m.objects(l)) {
			t.Fatalf("Objects(%d) mismatch", l)
		}
	}
	// Delete the hub's pairs and confirm counts collapse.
	for i := 0; i < 2000; i += 2 {
		r.Delete(uint64(i+1), 1)
	}
	if r.CountObjects(1) != 1000 {
		t.Fatalf("hub count after deletes = %d", r.CountObjects(1))
	}
}

func TestRelationPairsRoundTrip(t *testing.T) {
	r := New(Options{})
	m := newRelModel()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 700; i++ {
		o, l := uint64(rng.Intn(50)), uint64(rng.Intn(50))
		r.Add(o, l)
		m.add(o, l)
	}
	got := r.Pairs()
	if len(got) != len(m.pairs) {
		t.Fatalf("Pairs returned %d, want %d", len(got), len(m.pairs))
	}
	for _, p := range got {
		if !m.pairs[p] {
			t.Fatalf("Pairs returned absent pair %v", p)
		}
	}
}

func TestRelationQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		r := New(Options{MinCapacity: 8})
		m := newRelModel()
		for _, op := range ops {
			o := uint64(op>>8) % 16
			l := uint64(op) % 16
			if op%3 == 0 {
				if r.Delete(o, l) != m.del(o, l) {
					return false
				}
			} else {
				if r.Add(o, l) != m.add(o, l) {
					return false
				}
			}
		}
		if r.Len() != len(m.pairs) {
			return false
		}
		for o := uint64(0); o < 16; o++ {
			if !sameU64(r.Labels(o), m.labels(o)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSemiRelDirect(t *testing.T) {
	pairs := []Pair{
		{1, 10}, {1, 20}, {2, 10}, {3, 30}, {3, 10}, {3, 20},
	}
	r := buildSemi(pairs)
	if r.live != 6 {
		t.Fatalf("live = %d", r.live)
	}
	if !r.related(1, 10) || r.related(1, 30) || r.related(9, 10) {
		t.Fatal("related wrong")
	}
	if got := r.countLabels(3); got != 3 {
		t.Fatalf("countLabels(3) = %d", got)
	}
	if got := r.countObjects(10); got != 3 {
		t.Fatalf("countObjects(10) = %d", got)
	}
	if _, ok := r.Delete(Pair{3, 10}); !ok {
		t.Fatal("delete failed")
	}
	if _, ok := r.Delete(Pair{3, 10}); ok {
		t.Fatal("double delete succeeded")
	}
	if got := r.countObjects(10); got != 2 {
		t.Fatalf("countObjects(10) after delete = %d", got)
	}
	if got := r.countLabels(3); got != 2 {
		t.Fatalf("countLabels(3) after delete = %d", got)
	}
	var ls []uint64
	r.labelsOf(3, func(l uint64) bool { ls = append(ls, l); return true })
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	if !sameU64(ls, []uint64{20, 30}) {
		t.Fatalf("labelsOf(3) = %v", ls)
	}
	var os []uint64
	r.objectsOf(10, func(o uint64) bool { os = append(os, o); return true })
	sort.Slice(os, func(i, j int) bool { return os[i] < os[j] })
	if !sameU64(os, []uint64{1, 2}) {
		t.Fatalf("objectsOf(10) = %v", os)
	}
	live := r.LiveItems()
	if len(live) != 5 {
		t.Fatalf("LiveItems = %d", len(live))
	}
	if r.SizeBits() <= 0 {
		t.Fatal("SizeBits not positive")
	}
}

// TestSemiRelBitmapBits checks that the deletion bitmaps D and D_a of a
// store cost a few bits per pair: D with its rank structure and the
// D_a together stay under 4.
func TestSemiRelBitmapBits(t *testing.T) {
	const n = 1 << 16
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Object: uint64(i) >> 4, Label: uint64(i) & 15}
	}
	r := buildSemi(pairs)
	r.Delete(Pair{Object: 7, Label: 3})
	bits := r.alive.SizeBits()
	for _, d := range r.perLabel {
		bits += d.SizeBits()
	}
	if perPair := float64(bits) / n; perPair > 4 {
		t.Fatalf("deletion bitmaps take %.1f bits per pair, want at most 4", perPair)
	}
}

func TestRelationGlobalRebuildShrink(t *testing.T) {
	r := New(Options{})
	for i := 0; i < 1000; i++ {
		r.Add(uint64(i), uint64(i%13))
	}
	for i := 0; i < 1000; i++ {
		r.Delete(uint64(i), uint64(i%13))
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after full drain", r.Len())
	}
	if r.Stats().GlobalRebuilds == 0 {
		t.Fatal("expected global rebuilds during drain")
	}
	// Usable after drain.
	r.Add(5, 5)
	if !r.Related(5, 5) {
		t.Fatal("relation unusable after drain")
	}
}

func TestRelationTauBoundsDeadFraction(t *testing.T) {
	const tau = 4
	r := New(Options{Tau: tau})
	for i := 0; i < 2000; i++ {
		r.Add(uint64(i), uint64(i%31))
	}
	rng := rand.New(rand.NewSource(9))
	for _, i := range rng.Perm(2000)[:1500] {
		r.Delete(uint64(i), uint64(i%31))
		st := r.Stats()
		for j := 1; j < len(st.LevelSizes); j++ {
			total := st.LevelSizes[j] + st.LevelDead[j]
			if total > 0 && st.LevelDead[j]*tau > total {
				t.Fatalf("level %d dead fraction %d/%d exceeds 1/%d",
					j, st.LevelDead[j], total, tau)
			}
		}
	}
	if r.Stats().Purges == 0 {
		t.Fatal("expected purges")
	}
}
