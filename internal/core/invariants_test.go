package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dyncoll/internal/doc"
	"dyncoll/internal/fmindex"
	"dyncoll/internal/oracle"
	"dyncoll/internal/sparsebits"
	"dyncoll/internal/textgen"
)

// TestT1LevelCapsRespected verifies the Transformation 1 size invariant
// |Ci| ≤ max_i after every operation.
func TestT1LevelCapsRespected(t *testing.T) {
	a := NewAmortized(Options{Builder: fmBuilder})
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 8, MinLen: 10, MaxLen: 300, Seed: 41,
	})
	rng := rand.New(rand.NewSource(4))
	var live []uint64
	for step := 0; step < 500; step++ {
		if len(live) == 0 || rng.Float64() < 0.7 {
			d := gen.NextDoc()
			a.Insert(d)
			live = append(live, d.ID)
		} else {
			i := rng.Intn(len(live))
			a.Delete(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		st := a.Stats()
		for j, sz := range st.LevelSizes {
			if sz > st.LevelCaps[j] {
				t.Fatalf("step %d: level %d holds %d > cap %d", step, j, sz, st.LevelCaps[j])
			}
		}
	}
}

// TestT1C0Bound verifies that the uncompressed sub-collection stays small:
// |C0| ≤ max_0 = max(2n/log²n, MinCapacity).
func TestT1C0Bound(t *testing.T) {
	a := NewAmortized(Options{Builder: fmBuilder})
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 8, MinLen: 30, MaxLen: 120, Seed: 43,
	})
	for i := 0; i < 400; i++ {
		a.Insert(gen.NextDoc())
		st := a.Stats()
		n := a.Len()
		lg := math.Log2(float64(n) + 2)
		bound := 2*float64(n)/(lg*lg) + 64 // max_0 formula + MinCapacity slack
		// The cap itself is the binding invariant; the formula check guards
		// against the schedule drifting away from the paper's shape. nf lags
		// n by up to 2× between global rebuilds, so allow that factor.
		if float64(st.LevelSizes[0]) > 2*bound+float64(st.LevelCaps[0]) {
			t.Fatalf("i=%d: C0 holds %d symbols, bound ≈ %.0f (cap %d)",
				i, st.LevelSizes[0], bound, st.LevelCaps[0])
		}
		if st.LevelSizes[0] > st.LevelCaps[0] {
			t.Fatalf("i=%d: C0 %d exceeds cap %d", i, st.LevelSizes[0], st.LevelCaps[0])
		}
	}
}

// TestT1DeadFractionBounded verifies the lazy-deletion purge rule: no
// compressed level retains more than a ~1/τ fraction of dead symbols
// after a deletion round.
func TestT1DeadFractionBounded(t *testing.T) {
	const tau = 4
	a := NewAmortized(Options{Builder: fmBuilder, Tau: tau})
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 8, MinLen: 40, MaxLen: 100, Seed: 47,
	})
	var ids []uint64
	for i := 0; i < 300; i++ {
		d := gen.NextDoc()
		a.Insert(d)
		ids = append(ids, d.ID)
	}
	rng := rand.New(rand.NewSource(9))
	for _, i := range rng.Perm(len(ids))[:200] {
		a.Delete(ids[i])
		st := a.Stats()
		for j := 1; j < len(st.LevelSizes); j++ {
			total := st.LevelSizes[j] + st.LevelDead[j]
			if total > 0 && st.LevelDead[j]*tau > total {
				t.Fatalf("level %d retains dead fraction %d/%d > 1/%d",
					j, st.LevelDead[j], total, tau)
			}
		}
	}
	if a.Stats().Purges == 0 {
		t.Fatal("expected deletion-triggered purges")
	}
}

// TestT2TopDeadFraction verifies the Dietz–Sleator sweep outcome: top
// collections never accumulate more than an O(1/τ)·(1+h_g) dead fraction.
func TestT2TopDeadFraction(t *testing.T) {
	const tau = 4
	w := NewWorstCase(Options{Builder: fmBuilder, Tau: tau, Inline: true})
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 8, MinLen: 40, MaxLen: 100, Seed: 53,
	})
	var ids []uint64
	for i := 0; i < 400; i++ {
		d := gen.NextDoc()
		w.Insert(d)
		ids = append(ids, d.ID)
	}
	rng := rand.New(rand.NewSource(10))
	// Delete 60% of documents in random order; check the per-top dead
	// bound after every operation.
	hg := 0.0
	for i := 1; i <= 2*tau; i++ {
		hg += 1.0 / float64(i)
	}
	for _, i := range rng.Perm(len(ids))[:240] {
		w.Delete(ids[i])
		st := w.Stats()
		for k, dead := range st.TopDead {
			total := st.TopSizes[k] + dead
			if total == 0 {
				continue
			}
			frac := float64(dead) / float64(total)
			// Lemma 1 bound with slack: the sweep interval is nf/(2τ log τ),
			// each xi ≤ 1 + h_{2τ}, so dead ≤ (1+h_{2τ})·nf/(2τ log τ).
			limit := (1 + hg) / float64(tau) * 4
			if frac > limit && total > 256 {
				t.Fatalf("top %d dead fraction %.3f exceeds %.3f (dead=%d total=%d)",
					k, frac, limit, dead, total)
			}
		}
	}
}

// TestT2ForegroundWorkBounded verifies the headline worst-case claim: no
// insert performs a rebuild in the foreground. Every build runs in the
// background — the facade's all-builds gate
// (TestSearchPartsDuringBackgroundBuilds) holds them all and checks that
// every update still returns — so a churn of inserts must launch
// background builds and leave nothing parked once they land.
func TestT2ForegroundWorkBounded(t *testing.T) {
	w := NewWorstCase(Options{Builder: fmBuilder})
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 8, MinLen: 30, MaxLen: 80, Seed: 59,
	})
	const ops = 500
	for i := 0; i < ops; i++ {
		w.Insert(gen.NextDoc())
	}
	w.WaitIdle()
	st := w.Stats()
	if st.BackgroundBuilds == 0 {
		t.Fatal("expected background builds")
	}
	if st.Parked != 0 {
		t.Fatalf("%d symbols still parked after WaitIdle", st.Parked)
	}
}

// TestT3MoreLevels verifies Transformation 3 uses a denser ladder
// (ratio 2) than Transformation 1 for the same content.
func TestT3MoreLevels(t *testing.T) {
	mk := func(ratio2 bool) int {
		a := NewAmortized(Options{Builder: fmBuilder, Ratio2: ratio2})
		gen := textgen.NewCollection(textgen.CollectionOptions{
			Sigma: 8, MinLen: 50, MaxLen: 100, Seed: 61,
		})
		for i := 0; i < 300; i++ {
			a.Insert(gen.NextDoc())
		}
		return a.Stats().Levels
	}
	t1 := mk(false)
	t3 := mk(true)
	if t3 <= t1 {
		t.Fatalf("Transformation 3 should have more levels: T1=%d T3=%d", t1, t3)
	}
}

// TestGlobalRebuildResetsSchedule checks that nf tracks n within a factor
// of 2 (Section A.3's invariant), which the reschedule machinery must
// maintain through growth and shrinkage.
func TestGlobalRebuildResetsSchedule(t *testing.T) {
	a := NewAmortized(Options{Builder: fmBuilder})
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 8, MinLen: 100, MaxLen: 100, Seed: 67,
	})
	const minCap = 64 // the default MinCapacity the schedule floors at
	var ids []uint64
	for i := 0; i < 300; i++ {
		d := gen.NextDoc()
		a.Insert(d)
		ids = append(ids, d.ID)
		if n, nf := a.Len(), a.Stats().NF; n > 2*minCap && (nf > 2*n || n > 2*nf) {
			t.Fatalf("insert %d: nf=%d drifted beyond factor 2 of n=%d", i, nf, n)
		}
	}
	for _, id := range ids {
		a.Delete(id)
		if n, nf := a.Len(), a.Stats().NF; n > 2*minCap && nf > 2*minCap && (nf > 2*n+minCap || n > 2*nf) {
			t.Fatalf("delete: nf=%d drifted beyond factor 2 of n=%d", nf, n)
		}
	}
	if a.Len() != 0 {
		t.Fatalf("collection should be empty, Len=%d", a.Len())
	}
}

// TestSemiDynamicDirect exercises the deletion-only wrapper in isolation
// (Section 2's first construction).
func TestSemiDynamicDirect(t *testing.T) {
	docs := []doc.Doc{
		{ID: 10, Data: []byte("mississippi")},
		{ID: 20, Data: []byte("swiss")},
		{ID: 30, Data: []byte("miss")},
	}
	// τ = 4 keeps the deletion bitmap in Lemma 2's dense form, τ = 64 in
	// Lemma 3's zero lists.
	for i, counting := range []bool{false, true, false, true} {
		tau := []int{4, 64}[i/2]
		s := NewSemiDynamic(fmBuilder(docs), tau, counting)
		if _, dense := s.alive.(*sparsebits.Dense); dense != (tau < 64) {
			t.Fatalf("τ=%d: deletion bitmap is a %T", tau, s.alive)
		}
		if s.DocCount() != 3 {
			t.Fatalf("DocCount = %d", s.DocCount())
		}
		if got := s.Count([]byte("ss")); got != 4 {
			t.Fatalf("count(ss) = %d, want 4", got)
		}
		if wt, ok := s.Delete(20); !ok || wt != len("swiss") {
			t.Fatalf("Delete(20) = %d,%v", wt, ok)
		}
		if _, ok := s.Delete(20); ok {
			t.Fatal("double delete succeeded")
		}
		if got := s.Count([]byte("ss")); got != 3 {
			t.Fatalf("count(ss) after delete = %d, want 3", got)
		}
		var occs []Occurrence
		s.FindFunc([]byte("miss"), func(o Occurrence) bool {
			occs = append(occs, o)
			return true
		})
		if len(occs) != 2 {
			t.Fatalf("findFunc(miss) = %v", occs)
		}
		live := s.LiveItems()
		if len(live) != 2 {
			t.Fatalf("LiveItems = %d docs", len(live))
		}
		for _, d := range live {
			if d.ID == 20 {
				t.Fatal("deleted doc still listed live")
			}
		}
		if s.LiveWeight() != len("mississippi")+len("miss") {
			t.Fatalf("LiveWeight = %d", s.LiveWeight())
		}
		if s.DeadWeight() != len("swiss") {
			t.Fatalf("DeadWeight = %d", s.DeadWeight())
		}
	}
}

// BenchmarkSemiDynamicDelete deletes every document of a 1 MiB store at
// the engine's τ = 6 with the deletion bitmap in each of its two forms:
// dense is what sparsebits.New picks there, compressed what it picked
// before the choice existed. One op is one document; building the bitmap
// is in the figure, building the index is not.
func BenchmarkSemiDynamicDelete(b *testing.B) {
	docs := textgen.NewCollection(textgen.CollectionOptions{Seed: 6}).GenerateTotal(1 << 20)
	idx := fmBuilder(docs)
	forms := []struct {
		name      string
		idx       StaticIndex
		newBitmap func(n int) sparsebits.Bitmap
	}{
		{"dense", idx, func(n int) sparsebits.Bitmap { return sparsebits.New(n, 6) }},
		{"compressed", idx, func(n int) sparsebits.Bitmap { return sparsebits.NewCompressed(n, 6) }},
		// The walk an index without ForDocRows gets: one SuffixRank per
		// offset.
		{"dense/per-offset", hideRowWalker{idx}, func(n int) sparsebits.Bitmap { return sparsebits.New(n, 6) }},
	}
	for _, f := range forms {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			var s *SemiDynamic
			symbols := 0
			for i := 0; i < b.N; i++ {
				if i%len(docs) == 0 {
					s = NewSemiDynamicDeferred(f.idx, 6, false)
					s.alive = f.newBitmap(idx.SALen())
				}
				n, ok := s.Delete(docs[i%len(docs)].ID)
				if !ok {
					b.Fatal("delete failed")
				}
				symbols += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(symbols), "ns/symbol")
		})
	}
}

// hideRowWalker is an index without the bulk delete walk, so a
// SemiDynamic over it clears a document's rows one SuffixRank at a time.
type hideRowWalker struct{ StaticIndex }

// TestDeleteWalkClearsSameRows deletes every document, in a shuffled
// order, from stores over the same FM-index with and without its bulk
// ForDocRows walk, and asserts after each delete that both deletion
// bitmaps hold exactly the same live rows and that the count fell by
// the document's length plus its separator.
func TestDeleteWalkClearsSameRows(t *testing.T) {
	docs := textgen.NewCollection(textgen.CollectionOptions{Sigma: 4, MinLen: 1, MaxLen: 90, Seed: 26}).GenerateTotal(4000)
	docs = append(docs, doc.Doc{ID: 1 << 40}, doc.Doc{ID: 1<<40 + 1, Data: []byte{3}})
	for _, s := range []int{1, 4, 16} {
		idx := fmindex.Build(docs, fmindex.Options{SampleRate: s})
		lanes := NewSemiDynamic(idx, 4, false)
		perOffset := NewSemiDynamic(hideRowWalker{idx}, 4, false)
		live := idx.SALen()
		for _, k := range rand.New(rand.NewSource(int64(s))).Perm(len(docs)) {
			id := docs[k].ID
			n, _ := lanes.Delete(id)
			perOffset.Delete(id)
			live -= n + 1
			if got := lanes.alive.Count1(0, idx.SALen()-1); got != live {
				t.Fatalf("s=%d: after deleting %d, %d rows live, want %d", s, id, got, live)
			}
			var a, b []int
			lanes.alive.Report(0, idx.SALen()-1, func(r int) bool { a = append(a, r); return true })
			perOffset.alive.Report(0, idx.SALen()-1, func(r int) bool { b = append(b, r); return true })
			if !slices.Equal(a, b) {
				t.Fatalf("s=%d: after deleting %d the two walks left different rows live", s, id)
			}
		}
	}
}

// TestSemiDynamicEmptyPattern checks the all-positions semantics.
func TestSemiDynamicEmptyPattern(t *testing.T) {
	s := NewSemiDynamic(fmBuilder([]doc.Doc{{ID: 1, Data: []byte("abc")}}), 4, false)
	if got := s.Count(nil); got != 3 {
		t.Fatalf("count(nil) = %d, want 3", got)
	}
	n := 0
	s.FindFunc(nil, func(Occurrence) bool { n++; return true })
	if n != 3 {
		t.Fatalf("findFunc(nil) visited %d", n)
	}
}

// TestQuickInsertDeleteFind is a property test: for random payloads over
// a tiny alphabet, Find agrees with the model after a canned op pattern.
func TestQuickInsertDeleteFind(t *testing.T) {
	f := func(payloads [][]byte, pattern []byte, delMask uint16) bool {
		// Sanitize: non-zero bytes, bounded sizes.
		if len(payloads) > 12 {
			payloads = payloads[:12]
		}
		clean := func(b []byte) []byte {
			if len(b) > 64 {
				b = b[:64]
			}
			out := make([]byte, len(b))
			for i, x := range b {
				out[i] = x%4 + 1
			}
			return out
		}
		a := NewAmortized(Options{Builder: fmBuilder, MinCapacity: 16})
		m := new(oracle.Model)
		for i, p := range payloads {
			d := doc.Doc{ID: uint64(i + 1), Data: clean(p)}
			a.Insert(d)
			m.Insert(d)
		}
		for i := range payloads {
			if delMask&(1<<i) != 0 {
				a.Delete(uint64(i + 1))
				m.Delete(uint64(i + 1))
			}
		}
		p := clean(pattern)
		if len(p) == 0 {
			p = []byte{1}
		}
		return oracle.CheckDocs[Occurrence](m, a, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWorstCase mirrors the property test for Transformation 2.
func TestQuickWorstCase(t *testing.T) {
	f := func(payloads [][]byte, pattern []byte, delMask uint16) bool {
		if len(payloads) > 10 {
			payloads = payloads[:10]
		}
		clean := func(b []byte) []byte {
			if len(b) > 48 {
				b = b[:48]
			}
			out := make([]byte, len(b))
			for i, x := range b {
				out[i] = x%3 + 1
			}
			return out
		}
		w := NewWorstCase(Options{Builder: fmBuilder, MinCapacity: 16, Inline: true})
		m := new(oracle.Model)
		for i, p := range payloads {
			d := doc.Doc{ID: uint64(i + 1), Data: clean(p)}
			w.Insert(d)
			m.Insert(d)
		}
		for i := range payloads {
			if delMask&(1<<i) != 0 {
				w.Delete(uint64(i + 1))
				m.Delete(uint64(i + 1))
			}
		}
		p := clean(pattern)
		if len(p) == 0 {
			p = []byte{1}
		}
		return oracle.CheckDocs[Occurrence](m, w, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCountingMatchesEnumeration cross-checks the Theorem 1 counting path
// against plain enumeration on the same collection.
func TestCountingMatchesEnumeration(t *testing.T) {
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 6, MinLen: 50, MaxLen: 200, Seed: 71,
	})
	docs := gen.GenerateTotal(20_000)
	withCnt := NewAmortized(Options{Builder: fmBuilder, Counting: true})
	without := NewAmortized(Options{Builder: fmBuilder})
	for _, d := range docs {
		withCnt.Insert(d)
		without.Insert(d)
	}
	// Delete a third so dead-row filtering matters.
	for i, d := range docs {
		if i%3 == 0 {
			withCnt.Delete(d.ID)
			without.Delete(d.ID)
		}
	}
	ps := textgen.NewPatternSampler(docs, 23)
	for _, l := range []int{1, 2, 4, 8} {
		for i := 0; i < 5; i++ {
			p := ps.Planted(l)
			if a, b := withCnt.Count(p), without.Count(p); a != b {
				t.Fatalf("len %d: counting %d != enumeration %d", l, a, b)
			}
		}
	}
}
