package engine

import "testing"

// TestBulkIngestGroupsTops pins how many tops a bulk ingest leaves. It
// ingests n weight units in over-C0 batches of one fixed weight at
// automatic τ, with builds inline, and requires that
//
//   - every top built during the ingest weighs between the G in force
//     when it closed, max(192 KiB, nf/(4τ)), and G plus one batch;
//   - the tops count equals the sequence that rule predicts;
//   - while n/(4τ) stays at or under 192 KiB, the count equals the
//     grouping of a fixed G = 192 KiB.
//
// Below n ≈ 768 KiB·τ the two rules agree; above it the fixed G leaves
// n/192 KiB tops, the rule at most 4τ·ln 2 ≈ 2.8τ per doubling of n.
func TestBulkIngestGroupsTops(t *testing.T) {
	const itemWeight = 4096
	want := map[int]int{20: 6, 21: 11, 22: 21, 23: 34, 24: 47, 25: 56, 26: 68}
	for e := 20; e <= 26; e++ {
		n := 1 << e
		// A batch must outweigh C0, whose capacity grows as 2n/log²n.
		batchWeight := max(64<<10, n/256)
		s := &scheduler{free: true}
		w := NewWorstCase(Config[int, int]{
			Key:    func(it int) int { return it },
			Weight: schedWeight,
			NewC0:  func() Mutable[int, int] { return s.newStore(nil) },
			Build:  BuildItems(s.build),
			Inline: true,
		})
		next, fixed, fixedOpen := 0, 0, 0
		for ingested := 0; ingested < n; ingested += batchWeight {
			batch := make([]int, batchWeight/itemWeight)
			for i := range batch {
				next++
				batch[i] = next<<16 | itemWeight
			}
			before := w.Stats().Tops
			if err := w.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			g := max(192<<10, st.NF/(4*st.Tau))
			for _, sz := range st.TopSizes[before:] {
				if sz < g || sz >= g+batchWeight {
					t.Errorf("n=2^%d: a top built at nf=%d, τ=%d weighs %d, want [%d, %d)", e, st.NF, st.Tau, sz, g, g+batchWeight)
				}
			}
			if fixedOpen += batchWeight; fixedOpen >= 192<<10 {
				fixed, fixedOpen = fixed+1, 0
			}
		}
		if fixedOpen > 0 {
			fixed++
		}
		w.WaitIdle()
		st := w.Stats()
		if st.Rebalances != 0 || st.Parked != 0 || st.Tau != autoTau(n) {
			t.Fatalf("n=2^%d: %d rebalances, %d parked, τ=%d; want 0, 0 and τ=%d", e, st.Rebalances, st.Parked, st.Tau, autoTau(n))
		}
		if st.Tops != want[e] {
			t.Errorf("n=2^%d: %d tops, want %d (a fixed G of 192 KiB leaves %d)", e, st.Tops, want[e], fixed)
		}
		if n/(4*autoTau(n)) <= 192<<10 && st.Tops != fixed {
			t.Errorf("n=2^%d is below the crossover, yet leaves %d tops where a fixed G of 192 KiB leaves %d", e, st.Tops, fixed)
		}
	}
}
