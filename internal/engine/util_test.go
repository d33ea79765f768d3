package engine

import (
	"math"
	"testing"
)

// TestAutoTauMonotone sanity-checks the automatic τ schedule shared by
// every payload.
func TestAutoTauMonotone(t *testing.T) {
	prev := 0
	for _, n := range []int{0, 10, 15, 16, 100, 1 << 10, 1 << 16, 1 << 24, 1 << 30, math.MaxInt} {
		tau := autoTau(n)
		if tau < 2 || tau > 12 {
			t.Fatalf("autoTau(%d) = %d outside [2, 12]", n, tau)
		}
		if tau < prev {
			t.Fatalf("autoTau not monotone at n=%d: %d < %d", n, tau, prev)
		}
		prev = tau
	}
}

// TestSplitItems checks chunking respects the weight bound and keeps
// every item exactly once.
func TestSplitItems(t *testing.T) {
	items := []int{3, 1, 4, 1, 5, 9, 2, 6}
	chunks := splitItems(items, func(x int) int { return x }, 7)
	total := 0
	for _, c := range chunks {
		w := 0
		for _, x := range c {
			w += x
			total++
		}
		if w > 7 && len(c) > 1 {
			t.Fatalf("chunk %v exceeds weight bound", c)
		}
	}
	if total != len(items) {
		t.Fatalf("split lost items: %d of %d", total, len(items))
	}
	if got := splitItems([]int{42}, func(x int) int { return x }, 7); len(got) != 1 {
		t.Fatalf("oversized single item should get its own chunk, got %v", got)
	}
}

// TestRestoreHugeTau restores a dump whose τ is 2⁶², as a corrupt or
// hand-written file may carry, into both ladders and deletes from it.
// Every threshold that multiplied by τ overflowed there: the worst-case
// sweep interval wrapped to zero and was divided by, and an amortized
// level four units dead read as under its 1/τ bound. At this τ any dead
// weight is over that bound, so each amortized purge leaves none.
func TestRestoreHugeTau(t *testing.T) {
	const tau, n = 1 << 62, 1000
	cfg := Config[int, int]{
		Key:         func(k int) int { return k },
		Weight:      func(int) int { return 1 },
		NewC0:       func() Mutable[int, int] { return newToyStore(nil) },
		Build:       BuildItems(func(items []int) Store[int, int] { return newToyStore(items) }),
		MinCapacity: 16,
		Inline:      true,
	}
	for name, l := range map[string]Ladder[int, int]{"worstcase": NewWorstCase(cfg), "amortized": NewAmortized(cfg)} {
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		d := Dump[int, int]{NF: n, Tau: tau, Stores: []StoreDump[int, int]{{Level: TopLevel, Store: newToyStore(items)}}}
		if err := l.Restore(d); err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		if l.Tau() != tau {
			t.Fatalf("%s: τ = %d after Restore, want %d", name, l.Tau(), tau)
		}
		for k := 0; k < n/2; k += 4 {
			if got := l.DeleteBatch([]int{k, k + 1, k + 2, k + 3}); got != 4 {
				t.Fatalf("%s: DeleteBatch from %d removed %d keys, want 4", name, k, got)
			}
			if name != "amortized" {
				continue
			}
			for j, dead := range l.Stats().LevelDead {
				if dead != 0 {
					t.Fatalf("amortized: level %d holds %d dead after deleting from %d", j, dead, k)
				}
			}
		}
		l.WaitIdle()
		if l.Count() != n/2 || l.Has(0) || !l.Has(n-1) {
			t.Fatalf("%s: %d keys live after deleting half of %d", name, l.Count(), n)
		}
	}
}
