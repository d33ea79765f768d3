package engine

import (
	"sync"
	"testing"
)

// TestRebalanceBuildsEachStoreOnce holds a top's purge build and then
// shrinks the ladder until it rebalances. The rebalance must leave the
// top with its purge: an item handed to Config.Build by both builds
// would be built twice, and the later build would install it as dead
// weight.
func TestRebalanceBuildsEachStoreOnce(t *testing.T) {
	var mu sync.Mutex
	built := map[int]int{}
	holding := false
	gate := make(chan struct{})
	w := NewWorstCase(Config[int, int]{
		Key:         func(k int) int { return k },
		Weight:      func(int) int { return 1 },
		NewC0:       func() Mutable[int, int] { return newToyStore(nil) },
		MinCapacity: 16,
		Build: BuildItems(func(items []int) Store[int, int] {
			mu.Lock()
			hold := holding
			if hold {
				for _, k := range items {
					built[k]++
				}
			}
			mu.Unlock()
			if hold {
				<-gate
			}
			return newToyStore(items)
		}),
	})
	const n = 20000
	batch := make([]int, n)
	for k := range batch {
		batch[k] = k
	}
	if err := w.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	w.WaitIdle()
	nf := w.Stats().NF
	mu.Lock()
	holding = true
	mu.Unlock()
	k := 0
	for ; w.Stats().TopPurges == 0; k++ {
		w.DeleteBatch([]int{k})
	}
	if w.Stats().PendingBuilds == 0 {
		t.Fatal("the top purge is not in flight")
	}
	for ; w.Len() > nf/2; k++ {
		w.DeleteBatch([]int{k})
	}
	close(gate)
	w.WaitIdle()
	if got := w.Stats().Rebalances; got != 1 {
		t.Fatalf("%d rebalances, want 1", got)
	}
	twice := 0
	for _, c := range built {
		if c > 1 {
			twice++
		}
	}
	if twice > 0 {
		t.Errorf("%d items went to Build twice while builds were in flight", twice)
	}
	if got, want := w.Len(), n-k; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}
