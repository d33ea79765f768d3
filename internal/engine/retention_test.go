package engine

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// toyStore is a minimal payload for engine-level tests: items are int
// keys of weight 1, and one type serves as C0 and as built store.
type toyStore struct {
	live    map[int]bool
	dead    int
	tracked bool // built or parked, carrying a finalizer
}

func newToyStore(items []int) *toyStore {
	s := &toyStore{live: make(map[int]bool, len(items))}
	for _, k := range items {
		s.live[k] = true
	}
	return s
}

func (s *toyStore) Insert(k int) { s.live[k] = true }

func (s *toyStore) Delete(k int) (int, bool) {
	if !s.live[k] {
		return 0, false
	}
	delete(s.live, k)
	s.dead++
	return 1, true
}

func (s *toyStore) LiveKeys() []int {
	keys := make([]int, 0, len(s.live))
	for k := range s.live {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (s *toyStore) LiveItems() []int { return s.LiveKeys() }
func (s *toyStore) LiveWeight() int  { return len(s.live) }
func (s *toyStore) DeadWeight() int  { return s.dead }
func (s *toyStore) SizeBits() int64  { return 64 * int64(len(s.live)) }

// TestRetiredStoresUnreachable churns a background worst-case ladder
// through merges, purges, parked batches and rebalances, then checks
// that every built store and every C0 — parked stores included, which
// default to a fresh C0 — that the ladder has retired can be
// collected: a retired store kept alive in the spare capacity of a slot
// list, the in-flight build list, the query cache or any side table
// would pin its whole index or arena. A second phase holds every build
// so that updates park temps, deletes their items and rebalances: a
// rebalance drops an emptied temp without building it.
func TestRetiredStoresUnreachable(t *testing.T) {
	var made, collected atomic.Int64
	var hold atomic.Bool
	gate := make(chan struct{})
	track := func(items []int) *toyStore {
		s := newToyStore(items)
		s.tracked = true
		made.Add(1)
		runtime.SetFinalizer(s, func(*toyStore) { collected.Add(1) })
		return s
	}
	w := NewWorstCase(Config[int, int]{
		Key:         func(k int) int { return k },
		Weight:      func(int) int { return 1 },
		NewC0:       func() Mutable[int, int] { return track(nil) },
		MinCapacity: 16,
		Build: BuildItems(func(items []int) Store[int, int] {
			if hold.Load() {
				<-gate
			}
			return track(items)
		}),
	})
	const n = 20000
	for k := 0; k < n; {
		if k%2500 == 0 {
			batch := make([]int, 0, 400)
			for range 400 {
				batch = append(batch, k)
				k++
			}
			if err := w.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := w.InsertBatch([]int{k}); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for k := 0; k < n-2000; k++ {
		if w.DeleteBatch([]int{k}) != 1 {
			t.Fatalf("Delete(%d) of a live key failed", k)
		}
	}
	w.WaitIdle()
	// Held builds: single inserts overflow C0 and park at busy slots.
	// An update that built in the foreground would wait on the gate, so
	// the phase runs under a deadline.
	hold.Store(true)
	rebalances := w.Stats().Rebalances
	parked := make(chan error, 1)
	go func() {
		parks := w.Stats().TempParks
		var held []int
		for k := n; w.Stats().TempParks < parks+20; k++ {
			if k == 2*n {
				parked <- errors.New("no insert parked a temp while every build was held")
				return
			}
			if err := w.InsertBatch([]int{k}); err != nil {
				parked <- err
				return
			}
			held = append(held, k)
		}
		for _, k := range held {
			w.DeleteBatch([]int{k})
		}
		for k := n - 2000; k < n-100; k++ {
			w.DeleteBatch([]int{k})
		}
		parked <- nil
	}()
	select {
	case err := <-parked:
		close(gate)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(gate)
		t.Fatal("an update waited 30 s for a held build")
	}
	w.WaitIdle()
	if w.Stats().Rebalances == rebalances {
		t.Fatal("the held phase never rebalanced: the scenario tests too little")
	}
	live := 0
	w.View(func(stores []Store[int, int]) {
		for _, s := range stores {
			if s.(*toyStore).tracked {
				live++
			}
		}
	})
	if w.Stats().Rebalances == 0 {
		t.Fatal("the churn never rebalanced: the scenario tests too little")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		reachable := made.Load() - collected.Load()
		if reachable == int64(live) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d built or parked stores still reachable, %d live in the ladder", reachable, made.Load(), live)
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(w)
}
