package engine

import (
	"slices"
	"testing"
)

// TestRacedDeleteDuringBuild holds three builds — a level merge, a
// sweep purge of a top and a rebalance — and deletes from their sources
// while they run: single deletes from each, one DeleteBatch spanning two
// of them, and a delete-then-reinsert whose key then moves into a
// fourth build. A build's result holds every item its sources held at
// launch; once everything lands, the ladder must agree with a map
// model, every live key must be owned by exactly one queryable store
// that lists it, and no store may hold a deleted key live.
func TestRacedDeleteDuringBuild(t *testing.T) {
	s := &scheduler{free: true}
	w := NewWorstCase(Config[int, int]{
		Key:         func(it int) int { return it },
		Weight:      schedWeight,
		NewC0:       func() Mutable[int, int] { return s.newStore(nil) },
		Build:       BuildItems(s.build),
		MinCapacity: 16,
	})
	item := func(k int) int { return k<<16 | 1 }
	model := map[int]bool{}
	insert := func(its ...int) {
		t.Helper()
		if err := w.InsertBatch(its); err != nil {
			t.Fatal(err)
		}
		for _, it := range its {
			model[it] = true
		}
		s.settle(w)
	}
	del := func(its ...int) {
		t.Helper()
		if got := w.DeleteBatch(its); got != len(its) {
			t.Fatalf("DeleteBatch of %d live items removed %d", len(its), got)
		}
		for _, it := range its {
			delete(model, it)
		}
		s.settle(w)
	}
	building := func(match func(b *buildTask[int, int]) bool) *buildTask[int, int] {
		w.mu.Lock()
		defer w.mu.Unlock()
		for _, b := range w.builds {
			if match(b) {
				return b
			}
		}
		return nil
	}
	// ownedBy lists up to k live keys whose owner feeds build b.
	ownedBy := func(b *buildTask[int, int], k int) []int {
		w.mu.Lock()
		defer w.mu.Unlock()
		var out []int
		for _, src := range b.sources {
			for _, key := range src.LiveKeys() {
				if len(out) < k && w.owner[key] == src {
					out = append(out, key)
				}
			}
		}
		if len(out) < k {
			t.Fatalf("build has %d live keys, want %d", len(out), k)
		}
		return out
	}

	// Four batches leave four tops: A, B and C of 5,000 items of weight
	// 1 (keys 0 to 14,999) and D of ten items of weight 1,000, so nf is
	// 25,000.
	const n = 15000
	heavy := make([]int, 10)
	for i := range heavy {
		heavy[i] = (n+i)<<16 | 1000
	}
	for b := range 3 {
		var keys []int
		for k := b * n / 3; k < (b+1)*n/3; k++ {
			keys = append(keys, item(k))
		}
		insert(keys...)
		w.WaitIdle()
	}
	insert(heavy...)
	w.WaitIdle()
	s.mu.Lock()
	s.free = false
	s.mu.Unlock()

	isMerge := func(b *buildTask[int, int]) bool { return b.kind == buildLevel }
	next := n + len(heavy)
	for building(isMerge) == nil {
		insert(item(next))
		if next++; next > 2*n {
			t.Fatal("no single insert launched a level merge")
		}
	}
	merge := building(isMerge)
	mergeHeld := s.held()
	// Deleting from A makes the sweep purge it. Deleting D and more of A
	// then shrinks the ladder to nf/2, which rebalances B and C: the
	// only stores with live items that feed no build.
	victim := 0
	isPurge := func(b *buildTask[int, int]) bool { return b.purge }
	for building(isPurge) == nil {
		del(item(victim))
		victim++
	}
	purge := building(isPurge)
	del(heavy...)
	isRebalance := func(b *buildTask[int, int]) bool { return b.kind == buildRebalance }
	for building(isRebalance) == nil {
		if victim == n/3 {
			t.Fatal("emptying A launched no rebalance")
		}
		del(item(victim))
		victim++
	}
	reb := building(isRebalance)

	// Every build is held. Delete from each one's sources.
	for _, b := range []*buildTask[int, int]{merge, purge, reb} {
		for _, key := range ownedBy(b, 3) {
			del(key)
		}
	}
	del(ownedBy(merge, 1)[0], ownedBy(reb, 1)[0])
	moved := ownedBy(reb, 1)[0]
	del(moved)
	insert(moved)

	// Land the level merge alone, then fill C0 until it merges up: the
	// reinserted key now feeds a second build while the rebalance that
	// held its first copy is still running.
	for _, h := range mergeHeld {
		s.release(w, h)
	}
	feeds := func(key int) *buildTask[int, int] {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.feeding[w.owner[key]]
	}
	for feeds(moved) == nil {
		insert(item(next))
		if next++; next > 3*n {
			t.Fatal("the reinserted key never fed a second build")
		}
	}
	if feeds(moved) == reb {
		t.Fatal("the reinserted key feeds the rebalance it was deleted from")
	}

	for _, h := range s.held() {
		s.release(w, h)
	}
	s.setInline(w, true)
	w.WaitIdle()

	if got := w.Count(); got != len(model) {
		t.Errorf("Count = %d, want %d", got, len(model))
	}
	if got := w.Len(); got != len(model) {
		t.Errorf("Len = %d, want %d", got, len(model))
	}
	got := w.Keys()
	slices.Sort(got)
	var want []int
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("Keys has %d keys, model %d", len(got), len(want))
	}
	for k := range next {
		if has := w.Has(item(k)); has != model[item(k)] {
			t.Errorf("Has(%d) = %v, model %v", k, has, !has)
		}
	}
	holders := map[int][]Store[int, int]{}
	w.View(func(stores []Store[int, int]) {
		for _, st := range stores {
			for _, key := range st.LiveKeys() {
				holders[key] = append(holders[key], st)
			}
		}
	})
	for key, sts := range holders {
		if !model[key] {
			t.Errorf("deleted key %d is live in %d stores", key>>16, len(sts))
		}
	}
	for key := range model {
		sts := holders[key]
		if len(sts) != 1 {
			t.Errorf("live key %d is live in %d stores", key>>16, len(sts))
			continue
		}
		var owner Store[int, int]
		w.ViewOwner(key, func(st Store[int, int]) { owner = st })
		if owner != sts[0] {
			t.Errorf("live key %d is owned by a store that does not list it", key>>16)
		}
	}
}
