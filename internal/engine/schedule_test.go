package engine

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// schedStore is the schedule test's payload. An item is an int whose
// low 16 bits are its weight; the key is the item itself. Each store
// carries its creation number, so a trace can name the queryable
// stores.
type schedStore struct {
	id           int
	live         map[int]bool
	liveW, deadW int
}

func schedWeight(it int) int { return it & 0xffff }

func (s *schedStore) Insert(it int) {
	s.live[it] = true
	s.liveW += schedWeight(it)
}

func (s *schedStore) Delete(it int) (int, bool) {
	if !s.live[it] {
		return 0, false
	}
	delete(s.live, it)
	s.liveW -= schedWeight(it)
	s.deadW += schedWeight(it)
	return schedWeight(it), true
}

func (s *schedStore) LiveKeys() []int {
	keys := make([]int, 0, len(s.live))
	for k := range s.live {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (s *schedStore) LiveItems() []int { return s.LiveKeys() }
func (s *schedStore) LiveWeight() int  { return s.liveW }
func (s *schedStore) DeadWeight() int  { return s.deadW }
func (s *schedStore) SizeBits() int64  { return 64 * int64(len(s.live)) }

// scheduler numbers the stores it makes and holds every background
// Build call until the test releases it. Released builds run one at a
// time, so creation numbers follow the release order alone.
type scheduler struct {
	mu      sync.Mutex
	made    int
	free    bool // Build runs through: the amortized ladders, an inline step
	pending []*heldBuild
}

// heldBuild is one Build call waiting for its release. Its smallest
// item names it: an item feeds one build at a time.
type heldBuild struct {
	first   int
	release chan struct{}
}

func (s *scheduler) newStore(items []int) *schedStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newStoreLocked(items)
}

func (s *scheduler) newStoreLocked(items []int) *schedStore {
	s.made++
	st := &schedStore{id: s.made, live: make(map[int]bool, len(items))}
	for _, it := range items {
		st.Insert(it)
	}
	return st
}

func (s *scheduler) build(items []int) Store[int, int] {
	s.mu.Lock()
	if !s.free {
		h := &heldBuild{first: slices.Min(items), release: make(chan struct{})}
		s.pending = append(s.pending, h)
		s.mu.Unlock()
		<-h.release
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	return s.newStoreLocked(items)
}

// settle waits until every in-flight build either has its result in
// its done channel or is held in Build. Nothing then runs until the
// test releases a build.
func (s *scheduler) settle(w *WorstCase[int, int]) {
	for {
		w.mu.Lock()
		running := 0
		for _, b := range w.builds {
			if len(b.done) == 0 {
				running++
			}
		}
		w.mu.Unlock()
		s.mu.Lock()
		held := len(s.pending)
		s.mu.Unlock()
		if held == running {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// held lists the held Build calls by their smallest item.
func (s *scheduler) held() []*heldBuild {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Clone(s.pending)
	slices.SortFunc(out, func(a, b *heldBuild) int { return a.first - b.first })
	return out
}

// release lets a held build run to its end: a build split into several
// stores calls Build once per store, and each later call is released as
// it arrives. On return the build's result is in its done channel.
func (s *scheduler) release(w *WorstCase[int, int], h *heldBuild) {
	for h != nil {
		s.mu.Lock()
		s.pending = slices.DeleteFunc(s.pending, func(p *heldBuild) bool { return p == h })
		before := len(s.pending)
		s.mu.Unlock()
		close(h.release)
		s.settle(w)
		s.mu.Lock()
		h = nil
		if len(s.pending) > before {
			h = s.pending[len(s.pending)-1]
		}
		s.mu.Unlock()
	}
}

// setInline switches the ladder between held background builds and
// synchronous ones.
func (s *scheduler) setInline(w *WorstCase[int, int], on bool) {
	w.mu.Lock()
	w.cfg.Inline = on
	w.mu.Unlock()
	s.mu.Lock()
	s.free = on
	s.mu.Unlock()
}

// rebalances reports whether a ladder of live weight n, anchored at nf,
// starts a global rebuild (WorstCase.checkRebalance).
func rebalances(n, nf, minCap int) bool {
	return n >= minCap && (n >= 2*nf || (nf > 2*minCap && n <= nf/2))
}

// scheduleWindow is the number of operations one golden digest covers.
const scheduleWindow = 100

// runSchedule drives one seeded stream through a ladder and returns a
// digest per scheduleWindow operations. After every operation the trace
// records the full Stats and the creation numbers of the queryable
// stores.
//
// The stream grows the ladder, shrinks it, and grows it again, so the
// capacity schedule is re-derived in both directions. It mixes single
// inserts, batches, items heavy enough to become their own top, and
// deletes of random and of the oldest items. With batchDeletes a
// quarter of the deletes become one DeleteBatch of 2 to 25 such items;
// without it the stream draws nothing for them, so the older runs keep
// their trace.
//
// A worst-case ladder's builds are held: after each operation each held
// build is released with probability 0.25, and all of them once more
// than five builds are in flight. An operation that crosses a
// rebalance threshold first lands every build and then runs inline, so
// no build is in flight while a rebalance chooses its sources.
func runSchedule(t *testing.T, ladder string, batchDeletes bool, seed int64, ops int) []string {
	const minCap = 16
	s := &scheduler{free: ladder != "worstcase"}
	cfg := Config[int, int]{
		Key:         func(it int) int { return it },
		Weight:      schedWeight,
		NewC0:       func() Mutable[int, int] { return s.newStore(nil) },
		Build:       BuildItems(s.build),
		MinCapacity: minCap,
		Ratio2:      ladder == "ratio2",
	}
	var l Ladder[int, int]
	var w *WorstCase[int, int]
	if ladder == "worstcase" {
		w = NewWorstCase(cfg)
		l = w
	} else {
		l = NewAmortized(cfg)
	}
	rng := rand.New(rand.NewSource(seed))
	var live []int
	next := 0
	item := func(weight int) int {
		next++
		return next<<16 | weight
	}
	var digests []string
	h := sha256.New()
	maxPending, multiBuild := 0, 0
	for i := 0; i < ops; i++ {
		pInsert := 0.75
		if i >= ops*2/5 && i < ops*4/5 {
			pInsert = 0.05
		}
		st := l.Stats()
		var desc string
		var apply func()
		delta := 0
		switch r := rng.Float64(); {
		case r < pInsert || len(live) == 0:
			var batch []int
			switch u := rng.Float64(); {
			case u < 0.965:
				batch = []int{item(1 + rng.Intn(16))}
			case u < 0.995:
				for range 10 + rng.Intn(20) {
					batch = append(batch, item(1+rng.Intn(16)))
				}
			default:
				heavy := max(st.NF/st.Tau, minCap)
				batch = []int{item(min(heavy+rng.Intn(heavy/4+1), 0xffff))}
			}
			for _, it := range batch {
				delta += schedWeight(it)
			}
			live = append(live, batch...)
			if len(batch) == 1 {
				desc = fmt.Sprintf("insert %d", batch[0])
				apply = func() {
					if err := l.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				desc = fmt.Sprintf("batch %d..%d", batch[0], batch[len(batch)-1])
				apply = func() {
					if err := l.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
			}
		case batchDeletes && rng.Float64() < 0.25:
			var victims []int
			for range min(len(live), 2+rng.Intn(24)) {
				at := 0
				if rng.Intn(2) == 0 {
					at = rng.Intn(len(live))
				}
				victims = append(victims, live[at])
				live = slices.Delete(live, at, at+1)
				delta -= schedWeight(victims[len(victims)-1])
			}
			desc = fmt.Sprintf("delete batch %v", victims)
			apply = func() {
				if got := l.DeleteBatch(victims); got != len(victims) {
					t.Fatalf("delete batch of %d live items removed %d", len(victims), got)
				}
				if w != nil && l.Stats().BackgroundBuilds-st.BackgroundBuilds >= 2 {
					multiBuild++
				}
			}
		default:
			at := 0
			if rng.Intn(2) == 0 {
				at = rng.Intn(len(live))
			}
			victim := live[at]
			live = slices.Delete(live, at, at+1)
			delta = -schedWeight(victim)
			desc = fmt.Sprintf("delete %d", victim)
			apply = func() {
				if l.DeleteBatch([]int{victim}) != 1 {
					t.Fatalf("delete %d of a live item failed", victim)
				}
			}
		}
		if w != nil && rebalances(l.Len()+delta, st.NF, minCap) {
			for _, hb := range s.held() {
				s.release(w, hb)
			}
			s.setInline(w, true)
			w.WaitIdle()
			apply()
			s.setInline(w, false)
		} else {
			apply()
		}
		if w != nil {
			s.settle(w)
		}
		var ids []int
		l.View(func(stores []Store[int, int]) {
			for _, st := range stores {
				ids = append(ids, st.(*schedStore).id)
			}
		})
		slices.Sort(ids)
		st = l.Stats()
		maxPending = max(maxPending, st.PendingBuilds)
		fmt.Fprintf(h, "%d %s len=%d stores=%v %+v\n", i, desc, l.Len(), ids, st)
		if w != nil {
			all := st.PendingBuilds > 5
			for _, hb := range s.held() {
				if rng.Float64() < 0.25 || all {
					s.release(w, hb)
				}
			}
		}
		if (i+1)%scheduleWindow == 0 {
			digests = append(digests, fmt.Sprintf("%x", h.Sum(nil)[:8]))
			h.Reset()
		}
	}
	if w != nil {
		// Landing a build may launch another (a deferred merge, a fold),
		// so the last drain runs inline.
		for _, hb := range s.held() {
			s.release(w, hb)
		}
		s.setInline(w, true)
		w.WaitIdle()
		st := w.Stats()
		if batchDeletes && multiBuild == 0 {
			t.Errorf("%s seed %d: no batch delete launched two builds", ladder, seed)
		}
		if st.Rebalances < 2 || st.TopPurges == 0 || st.TempParks == 0 || maxPending < 3 {
			t.Errorf("%s seed %d tests too little: %d rebalances, %d top purges, %d temp parks, at most %d builds in flight",
				ladder, seed, st.Rebalances, st.TopPurges, st.TempParks, maxPending)
		}
	} else if st := l.Stats(); st.GlobalRebuilds < 2 || st.Purges == 0 {
		t.Errorf("%s seed %d tests too little: %d global rebuilds, %d purges", ladder, seed, st.GlobalRebuilds, st.Purges)
	}
	return digests
}

// TestWorstCaseSchedule pins what the ladders do, operation by
// operation, against testdata/schedule.golden: which stores answer
// queries and every Stats field. A refactor of the bookkeeping must
// leave the schedule as it is. The amortized ladders run too, as they
// share the capacity schedule.
//
// The worst-case trace depends on neither timing nor GOMAXPROCS: builds
// run only when released, one at a time, and GOMAXPROCS is fixed at 8,
// which bounds the parked tops in flight (launchParkedTop). Nor does it
// depend on map order: the runs with batch deletes, which come last in
// the file, pin that DeleteBatch handles the stores it hit in the order
// it first hit them.
//
// DYNCOLL_WRITE_SCHEDULE=1 rewrites the golden file.
func TestWorstCaseSchedule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const ops = 2000
	runs := []struct {
		ladder       string
		batchDeletes bool
		seeds        int64
	}{{"worstcase", false, 4}, {"amortized", false, 2}, {"ratio2", false, 2},
		{"worstcase", true, 4}, {"amortized", true, 2}}
	var got []string
	for _, r := range runs {
		name := r.ladder
		if r.batchDeletes {
			name += "/deletebatch"
		}
		for seed := int64(1); seed <= r.seeds; seed++ {
			for i, d := range runSchedule(t, r.ladder, r.batchDeletes, seed, ops) {
				got = append(got, fmt.Sprintf("%s seed %d ops %d-%d %s",
					name, seed, i*scheduleWindow, (i+1)*scheduleWindow-1, d))
			}
		}
	}
	const golden = "testdata/schedule.golden"
	if os.Getenv("DYNCOLL_WRITE_SCHEDULE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%d windows, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("window differs: got %q, golden %q", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d windows differ", bad, len(got))
	}
}
