package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// WorstCase is Transformation 2: a fully-dynamic structure whose update
// operations perform a bounded amount of foreground work per call.
//
// The machinery follows Section 3 of the paper:
//
//   - sub-collections C0 … Cr hold at most an O(1/τ) fraction of the
//     data; the bulk lives in top collections T1 … Tg (g = O(τ));
//   - merging Cj into Cj+1 locks Cj (it keeps answering queries as Lj)
//     and constructs the replacement Nj+1 in the background; small
//     per-item Temp payloads keep new arrivals queryable meanwhile;
//   - items too heavy for the ladder (≥ nf/τ) become their own top
//     collection immediately, and consecutive over-C0 batches gather in
//     one open top that builds once it weighs groupWeight() =
//     max(192 KiB, nf/(4τ)), so a bulk ingest leaves O(τ) tops per
//     doubling of n rather than n/192 KiB;
//   - deletions are lazy everywhere; a sweep process purges the top
//     collection holding the most dead weight after every
//     nf/(2τ·log τ) deleted units, which by Dietz–Sleator (Lemma 1)
//     bounds every top's dead fraction by O(1/τ);
//   - when n drifts a factor 2 from nf, a background rebalance rebuilds
//     the whole collection into fresh top collections (Section A.3).
//
// The paper charges background construction to subsequent updates via
// work credits, and its scheduling lemma proves a slot is never needed
// again before its in-flight rebuild completes. This implementation runs
// construction on separate goroutines instead; because real build speed
// is machine-dependent, the scheduling lemma is replaced by a
// non-blocking fallback — when a slot is still busy, the update parks the
// new item in a per-level temp payload (cost proportional to the item)
// or defers the merge until the build lands. Foreground work per update
// therefore stays proportional to the update itself, which is the
// guarantee Transformation 2 exists to provide. No update builds an
// index itself: whatever it cannot put into C0 it parks (Config.Park) —
// an unbuilt store that answers queries by scanning — and Config.Build
// runs only inside launch. Config.Inline forces synchronous completion
// for deterministic tests.
//
// Unlike Amortized, WorstCase serializes every operation on an internal
// mutex and is safe for concurrent use.
type WorstCase[K comparable, I any] struct {
	mu  sync.Mutex
	cfg Config[K, I]

	c0     Mutable[K, I]
	levels []Store[K, I]   // Cj, j ≥ 1; index 0 unused
	temps  [][]Store[K, I] // parked single-item payloads per level
	tops   []Store[K, I]   // T1…Tg
	maxes  []int

	// open holds the parked chunks of the open top: consecutive over-C0
	// batches that build as one top once they weigh groupWeight(), or
	// when anything else comes first (see closeOpen). Until then reads
	// scan it: up to nf/(4τ) plus one chunk during a bulk ingest.
	open       []Store[K, I]
	openWeight int

	pendingMerge []bool // deletion-triggered merges waiting for a free slot

	owner map[K]Store[K, I]

	// feeding maps each source store of an in-flight build to that
	// build: the one record of what is being rebuilt. A store feeds one
	// build at a time (launch panics otherwise), and it stays queryable
	// until the build lands — in its slot if it still has one, listed
	// through the build if it left it (a locked Lj, a rebalance source).
	feeding map[Store[K, I]]*buildTask[K, I]

	// storeCache memoizes allStores; every mutation of the store set
	// (launch, finish, placement, sweeps, restore) invalidates it, so
	// steady-state queries reuse one slice instead of re-collecting and
	// deduplicating the ladder per call.
	storeCache  []Store[K, I]
	storesDirty bool

	builds      []*buildTask[K, I]
	rebalancing bool
	needsReb    bool

	nf, tau int

	// gens/genc track per-store build generations for incremental
	// checkpoints; maintained only by Dump/Restore (see snapshot.go).
	gens map[Store[K, I]]uint64
	genc uint64

	deletedSinceSweep int

	stats Stats
}

type buildKind int

const (
	buildLevel     buildKind = iota // result becomes levels[target]
	buildTop                        // result becomes new top collection(s)
	buildRebalance                  // result replaces the whole collection's tops
)

type buildTask[K comparable, I any] struct {
	kind   buildKind
	target int // level index for buildLevel
	from   int // level j ≥ 1 this build locked (Lj); 0 if none
	// eager holds items already materialized (C0 contents, the newly
	// inserted item); lazy holds snapshots whose payloads the background
	// goroutine extracts from immutable static structures, so the
	// foreground never pays for decompression.
	eager   []I
	lazy    []Snapshot[I]
	sources []Store[K, I]
	split   int   // buildTop/buildRebalance: max weight per resulting top (0 = no split)
	purge   bool  // a buildTop that rebuilds one top without its dead items
	built   int64 // weight handed to Build; written before done is sent
	done    chan []Store[K, I]

	// parkedTop marks a buildTop over parked stores only: the open top's
	// chunks or a big item. These install in launch order.
	parkedTop bool

	// tombstones records items deleted from the sources while the build
	// is in flight. The background goroutine applies the ones it sees
	// before publishing, so the foreground install step only has to
	// process stragglers — keeping finish() cheap even after long builds.
	tmu        sync.Mutex
	tombstones []K
	applied    int // prefix of tombstones already applied by the builder
}

// addTombstone records a raced deletion.
func (t *buildTask[K, I]) addTombstone(key K) {
	t.tmu.Lock()
	t.tombstones = append(t.tombstones, key)
	t.tmu.Unlock()
}

// addStore appends a store's live items to the task: stores exposing a
// race-free deferred snapshot are extracted during the build, anything
// else (the uncompressed C0, payloads without Snapshotter) is
// materialized immediately.
func (t *buildTask[K, I]) addStore(s Store[K, I]) {
	if sn, ok := s.(Snapshotter[I]); ok {
		t.lazy = append(t.lazy, sn.Snapshot())
	} else {
		t.eager = append(t.eager, s.LiveItems()...)
	}
	t.sources = append(t.sources, s)
}

// itemCount reports how many items the task will build over.
func (t *buildTask[K, I]) itemCount() int {
	n := len(t.eager)
	for _, l := range t.lazy {
		n += l.Count
	}
	return n
}

// NewWorstCase creates an empty ladder with worst-case update bounds.
func NewWorstCase[K comparable, I any](cfg Config[K, I]) *WorstCase[K, I] {
	cfg = cfg.withDefaults()
	w := &WorstCase[K, I]{
		cfg:     cfg,
		c0:      cfg.NewC0(),
		owner:   make(map[K]Store[K, I]),
		feeding: make(map[Store[K, I]]*buildTask[K, I]),
	}
	w.reschedule(0)
	return w
}

// reschedule re-derives nf, τ and the ladder; the ladder stops at
// ~nf/τ so that sub-collections hold only an O(1/τ) fraction of the data
// (Section 3, "Data Structures").
func (w *WorstCase[K, I]) reschedule(n int) {
	w.nf = n
	w.tau = w.cfg.Tau
	if w.tau == 0 {
		w.tau = autoTau(n)
	}
	w.maxes = w.cfg.capacities(w.maxes, n, false, func(max0, _ float64) float64 {
		return max(float64(n)/float64(w.tau), 2*max0)
	})
	for len(w.levels) < len(w.maxes)+1 {
		w.levels = append(w.levels, nil)
		w.temps = append(w.temps, nil)
		w.pendingMerge = append(w.pendingMerge, false)
	}
}

// topCap is the maximum weight of a multi-item top collection (4nf/τ).
func (w *WorstCase[K, I]) topCap() int {
	c := 4 * w.nf / w.tau
	if c < 2*w.cfg.MinCapacity {
		c = 2 * w.cfg.MinCapacity
	}
	return c
}

// groupWeight is G, the weight at which InsertBatch's open top stops
// taking chunks and builds: max(192 KiB, nf/(4τ)), a sixteenth of
// topCap, with nf as InsertBatch has just rescheduled it. Consecutive
// over-C0 batches share one top of G to G + one chunk, so a bulk
// ingest leaves at most 4τ·ln 2 ≈ 2.8τ tops per doubling of n rather
// than n/192 KiB, and a count visits that many stores. Below
// nf ≈ 768 KiB·τ the 192 KiB floor is the whole rule: it keeps the
// tops of small, churning ladders small, as a sweep purge rebuilds a
// whole top. A read during a bulk ingest scans the open top, up to
// nf/(4τ) plus one chunk. A larger G would lengthen that scan, price
// every extract by a bigger store and leave an ingest's last tops to
// build alone; DESIGN sizes the rule against these.
func (w *WorstCase[K, I]) groupWeight() int {
	return max(192<<10, w.nf/(4*w.tau))
}

// bigItem reports whether an item is heavy enough to become its own top
// collection (≥ nf/τ).
func (w *WorstCase[K, I]) bigItem(weight int) bool {
	threshold := w.nf / w.tau
	if threshold < w.cfg.MinCapacity {
		threshold = w.cfg.MinCapacity
	}
	return weight >= threshold
}

// targetBusy reports whether a build installing into level t is in
// flight (two builds must never race for one slot).
func (w *WorstCase[K, I]) targetBusy(t int) bool {
	for _, b := range w.builds {
		if b.kind == buildLevel && b.target == t {
			return true
		}
	}
	return false
}

// mergeBusy reports whether merging rung j into j+1 must wait: a build
// locked Cj, a build installs into level j or j+1, or a level occupant
// or parked temp at rung j or j+1 feeds a build. Two builds must never
// race for one slot, and a store enlisted in a second build would have
// its items built and installed twice.
func (w *WorstCase[K, I]) mergeBusy(j int) bool {
	for _, b := range w.builds {
		if (j > 0 && b.from == j) || (b.kind == buildLevel && (b.target == j || b.target == j+1)) {
			return true
		}
	}
	for _, idx := range [2]int{j, j + 1} {
		if w.feeding[w.levels[idx]] != nil {
			return true
		}
		for _, tmp := range w.temps[idx] {
			if w.feeding[tmp] != nil {
				return true
			}
		}
	}
	return false
}

// launch starts a build task, synchronously in Inline mode. Each source
// is recorded as feeding the task until finish retires it.
func (w *WorstCase[K, I]) launch(t *buildTask[K, I]) {
	w.invalidateStores()
	t.done = make(chan []Store[K, I], 1)
	w.builds = append(w.builds, t)
	for _, s := range t.sources {
		if w.feeding[s] != nil {
			panic("engine: a store feeds two builds")
		}
		w.feeding[s] = t
	}
	w.stats.BackgroundBuilds++
	tau, build := w.tau, w.cfg.Build
	run := func() {
		items := make([]I, 0, t.itemCount())
		items = append(items, t.eager...)
		for _, l := range t.lazy {
			items = l.Materialize(items)
		}
		t.built = weightOf(items, w.cfg.Weight)
		var out []Store[K, I]
		if t.split > 0 {
			for _, chunk := range splitItems(items, w.cfg.Weight, t.split) {
				out = append(out, build(chunk, tau))
			}
		} else {
			out = append(out, build(items, tau))
		}
		// Pre-apply the deletions that raced with the build; stragglers
		// arriving after this point are handled by finish().
		t.tmu.Lock()
		for _, key := range t.tombstones {
			for _, res := range out {
				if _, ok := res.Delete(key); ok {
					break
				}
			}
		}
		t.applied = len(t.tombstones)
		t.tmu.Unlock()
		t.done <- out
	}
	if w.cfg.Inline {
		run()
		w.drainLocked(true)
		return
	}
	go run()
}

// drainLocked absorbs finished builds; if wait is true it blocks until
// all in-flight builds complete. Parked tops install in launch order: a
// finished one waits while an older one is still running, so the tops
// of a bulk ingest sit in the same order whichever build finished
// first. Callers hold w.mu.
func (w *WorstCase[K, I]) drainLocked(wait bool) {
	parkedRunning := false // an older parked top is still building
	for i := 0; i < len(w.builds); {
		t := w.builds[i]
		var out []Store[K, I]
		if wait {
			out = <-t.done
		} else if t.parkedTop && parkedRunning {
			i++
			continue
		} else {
			select {
			case out = <-t.done:
			default:
				parkedRunning = parkedRunning || t.parkedTop
				i++
				continue
			}
		}
		w.install(i, out)
	}
	w.reconcile()
	if w.needsReb && !w.rebalancing {
		w.needsReb = false
		w.startRebalance()
	}
}

// install finishes w.builds[i] with its result and drops it from the
// in-flight list.
func (w *WorstCase[K, I]) install(i int, out []Store[K, I]) {
	w.finish(w.builds[i], out)
	w.builds = slices.Delete(w.builds, i, i+1)
}

// launchParkedTop launches the build of parked stores into top
// collections, split at the top capacity. At most GOMAXPROCS of these
// builds are in flight: one more first installs the oldest, so a caller
// that outruns every core waits for a build to land — the only wait an
// update has.
func (w *WorstCase[K, I]) launchParkedTop(sources ...Store[K, I]) {
	for {
		oldest, n := -1, 0
		for i, b := range w.builds {
			if b.parkedTop {
				if n == 0 {
					oldest = i
				}
				n++
			}
		}
		if n < runtime.GOMAXPROCS(0) {
			break
		}
		w.install(oldest, <-w.builds[oldest].done)
	}
	task := &buildTask[K, I]{kind: buildTop, split: w.topCap(), parkedTop: true}
	for _, s := range sources {
		task.addStore(s)
	}
	w.launch(task)
}

// closeOpen launches the open top's build, if a top is open. Every
// update other than an over-C0 batch, a rebalance, WaitIdle and Dump
// close it first, so where a top ends depends on the operation stream
// and item weights alone, never on timing.
func (w *WorstCase[K, I]) closeOpen() {
	if len(w.open) == 0 {
		return
	}
	sources := w.open
	w.open, w.openWeight = nil, 0
	w.launchParkedTop(sources...)
}

// park makes items queryable in a parked store (Config.Park) that
// owns them until a build replaces it.
func (w *WorstCase[K, I]) park(items []I) Store[K, I] {
	w.invalidateStores()
	st := w.cfg.Park(items)
	for _, it := range items {
		w.owner[w.cfg.Key(it)] = st
	}
	return st
}

// reconcile launches deferred work once slots free up: parked temp
// payloads are folded into their level, and deletion-triggered merges
// that found the slot busy are retried.
func (w *WorstCase[K, I]) reconcile() {
	for j := 1; j < len(w.maxes); j++ {
		if w.pendingMerge[j] {
			if w.levels[j] == nil || w.levels[j].DeadWeight() < w.maxes[j]/2 {
				w.pendingMerge[j] = false
			} else if !w.mergeBusy(j) {
				w.pendingMerge[j] = false
				w.mergeLevelUp(j)
			}
		}
	}
	for t := 1; t < len(w.temps); t++ {
		if len(w.temps[t]) == 0 || w.targetBusy(t) {
			continue
		}
		w.foldTemps(t)
	}
}

// foldTemps merges the parked temp payloads of slot t (plus the level
// occupying it, if any) into the smallest level that fits, or into a new
// top collection. Stores already feeding an in-flight build are left in
// place — enlisting them again would build their items twice — and are
// retried once that build lands.
func (w *WorstCase[K, I]) foldTemps(t int) {
	task := &buildTask[K, I]{}
	size := 0
	w.invalidateStores()
	w.temps[t] = slices.DeleteFunc(w.temps[t], func(tmp Store[K, I]) bool {
		if w.feeding[tmp] != nil {
			return false
		}
		task.addStore(tmp)
		size += tmp.LiveWeight()
		return true
	})
	tookLevel := false
	if t < len(w.maxes) && w.levels[t] != nil && w.feeding[w.levels[t]] == nil {
		task.addStore(w.levels[t])
		size += w.levels[t].LiveWeight()
		tookLevel = true
	}
	if task.itemCount() == 0 {
		// Everything folded here was deleted in the meantime.
		if tookLevel {
			w.levels[t] = nil
		}
		return
	}
	// Find the smallest level ≥ t with capacity for the union.
	for k := t; k < len(w.maxes); k++ {
		if size <= w.maxes[k] && !w.targetBusy(k) && ((k == t && tookLevel) || w.levels[k] == nil) {
			task.kind, task.target = buildLevel, k
			w.launch(task)
			return
		}
	}
	task.kind, task.split = buildTop, w.topCap()
	w.launch(task)
}

// finish installs the result of a completed build: snapshot items move
// to the new structures unless they were deleted mid-build, and the
// source structures are retired.
func (w *WorstCase[K, I]) finish(t *buildTask[K, I], out []Store[K, I]) {
	w.invalidateStores()
	isSource := func(s Store[K, I]) bool { return w.feeding[s] == t }
	// Apply straggler tombstones the builder missed after its seal point.
	t.tmu.Lock()
	for _, key := range t.tombstones[t.applied:] {
		for _, res := range out {
			if _, ok := res.Delete(key); ok {
				break
			}
		}
	}
	t.applied = len(t.tombstones)
	t.tmu.Unlock()
	// Reassign ownership; weed out any remaining raced deletions.
	for _, res := range out {
		for _, key := range res.LiveKeys() {
			cur, alive := w.owner[key]
			if alive && isSource(cur) {
				w.owner[key] = res
			} else {
				res.Delete(key)
			}
		}
	}
	// Retire sources from the slots they still hold. slices.DeleteFunc
	// zeroes the vacated tail: a retired store must not stay reachable
	// through a list's spare capacity.
	for j := range w.levels {
		if isSource(w.levels[j]) {
			w.levels[j] = nil
		}
		w.temps[j] = slices.DeleteFunc(w.temps[j], isSource)
	}
	w.tops = slices.DeleteFunc(w.tops, isSource)
	if isSource(w.c0) {
		// A locked or rebalanced C0 was swapped for a fresh one at launch.
		panic("engine: C0 feeds a build")
	}
	for _, s := range t.sources {
		delete(w.feeding, s)
	}

	switch t.kind {
	case buildLevel:
		if w.levels[t.target] != nil {
			panic("engine: level build target occupied")
		}
		w.levels[t.target] = out[0]
		w.stats.BuiltWeight.LevelMerge += t.built
	case buildTop:
		w.tops = append(w.tops, out...)
		if t.purge {
			w.stats.BuiltWeight.Purge += t.built
		} else {
			w.stats.BuiltWeight.Top += t.built
		}
	case buildRebalance:
		w.tops = append(w.tops, out...)
		w.rebalancing = false
		w.stats.Rebalances++
		w.stats.BuiltWeight.Rebalance += t.built
	}
	w.dropEmptyTops()
	if len(w.tops) > w.stats.MaxTops {
		w.stats.MaxTops = len(w.tops)
	}
}

func (w *WorstCase[K, I]) dropEmptyTops() {
	n := len(w.tops)
	w.tops = slices.DeleteFunc(w.tops, func(tp Store[K, I]) bool { return tp.LiveWeight() == 0 })
	if len(w.tops) != n {
		w.invalidateStores()
	}
}

// Len reports the total live weight.
func (w *WorstCase[K, I]) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lenLocked()
}

func (w *WorstCase[K, I]) lenLocked() int {
	n := 0
	for _, s := range w.allStores() {
		n += s.LiveWeight()
	}
	return n
}

// invalidateStores marks the cached store list stale and clears it, so
// a store that leaves the ladder is not kept reachable by the cache.
func (w *WorstCase[K, I]) invalidateStores() {
	clear(w.storeCache)
	w.storesDirty = true
}

// allStores lists every queryable store exactly once, memoized until
// the next store-set mutation.
func (w *WorstCase[K, I]) allStores() []Store[K, I] {
	if !w.storesDirty && w.storeCache != nil {
		return w.storeCache
	}
	out := w.storeCache[:0]
	out = append(out, Store[K, I](w.c0))
	for j := range w.levels {
		if w.levels[j] != nil {
			out = append(out, w.levels[j])
		}
		out = append(out, w.temps[j]...)
	}
	out = append(out, w.open...)
	out = append(out, w.tops...)
	// Build sources that left their slots (a locked Lj, the old C0,
	// folded temps, rebalance sources) answer through their build.
	listed := make(map[Store[K, I]]bool, len(out))
	for _, s := range out {
		listed[s] = true
	}
	for _, b := range w.builds {
		for _, s := range b.sources {
			if !listed[s] {
				out = append(out, s)
			}
		}
	}
	w.storeCache = out
	w.storesDirty = false
	return out
}

// Count reports the number of live items.
func (w *WorstCase[K, I]) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.owner)
}

// Keys returns all live keys in unspecified order.
func (w *WorstCase[K, I]) Keys() []K {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]K, 0, len(w.owner))
	for k := range w.owner {
		out = append(out, k)
	}
	return out
}

// Has reports whether an item with the given key is live.
func (w *WorstCase[K, I]) Has(key K) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.owner[key]
	return ok
}

// Insert adds an item (Section 3, "Insertions"). It fails with
// ErrDuplicateKey if the key is already live.
func (w *WorstCase[K, I]) Insert(item I) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := w.cfg.Key(item)
	if _, dup := w.owner[k]; dup {
		return fmt.Errorf("engine: insert %v: %w", k, ErrDuplicateKey)
	}
	w.drainLocked(false)
	w.closeOpen()
	w.placeOne(item)
	w.checkRebalance()
	return nil
}

// placeOne routes a validated item: into C0 if it fits, into its own
// top collection if huge, through the ladder otherwise. Callers hold
// w.mu and run checkRebalance afterwards.
func (w *WorstCase[K, I]) placeOne(item I) {
	weight := w.cfg.Weight(item)
	switch {
	case w.c0.LiveWeight()+weight <= w.maxes[0]:
		w.c0.Insert(item)
		w.owner[w.cfg.Key(item)] = w.c0

	case w.bigItem(weight):
		// A huge item becomes its own top collection, parked until its
		// build lands.
		w.launchParkedTop(w.park([]I{item}))

	default:
		w.insertViaLadder(item)
	}
}

// InsertBatch adds many items in one ingest. The whole batch is
// validated first — on any ErrDuplicateKey nothing is inserted. A batch
// larger than C0's capacity is parked, in chunks of at most the
// top-capacity bound, in the open top, which is bulk-built in the
// background directly into top collections once it weighs groupWeight()
// — G follows nf as rescheduled for the post-batch size, so the tops of
// a bulk ingest grow with the collection.
// The per-item ladder cascades of looped Insert calls collapse into one
// build per open top, run on as many cores as there are, followed by at
// most one rebalance. Smaller batches route through the normal placement
// machinery: the first overflow empties C0 into the ladder and the rest
// of the batch fits in the fresh C0, so C0 keeps draining and tops
// never accumulate per call.
func (w *WorstCase[K, I]) InsertBatch(items []I) error {
	if len(items) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drainLocked(false)
	seen := make(map[K]bool, len(items))
	total := 0
	for _, it := range items {
		k := w.cfg.Key(it)
		if _, dup := w.owner[k]; dup || seen[k] {
			return fmt.Errorf("engine: insert %v: %w", k, ErrDuplicateKey)
		}
		seen[k] = true
		total += w.cfg.Weight(it)
	}
	if total <= w.maxes[0] {
		w.closeOpen()
	}
	switch {
	case w.c0.LiveWeight()+total <= w.maxes[0]:
		for _, it := range items {
			w.c0.Insert(it)
			w.owner[w.cfg.Key(it)] = w.c0
		}
	case total <= w.maxes[0]:
		for _, it := range items {
			w.placeOne(it)
		}
	default:
		// Re-derive the capacity schedule from the post-batch size first:
		// chunks are then sized by the correct (larger) top capacity, and
		// the post-ingest rebalance check is a no-op instead of
		// immediately rebuilding the freshly built tops a second time.
		w.reschedule(w.lenLocked() + total)
		for _, chunk := range splitItems(items, w.cfg.Weight, w.topCap()) {
			st := w.park(chunk)
			w.open = append(w.open, st)
			if w.openWeight += st.LiveWeight(); w.openWeight >= w.groupWeight() {
				w.closeOpen()
			}
		}
	}
	w.checkRebalance()
	return nil
}

// insertViaLadder finds the first Cj+1 that can absorb Cj and the new
// item, locking Cj and building the replacement in the background. If
// every candidate slot is busy with an in-flight build, the item is
// parked in a temp payload (work proportional to the item, no build)
// and folded in once the build lands — the non-blocking realization of
// the paper's scheduling lemma.
func (w *WorstCase[K, I]) insertViaLadder(item I) {
	weight := w.cfg.Weight(item)
	r := len(w.maxes) - 1
	for j := 0; j <= r; j++ {
		szJ := w.levelSize(j)
		var capNext int
		if j == r {
			capNext = int(^uint(0) >> 1) // anything fits in a new top
		} else {
			capNext = w.maxes[j+1]
		}
		if szJ+w.levelSize(j+1)+weight > capNext {
			continue
		}
		if w.mergeBusy(j) {
			// Don't wait for the in-flight build. Small items overflow
			// into C0 (soft cap 2·max_0, still O(n/log²n) space); larger
			// ones are parked in a temp payload.
			if j == 0 && w.c0.LiveWeight()+weight <= 2*w.maxes[0] {
				w.c0.Insert(item)
				w.owner[w.cfg.Key(item)] = w.c0
				return
			}
			w.temps[j+1] = append(w.temps[j+1], w.park([]I{item}))
			w.stats.TempParks++
			return
		}
		// Background merge: park the new item alone in a temp, and build
		// Nj+1 = Lj ∪ Cj+1 ∪ {item} behind the scenes.
		task := w.mergeTask(j)
		w.temps[j+1] = nil
		tmp := w.park([]I{item})
		task.addStore(tmp)
		// The fresh temp rides along as a source so it is retired when the
		// merged structure lands; meanwhile it answers queries from the
		// slot list.
		w.temps[j+1] = append(w.temps[j+1], tmp)
		w.launch(task)
		return
	}
	panic("engine: ladder insertion found no level") // unreachable: top case always fits
}

// levelSize is the live weight of Cj (j = 0 → C0), temp payloads parked
// at the slot included.
func (w *WorstCase[K, I]) levelSize(j int) int {
	n := 0
	if j == 0 {
		n = w.c0.LiveWeight()
	} else if j < len(w.levels) && w.levels[j] != nil {
		n = w.levels[j].LiveWeight()
	}
	if j > 0 && j < len(w.temps) {
		for _, tmp := range w.temps[j] {
			n += tmp.LiveWeight()
		}
	}
	return n
}

// mergeTask locks Cj and returns the build of Nj+1 from it, the
// occupant of Cj+1 and the temps parked at slot j+1; from the last rung
// the merge builds new tops instead. C0 is swapped for a fresh one; a
// compressed level leaves its slot and answers queries as Lj, through
// the build, until the build lands. The occupant and the temps stay in
// their slots meanwhile.
func (w *WorstCase[K, I]) mergeTask(j int) *buildTask[K, I] {
	w.invalidateStores()
	task := &buildTask[K, I]{kind: buildLevel, target: j + 1}
	if j == 0 {
		task.addStore(w.c0)
		w.c0 = w.cfg.NewC0()
	} else if w.levels[j] != nil {
		task.addStore(w.levels[j])
		task.from = j
		w.levels[j] = nil
	}
	if j == len(w.maxes)-1 {
		task.kind, task.split = buildTop, w.topCap()
	} else if w.levels[j+1] != nil {
		task.addStore(w.levels[j+1])
	}
	for _, tmp := range w.temps[j+1] {
		task.addStore(tmp)
	}
	return task
}

// Delete removes the item with the given key (Section 3, "Deletions").
func (w *WorstCase[K, I]) Delete(key K) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drainLocked(false)
	w.closeOpen()
	st, ok := w.owner[key]
	if !ok {
		return false
	}
	weight, _ := st.Delete(key)
	delete(w.owner, key)
	if b := w.feeding[st]; b != nil {
		b.addTombstone(key) // the build result must not resurrect it
	}
	if st != Store[K, I](w.c0) {
		w.afterStaticDelete(st)
	}
	// The sweep counter tracks every deleted unit (the paper purges the
	// worst top after each series of nf/(2τ·log τ) deleted symbols).
	w.deletedSinceSweep += weight
	w.maybeSweepTops()
	w.checkRebalance()
	return true
}

// DeleteBatch removes every listed item that is live, returning the
// number actually removed. Dead-fraction checks, the top sweep, and the
// rebalance check run once after the whole batch.
func (w *WorstCase[K, I]) DeleteBatch(keys []K) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drainLocked(false)
	w.closeOpen()
	n := 0
	deletedWeight := 0
	// touched lists the static stores hit, in first-touch order, so the
	// merges their dead weight triggers start in an order the keys fix.
	var touched []Store[K, I]
	seen := make(map[Store[K, I]]bool)
	for _, key := range keys {
		st, ok := w.owner[key]
		if !ok {
			continue
		}
		weight, _ := st.Delete(key)
		delete(w.owner, key)
		n++
		deletedWeight += weight
		if b := w.feeding[st]; b != nil {
			b.addTombstone(key)
		}
		if st != Store[K, I](w.c0) && !seen[st] {
			seen[st] = true
			touched = append(touched, st)
		}
	}
	if n == 0 {
		return 0
	}
	for _, st := range touched {
		w.afterStaticDelete(st)
	}
	w.deletedSinceSweep += deletedWeight
	w.maybeSweepTops()
	w.checkRebalance()
	return n
}

// afterStaticDelete enforces the dead-fraction bounds after a lazy
// delete from a static payload.
func (w *WorstCase[K, I]) afterStaticDelete(s Store[K, I]) {
	// Level with ≥ maxj/2 dead weight → merge into the next level. If
	// the merge would collide with in-flight work it is deferred to
	// reconcile.
	for j := 1; j < len(w.maxes); j++ {
		if w.levels[j] != s {
			continue
		}
		if s.DeadWeight() < w.maxes[j]/2 {
			return
		}
		if w.mergeBusy(j) {
			w.pendingMerge[j] = true
			return
		}
		w.mergeLevelUp(j)
		return
	}
}

// mergeLevelUp locks level j and builds Nj+1 from it (plus the current
// occupant of j+1 and any parked temps) in the background.
func (w *WorstCase[K, I]) mergeLevelUp(j int) {
	task := w.mergeTask(j)
	if task.itemCount() == 0 {
		w.temps[j+1] = nil
		return
	}
	w.launch(task)
}

// maybeSweepTops purges the top collection holding the most dead weight
// once per nf/(2τ·log τ) units deleted since the last sweep. Lemma 1
// (Dietz–Sleator) bounds each top's dead weight by that times H_g, not
// its dead fraction: purge remnants and dying tops can be over 1/τ dead.
// A batch deletion can bank several intervals, each purging one more
// (distinct) top, as looped deletes would. Tops already feeding an
// in-flight build are skipped so no item is built twice.
func (w *WorstCase[K, I]) maybeSweepTops() {
	interval := w.nf / (2 * w.tau * max(1, log2(w.tau)))
	if interval < w.cfg.MinCapacity {
		interval = w.cfg.MinCapacity
	}
	if w.deletedSinceSweep < interval {
		return
	}
	rounds := w.deletedSinceSweep / interval
	w.deletedSinceSweep %= interval
	cands := make([]Store[K, I], 0, len(w.tops))
	for _, tp := range w.tops {
		if w.feeding[tp] == nil && tp.DeadWeight() > 0 {
			cands = append(cands, tp)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].DeadWeight() > cands[j].DeadWeight()
	})
	if rounds > len(cands) {
		rounds = len(cands)
	}
	for _, worst := range cands[:rounds] {
		if worst.LiveWeight() == 0 {
			continue // dropEmptyTops below discards it wholesale
		}
		// An earlier (inline) launch may have enlisted this candidate into
		// a reconcile-triggered build meanwhile; never build a store twice.
		if w.feeding[worst] != nil {
			continue
		}
		task := &buildTask[K, I]{kind: buildTop, split: w.topCap(), purge: true}
		task.addStore(worst)
		w.launch(task)
		w.stats.TopPurges++
	}
	w.dropEmptyTops()
}

// checkRebalance triggers the Section A.3 size-maintenance rebuild when
// n drifts a factor 2 away from nf.
func (w *WorstCase[K, I]) checkRebalance() {
	n := w.lenLocked()
	if n < w.cfg.MinCapacity {
		return
	}
	if n >= 2*w.nf || (w.nf > 2*w.cfg.MinCapacity && n <= w.nf/2) {
		if w.rebalancing {
			w.needsReb = true
			return
		}
		w.startRebalance()
	}
}

// startRebalance empties every slot into one build of fresh tops. A
// store that already feeds a build — a locked level, the occupant or
// temps a merge is reading, a top being purged — lands with that build
// instead, so no item is built twice; nf still counts its weight.
func (w *WorstCase[K, I]) startRebalance() {
	w.closeOpen()
	n := w.lenLocked()
	w.invalidateStores()
	w.rebalancing = true
	task := &buildTask[K, I]{kind: buildRebalance}
	oldC0 := w.c0
	take := func(s Store[K, I]) {
		if w.feeding[s] != nil || (s.LiveWeight() == 0 && len(s.LiveKeys()) == 0 && s != oldC0) {
			return
		}
		task.addStore(s)
	}
	take(oldC0)
	w.c0 = w.cfg.NewC0()
	for j := range w.levels {
		if w.levels[j] != nil {
			take(w.levels[j])
			w.levels[j] = nil
		}
		for _, tmp := range w.temps[j] {
			take(tmp)
		}
		w.temps[j] = nil
		w.pendingMerge[j] = false
	}
	for _, tp := range w.tops {
		take(tp)
	}
	w.tops = nil
	w.reschedule(n)
	if task.itemCount() == 0 {
		w.rebalancing = false
		w.stats.Rebalances++
		return
	}
	task.split = w.topCap()
	w.launch(task)
}

// View runs fn over every queryable store under the engine mutex; fn
// must not re-enter the ladder.
func (w *WorstCase[K, I]) View(fn func(stores []Store[K, I])) {
	w.mu.Lock()
	defer w.mu.Unlock()
	fn(w.allStores())
}

// Query sums fn over every queryable store under the engine mutex (see
// Ladder.Query); fn must not re-enter the ladder.
func (w *WorstCase[K, I]) Query(arg []byte, fn func(st Store[K, I], arg []byte) int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return sumStores(w.allStores(), arg, fn)
}

// ViewOwner runs fn (under the engine mutex) on the store holding key,
// if live; fn must not re-enter the ladder.
func (w *WorstCase[K, I]) ViewOwner(key K, fn func(st Store[K, I])) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.owner[key]
	if !ok {
		return false
	}
	fn(st)
	return true
}

// SizeBits estimates the total footprint in bits.
func (w *WorstCase[K, I]) SizeBits() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, s := range w.allStores() {
		total += s.SizeBits()
	}
	return total
}

// WaitIdle blocks until all background builds have completed and been
// installed. Tests and fair benchmarks call it to reach a quiescent
// state.
func (w *WorstCase[K, I]) WaitIdle() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closeOpen()
	for len(w.builds) > 0 || w.needsReb {
		w.drainLocked(true)
	}
}

// Stats returns internal counters and the current layout.
func (w *WorstCase[K, I]) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.Tops = len(w.tops)
	st.PendingBuilds = len(w.builds)
	st.Levels = len(w.maxes)
	st.NF = w.nf
	st.Tau = w.tau
	// Parked weight sits in the temp lists, the open top and the sources
	// of each parked-top build. A temp already enlisted in a fold or
	// rebalance counts as that build's, not as parked.
	parked := slices.Concat(w.temps...)
	parked = append(parked, w.open...)
	for _, b := range w.builds {
		if b.parkedTop {
			parked = append(parked, b.sources...)
		}
	}
	for _, s := range parked {
		st.Parked += s.LiveWeight()
	}
	st.LevelSizes = append(st.LevelSizes, w.c0.LiveWeight())
	st.LevelCaps = append(st.LevelCaps, w.maxes[0])
	st.LevelDead = append(st.LevelDead, w.c0.DeadWeight())
	for j := 1; j < len(w.maxes); j++ {
		dead := 0
		if w.levels[j] != nil {
			dead = w.levels[j].DeadWeight()
		}
		for _, tmp := range w.temps[j] {
			dead += tmp.DeadWeight()
		}
		st.LevelSizes = append(st.LevelSizes, w.levelSize(j))
		st.LevelCaps = append(st.LevelCaps, w.maxes[j])
		st.LevelDead = append(st.LevelDead, dead)
	}
	for _, tp := range w.tops {
		st.TopSizes = append(st.TopSizes, tp.LiveWeight())
		st.TopDead = append(st.TopDead, tp.DeadWeight())
	}
	return st
}

// Tau reports the τ currently in effect.
func (w *WorstCase[K, I]) Tau() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tau
}
