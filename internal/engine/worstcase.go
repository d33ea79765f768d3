package engine

import (
	"fmt"
	"math"
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
//     collection immediately;
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
// guarantee Transformation 2 exists to provide. Config.Inline forces
// synchronous completion for deterministic tests.
//
// Unlike Amortized, WorstCase serializes every operation on an internal
// mutex and is safe for concurrent use.
type WorstCase[K comparable, I any] struct {
	mu  sync.Mutex
	cfg Config[K, I]

	c0     Mutable[K, I]
	levels []Store[K, I]   // Cj, j ≥ 1; index 0 unused
	locked []Store[K, I]   // Lj, parallel to levels
	temps  [][]Store[K, I] // parked single-item payloads per level
	tops   []Store[K, I]   // T1…Tg
	maxes  []int

	pendingMerge []bool // deletion-triggered merges waiting for a free slot

	retiring []Store[K, I] // sources of in-flight builds, still queryable

	owner map[K]Store[K, I]

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
		cfg:   cfg,
		c0:    cfg.NewC0(),
		owner: make(map[K]Store[K, I]),
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
	lg := float64(log2(n))
	if lg < 2 {
		lg = 2
	}
	max0 := float64(2*n) / (lg * lg)
	if max0 < float64(w.cfg.MinCapacity) {
		max0 = float64(w.cfg.MinCapacity)
	}
	ratio := math.Pow(lg, w.cfg.Epsilon)
	if ratio < 1.5 {
		ratio = 1.5
	}
	topCap := float64(n) / float64(w.tau)
	if topCap < max0*2 {
		topCap = max0 * 2
	}
	w.maxes = w.maxes[:0]
	w.maxes = append(w.maxes, int(max0))
	cap := max0
	for cap < topCap && len(w.maxes) < 64 {
		cap *= ratio
		w.maxes = append(w.maxes, int(cap))
	}
	for len(w.levels) < len(w.maxes)+1 {
		w.levels = append(w.levels, nil)
		w.locked = append(w.locked, nil)
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

// slotBusy reports whether merging level j into j+1 must wait: the level
// is already locked (its items belong to an in-flight build) or another
// build is installing into j+1.
func (w *WorstCase[K, I]) slotBusy(j int) bool {
	if j < len(w.locked) && w.locked[j] != nil {
		return true
	}
	return w.targetBusy(j + 1)
}

// ladderBusy reports whether any structure the ladder-insertion paths
// would consume at rungs j and j+1 — the level occupants and parked
// temps — feeds an in-flight build. A build targeting level j keeps
// levels[j] (and ride-along temps at slot j) queryable in place while
// sourcing them, which slotBusy(j) does not see; taking such a store
// (takeLevelItems, a synchronous rebuild) would install its items a
// second time while the old store still answers queries through the
// retiring list, double-counting every item until the build lands.
func (w *WorstCase[K, I]) ladderBusy(j int) bool {
	if w.targetBusy(j) {
		return true
	}
	for _, idx := range [2]int{j, j + 1} {
		if idx < len(w.levels) && w.levels[idx] != nil && w.isBuildSource(w.levels[idx]) {
			return true
		}
		if idx < len(w.temps) {
			for _, tmp := range w.temps[idx] {
				if w.isBuildSource(tmp) {
					return true
				}
			}
		}
	}
	return false
}

// launch starts a build task, synchronously in Inline mode.
func (w *WorstCase[K, I]) launch(t *buildTask[K, I]) {
	w.invalidateStores()
	t.done = make(chan []Store[K, I], 1)
	w.builds = append(w.builds, t)
	w.retiring = append(w.retiring, t.sources...)
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
// all in-flight builds complete. Callers hold w.mu.
func (w *WorstCase[K, I]) drainLocked(wait bool) {
	for i := 0; i < len(w.builds); {
		t := w.builds[i]
		var out []Store[K, I]
		if wait {
			out = <-t.done
		} else {
			select {
			case out = <-t.done:
			default:
				i++
				continue
			}
		}
		w.finish(t, out)
		w.builds = append(w.builds[:i], w.builds[i+1:]...)
	}
	w.reconcile()
	if w.needsReb && !w.rebalancing {
		w.needsReb = false
		w.startRebalance()
	}
}

// reconcile launches deferred work once slots free up: parked temp
// payloads are folded into their level, and deletion-triggered merges
// that found the slot busy are retried.
func (w *WorstCase[K, I]) reconcile() {
	for j := 1; j < len(w.maxes); j++ {
		if w.pendingMerge[j] {
			if w.levels[j] == nil || w.levels[j].DeadWeight() < w.maxes[j]/2 {
				w.pendingMerge[j] = false
			} else if !w.mergeBlocked(j) {
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
	kept := w.temps[t][:0]
	for _, tmp := range w.temps[t] {
		if w.isBuildSource(tmp) {
			kept = append(kept, tmp)
			continue
		}
		task.addStore(tmp)
		size += tmp.LiveWeight()
	}
	w.temps[t] = kept
	tookLevel := false
	if t < len(w.maxes) && w.levels[t] != nil && !w.isBuildSource(w.levels[t]) {
		task.addStore(w.levels[t])
		size += w.levels[t].LiveWeight()
		tookLevel = true
	}
	if task.itemCount() == 0 {
		// Everything folded here was deleted in the meantime.
		w.clearSlots(task.sources)
		return
	}
	// Find the smallest level ≥ t with capacity for the union.
	for k := t; k < len(w.maxes); k++ {
		if size <= w.maxes[k] && !w.targetBusy(k) && ((k == t && tookLevel) || w.levels[k] == nil) {
			w.detachForBuild(task.sources)
			task.kind, task.target = buildLevel, k
			w.launch(task)
			return
		}
	}
	w.detachForBuild(task.sources)
	task.kind, task.split = buildTop, w.topCap()
	w.launch(task)
}

// detachForBuild removes sources from temp lists but leaves them
// queryable via the retiring list (finish clears level/locked slots).
func (w *WorstCase[K, I]) detachForBuild(sources []Store[K, I]) {
	isSrc := make(map[Store[K, I]]bool, len(sources))
	for _, s := range sources {
		isSrc[s] = true
	}
	for j := range w.temps {
		kept := w.temps[j][:0]
		for _, tmp := range w.temps[j] {
			if !isSrc[tmp] {
				kept = append(kept, tmp)
			}
		}
		w.temps[j] = kept
	}
}

// clearSlots drops empty retired structures from every slot.
func (w *WorstCase[K, I]) clearSlots(sources []Store[K, I]) {
	w.invalidateStores()
	isSrc := make(map[Store[K, I]]bool, len(sources))
	for _, s := range sources {
		isSrc[s] = true
	}
	for j := range w.temps {
		kept := w.temps[j][:0]
		for _, tmp := range w.temps[j] {
			if !isSrc[tmp] {
				kept = append(kept, tmp)
			}
		}
		w.temps[j] = kept
		if w.levels[j] != nil && isSrc[w.levels[j]] {
			w.levels[j] = nil
		}
	}
}

// finish installs the result of a completed build: snapshot items move
// to the new structures unless they were deleted mid-build, and the
// source structures are retired.
func (w *WorstCase[K, I]) finish(t *buildTask[K, I], out []Store[K, I]) {
	w.invalidateStores()
	isSource := make(map[Store[K, I]]bool, len(t.sources))
	for _, s := range t.sources {
		isSource[s] = true
	}
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
			if alive && isSource[cur] {
				w.owner[key] = res
			} else {
				res.Delete(key)
			}
		}
	}
	// Retire sources from their slots.
	for j := range w.locked {
		if w.locked[j] != nil && isSource[w.locked[j]] {
			w.locked[j] = nil
		}
		if w.levels[j] != nil && isSource[w.levels[j]] {
			w.levels[j] = nil
		}
		kept := w.temps[j][:0]
		for _, tmp := range w.temps[j] {
			if !isSource[tmp] {
				kept = append(kept, tmp)
			}
		}
		w.temps[j] = kept
	}
	kept := w.tops[:0]
	for _, tp := range w.tops {
		if !isSource[tp] {
			kept = append(kept, tp)
		}
	}
	w.tops = kept
	if isSource[w.c0] {
		// Only rebalance retires C0; a fresh one was installed at launch.
		panic("engine: C0 retired outside rebalance")
	}
	ret := w.retiring[:0]
	for _, s := range w.retiring {
		if !isSource[s] {
			ret = append(ret, s)
		}
	}
	w.retiring = ret

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
	kept := w.tops[:0]
	for _, tp := range w.tops {
		if tp.LiveWeight() > 0 {
			kept = append(kept, tp)
		}
	}
	if len(kept) != len(w.tops) {
		w.invalidateStores()
	}
	w.tops = kept
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

// invalidateStores marks the cached store list stale.
func (w *WorstCase[K, I]) invalidateStores() { w.storesDirty = true }

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
		if w.locked[j] != nil {
			out = append(out, w.locked[j])
		}
		out = append(out, w.temps[j]...)
	}
	out = append(out, w.tops...)
	// Retiring stores not already listed (rebalance sources: old c0,
	// old levels, old tops were removed from their slots at launch).
	listed := make(map[Store[K, I]]bool, len(out))
	for _, s := range out {
		listed[s] = true
	}
	for _, s := range w.retiring {
		if !listed[s] {
			out = append(out, s)
			listed[s] = true
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
	w.placeOne(item)
	w.checkRebalance()
	return nil
}

// buildSync builds items on the caller's goroutine, under w.mu.
func (w *WorstCase[K, I]) buildSync(items []I) Store[K, I] {
	w.stats.BuiltWeight.Sync += weightOf(items, w.cfg.Weight)
	return w.cfg.Build(items, w.tau)
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
		// A huge item becomes its own top collection immediately; the
		// build cost is proportional to the inserted data.
		w.invalidateStores()
		tp := w.buildSync([]I{item})
		w.tops = append(w.tops, tp)
		w.owner[w.cfg.Key(item)] = tp
		w.stats.SyncBuilds++

	default:
		w.insertViaLadder(item)
	}
}

// InsertBatch adds many items in one ingest. The whole batch is
// validated first — on any ErrDuplicateKey nothing is inserted. A batch
// larger than C0's capacity is bulk-built directly into top collections
// (split at the top-capacity bound), so the per-item ladder cascades of
// looped Insert calls collapse into one build pass followed by at most
// one rebalance. Smaller batches route through the normal placement
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
			tp := w.buildSync(chunk)
			w.tops = append(w.tops, tp)
			for _, it := range chunk {
				w.owner[w.cfg.Key(it)] = tp
			}
			w.stats.SyncBuilds++
		}
		// Invalidate after the appends: lenLocked above consumes the
		// cache, so a pre-mutation invalidation would be re-satisfied
		// with the not-yet-extended store set.
		w.invalidateStores()
		if len(w.tops) > w.stats.MaxTops {
			w.stats.MaxTops = len(w.tops)
		}
	}
	w.checkRebalance()
	return nil
}

// insertViaLadder finds the first Cj+1 that can absorb Cj and the new
// item, locking Cj and building the replacement in the background. If
// every candidate slot is busy with an in-flight build, the item is
// parked in a temp payload (work proportional to the item) and folded
// in once the build lands — the non-blocking realization of the paper's
// scheduling lemma.
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
		if w.slotBusy(j) || w.ladderBusy(j) {
			// Don't wait for the in-flight build. Small items overflow
			// into C0 (soft cap 2·max_0, still O(n/log²n) space); larger
			// ones are parked in a temp payload built in O(|T|·u) time.
			if j == 0 && w.c0.LiveWeight()+weight <= 2*w.maxes[0] {
				w.c0.Insert(item)
				w.owner[w.cfg.Key(item)] = w.c0
				return
			}
			w.invalidateStores()
			tmp := w.buildSync([]I{item})
			w.temps[j+1] = append(w.temps[j+1], tmp)
			w.owner[w.cfg.Key(item)] = tmp
			w.stats.TempParks++
			return
		}
		small := w.maxes[j] / 2
		if weight >= small && j < r {
			// Heavy item relative to the level: rebuild synchronously,
			// cost proportional to the item's weight.
			items := w.takeLevelItems(j)
			if w.levels[j+1] != nil {
				items = append(items, w.levels[j+1].LiveItems()...)
				w.levels[j+1] = nil
			}
			items = append(items, item)
			lvl := w.buildSync(items)
			w.levels[j+1] = lvl
			for _, it := range items {
				w.owner[w.cfg.Key(it)] = lvl
			}
			w.stats.SyncBuilds++
			return
		}
		// Background merge: lock Cj, index the new item alone in a temp,
		// and build Nj+1 = Lj ∪ Cj+1 ∪ {item} behind the scenes.
		task := &buildTask[K, I]{kind: buildLevel, target: j + 1}
		if j == 0 {
			old := w.c0
			w.c0 = w.cfg.NewC0()
			task.addStore(old)
		} else if w.levels[j] != nil {
			w.locked[j] = w.levels[j]
			w.levels[j] = nil
			task.addStore(w.locked[j])
		}
		if j == r {
			task.kind, task.split = buildTop, w.topCap()
		} else if w.levels[j+1] != nil {
			task.addStore(w.levels[j+1])
		}
		// Include any temps already parked at the target slot.
		target := j + 1
		for _, tmp := range w.temps[target] {
			task.addStore(tmp)
		}
		w.temps[target] = nil
		tmp := w.buildSync([]I{item})
		w.owner[w.cfg.Key(item)] = tmp
		task.addStore(tmp)
		// The fresh temp rides along as a source so it is retired when the
		// merged structure lands; meanwhile it answers queries. Park it in
		// the slot list so allStores sees it exactly once.
		w.temps[target] = append(w.temps[target], tmp)
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

// takeLevelItems removes and returns the live items of Cj, including
// parked temps.
func (w *WorstCase[K, I]) takeLevelItems(j int) []I {
	w.invalidateStores()
	var items []I
	if j == 0 {
		items = w.c0.LiveItems()
		w.c0 = w.cfg.NewC0()
	} else if w.levels[j] != nil {
		items = w.levels[j].LiveItems()
		w.levels[j] = nil
	}
	if j > 0 {
		for _, tmp := range w.temps[j] {
			items = append(items, tmp.LiveItems()...)
		}
		w.temps[j] = nil
	}
	return items
}

// Delete removes the item with the given key (Section 3, "Deletions").
func (w *WorstCase[K, I]) Delete(key K) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drainLocked(false)
	st, ok := w.owner[key]
	if !ok {
		return false
	}
	weight, _ := st.Delete(key)
	delete(w.owner, key)
	w.tombstoneInBuilds(st, key)

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
	n := 0
	deletedWeight := 0
	touched := make(map[Store[K, I]]bool)
	for _, key := range keys {
		st, ok := w.owner[key]
		if !ok {
			continue
		}
		weight, _ := st.Delete(key)
		delete(w.owner, key)
		n++
		deletedWeight += weight
		w.tombstoneInBuilds(st, key)
		if st != Store[K, I](w.c0) {
			touched[st] = true
		}
	}
	if n == 0 {
		return 0
	}
	for st := range touched {
		w.afterStaticDelete(st)
	}
	w.deletedSinceSweep += deletedWeight
	w.maybeSweepTops()
	w.checkRebalance()
	return n
}

// tombstoneInBuilds records a raced deletion with every in-flight build
// sourcing st, so the build result never resurrects the item.
func (w *WorstCase[K, I]) tombstoneInBuilds(st Store[K, I], key K) {
	for _, b := range w.builds {
		for _, src := range b.sources {
			if src == st {
				b.addTombstone(key)
			}
		}
	}
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
		if w.mergeBlocked(j) {
			w.pendingMerge[j] = true
			return
		}
		w.mergeLevelUp(j)
		return
	}
}

// mergeBlocked reports whether merging level j into j+1 must wait: the
// slot machinery is busy, or either participating store already feeds an
// in-flight build (building a store twice would duplicate its items).
func (w *WorstCase[K, I]) mergeBlocked(j int) bool {
	if w.slotBusy(j) {
		return true
	}
	if w.levels[j] != nil && w.isBuildSource(w.levels[j]) {
		return true
	}
	if j+1 < len(w.levels) && w.levels[j+1] != nil && w.isBuildSource(w.levels[j+1]) {
		return true
	}
	return false
}

// mergeLevelUp locks level j and builds Nj+1 from it (plus the current
// occupant of j+1 and any parked temps) in the background.
func (w *WorstCase[K, I]) mergeLevelUp(j int) {
	w.invalidateStores()
	s := w.levels[j]
	w.locked[j] = s
	w.levels[j] = nil
	task := &buildTask[K, I]{kind: buildLevel, target: j + 1}
	task.addStore(s)
	if j == len(w.maxes)-1 {
		task.kind, task.split = buildTop, w.topCap()
	} else if w.levels[j+1] != nil {
		task.addStore(w.levels[j+1])
	}
	target := j + 1
	if target < len(w.temps) {
		for _, tmp := range w.temps[target] {
			task.addStore(tmp)
		}
	}
	if task.itemCount() == 0 {
		w.locked[j] = nil
		if target < len(w.temps) {
			w.temps[target] = nil
		}
		return
	}
	w.launch(task)
}

// maybeSweepTops purges the top collection holding the most dead weight
// once per nf/(2τ·log τ) units deleted since the last sweep (Lemma 1
// then bounds every top's dead fraction by O(1/τ)). A batch deletion can
// bank several intervals at once, so each accrued interval purges one
// more (distinct) top — matching the sweep count looped deletes would
// have produced. Tops already feeding an in-flight build are skipped so
// no item is built twice.
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
	busy := make(map[Store[K, I]]bool)
	for _, b := range w.builds {
		for _, s := range b.sources {
			busy[s] = true
		}
	}
	cands := make([]Store[K, I], 0, len(w.tops))
	for _, tp := range w.tops {
		if !busy[tp] && tp.DeadWeight() > 0 {
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
		if w.isBuildSource(worst) {
			continue
		}
		task := &buildTask[K, I]{kind: buildTop, split: w.topCap(), purge: true}
		task.addStore(worst)
		w.launch(task)
		w.stats.TopPurges++
	}
	w.dropEmptyTops()
}

// isBuildSource reports whether s feeds an in-flight build.
func (w *WorstCase[K, I]) isBuildSource(s Store[K, I]) bool {
	for _, b := range w.builds {
		for _, src := range b.sources {
			if src == s {
				return true
			}
		}
	}
	return false
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

func (w *WorstCase[K, I]) startRebalance() {
	w.invalidateStores()
	w.rebalancing = true
	task := &buildTask[K, I]{kind: buildRebalance}
	n := 0
	oldC0 := w.c0
	take := func(s Store[K, I]) {
		if s.LiveWeight() == 0 && len(s.LiveKeys()) == 0 && s != oldC0 {
			return
		}
		task.addStore(s)
		n += s.LiveWeight()
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
	// Locked stores stay with their in-flight builds.
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
