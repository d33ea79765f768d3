package engine

import "sync"

// Amortized is Transformation 1 (and, with Config.Ratio2, Transformation
// 3): a fully-dynamic structure with amortized update bounds.
//
// The data is split into sub-collections C0, C1, …, Cr whose capacities
// max_i grow geometrically. C0 is the payload's uncompressed mutable
// store; every Ci (i ≥ 1) is a deletion-only static payload. A new item
// goes to the first Cj that can absorb it together with all smaller
// sub-collections, which are then merged into Cj and rebuilt. When no
// level fits, a global rebuild moves everything into the last level and
// re-derives the capacity schedule from the new size.
//
// Amortized is not safe for concurrent use; callers serialize access.
type Amortized[K comparable, I any] struct {
	cfg Config[K, I]

	c0     Mutable[K, I]
	levels []Store[K, I] // levels[0] unused; levels[j] is Cj for j ≥ 1
	maxes  []int         // maxes[j] = max_j under the current nf

	owner map[K]Store[K, I] // live key → holding sub-collection

	// storeCache is the memoized View order (C0, then levels). It is
	// rebuilt eagerly by every mutation that swaps C0 or a level slot —
	// never lazily on the read path — so concurrent readers behind a
	// caller-managed RWMutex (the sharding layer) share it without
	// writes, and steady-state queries allocate nothing.
	storeCache []Store[K, I]

	nf  int // live weight at the last global rebuild
	tau int // τ in effect since the last global rebuild

	// gens/genc track per-store build generations for incremental
	// checkpoints; maintained only by Dump/Restore (see snapshot.go).
	// genMu guards them: Dump is otherwise read-only here, and sharded
	// facades allow concurrent Dumps under shard read locks.
	genMu sync.Mutex
	gens  map[Store[K, I]]uint64
	genc  uint64

	rebuilds       int // level rebuilds
	globalRebuilds int
	purges         int // deletion-triggered level purges
	built          BuiltWeight
}

// NewAmortized creates an empty ladder with amortized update bounds.
func NewAmortized[K comparable, I any](cfg Config[K, I]) *Amortized[K, I] {
	cfg = cfg.withDefaults()
	a := &Amortized[K, I]{
		cfg:   cfg,
		c0:    cfg.NewC0(),
		owner: make(map[K]Store[K, I]),
	}
	a.reschedule(0)
	a.rebuildStores()
	return a
}

// reschedule re-derives nf, τ and the capacity ladder from the current
// weight n (paper: max_0 = 2n/log²n, max_i = max_0·ratioⁱ where ratio
// is log^ε n for Transformation 1 and 2 for Transformation 3).
func (a *Amortized[K, I]) reschedule(n int) {
	a.nf = n
	a.tau = a.cfg.Tau
	if a.tau == 0 {
		a.tau = autoTau(n)
	}
	// Grow the ladder until the top level can hold the entire collection
	// twice over (so a global rebuild always fits), and to two rungs.
	a.maxes = a.cfg.capacities(a.maxes, n, a.cfg.Ratio2, func(max0, ratio float64) float64 {
		return max(float64(2*n)+1, max0*ratio)
	})
	for len(a.levels) < len(a.maxes) {
		a.levels = append(a.levels, nil)
	}
}

// Len reports the total live weight.
func (a *Amortized[K, I]) Len() int {
	n := a.c0.LiveWeight()
	for _, l := range a.levels {
		if l != nil {
			n += l.LiveWeight()
		}
	}
	return n
}

// Count reports the number of live items.
func (a *Amortized[K, I]) Count() int { return len(a.owner) }

// Keys returns all live keys in unspecified order.
func (a *Amortized[K, I]) Keys() []K {
	out := make([]K, 0, len(a.owner))
	for k := range a.owner {
		out = append(out, k)
	}
	return out
}

// Has reports whether an item with the given key is live.
func (a *Amortized[K, I]) Has(key K) bool {
	_, ok := a.owner[key]
	return ok
}

// InsertBatch adds items in one ingest. The whole batch is validated
// first — on any ErrDuplicateKey nothing is inserted — and then placed
// with at most one ladder rebuild cascade: into C0 if it fits, otherwise
// into the first level whose capacity absorbs it together with all
// smaller sub-collections (one rebuild), otherwise via a global rebuild.
func (a *Amortized[K, I]) InsertBatch(items []I) error {
	if len(items) == 0 {
		return nil
	}
	total, err := a.cfg.newWeight(a.owner, items)
	if err != nil {
		return err
	}
	prefix := a.c0.LiveWeight() + total
	if prefix <= a.maxes[0] {
		for _, it := range items {
			a.c0.Insert(it)
			a.owner[a.cfg.Key(it)] = a.c0
		}
		a.maybeGlobalRebuild()
		return nil
	}
	for j := 1; j < len(a.maxes); j++ {
		if a.levels[j] != nil {
			prefix += a.levels[j].LiveWeight()
		}
		if prefix <= a.maxes[j] {
			a.mergeInto(j, items)
			a.maybeGlobalRebuild()
			return nil
		}
	}
	// Nothing fits: global rebuild with the new items included.
	a.globalRebuild(items)
	return nil
}

// mergeInto rebuilds level j from C0 ∪ C1 ∪ … ∪ Cj ∪ extra.
func (a *Amortized[K, I]) mergeInto(j int, extra []I) {
	defer a.rebuildStores()
	items := a.c0.LiveItems()
	a.c0 = a.cfg.NewC0()
	for i := 1; i <= j; i++ {
		if a.levels[i] != nil {
			items = append(items, a.levels[i].LiveItems()...)
			a.levels[i] = nil
		}
	}
	items = append(items, extra...)
	a.built.LevelMerge += weightOf(items, a.cfg.Weight)
	lvl := a.build(items)
	a.levels[j] = lvl
	for _, it := range items {
		a.owner[a.cfg.Key(it)] = lvl
	}
	a.rebuilds++
}

// build builds a static store over items already materialized.
func (a *Amortized[K, I]) build(items []I) Store[K, I] {
	return a.cfg.Build([]Snapshot[I]{itemsSnapshot(items, a.cfg.Weight)})
}

// maybeGlobalRebuild triggers the paper's global rebuild once the live
// weight has at least doubled (or collapsed to half) since the last one.
func (a *Amortized[K, I]) maybeGlobalRebuild() {
	n := a.Len()
	if n >= 2*a.nf && n > a.cfg.MinCapacity {
		a.globalRebuild(nil)
	} else if a.nf > 2*a.cfg.MinCapacity && n <= a.nf/2 {
		a.globalRebuild(nil)
	}
}

// globalRebuild moves every live item (plus extra items, if any) into
// the top level and re-derives the capacity schedule.
func (a *Amortized[K, I]) globalRebuild(extra []I) {
	defer a.rebuildStores()
	items := a.c0.LiveItems()
	for i, l := range a.levels {
		if l != nil {
			items = append(items, l.LiveItems()...)
			a.levels[i] = nil
		}
	}
	items = append(items, extra...)
	n := 0
	for _, it := range items {
		n += a.cfg.Weight(it)
	}
	a.c0 = a.cfg.NewC0()
	a.reschedule(n)
	if len(items) == 0 {
		a.globalRebuilds++
		return
	}
	top := len(a.maxes) - 1
	a.built.Rebalance += int64(n)
	lvl := a.build(items)
	a.levels[top] = lvl
	owner := make(map[K]Store[K, I], len(items))
	for _, it := range items {
		owner[a.cfg.Key(it)] = lvl
	}
	a.owner = owner
	a.globalRebuilds++
}

// DeleteBatch removes every listed item that is live, returning the
// number actually removed. Deletions are lazy; once the batch is done,
// each level it hit that holds too many dead symbols (> total/τ of that
// level) is purged, and the global-rebuild check runs once.
func (a *Amortized[K, I]) DeleteBatch(keys []K) int {
	n, _ := deleteKeys(a.owner, Store[K, I](a.c0), keys, a.purgeLevel)
	if n == 0 {
		return 0
	}
	a.maybeGlobalRebuild()
	return n
}

// purgeLevel rebuilds level lvl without its deleted items once more
// than 1/τ of its weight is dead: dead > ⌊total/τ⌋, which is dead·τ >
// total without a product that overflows at a large τ.
func (a *Amortized[K, I]) purgeLevel(lvl Store[K, I]) {
	if total := lvl.LiveWeight() + lvl.DeadWeight(); total == 0 || lvl.DeadWeight() <= total/a.tau {
		return
	}
	defer a.rebuildStores()
	for j := 1; j < len(a.levels); j++ {
		if a.levels[j] != lvl {
			continue
		}
		items := lvl.LiveItems()
		if len(items) == 0 {
			a.levels[j] = nil
			a.purges++
			return
		}
		a.built.Purge += weightOf(items, a.cfg.Weight)
		fresh := a.build(items)
		a.levels[j] = fresh
		for _, it := range items {
			a.owner[a.cfg.Key(it)] = fresh
		}
		a.purges++
		return
	}
}

// stores returns the queryable stores (C0 first, then the levels).
// Read-only: the cache is maintained by rebuildStores at mutation time.
func (a *Amortized[K, I]) stores() []Store[K, I] { return a.storeCache }

// rebuildStores re-derives the cached store list. Mutators call it
// after swapping C0 or level slots; allocating a fresh slice (instead
// of truncating in place) leaves any list a concurrent reader already
// holds intact.
func (a *Amortized[K, I]) rebuildStores() {
	out := make([]Store[K, I], 0, 1+len(a.levels))
	out = append(out, Store[K, I](a.c0))
	for _, l := range a.levels {
		if l != nil {
			out = append(out, l)
		}
	}
	a.storeCache = out
}

// View runs fn over every queryable store (C0 first, then the levels).
func (a *Amortized[K, I]) View(fn func(stores []Store[K, I])) {
	fn(a.stores())
}

// Query sums fn over every queryable store (see Ladder.Query).
func (a *Amortized[K, I]) Query(arg []byte, fn func(st Store[K, I], arg []byte) int) int {
	return sumStores(a.stores(), arg, fn)
}

// ViewOwner runs fn on the store holding key, if live.
func (a *Amortized[K, I]) ViewOwner(key K, fn func(st Store[K, I])) bool {
	st, ok := a.owner[key]
	if !ok {
		return false
	}
	fn(st)
	return true
}

// WaitIdle is a no-op: the amortized transformations do all their work
// in the foreground. It exists so every engine satisfies the same
// Ladder contract.
func (a *Amortized[K, I]) WaitIdle() {}

// SizeBits estimates the total footprint for space accounting.
func (a *Amortized[K, I]) SizeBits() int64 {
	total := a.c0.SizeBits()
	for _, l := range a.levels {
		if l != nil {
			total += l.SizeBits()
		}
	}
	return total
}

// Stats returns rebuild counters and the current level occupancy.
func (a *Amortized[K, I]) Stats() Stats {
	st := Stats{
		LevelRebuilds:  a.rebuilds,
		GlobalRebuilds: a.globalRebuilds,
		Purges:         a.purges,
		Levels:         len(a.maxes),
		NF:             a.nf,
		Tau:            a.tau,
		BuiltWeight:    a.built,
	}
	st.LevelSizes = append(st.LevelSizes, a.c0.LiveWeight())
	st.LevelCaps = append(st.LevelCaps, a.maxes[0])
	st.LevelDead = append(st.LevelDead, a.c0.DeadWeight())
	for j := 1; j < len(a.maxes); j++ {
		sz, dead := 0, 0
		if a.levels[j] != nil {
			sz = a.levels[j].LiveWeight()
			dead = a.levels[j].DeadWeight()
		}
		st.LevelSizes = append(st.LevelSizes, sz)
		st.LevelCaps = append(st.LevelCaps, a.maxes[j])
		st.LevelDead = append(st.LevelDead, dead)
	}
	return st
}

// Tau reports the τ currently in effect.
func (a *Amortized[K, I]) Tau() int { return a.tau }
