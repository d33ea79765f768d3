package dyncoll

// Sharded structures: WithShards(p) partitions a Collection, Relation,
// or Graph across p independent cores, each with its own rebuild
// pipeline and its own sync.RWMutex. Updates route to the core owning
// the key (document ID, relation object, or edge source) under that
// core's write lock; batch updates split per core and ingest
// concurrently; queries that cannot be routed — Find, Count, ObjectsOf,
// Predecessors, full enumerations — fan out across all cores in
// parallel goroutines and merge into one stream under per-core read
// locks.
//
// Sharding is invisible to query semantics: the paper's transformations
// already answer a query as the union over independent sub-collections
// (the ladder levels), and a sharded structure is just one more level of
// the same union, split by key hash instead of by age. An unsharded
// structure is the same union with one core and no locks, so every
// facade method is written once, over the helpers below. See DESIGN.md.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/fanout"
	"dyncoll/internal/shardmap"
)

// shardOf maps a key to one of p shards through the module-wide
// placement contract (internal/shardmap): the same function the
// networked frontend uses for key→backend routing, pinned by golden
// tests because snapshots record per-shard ladders. p ≤ 1 maps to 0.
func shardOf(key uint64, p int) int { return shardmap.ShardOf(key, p) }

// union is a structure as the union of its cores: the cores in shard
// order and, when the structure is sharded, the lock of each. mus is
// nil for an unsharded structure — one core, whose callers serialize
// access themselves — so its methods take no lock and call cores[0]
// directly. Lock policy lives in the helpers below and nowhere else.
type union[C any] struct {
	cores []C
	mus   []*sync.RWMutex
}

// newUnion builds cfg.shards cores with their locks, or one core and no
// locks when cfg is unsharded.
func newUnion[C any](cfg config, build func() C) union[C] {
	u := union[C]{cores: make([]C, max(cfg.shards, 1))}
	for i := range u.cores {
		u.cores[i] = build()
	}
	for range cfg.shards {
		u.mus = append(u.mus, new(sync.RWMutex))
	}
	return u
}

// held is the lock a caller took on one core: none when the structure
// is unsharded.
type held struct {
	mu    *sync.RWMutex
	write bool
}

func (h held) release() {
	switch {
	case h.mu == nil:
	case h.write:
		h.mu.Unlock()
	default:
		h.mu.RUnlock()
	}
}

// at returns core i, write- or read-locked when the structure is
// sharded; the caller defers the release of the returned lock.
func (u *union[C]) at(i int, write bool) (C, held) {
	if u.mus == nil {
		return u.cores[i], held{}
	}
	h := held{u.mus[i], write}
	if write {
		h.mu.Lock()
	} else {
		h.mu.RLock()
	}
	return u.cores[i], h
}

// owner is at for the core that owns key.
func (u *union[C]) owner(key uint64, write bool) (C, held) {
	return u.at(shardOf(key, len(u.cores)), write)
}

// rlock takes every core's read lock, so a pass over the cores is one
// consistent cut — concurrent readers proceed, writers wait.
func (u union[C]) rlock() {
	for _, mu := range u.mus {
		mu.RLock()
	}
}

func (u union[C]) runlock() {
	for _, mu := range u.mus {
		mu.RUnlock()
	}
}

// The fan-out helpers take each core's work as a method expression f
// plus its argument a (apply adapts a method without one), so reaching
// a single core builds no closure and crosses no goroutine: an
// unsharded Count allocates nothing.

// apply(x, f) is f(x). Passed as a helper's f, with a method expression
// that takes no arguments as a — sum(u, docCore.Len, apply) — it puts
// that method in the helpers' form.
func apply[C, R any](x C, f func(C) R) R { return f(x) }

// one computes f(cores[i], a) under core i's read lock.
func one[C, A, R any](u *union[C], i int, a A, f func(C, A) R) R {
	x, h := u.at(i, false)
	defer h.release()
	return f(x, a)
}

// perCore computes f(core, a) for every core, in shard order, each in
// its own goroutine under its read lock.
func perCore[C, A, R any](u *union[C], a A, f func(C, A) R) []R {
	out := make([]R, len(u.cores))
	fanout.ForEach(len(out), func(i int) { out[i] = one(u, i, a, f) })
	return out
}

// sum adds f(core, a) over every core.
func sum[C, A any, N int | int64](u *union[C], a A, f func(C, A) N) N {
	if len(u.cores) == 1 {
		return one(u, 0, a, f)
	}
	var n N
	for _, v := range perCore(u, a, f) {
		n += v
	}
	return n
}

// gather concatenates f(core, a) over every core, in shard order.
func gather[C, A, T any](u *union[C], a A, f func(C, A) []T) []T {
	if len(u.cores) == 1 {
		return one(u, 0, a, f)
	}
	return fanout.Gather(len(u.cores), func(i int) []T { return one(u, i, a, f) })
}

// stream merges every core's enumeration f(core, a, emit) into fn, the
// cores enumerating in parallel under their read locks; when fn returns
// false every core stops at its next value.
func stream[C, A, T any](u *union[C], a A, f func(C, A, func(T) bool), fn func(T) bool) {
	if len(u.cores) == 1 {
		streamAt(u, 0, a, f, fn)
		return
	}
	fanout.FanOut(len(u.cores), func(i int, emit func(T) bool) { streamAt(u, i, a, f, emit) }, fn)
}

// streamAt runs core i's enumeration under its read lock.
func streamAt[C, A, T any](u *union[C], i int, a A, f func(C, A, func(T) bool), emit func(T) bool) {
	x, h := u.at(i, false)
	defer h.release()
	f(x, a, emit)
}

// split partitions items by the core owning each one's key and lists
// the cores that received any, ascending.
func split[T any](p int, items []T, key func(T) uint64) (parts [][]T, involved []int) {
	parts = make([][]T, p)
	for _, it := range items {
		i := shardOf(key(it), p)
		parts[i] = append(parts[i], it)
	}
	for i, part := range parts {
		if part != nil {
			involved = append(involved, i)
		}
	}
	return parts, involved
}

// deleteBatch is Collection.DeleteBatch over the union: the IDs split
// per core and each part is deleted under its core's write lock, the
// cores in parallel.
func deleteBatch(u *union[docCore], ids []uint64) int {
	if len(u.cores) == 1 {
		x, h := u.at(0, true)
		defer h.release()
		return x.DeleteBatch(ids)
	}
	parts, involved := split(len(u.cores), ids, func(id uint64) uint64 { return id })
	var total atomic.Int64
	fanout.ForEach(len(involved), func(k int) {
		i := involved[k]
		x, h := u.at(i, true)
		defer h.release()
		total.Add(int64(x.DeleteBatch(parts[i])))
	})
	return int(total.Load())
}

// insertBatch is Collection.InsertBatch over the union. An unsharded
// core validates and ingests the batch atomically itself. Sharded, the
// batch splits per core, and every involved core's write lock is held —
// taken in ascending order — while the whole batch is validated
// (in-batch duplicates, live-ID collisions, reserved bytes), so either
// all documents land or none do, and no concurrent writer can
// invalidate the check; then the parts ingest concurrently.
func insertBatch(u *union[docCore], docs []doc.Doc) error {
	if u.mus == nil {
		return u.cores[0].InsertBatch(docs)
	}
	seen := make(map[uint64]bool, len(docs))
	for _, d := range docs {
		if seen[d.ID] {
			return fmt.Errorf("dyncoll: insert id %d: %w", d.ID, ErrDuplicateID)
		}
		seen[d.ID] = true
		if !d.Valid() {
			return fmt.Errorf("dyncoll: insert id %d: %w", d.ID, ErrReservedByte)
		}
	}
	parts, involved := split(len(u.cores), docs, func(d doc.Doc) uint64 { return d.ID })
	for _, i := range involved {
		_, h := u.at(i, true)
		defer h.release()
	}
	for _, i := range involved {
		for _, d := range parts[i] {
			if u.cores[i].Has(d.ID) {
				return fmt.Errorf("dyncoll: insert id %d: %w", d.ID, ErrDuplicateID)
			}
		}
	}
	var firstErr atomic.Pointer[error]
	fanout.ForEach(len(involved), func(k int) {
		i := involved[k]
		// Validated above under the held locks, so this cannot fail on
		// user input; surface internal errors anyway rather than drop them.
		if err := u.cores[i].InsertBatch(parts[i]); err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	})
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// aggStats merges per-core engine stats into one: counters sum,
// per-level numbers sum element-wise, top lists concatenate, Levels is
// the deepest core's and Tau core 0's (all cores share a config). Every
// structure — collection, relation, graph, sharded or not — reports
// through this one code path, so one core's stats come back unchanged.
func aggStats(sts []core.Stats) core.Stats {
	agg := sts[0]
	for _, st := range sts[1:] {
		agg.Levels = max(agg.Levels, st.Levels)
		for j, sz := range st.LevelSizes {
			if j == len(agg.LevelSizes) {
				agg.LevelSizes = append(agg.LevelSizes, 0)
				agg.LevelCaps = append(agg.LevelCaps, 0)
				agg.LevelDead = append(agg.LevelDead, 0)
			}
			agg.LevelSizes[j] += sz
			agg.LevelCaps[j] += st.LevelCaps[j]
			agg.LevelDead[j] += st.LevelDead[j]
		}
		agg.LevelRebuilds += st.LevelRebuilds
		agg.GlobalRebuilds += st.GlobalRebuilds
		agg.Purges += st.Purges
		agg.BackgroundBuilds += st.BackgroundBuilds
		agg.TempParks += st.TempParks
		agg.TopPurges += st.TopPurges
		agg.Rebalances += st.Rebalances
		agg.PendingBuilds += st.PendingBuilds
		agg.Tops += st.Tops
		agg.Parked += st.Parked
		agg.MaxTops += st.MaxTops
		agg.TopSizes = append(agg.TopSizes, st.TopSizes...)
		agg.TopDead = append(agg.TopDead, st.TopDead...)
		agg.NF += st.NF
		agg.BuiltWeight.Add(st.BuiltWeight)
	}
	return agg
}
