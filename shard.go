package dyncoll

// Sharded structures: WithShards(p) partitions a Collection, Relation,
// or Graph across p independent sub-structures, each with its own
// rebuild pipeline and its own sync.RWMutex. Updates route to the shard
// owning the key (document ID, relation object, or edge source) under
// that shard's write lock; batch updates split per shard and ingest
// concurrently; queries that cannot be routed — Find, Count, ObjectsOf,
// Predecessors, full enumerations — fan out across all shards in
// parallel goroutines and merge into one stream under per-shard read
// locks.
//
// Sharding is invisible to query semantics: the paper's transformations
// already answer a query as the union over independent sub-collections
// (the ladder levels), and a sharded structure is just one more level of
// the same union, split by key hash instead of by age. See DESIGN.md.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dyncoll/internal/binrel"
	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/fanout"
	"dyncoll/internal/query"
	"dyncoll/internal/shardmap"
)

// shardOf maps a key to one of p shards through the module-wide
// placement contract (internal/shardmap): the same function the
// networked frontend uses for key→backend routing, pinned by golden
// tests because snapshots record per-shard ladders.
func shardOf(key uint64, p int) int { return shardmap.ShardOf(key, p) }

// Fan-out/merge goes straight through internal/fanout — the same
// contract the networked frontend applies to per-backend NDJSON
// streams. See that package for the chunking and early-break semantics.

// aggStats merges per-shard engine stats into one: counters sum,
// per-level numbers sum element-wise, top lists concatenate, Tau is
// taken from shard 0 (all shards share a config). Every sharded
// structure — collection, relation, graph — aggregates through this one
// code path; get is responsible for its shard's lock.
func aggStats(n int, get func(i int) core.Stats) core.Stats {
	var agg core.Stats
	for i := 0; i < n; i++ {
		st := get(i)
		if i == 0 {
			agg.Tau = st.Tau
		}
		if st.Levels > agg.Levels {
			agg.Levels = st.Levels
		}
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
		agg.SyncBuilds += st.SyncBuilds
		agg.TempParks += st.TempParks
		agg.TopPurges += st.TopPurges
		agg.Rebalances += st.Rebalances
		agg.PendingBuilds += st.PendingBuilds
		agg.Tops += st.Tops
		agg.MaxTops += st.MaxTops
		agg.TopSizes = append(agg.TopSizes, st.TopSizes...)
		agg.TopDead = append(agg.TopDead, st.TopDead...)
		agg.NF += st.NF
		agg.BuiltWeight.Add(st.BuiltWeight)
	}
	return agg
}

// --- Collection ---

// collShard is one partition of a sharded collection: an independent
// core implementation guarded by its own RWMutex. Queries take the read
// lock (the worst-case transformation additionally serializes on its
// internal mutex, which is fine under a read lock); updates take the
// write lock.
type collShard struct {
	mu   sync.RWMutex
	impl collCore
}

// shardedColl implements collImpl over p collShards keyed by document
// ID.
type shardedColl struct {
	shards []*collShard
}

// newShardedColl builds cfg.shards identical sub-collections.
func newShardedColl(cfg config) (*shardedColl, error) {
	s := &shardedColl{shards: make([]*collShard, cfg.shards)}
	for i := range s.shards {
		impl, err := newCollImpl(cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &collShard{impl: impl}
	}
	return s, nil
}

func (s *shardedColl) shard(id uint64) *collShard {
	return s.shards[shardOf(id, len(s.shards))]
}

// collFront is the persistence view of a collection implementation:
// every shard core bound to the codec of the named index, or the one
// core of an unsharded collection.
func collFront(impl collImpl, index string) front {
	decode, open := lookupDecoder(index), lookupMappedOpener(index)
	sh, ok := impl.(*shardedColl)
	if !ok {
		return front{cores: []ladderCore{impl.(collCore).Persister(decode, open)}}
	}
	var f front
	for _, s := range sh.shards {
		f.cores = append(f.cores, s.impl.Persister(decode, open))
		f.mus = append(f.mus, &s.mu)
	}
	return f
}

func (s *shardedColl) Insert(d doc.Doc) error {
	sh := s.shard(d.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.impl.Insert(d)
}

// InsertBatch splits the batch per shard and ingests the parts
// concurrently. Atomicity is preserved: every involved shard's write
// lock is held while the whole batch is validated (in-batch duplicates,
// live-ID collisions, reserved bytes), so either all documents land or
// none do, and no concurrent writer can invalidate the check.
func (s *shardedColl) InsertBatch(docs []doc.Doc) error {
	p := len(s.shards)
	parts := make([][]doc.Doc, p)
	seen := make(map[uint64]bool, len(docs))
	for _, d := range docs {
		if seen[d.ID] {
			return fmt.Errorf("dyncoll: insert id %d: %w", d.ID, ErrDuplicateID)
		}
		seen[d.ID] = true
		if !d.Valid() {
			return fmt.Errorf("dyncoll: insert id %d: %w", d.ID, ErrReservedByte)
		}
		t := shardOf(d.ID, p)
		parts[t] = append(parts[t], d)
	}
	for i, part := range parts {
		if part == nil {
			continue
		}
		s.shards[i].mu.Lock()
		defer s.shards[i].mu.Unlock()
	}
	for i, part := range parts {
		for _, d := range part {
			if s.shards[i].impl.Has(d.ID) {
				return fmt.Errorf("dyncoll: insert id %d: %w", d.ID, ErrDuplicateID)
			}
		}
	}
	var involved []int
	for i, part := range parts {
		if part != nil {
			involved = append(involved, i)
		}
	}
	var firstErr atomic.Pointer[error]
	fanout.ForEach(len(involved), func(k int) {
		i := involved[k]
		// Validated above under the held locks, so this cannot fail on
		// user input; surface internal errors anyway rather than drop them.
		if err := s.shards[i].impl.InsertBatch(parts[i]); err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	})
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

func (s *shardedColl) Delete(id uint64) bool {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.impl.Delete(id)
}

// DeleteBatch splits the IDs per shard and deletes concurrently.
func (s *shardedColl) DeleteBatch(ids []uint64) int {
	p := len(s.shards)
	parts := make([][]uint64, p)
	for _, id := range ids {
		t := shardOf(id, p)
		parts[t] = append(parts[t], id)
	}
	var involved []int
	for i, part := range parts {
		if part != nil {
			involved = append(involved, i)
		}
	}
	var total atomic.Int64
	fanout.ForEach(len(involved), func(k int) {
		sh := s.shards[involved[k]]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		total.Add(int64(sh.impl.DeleteBatch(parts[involved[k]])))
	})
	return int(total.Load())
}

func (s *shardedColl) Has(id uint64) bool {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.impl.Has(id)
}

func (s *shardedColl) DocIDs() []uint64 {
	return fanout.Gather(len(s.shards), func(i int) []uint64 {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.impl.DocIDs()
	})
}

// Find fans the pattern out across all shards in parallel and
// concatenates the per-shard results (order is unspecified, as for the
// unsharded collection).
func (s *shardedColl) Find(pattern []byte) []core.Occurrence {
	return fanout.Gather(len(s.shards), func(i int) []core.Occurrence {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.impl.Find(pattern)
	})
}

// FindFunc streams the parallel fan-out: each shard enumerates under its
// read lock in its own goroutine and the matches merge into fn. When fn
// returns false every shard stops at its next match.
func (s *shardedColl) FindFunc(pattern []byte, fn func(core.Occurrence) bool) {
	fanout.FanOut(len(s.shards), func(i int, emit func(core.Occurrence) bool) {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		sh.impl.FindFunc(pattern, emit)
	}, fn)
}

// execute runs a compiled query plan over the shard union — the
// sharded level of the plan/execute hierarchy. A streaming plan fans
// out per-shard executors (each already k-bounded) and enforces the
// global k at the merge point, so the early break propagates into every
// shard's enumeration mid-stream. A ranked plan gathers each shard's
// exact local top-k list in parallel and merges: scores are
// document-local and documents are shard-exclusive, so the merge of
// per-shard top-k lists is the exact global top-k.
func (s *shardedColl) execute(p *query.Plan, fn func(query.Match) bool) error {
	if p.Ranked() {
		lists := make([][]query.Match, len(s.shards))
		fanout.ForEach(len(s.shards), func(i int) {
			sh := s.shards[i]
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			lists[i] = query.Collect(sourceOf(sh.impl), p)
		})
		query.MergeRanked(lists, p.K(), fn)
		return nil
	}
	k := p.K()
	n := 0
	fanout.FanOut(len(s.shards), func(i int, emit func(query.Match) bool) {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		query.Over(sourceOf(sh.impl)).Execute(p, emit)
	}, func(m query.Match) bool {
		if !fn(m) {
			return false
		}
		n++
		return k <= 0 || n < k
	})
	return nil
}

func (s *shardedColl) Count(pattern []byte) int {
	var total atomic.Int64
	fanout.ForEach(len(s.shards), func(i int) {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		total.Add(int64(sh.impl.Count(pattern)))
	})
	return int(total.Load())
}

func (s *shardedColl) Extract(id uint64, off, length int) ([]byte, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.impl.Extract(id, off, length)
}

func (s *shardedColl) DocLen(id uint64) (int, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.impl.DocLen(id)
}

func (s *shardedColl) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.impl.Len()
		sh.mu.RUnlock()
	}
	return n
}

func (s *shardedColl) DocCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.impl.DocCount()
		sh.mu.RUnlock()
	}
	return n
}

func (s *shardedColl) SizeBits() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.impl.SizeBits()
		sh.mu.RUnlock()
	}
	return n
}

// WaitIdle quiesces every shard's background rebuild pipeline (a no-op
// per shard under the amortized transformations).
func (s *shardedColl) WaitIdle() {
	for _, sh := range s.shards {
		sh.impl.WaitIdle()
	}
}

// Stats aggregates per-shard engine stats through aggStats.
func (s *shardedColl) Stats() core.Stats {
	return aggStats(len(s.shards), func(i int) core.Stats {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.impl.Stats()
	})
}

// --- Relation ---

// relShard is one partition of a sharded relation, keyed by object.
type relShard struct {
	mu  sync.RWMutex
	rel *binrel.Relation
}

// shardedRelation implements relationImpl over p relShards keyed by
// object: object-keyed operations route to one shard; label-keyed and
// full enumerations fan out.
type shardedRelation struct {
	shards []*relShard
}

func newShardedRelation(cfg config) *shardedRelation {
	s := &shardedRelation{shards: make([]*relShard, cfg.shards)}
	for i := range s.shards {
		s.shards[i] = &relShard{rel: newRelationImpl(cfg)}
	}
	return s
}

func (s *shardedRelation) shard(object uint64) *relShard {
	return s.shards[shardOf(object, len(s.shards))]
}

// relFront is the persistence view of a relation (or graph)
// implementation; see collFront.
func relFront(impl relationImpl) front {
	sh, ok := impl.(*shardedRelation)
	if !ok {
		return front{cores: []ladderCore{impl.(*binrel.Relation).Persister()}}
	}
	var f front
	for _, s := range sh.shards {
		f.cores = append(f.cores, s.rel.Persister())
		f.mus = append(f.mus, &s.mu)
	}
	return f
}

func (s *shardedRelation) Add(object, label uint64) bool {
	sh := s.shard(object)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.rel.Add(object, label)
}

func (s *shardedRelation) Delete(object, label uint64) bool {
	sh := s.shard(object)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.rel.Delete(object, label)
}

func (s *shardedRelation) Related(object, label uint64) bool {
	sh := s.shard(object)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.rel.Related(object, label)
}

func (s *shardedRelation) LabelsOf(object uint64, fn func(label uint64) bool) {
	sh := s.shard(object)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sh.rel.LabelsOf(object, fn)
}

// ObjectsOf fans out across all shards in parallel: any shard may hold
// pairs with the given label. Order is unspecified.
func (s *shardedRelation) ObjectsOf(label uint64, fn func(object uint64) bool) {
	fanout.FanOut(len(s.shards), func(i int, emit func(uint64) bool) {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		sh.rel.ObjectsOf(label, emit)
	}, fn)
}

func (s *shardedRelation) Labels(object uint64) []uint64 {
	sh := s.shard(object)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.rel.Labels(object)
}

// Objects gathers per-shard results in parallel and sorts the union to
// keep the documented "sorted" contract.
func (s *shardedRelation) Objects(label uint64) []uint64 {
	out := fanout.Gather(len(s.shards), func(i int) []uint64 {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.rel.Objects(label)
	})
	slices.Sort(out)
	return out
}

func (s *shardedRelation) CountLabels(object uint64) int {
	sh := s.shard(object)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.rel.CountLabels(object)
}

func (s *shardedRelation) CountObjects(label uint64) int {
	var total atomic.Int64
	fanout.ForEach(len(s.shards), func(i int) {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		total.Add(int64(sh.rel.CountObjects(label)))
	})
	return int(total.Load())
}

func (s *shardedRelation) Pairs() []binrel.Pair {
	return fanout.Gather(len(s.shards), func(i int) []binrel.Pair {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.rel.Pairs()
	})
}

func (s *shardedRelation) PairsFunc(fn func(binrel.Pair) bool) {
	fanout.FanOut(len(s.shards), func(i int, emit func(binrel.Pair) bool) {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		sh.rel.PairsFunc(emit)
	}, fn)
}

func (s *shardedRelation) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.rel.Len()
		sh.mu.RUnlock()
	}
	return n
}

// Tau reads shard 0's τ under its lock: all shards share a config, but
// the amortized relation retunes τ during cascades, so an unlocked read
// would race with a writer on that shard.
func (s *shardedRelation) Tau() int {
	sh := s.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.rel.Tau()
}

func (s *shardedRelation) SizeBits() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.rel.SizeBits()
		sh.mu.RUnlock()
	}
	return n
}

// WaitIdle quiesces every shard's background rebuild pipeline (a no-op
// per shard under the amortized scheduling).
func (s *shardedRelation) WaitIdle() {
	for _, sh := range s.shards {
		sh.rel.WaitIdle()
	}
}

// Stats aggregates per-shard engine stats through aggStats.
func (s *shardedRelation) Stats() binrel.Stats {
	return aggStats(len(s.shards), func(i int) core.Stats {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.rel.Stats()
	})
}
