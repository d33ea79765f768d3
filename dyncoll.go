package dyncoll

import (
	"fmt"
	"iter"

	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/fmindex"
	"dyncoll/internal/query"
)

// Document is one document: an application-chosen ID and a byte payload.
// Payload bytes must be non-zero (0x00 is the reserved separator).
type Document = doc.Doc

// Occurrence is one pattern match: the matching document and the offset
// of the match within it. Offsets are relative to the document, so
// deleting other documents never shifts them (the paper's (doc, off)
// reporting convention).
type Occurrence = core.Occurrence

// Transformation selects which of the paper's static-to-dynamic
// transformations backs a structure.
type Transformation int

const (
	// WorstCase is Transformation 2 (the default): bounded foreground
	// work per update (rebuilds run in the background); range-finding
	// visits O(τ) more sub-collections.
	WorstCase Transformation = iota
	// Amortized is Transformation 1: updates cost O(u(n)·logᵋ n)
	// amortized per symbol; queries match the static index exactly.
	Amortized
	// AmortizedFastInsert is Transformation 3: O(log log n) levels make
	// insertions cheaper (O(u(n)·log log n) amortized) at an
	// O(log log n) query fan-out factor.
	AmortizedFastInsert
)

// docCore is one core of a Collection: a ladder of either
// transformation, which is also the source query plans execute over and
// binds itself to the persistence walkers.
type docCore interface {
	query.Source
	Insert(doc.Doc) error
	InsertBatch([]doc.Doc) error
	Delete(id uint64) bool
	DeleteBatch(ids []uint64) int
	Has(id uint64) bool
	DocIDs() []uint64
	Find(pattern []byte) []core.Occurrence
	FindFunc(pattern []byte, fn func(core.Occurrence) bool)
	Count(pattern []byte) int
	DocLen(id uint64) (int, bool)
	Len() int
	DocCount() int
	SizeBits() int64
	WaitIdle()
	Stats() core.Stats
	SortedWeight() int64
	Persister(core.IndexDecoder, core.IndexOpener) core.Persister
}

var (
	_ docCore = (*core.Amortized)(nil)
	_ docCore = (*core.WorstCase)(nil)
)

// Collection is a dynamic compressed document collection.
//
// An unsharded Collection (the default) is not safe for concurrent use;
// callers must serialize access externally. A Collection built with
// WithShards(p) is safe for concurrent readers and writers: every shard
// carries its own sync.RWMutex and fan-out queries take only read locks.
type Collection struct {
	union  union[docCore] // the cores; no locks when unsharded
	cfg    config         // resolved construction config, recorded in snapshots
	mapped *mappedFile    // v2 snapshot mapping, nil unless LoadMappedFile
}

// NewCollection creates an empty dynamic document collection. The zero
// configuration gives the paper's defaults — Transformation 2 over the
// compressed FM-index with automatic τ — and options adjust it:
//
//	c, err := dyncoll.NewCollection(
//		dyncoll.WithIndex(dyncoll.IndexSA),
//		dyncoll.WithTau(8),
//		dyncoll.WithCounting(),
//	)
//
// It fails with ErrUnknownIndex when WithIndex names an unregistered
// index, and ErrInvalidOption on out-of-range option values.
func NewCollection(opts ...Option) (*Collection, error) {
	cfg, err := newConfig(kindCollection, opts)
	if err != nil {
		return nil, err
	}
	return newCollection(cfg)
}

func newCollection(cfg config) (*Collection, error) {
	u, err := newDocCores(cfg)
	if err != nil {
		return nil, err
	}
	return &Collection{union: u, cfg: cfg}, nil
}

// config, front and fresh make the collection a persistable structure
// (snapshot.go). fresh resolves the index by name before anything is
// built, which is where a never-registered custom index fails.
func (c *Collection) config() config { return c.cfg }
func (c *Collection) front() front   { return collFront(c.union, c.cfg.index) }
func (c *Collection) fresh(cfg config) (front, func(), error) {
	u, err := newDocCores(cfg)
	if err != nil {
		return front{}, nil, err
	}
	return collFront(u, cfg.index), func() { c.union, c.cfg = u, cfg }, nil
}

// collFront is the persistence view of a collection's cores: each bound
// to the codec of the named index, under the same locks.
func collFront(u union[docCore], index string) front {
	decode, open := lookupDecoder(index), lookupMappedOpener(index)
	f := front{mus: u.mus}
	for _, x := range u.cores {
		f.cores = append(f.cores, x.Persister(decode, open))
	}
	return f
}

// newDocCores builds the cores cfg describes: one per shard, or one for
// an unsharded collection.
func newDocCores(cfg config) (union[docCore], error) {
	builder, err := lookupIndex(cfg.index)
	if err != nil {
		return union[docCore]{}, err
	}
	icfg := IndexConfig{SampleRate: cfg.sampleRate}
	co := core.Options{
		Builder:     func(docs []doc.Doc) core.StaticIndex { return builder(docs, icfg) },
		Tau:         cfg.tau,
		Epsilon:     cfg.epsilon,
		MinCapacity: cfg.minCapacity,
		Counting:    cfg.counting,
		Ratio2:      cfg.transformation == AmortizedFastInsert,
		Inline:      cfg.syncRebuilds,
	}
	return newUnion(cfg, func() docCore {
		if cfg.transformation == WorstCase {
			return core.NewWorstCase(co)
		}
		return core.NewAmortized(co)
	}), nil
}

// Insert adds a document. It fails with ErrDuplicateID if the ID is
// already live and ErrReservedByte if the payload contains 0x00.
func (c *Collection) Insert(d Document) error {
	x, h := c.union.owner(d.ID, true)
	defer h.release()
	return x.Insert(d)
}

// InsertBatch adds many documents in one ingest: the whole batch is
// validated up front (on error nothing is inserted) and placed with at
// most one rebuild cascade, instead of the cascade-per-document cost of
// looped Insert calls. It fails with ErrDuplicateID — also for IDs
// repeated within the batch — or ErrReservedByte.
func (c *Collection) InsertBatch(docs []Document) error { return insertBatch(&c.union, docs) }

// Delete removes the document with the given ID. It fails with
// ErrNotFound if no such document is live.
func (c *Collection) Delete(id uint64) error {
	x, h := c.union.owner(id, true)
	defer h.release()
	if x.Delete(id) {
		return nil
	}
	return fmt.Errorf("dyncoll: delete id %d: %w", id, ErrNotFound)
}

// DeleteBatch removes every listed document that is live and returns the
// number actually removed; IDs that are absent (or repeated) are
// skipped. Purge checks and rebuild triggers run once for the whole
// batch.
func (c *Collection) DeleteBatch(ids []uint64) int { return deleteBatch(&c.union, ids) }

// Has reports whether a live document with the given ID exists.
func (c *Collection) Has(id uint64) bool {
	x, h := c.union.owner(id, false)
	defer h.release()
	return x.Has(id)
}

// Find returns every occurrence of pattern across all live documents.
// For large result sets prefer FindIter, which never materializes the
// slice.
func (c *Collection) Find(pattern []byte) []Occurrence {
	return gather(&c.union, pattern, docCore.Find)
}

// FindIter returns a single-use iterator over the occurrences of
// pattern. Enumeration is lazy — breaking out of the range loop stops
// the underlying search — so huge result sets cost only what is
// consumed:
//
//	for occ := range c.FindIter(pattern) {
//		if enough(occ) { break }
//	}
//
// On an unsharded collection, the collection must not be touched from
// the loop body or another goroutine until iteration completes: under
// the WorstCase transformation the iterator holds the collection's
// internal lock while yielding, so even a read re-entering the same
// collection would self-deadlock. On a sharded collection (WithShards)
// the iterator merges parallel per-shard streams; other goroutines may
// freely read and write during iteration, but the loop body itself must
// still not touch the collection — not even reads: the fan-out holds
// shard read locks while yielding, and with a writer queued on the same
// shard a loop-body read deadlocks (new readers queue behind waiting
// writers).
func (c *Collection) FindIter(pattern []byte) iter.Seq[Occurrence] {
	return func(yield func(Occurrence) bool) {
		c.FindFunc(pattern, yield)
	}
}

// FindFunc streams occurrences of pattern; enumeration stops when fn
// returns false.
func (c *Collection) FindFunc(pattern []byte, fn func(Occurrence) bool) {
	stream(&c.union, pattern, docCore.FindFunc, fn)
}

// Count returns the number of occurrences of pattern.
func (c *Collection) Count(pattern []byte) int { return sum(&c.union, pattern, docCore.Count) }

// Extract returns length payload bytes of document id starting at off.
func (c *Collection) Extract(id uint64, off, length int) ([]byte, bool) {
	x, h := c.union.owner(id, false)
	defer h.release()
	return x.Extract(id, off, length)
}

// DocLen returns the payload length of document id.
func (c *Collection) DocLen(id uint64) (int, bool) {
	x, h := c.union.owner(id, false)
	defer h.release()
	return x.DocLen(id)
}

// DocIDs returns the IDs of all live documents in unspecified order.
func (c *Collection) DocIDs() []uint64 { return gather(&c.union, docCore.DocIDs, apply) }

// Len reports the total number of live payload symbols.
func (c *Collection) Len() int { return sum(&c.union, docCore.Len, apply) }

// DocCount reports the number of live documents.
func (c *Collection) DocCount() int { return sum(&c.union, docCore.DocCount, apply) }

// SizeBits estimates the index footprint in bits (for space accounting).
func (c *Collection) SizeBits() int64 { return sum(&c.union, docCore.SizeBits, apply) }

// WaitIdle blocks until background rebuilds (WorstCase transformation
// only) have completed — across every shard when the collection is
// sharded; other transformations return immediately.
func (c *Collection) WaitIdle() {
	for _, x := range c.union.cores {
		x.WaitIdle()
	}
}

// IndexStats describes a structure's engine-level layout: the
// sub-collection ladder of the paper's transformations plus rebuild
// counters. The same shape serves Collection, Relation and Graph — all
// three run on the one generic engine — with sizes measured in the
// structure's own weight unit (payload symbols for collections, pairs
// for relations, edges for graphs). Fields that do not apply to the
// active transformation are zero.
type IndexStats struct {
	// Levels is the number of sub-collection slots (C0 plus compressed
	// levels).
	Levels int
	// LevelSizes and LevelCaps list live weight and capacity per level;
	// index 0 is the uncompressed C0.
	LevelSizes []int
	LevelCaps  []int
	// Rebuilds counts level rebuilds (amortized) or background builds
	// (worst-case); GlobalRebuilds counts whole-structure
	// rebuilds/rebalances.
	Rebuilds       int
	GlobalRebuilds int
	// Tops is the number of top collections and TopSizes their live
	// weights (worst-case transformation). PendingBuilds is the number
	// of background builds currently in flight.
	Tops          int
	TopSizes      []int
	PendingBuilds int
	// Parked is the weight an update parked unbuilt (worst-case
	// transformation): queryable by scanning until the background builds
	// replacing it land.
	Parked int
	// BuiltWeight is the weight handed to the static-index builder since
	// the structure was created, by cause; its total over the weight
	// inserted is the write amplification of the transformation.
	BuiltWeight BuiltWeight
	// Tau is the lazy-deletion parameter currently in effect.
	Tau int
	// Shards is the number of shards (0 for an unsharded structure).
	// Per-level numbers are element-wise sums across shards.
	Shards int
	// MappedBytes is the footprint served directly from a snapshot
	// mapping (LoadMappedFile) — file-backed pages the OS can reclaim
	// under pressure; zero for structures that were never mapped.
	// HeapBytes is the rest of the estimated footprint, so for a
	// never-mapped structure it is the whole estimate.
	MappedBytes int64
	HeapBytes   int64
	// Space is the footprint of the collection's FM-indexed stores, in
	// bits, section by section: each store's fmindex Space, summed. It
	// is zero for other indexes and for relations and graphs.
	Space IndexSpace
}

// IndexSpace is an FM index's footprint in bits, section by section:
// the wavelet tree, the marks, the SA samples, the ISA samples, the
// separator tables, the document table and the symbol tables.
type IndexSpace = fmindex.Space

// BuiltWeight splits the weight a structure has built into static
// indexes by cause: level merges, new top collections, purges of
// deleted items and whole-structure rebalances. Sorted is the part of
// it built from the items themselves: the weight a collection
// suffix-sorted, where it merged or filtered the rest out of indexes
// already built (the fmm index's rebuilds), and all a relation built.
type BuiltWeight struct {
	core.BuiltWeight
	Sorted int64 `json:"sorted"`
}

// fillResidency splits the estimated footprint into mapped (snapshot
// pages served in place) and heap parts. Mapped payload bytes count
// inside SizeBits like any other store memory, so heap is the
// remainder, floored at zero since both sides are estimates.
func (st *IndexStats) fillResidency(mf *mappedFile, sizeBits int64) {
	st.MappedBytes = mf.mappedBytes()
	st.HeapBytes = max(sizeBits/8-st.MappedBytes, 0)
}

// indexStatsFrom maps the engine's unified stats onto the facade type.
// core.Stats, binrel.Stats and the graph's stats are all aliases of the
// same engine type, so every facade shares this one mapping.
func indexStatsFrom(st core.Stats) IndexStats {
	return IndexStats{
		Levels:         st.Levels,
		LevelSizes:     st.LevelSizes,
		LevelCaps:      st.LevelCaps,
		Rebuilds:       st.LevelRebuilds + st.BackgroundBuilds,
		GlobalRebuilds: st.GlobalRebuilds + st.Rebalances,
		Tops:           st.Tops,
		TopSizes:       st.TopSizes,
		PendingBuilds:  st.PendingBuilds,
		Parked:         st.Parked,
		BuiltWeight:    BuiltWeight{BuiltWeight: st.BuiltWeight},
		Tau:            st.Tau,
	}
}

// Stats reports the collection's internal layout and rebuild counters.
// On a sharded collection the counters are aggregated across shards.
func (c *Collection) Stats() IndexStats {
	st := indexStatsFrom(aggStats(perCore(&c.union, docCore.Stats, apply)))
	st.BuiltWeight.Sorted = sum(&c.union, docCore.SortedWeight, apply)
	st.Shards = c.cfg.shards
	st.fillResidency(c.mapped, c.SizeBits())
	for _, sp := range perCore(&c.union, fmSpace, apply) {
		st.Space = st.Space.Add(sp)
	}
	return st
}

// fmSpace sums the Space sections of a core's FM-indexed stores.
func fmSpace(c docCore) IndexSpace {
	var sp IndexSpace
	for pt := range c.Parts {
		if sd, ok := pt.(*core.SemiDynamic); ok {
			if x, ok := sd.Index().(*fmindex.Index); ok {
				sp = sp.Add(x.Space())
			}
		}
	}
	return sp
}

// ShardSizes reports live payload symbols per shard, in shard order —
// the occupancy view /varz serves so an operator can see whether the
// key hash is spreading the corpus. It returns nil for an unsharded
// collection.
func (c *Collection) ShardSizes() []int {
	if c.union.mus == nil {
		return nil
	}
	return perCore(&c.union, docCore.Len, apply)
}
