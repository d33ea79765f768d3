// Package dyncoll is a compressed, fully-dynamic document index and graph
// library: a Go implementation of
//
//	J. Ian Munro, Yakov Nekrich, Jeffrey Scott Vitter.
//	"Dynamic Data Structures for Document Collections and Graphs."
//	PODS 2015 (arXiv:1503.05977).
//
// The paper's contribution is a general framework that turns any static
// compressed text index into a dynamic one — supporting document
// insertions and deletions — without routing queries through dynamic
// rank/select, whose Ω(log n / log log n) lower bound (Fredman–Saks)
// bottlenecked all previous dynamic compressed indexes.
//
// # The top-level API
//
//   - Collection — a dynamic compressed document collection: Insert,
//     InsertBatch, Delete, DeleteBatch, Find/FindIter, Count, Extract.
//   - Relation — a dynamic compressed binary relation (Theorem 2).
//   - Graph — a dynamic compressed directed graph (Theorem 3).
//
// Quick start:
//
//	c, err := dyncoll.NewCollection()
//	if err != nil { ... }
//	if err := c.Insert(dyncoll.Document{ID: 1, Data: []byte("abracadabra")}); err != nil { ... }
//	for occ := range c.FindIter([]byte("bra")) {
//		fmt.Println(occ) // {1 1}, {1 8}
//	}
//
// # Options and transformations
//
// All three constructors take the same functional options. An option
// that does not apply to the structure being built (WithIndex on a
// Relation, say) fails the constructor with ErrInvalidOption rather than
// being silently ignored.
//
// WithTransformation selects the paper's static-to-dynamic
// transformation: WorstCase (Transformation 2, the Collection default —
// bounded foreground work per update, rebuilds in background
// goroutines), Amortized (Transformation 1 — cheapest overall, but an
// individual update may trigger a cascade), or AmortizedFastInsert
// (Transformation 3 — cheaper insertions at an O(log log n) query
// fan-out). Relations and graphs default to Amortized; selecting
// WorstCase gives them the same engine machinery collections use —
// true background builds behind locked copies (no store ever feeds two
// builds at once), top-collection sweeps,
// and WaitIdle — because all three structures run on one generic
// transformation engine (see internal/engine).
//
// WithIndex picks the static index backing a Collection by registry name
// — built-ins IndexFMM (the default), IndexFMP, IndexFMZ, IndexFM4, IndexFM, IndexSA, IndexCSA, or
// anything added via RegisterIndex; this is the paper's index-agnosticism made concrete.
// WithSampleRate, WithTau, WithEpsilon, WithMinCapacity, and
// WithCounting tune the machinery; WithSyncRebuilds makes worst-case
// rebuilds deterministic for tests and benchmarks.
//
// # Sharding and concurrency
//
// By default a structure is a single partition and is NOT safe for
// concurrent use: callers must serialize all access externally (the
// WorstCase transformation's own background rebuild goroutines are
// internally synchronized, but two user goroutines must still not touch
// the structure at once).
//
// WithShards(p) changes the contract. The structure is partitioned
// across p independent shards — documents by ID hash, relation pairs by
// object hash, graph edges by source hash — each with its own rebuild
// pipeline and its own sync.RWMutex, and the facade becomes safe for
// concurrent readers and writers:
//
//	c, _ := dyncoll.NewCollection(dyncoll.WithShards(8))
//	// any number of goroutines may now call Insert, Find, Count, … concurrently
//
// Key-addressed operations (Insert, Delete, Extract, Has, LabelsOf,
// Successors, …) route to the owning shard and contend only with writers
// of that shard. Batch updates (InsertBatch, DeleteBatch) split per
// shard and ingest concurrently, with batch atomicity preserved: the
// whole batch is validated under every involved shard's write lock, so
// an invalid batch inserts nothing. Queries that cannot be routed —
// Find/FindIter/Count over all documents, ObjectsOf, Predecessors, full
// enumerations — fan out across all shards in parallel goroutines and
// merge into one stream; breaking out of an iterator stops every shard's
// enumeration. Result order is unspecified, exactly as in the unsharded
// structures.
//
// One rule survives sharding: an iterator loop body must not touch the
// structure it is iterating — reads included. The fan-out holds shard
// read locks while yielding; a loop-body write would deadlock outright,
// and a loop-body read can deadlock three ways with a concurrent writer
// queued on the same shard (Go's RWMutex blocks new readers behind a
// waiting writer). Access from other goroutines is fine: a queued
// writer delays them, but they cannot stop the iterator from draining.
// Collect what the loop needs and act after iteration completes.
//
// # Persistence
//
// Save writes a structure — any of the three, in any configuration —
// as a versioned binary snapshot; Load replaces a structure with a
// snapshot's contents, configuration included (shard count,
// transformation, index choice). SaveFile and LoadFile wrap them with
// atomic file handling: temp file in the target directory plus rename,
// so a crash mid-save never leaves a torn snapshot.
//
//	_ = c.SaveFile("corpus.snap")
//	restored, _ := dyncoll.NewCollection()
//	_ = restored.LoadFile("corpus.snap") // answers exactly like c
//
// Save quiesces background rebuilds first and, on sharded structures,
// holds every shard's read lock so the snapshot is one consistent cut.
// Load validates the header against the static-index registry before
// touching anything: an unregistered index name fails with
// ErrUnknownIndex, corrupt or truncated bytes fail with ErrBadSnapshot
// (never a panic), and on error the receiver is unchanged.
//
// Collections over the built-in indexes serialize the static indexes
// in their own binary form and skip the O(n·u(n)) rebuild at load;
// custom indexes registered with RegisterIndex round-trip as raw
// documents rebuilt through their builder, or can opt into the fast
// path with RegisterIndexDecoder.
//
// # Error semantics
//
// Update operations return typed errors matched with errors.Is —
// ErrDuplicateID, ErrReservedByte (payloads must not contain 0x00),
// ErrNotFound, ErrDuplicatePair, ErrDuplicateEdge, ErrUnknownIndex,
// ErrIndexExists, ErrInvalidOption, ErrBadSnapshot. Returned errors
// wrap the sentinels
// with contextual detail (the offending ID, index name, …); no exported
// entry point panics on user input. Batch operations are atomic with
// respect to validation: InsertBatch either inserts every document or —
// on the first invalid one — none.
//
// # Iterators
//
// FindIter, LabelsIter, ObjectsIter, PairsIter, Successors,
// Predecessors, and EdgesIter return single-use Go 1.23 iter.Seq values.
// Enumeration is lazy: breaking out of the range loop stops the
// underlying search (and, on sharded structures, every parallel shard
// stream), so huge result sets cost only what is consumed.
//
// See the examples directory for runnable programs, README.md for an
// overview, and DESIGN.md for how the implementation maps onto the
// paper's theorems.
package dyncoll
