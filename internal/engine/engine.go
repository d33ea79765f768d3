// Package engine implements the paper's static-to-dynamic
// transformations (Transformations 1–3) once, generically, for any
// payload.
//
// The paper's central observation is that the sub-collection ladder —
// an uncompressed C0 plus geometrically growing deletion-only static
// structures, rebuilt on cascade — never looks inside the static
// structure it dynamizes. Theorem 1 instantiates the ladder with
// compressed document indexes, and Theorems 2 and 3 are corollaries:
// the same ladder applied to a static binary-relation encoding (and a
// digraph is a relation between nodes). This package makes that
// argument literal. The ladder is parameterized over an abstract
// static payload contract — build from items, lazily delete by key,
// extract the live items, report size — and the document collection
// (internal/core) and binary relation (internal/binrel) are two
// payload instances of one tested machine.
//
// Two scheduling regimes are provided:
//
//   - Amortized (Transformation 1; Transformation 3 with Config.Ratio2):
//     cascading foreground rebuilds, amortized update bounds.
//   - WorstCase (Transformation 2): bounded foreground work per update;
//     replacements are built on background goroutines while locked
//     copies keep answering queries, the bulk of the data lives in top
//     collections purged largest-first (Dietz–Sleator), and a
//     background rebalance (Section A.3) follows factor-2 size drift.
//
// Queries are payload-specific and therefore not part of the engine:
// adapters enumerate the live stores through View/ViewOwner and run
// their own query logic against the concrete payload types.
package engine

import (
	"errors"
	"fmt"

	"dyncoll/internal/fanout"
)

// ErrDuplicateKey reports an insert whose key is already live. Adapters
// translate it into their own typed errors (duplicate document ID,
// duplicate pair, duplicate edge).
var ErrDuplicateKey = errors.New("duplicate key")

// Store is the contract every sub-collection holder satisfies: the
// uncompressed C0 and each deletion-only static payload. Weights are
// the unit the capacity ladder is measured in — payload symbols for
// documents, 1 per pair for relations.
type Store[K comparable, I any] interface {
	// Delete lazily removes the item with the given key, reporting its
	// weight and whether it was live here.
	Delete(key K) (weight int, ok bool)
	// LiveKeys lists the keys of the live items (a cheap snapshot; no
	// payload extraction).
	LiveKeys() []K
	// LiveItems materializes the live items, e.g. for a rebuild.
	LiveItems() []I
	// LiveWeight and DeadWeight report the live/deleted weight held.
	LiveWeight() int
	DeadWeight() int
	// SizeBits estimates the footprint for space accounting.
	SizeBits() int64
}

// Mutable is the C0 contract: a fully-dynamic uncompressed store
// (the paper's generalized suffix tree for documents, adjacency maps
// for relations).
type Mutable[K comparable, I any] interface {
	Store[K, I]
	Insert(item I)
}

// Snapshot defers live-item extraction to a background build goroutine:
// Count items will be appended by Materialize. Materialize must only
// read state that lazy deletions never mutate (e.g. an immutable static
// index), so it is race-free off-thread.
type Snapshot[I any] struct {
	Count       int
	Materialize func(dst []I) []I
}

// Snapshotter is an optional Store capability. If a static payload
// implements it, the worst-case engine extracts its items on the build
// goroutine instead of in the foreground; otherwise LiveItems is
// materialized eagerly at launch.
type Snapshotter[I any] interface {
	Snapshot() Snapshot[I]
}

// Config parameterizes the engine over a payload.
type Config[K comparable, I any] struct {
	// Key extracts an item's identity (document ID, relation pair).
	Key func(item I) K
	// Weight is an item's contribution to the capacity ladder.
	Weight func(item I) int
	// NewC0 creates an empty uncompressed fully-dynamic store.
	NewC0 func() Mutable[K, I]
	// Build constructs a deletion-only static payload over items; tau
	// is the lazy-deletion parameter in effect (Lemma 3 word width).
	Build func(items []I, tau int) Store[K, I]

	// Tau is the space/overhead trade-off parameter τ: a structure is
	// purged once a 1/τ fraction of its weight is dead. 0 means
	// automatic: τ = max(2, log n / log log n) recomputed at global
	// rebuilds.
	Tau int
	// Epsilon is the geometric growth exponent ε of sub-collection
	// capacities. Default 0.5.
	Epsilon float64
	// Ratio2 selects Transformation 3's level layout (ratio-2 ladder,
	// O(log log n) levels). Amortized engine only.
	Ratio2 bool
	// MinCapacity bounds max_0 from below. Default 64.
	MinCapacity int
	// Inline forces worst-case background builds to complete
	// synchronously; used by deterministic tests.
	Inline bool
}

func (c Config[K, I]) withDefaults() Config[K, I] {
	if c.Key == nil || c.Weight == nil || c.NewC0 == nil || c.Build == nil {
		panic("engine: Config requires Key, Weight, NewC0 and Build")
	}
	if c.Epsilon <= 0 || c.Epsilon > 1 {
		c.Epsilon = 0.5
	}
	if c.MinCapacity <= 0 {
		c.MinCapacity = 64
	}
	if c.Tau < 0 {
		panic(fmt.Sprintf("engine: negative Tau %d", c.Tau))
	}
	return c
}

// Stats reports the engine's ladder state and rebuild counters. One
// struct serves both scheduling regimes; fields that do not apply to
// the active regime are zero.
type Stats struct {
	// Levels is the number of sub-collection slots (C0 plus compressed
	// levels).
	Levels int
	// LevelSizes, LevelCaps and LevelDead list live weight, capacity and
	// dead weight per level; index 0 is the uncompressed C0.
	LevelSizes []int
	LevelCaps  []int
	LevelDead  []int

	// Amortized counters.
	LevelRebuilds  int
	GlobalRebuilds int
	Purges         int

	// Worst-case counters.
	BackgroundBuilds int
	SyncBuilds       int
	TempParks        int
	TopPurges        int
	Rebalances       int
	// PendingBuilds is the number of background builds in flight.
	PendingBuilds int
	Tops          int
	MaxTops       int
	TopSizes      []int
	TopDead       []int

	// NF is the weight at the last global rebuild/rebalance; Tau the τ
	// in effect since then.
	NF  int
	Tau int

	BuiltWeight BuiltWeight
}

// BuiltWeight is the weight handed to Config.Build since the ladder was
// created, by what each build was for. Its total over the weight
// inserted is the ladder's write amplification — the u(n) factor of the
// paper's update bounds, paid once per level an item passes through
// and again at every purge and rebalance.
type BuiltWeight struct {
	// LevelMerge: a level slot rebuilt from the slots below it.
	LevelMerge int64 `json:"level_merge"`
	// Top: ladder overflow built into new top collections (worst-case).
	Top int64 `json:"top"`
	// Purge: a store rebuilt without its deleted items.
	Purge int64 `json:"purge"`
	// Rebalance: the whole structure rebuilt — the amortized global
	// rebuild, the worst-case Section A.3 rebalance.
	Rebalance int64 `json:"rebalance"`
	// Sync: built by the worst-case engine on the caller's goroutine,
	// under its lock: parked temps, heavy items, oversized batches.
	Sync int64 `json:"sync"`
}

// Total is the weight built for any reason.
func (b BuiltWeight) Total() int64 {
	return b.LevelMerge + b.Top + b.Purge + b.Rebalance + b.Sync
}

// Add accumulates o into b.
func (b *BuiltWeight) Add(o BuiltWeight) {
	b.LevelMerge += o.LevelMerge
	b.Top += o.Top
	b.Purge += o.Purge
	b.Rebalance += o.Rebalance
	b.Sync += o.Sync
}

// weightOf sums the weights of items.
func weightOf[I any](items []I, weight func(I) int) int64 {
	var n int64
	for _, it := range items {
		n += int64(weight(it))
	}
	return n
}

// Ladder is the interface shared by the Amortized and WorstCase
// engines; payload adapters program against it so every scheduling
// regime is available to every payload.
type Ladder[K comparable, I any] interface {
	// Insert adds an item; it fails with ErrDuplicateKey if the key is
	// live. InsertBatch validates the whole batch first — on error
	// nothing is inserted — and places it with at most one cascade.
	Insert(item I) error
	InsertBatch(items []I) error
	// Delete removes the item with the given key, reporting whether it
	// was live. DeleteBatch skips missing keys and returns the number
	// removed, running purge/rebalance checks once for the batch.
	Delete(key K) bool
	DeleteBatch(keys []K) int
	// Has reports whether key is live; Keys lists all live keys.
	Has(key K) bool
	Keys() []K
	// Len is the total live weight; Count the number of live items.
	Len() int
	Count() int
	// View runs fn over every queryable store under the engine's
	// synchronization domain (the worst-case engine holds its mutex, so
	// fn must not re-enter the ladder). ViewOwner runs fn on the store
	// holding key, if any.
	View(fn func(stores []Store[K, I]))
	ViewOwner(key K, fn func(st Store[K, I])) bool
	// Query sums fn over every queryable store under the engine's
	// synchronization domain, threading the caller's argument through
	// explicitly. Passing a package-level fn keeps the steady-state
	// query path free of closure allocations (View requires a capturing
	// closure to carry the pattern and accumulator); combined with the
	// engines' cached store lists this makes counting queries
	// zero-allocation. The stores are summed by a team (sumStores), so fn
	// may run on a helper goroutine: it must not re-enter the ladder, and
	// must keep no state but its result.
	Query(arg []byte, fn func(st Store[K, I], arg []byte) int) int
	// WaitIdle blocks until background builds have landed (worst-case
	// engine; a no-op for the amortized engine).
	WaitIdle()
	// Dump captures the quiesced ladder's structure for serialization;
	// Restore installs a dump into an empty ladder (see snapshot.go).
	Dump() Dump[K, I]
	Restore(d Dump[K, I]) error
	Tau() int
	SizeBits() int64
	Stats() Stats
}

// storeSum is Query's pass: fn summed over the stores by a team of
// workers (fanout.Reduce), each adding up the stores it claims. It is
// passed by value, so a pass without helpers allocates nothing.
type storeSum[K comparable, I any] struct {
	stores []Store[K, I]
	arg    []byte
	fn     func(st Store[K, I], arg []byte) int
}

func (s storeSum[K, I]) Fold(n, i int) int  { return n + s.fn(s.stores[i], s.arg) }
func (s storeSum[K, I]) Merge(a, b int) int { return a + b }

func sumStores[K comparable, I any](stores []Store[K, I], arg []byte, fn func(st Store[K, I], arg []byte) int) int {
	return fanout.Reduce[int](len(stores), storeSum[K, I]{stores, arg, fn})
}

// autoTau computes τ = max(2, log₂ n / log₂ log₂ n) as the paper's
// default trade-off, capped so the Lemma 3 word width stays sane.
func autoTau(n int) int {
	if n < 16 {
		return 2
	}
	lg := log2(n)
	lglg := log2(lg)
	if lglg < 1 {
		lglg = 1
	}
	t := lg / lglg
	if t < 2 {
		t = 2
	}
	if t > 4096 {
		t = 4096
	}
	return t
}

// log2 returns ⌊log₂ x⌋ for x ≥ 1.
func log2(x int) int {
	l := 0
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}

// splitItems partitions items into chunks of at most maxWeight total
// weight (single oversized items get their own chunk).
func splitItems[I any](items []I, weight func(I) int, maxWeight int) [][]I {
	var out [][]I
	var cur []I
	sz := 0
	for _, it := range items {
		w := weight(it)
		if len(cur) > 0 && sz+w > maxWeight {
			out = append(out, cur)
			cur, sz = nil, 0
		}
		cur = append(cur, it)
		sz += w
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}
