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
//     copies keep answering queries (each store feeds at most one build
//     at a time, recorded in one map), the bulk of the data lives in top
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
	"math"
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
// Count items of total weight Weight will be appended by Materialize.
// Materialize must only read state that lazy deletions never mutate
// (e.g. an immutable static index), so it is race-free off-thread.
type Snapshot[I any] struct {
	Count       int
	Weight      int
	Materialize func(dst []I) []I
	// Source is the payload's own description of the items, opaque to
	// the engine: a Config.Build that recognizes it may build from it
	// without calling Materialize (a document store's sorted index and
	// its live documents). nil for a store that has none.
	Source any
}

// itemsSnapshot is the snapshot of items already materialized.
func itemsSnapshot[I any](items []I, weight func(I) int) Snapshot[I] {
	return Snapshot[I]{
		Count:       len(items),
		Weight:      int(weightOf(items, weight)),
		Materialize: func(dst []I) []I { return append(dst, items...) },
	}
}

// BuildItems adapts a builder over materialized items to Config.Build:
// it materializes every source.
func BuildItems[K comparable, I any](build func(items []I) Store[K, I]) func(src []Snapshot[I]) Store[K, I] {
	return func(src []Snapshot[I]) Store[K, I] {
		items, _ := Materialize(src)
		return build(items)
	}
}

// Materialize appends the items of every source, in order, and returns
// them with their total weight.
func Materialize[I any](src []Snapshot[I]) ([]I, int) {
	count, weight := 0, 0
	for _, sn := range src {
		count += sn.Count
		weight += sn.Weight
	}
	items := make([]I, 0, count)
	for _, sn := range src {
		items = sn.Materialize(items)
	}
	return items, weight
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
	// Build constructs a deletion-only static payload over the items of
	// src, in order. It may build from the sources' own static form
	// (Snapshot.Source) instead of their items, as the document payload
	// merges and filters sorted indexes rather than sort their text
	// again. BuildItems adapts a builder that always materializes. τ is
	// the engine's alone: a store does not see it.
	Build func(src []Snapshot[I]) Store[K, I]
	// Park makes items queryable without building anything: the
	// worst-case engine holds an update's items in a parked store while
	// the build that replaces it runs in the background. The store must
	// not keep the caller's item buffers, and if it implements
	// Snapshotter it must yield the items in the order given. nil means a
	// fresh C0 filled with the items.
	Park func(items []I) Store[K, I]

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
	if c.Park == nil {
		newC0 := c.NewC0
		c.Park = func(items []I) Store[K, I] {
			m := newC0()
			for _, it := range items {
				m.Insert(it)
			}
			return m
		}
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
	TempParks        int
	TopPurges        int
	Rebalances       int
	// PendingBuilds is the number of background builds in flight.
	PendingBuilds int
	Tops          int
	MaxTops       int
	TopSizes      []int
	TopDead       []int
	// Parked is the live weight held unbuilt (Config.Park), answered by
	// scanning until the builds that replace it land.
	Parked int

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
}

// Total is the weight built for any reason.
func (b BuiltWeight) Total() int64 {
	return b.LevelMerge + b.Top + b.Purge + b.Rebalance
}

// Add accumulates o into b.
func (b *BuiltWeight) Add(o BuiltWeight) {
	b.LevelMerge += o.LevelMerge
	b.Top += o.Top
	b.Purge += o.Purge
	b.Rebalance += o.Rebalance
}

// newWeight returns the total weight of items to insert, or
// ErrDuplicateKey naming the first key that owner holds live or that
// repeats within items.
func (c Config[K, I]) newWeight(owner map[K]Store[K, I], items []I) (int, error) {
	var seen map[K]bool
	if len(items) > 1 {
		seen = make(map[K]bool, len(items))
	}
	total := 0
	for _, it := range items {
		k := c.Key(it)
		if _, dup := owner[k]; dup || seen[k] {
			return 0, fmt.Errorf("engine: insert %v: %w", k, ErrDuplicateKey)
		}
		if seen != nil {
			seen[k] = true
		}
		total += c.Weight(it)
	}
	return total, nil
}

// deleteKeys lazily deletes each live key from the store owner maps it
// to and drops it from owner. It then calls settle once on every store
// other than c0 that it hit, in the order it first hit them, so the
// purges and merges their dead weight triggers start in an order the
// keys fix. It returns the number of keys removed and their weight.
func deleteKeys[K comparable, I any](owner map[K]Store[K, I], c0 Store[K, I], keys []K, settle func(Store[K, I])) (n, weight int) {
	var seen map[Store[K, I]]bool
	if len(keys) > 1 {
		seen = make(map[Store[K, I]]bool)
	}
	var buf [1]Store[K, I] // a one-key delete touches one store: no allocation
	touched := buf[:0]
	for _, key := range keys {
		st, ok := owner[key]
		if !ok {
			continue
		}
		w, _ := st.Delete(key)
		delete(owner, key)
		n++
		weight += w
		if st != c0 && !seen[st] {
			if seen != nil {
				seen[st] = true
			}
			touched = append(touched, st)
		}
	}
	for _, st := range touched {
		settle(st)
	}
	return n, weight
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
// regime is available to every payload. There is one write path: a
// single update is a batch of one.
type Ladder[K comparable, I any] interface {
	// InsertBatch adds items. It validates the whole batch first — a key
	// that is live or repeats in the batch fails with ErrDuplicateKey and
	// nothing is inserted — and places it with at most one cascade. A
	// batch of one item is placed as a single insert (WorstCase: C0, its
	// own top, or the ladder).
	InsertBatch(items []I) error
	// DeleteBatch removes the listed keys that are live and returns the
	// number removed; missing keys are skipped. The stores it hit are
	// checked for purges and merges once, in the order it first hit them,
	// and the rebalance check runs once for the batch.
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
	// zero-allocation. fn must not re-enter the ladder.
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

func sumStores[K comparable, I any](stores []Store[K, I], arg []byte, fn func(st Store[K, I], arg []byte) int) int {
	n := 0
	for _, st := range stores {
		n += fn(st, arg)
	}
	return n
}

// autoTau computes τ = max(2, log₂ n / log₂ log₂ n) as the paper's
// default trade-off: from n = 16 on the quotient is at least 4/2, and
// it is at most 62/5 = 12 for any int n.
func autoTau(n int) int {
	if n < 16 {
		return 2
	}
	lg := log2(n)
	return lg / log2(lg)
}

// capacities re-derives a ladder's capacities for live weight n into
// dst's storage (paper: max_0 = 2n/log²n, max_i = max_0·ratioⁱ, where
// ratio is log^ε n for Transformations 1 and 2 and 2 for
// Transformation 3). max_0 is at least MinCapacity and log^ε n at least
// 1.5. Rungs are added while the last is below limit(max_0, ratio), up
// to 64 in all.
func (c Config[K, I]) capacities(dst []int, n int, ratio2 bool, limit func(max0, ratio float64) float64) []int {
	lg := max(float64(log2(n)), 2)
	max0 := max(float64(2*n)/(lg*lg), float64(c.MinCapacity))
	ratio := 2.0
	if !ratio2 {
		ratio = max(math.Pow(lg, c.Epsilon), 1.5)
	}
	top := limit(max0, ratio)
	dst = append(dst[:0], int(max0))
	for cp := max0; cp < top && len(dst) < 64; {
		cp *= ratio
		dst = append(dst, int(cp))
	}
	return dst
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
