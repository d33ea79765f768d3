// Package binrel implements Section 5 of the paper: compressed
// representations of dynamic binary relations, obtained by applying the
// static-to-dynamic framework to the static relation encoding of
// Barbay et al.
//
// A relation R ⊆ O × L between objects and labels is encoded as
//
//   - S — the sequence of labels ordered by object (a wavelet tree),
//   - N — the bit sequence 1^{n_1} 0 1^{n_2} 0 … recording how many
//     labels each object has,
//
// so that listing/counting labels of an object, objects of a label, and
// membership all reduce to rank/select/access on S and N. Deletions are
// lazy, recorded in bitmaps D (over S) and D_a (one per label), with the
// Lemma 2 structure (sparsebits.Dense) making live entries reportable in
// O(1) each.
//
// The package is the paper's "Theorem 2 is a corollary" argument made
// literal: it contains no transformation ladder of its own. The static
// encoding above (semiRel) and an uncompressed adjacency-map C0 are
// plugged into internal/engine as a payload — pairs are the items,
// every pair weighs 1 — and the generic engine supplies both the
// amortized cascades (Transformation 1) and the full worst-case
// machinery (Transformation 2: background builds behind locked copies,
// top collections with Dietz–Sleator sweeps, Section A.3 rebalance).
// Options.WorstCase selects between them; under WorstCase the relation
// serializes on the engine mutex and is safe for concurrent use, and
// WaitIdle quiesces in-flight background builds.
package binrel

import (
	"sort"

	"dyncoll/internal/engine"
)

// Options configure a dynamic Relation.
type Options struct {
	// Tau is the lazy-deletion trade-off parameter τ; a sub-collection is
	// purged once more than a 1/τ fraction of its pairs is dead. The
	// deletion bitmaps are Lemma 2's whatever τ is: about 1.5 bits per
	// pair for D with its rank structure, and one for the D_a, once a
	// store has a deletion. 0 means automatic (τ = log n / log log n, the
	// paper's choice, recomputed at global rebuilds).
	Tau int

	// Epsilon is the geometric growth exponent of sub-collection
	// capacities. Default 0.5.
	Epsilon float64

	// MinCapacity bounds the uncompressed C0's capacity from below.
	// Default 64 pairs.
	MinCapacity int

	// WorstCase selects Transformation 2's scheduling: bounded
	// foreground work per update, rebuilds on background goroutines,
	// top-collection sweeps. The default is Transformation 1's
	// amortized cascades.
	WorstCase bool

	// Inline forces worst-case background builds to complete
	// synchronously; used by deterministic tests.
	Inline bool
}

// Stats reports the engine's ladder state and rebuild counters.
type Stats = engine.Stats

// c0rel is the uncompressed fully-dynamic store (the relation's C0):
// forward and reverse adjacency in hash maps, O(log n) bits per pair.
type c0rel struct {
	fwd  map[uint64][]uint64 // object → labels
	rev  map[uint64][]uint64 // label → objects
	size int
}

func newC0rel() *c0rel {
	return &c0rel{fwd: make(map[uint64][]uint64), rev: make(map[uint64][]uint64)}
}

// Insert adds a pair (engine.Mutable). The engine has already checked
// for duplicates through its owner map.
func (c *c0rel) Insert(p Pair) {
	c.fwd[p.Object] = append(c.fwd[p.Object], p.Label)
	c.rev[p.Label] = append(c.rev[p.Label], p.Object)
	c.size++
}

// Delete removes a pair, reporting whether it was present
// (engine.Store; every pair weighs 1).
func (c *c0rel) Delete(p Pair) (int, bool) {
	ls := c.fwd[p.Object]
	found := false
	for i, x := range ls {
		if x == p.Label {
			c.fwd[p.Object] = append(ls[:i], ls[i+1:]...)
			if len(c.fwd[p.Object]) == 0 {
				delete(c.fwd, p.Object)
			}
			found = true
			break
		}
	}
	if !found {
		return 0, false
	}
	os := c.rev[p.Label]
	for i, x := range os {
		if x == p.Object {
			c.rev[p.Label] = append(os[:i], os[i+1:]...)
			if len(c.rev[p.Label]) == 0 {
				delete(c.rev, p.Label)
			}
			break
		}
	}
	c.size--
	return 1, true
}

// LiveItems lists the live pairs (engine.Store).
func (c *c0rel) LiveItems() []Pair {
	out := make([]Pair, 0, c.size)
	for o, ls := range c.fwd {
		for _, l := range ls {
			out = append(out, Pair{Object: o, Label: l})
		}
	}
	return out
}

// LiveKeys lists the live pair keys — identical to LiveItems
// (engine.Store).
func (c *c0rel) LiveKeys() []Pair { return c.LiveItems() }

// LiveWeight and DeadWeight report pair counts; C0 deletes eagerly, so
// it never holds dead pairs (engine.Store).
func (c *c0rel) LiveWeight() int { return c.size }
func (c *c0rel) DeadWeight() int { return 0 }

// SizeBits estimates the footprint: two map headers plus per-pair and
// per-key footprints (engine.Store).
func (c *c0rel) SizeBits() int64 {
	return 4*64 + int64(c.size)*3*64 + int64(len(c.fwd)+len(c.rev))*2*64
}

func (c *c0rel) related(object, label uint64) bool {
	for _, x := range c.fwd[object] {
		if x == label {
			return true
		}
	}
	return false
}

func (c *c0rel) labelsOf(object uint64, fn func(label uint64) bool) bool {
	for _, l := range c.fwd[object] {
		if !fn(l) {
			return false
		}
	}
	return true
}

func (c *c0rel) objectsOf(label uint64, fn func(object uint64) bool) bool {
	for _, o := range c.rev[label] {
		if !fn(o) {
			return false
		}
	}
	return true
}

func (c *c0rel) countLabels(object uint64) int { return len(c.fwd[object]) }
func (c *c0rel) countObjects(label uint64) int { return len(c.rev[label]) }

func (c *c0rel) pairsFunc(fn func(Pair) bool) bool {
	for o, ls := range c.fwd {
		for _, l := range ls {
			if !fn(Pair{Object: o, Label: l}) {
				return false
			}
		}
	}
	return true
}

// relStore is the query surface shared by the C0 adjacency maps and the
// compressed semiRel payload; the engine hands sub-collections back as
// opaque stores and the adapter narrows them here.
type relStore interface {
	related(object, label uint64) bool
	labelsOf(object uint64, fn func(label uint64) bool) bool
	objectsOf(label uint64, fn func(object uint64) bool) bool
	countLabels(object uint64) int
	countObjects(label uint64) int
	pairsFunc(fn func(Pair) bool) bool
}

var (
	_ relStore = (*c0rel)(nil)
	_ relStore = (*semiRel)(nil)
)

// ladderConfig assembles the engine's payload contract for relations:
// pairs are their own keys, every pair weighs 1, C0 is the adjacency
// maps, and static sub-collections are semiRel encodings.
func ladderConfig(opts Options) engine.Config[Pair, Pair] {
	return engine.Config[Pair, Pair]{
		Key:    func(p Pair) Pair { return p },
		Weight: func(Pair) int { return 1 },
		NewC0:  func() engine.Mutable[Pair, Pair] { return newC0rel() },
		Build: engine.BuildItems(func(pairs []Pair) engine.Store[Pair, Pair] {
			return buildSemi(pairs)
		}),
		Tau:         opts.Tau,
		Epsilon:     opts.Epsilon,
		MinCapacity: opts.MinCapacity,
		Inline:      opts.Inline,
	}
}

// NewLadder builds a bare generic engine over the relation payload; the
// Relation wrapper below adds the relation query API, and the
// engine-level conformance suite drives the ladder directly.
func NewLadder(opts Options) engine.Ladder[Pair, Pair] {
	if opts.WorstCase {
		return engine.NewWorstCase(ladderConfig(opts))
	}
	return engine.NewAmortized(ladderConfig(opts))
}

// Relation is a fully-dynamic compressed binary relation (Theorem 2):
// membership, label-of-object and object-of-label reporting and
// counting, plus pair insertion and deletion. The bulk of the pairs
// lives in deletion-only compressed sub-collections; only an
// O(n/log²n)-pair C0 is kept uncompressed.
//
// With Options.WorstCase the generic engine's Transformation 2
// machinery schedules all rebuilds in the background, every operation
// serializes on the engine mutex (safe for concurrent use), and
// WaitIdle quiesces in-flight builds. The amortized default is not safe
// for concurrent use.
type Relation struct {
	eng engine.Ladder[Pair, Pair]
}

// New creates an empty dynamic relation.
func New(opts Options) *Relation {
	return &Relation{eng: NewLadder(opts)}
}

// Len reports the number of live pairs.
func (r *Relation) Len() int { return r.eng.Count() }

// Tau reports the τ currently in effect.
func (r *Relation) Tau() int { return r.eng.Tau() }

// Add inserts the pair (object, label). It reports false if the pair is
// already present.
func (r *Relation) Add(object, label uint64) bool {
	return r.eng.InsertBatch([]Pair{{Object: object, Label: label}}) == nil
}

// Delete removes the pair (object, label), reporting whether it was
// present. Deletions in compressed levels are lazy; the engine purges
// or merges structures that cross their dead-fraction thresholds.
func (r *Relation) Delete(object, label uint64) bool {
	return r.eng.DeleteBatch([]Pair{{Object: object, Label: label}}) == 1
}

// Related reports whether object and label are related — one owner-map
// lookup, O(1).
func (r *Relation) Related(object, label uint64) bool {
	return r.eng.Has(Pair{Object: object, Label: label})
}

// LabelsOf streams the labels related to object; enumeration stops when
// fn returns false.
func (r *Relation) LabelsOf(object uint64, fn func(label uint64) bool) {
	r.eng.View(func(stores []engine.Store[Pair, Pair]) {
		for _, s := range stores {
			if !s.(relStore).labelsOf(object, fn) {
				return
			}
		}
	})
}

// ObjectsOf streams the objects related to label; enumeration stops when
// fn returns false.
func (r *Relation) ObjectsOf(label uint64, fn func(object uint64) bool) {
	r.eng.View(func(stores []engine.Store[Pair, Pair]) {
		for _, s := range stores {
			if !s.(relStore).objectsOf(label, fn) {
				return
			}
		}
	})
}

// Labels returns the labels related to object, sorted.
func (r *Relation) Labels(object uint64) []uint64 {
	var out []uint64
	r.LabelsOf(object, func(l uint64) bool {
		out = append(out, l)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Objects returns the objects related to label, sorted.
func (r *Relation) Objects(label uint64) []uint64 {
	var out []uint64
	r.ObjectsOf(label, func(o uint64) bool {
		out = append(out, o)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CountLabels counts the labels related to object.
func (r *Relation) CountLabels(object uint64) int {
	n := 0
	r.eng.View(func(stores []engine.Store[Pair, Pair]) {
		for _, s := range stores {
			n += s.(relStore).countLabels(object)
		}
	})
	return n
}

// CountObjects counts the objects related to label.
func (r *Relation) CountObjects(label uint64) int {
	n := 0
	r.eng.View(func(stores []engine.Store[Pair, Pair]) {
		for _, s := range stores {
			n += s.(relStore).countObjects(label)
		}
	})
	return n
}

// PairsFunc streams every live pair (unspecified order); enumeration
// stops when fn returns false. Nothing is materialized.
func (r *Relation) PairsFunc(fn func(Pair) bool) {
	r.eng.View(func(stores []engine.Store[Pair, Pair]) {
		for _, s := range stores {
			if !s.(relStore).pairsFunc(fn) {
				return
			}
		}
	})
}

// Pairs returns every live pair (unspecified order).
func (r *Relation) Pairs() []Pair {
	out := make([]Pair, 0, r.Len())
	r.PairsFunc(func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// WaitIdle blocks until background rebuilds (WorstCase scheduling only)
// have completed; the amortized engine returns immediately.
func (r *Relation) WaitIdle() { r.eng.WaitIdle() }

// Stats returns the engine's rebuild counters and current layout.
func (r *Relation) Stats() Stats { return r.eng.Stats() }

// SizeBits estimates the total footprint of the sub-collection stores.
// (The engine additionally keeps a per-pair owner map for O(1)
// membership and delete routing — an O(n log n)-bit engineering trade
// outside the paper's space accounting, as C0's hash maps already are.)
func (r *Relation) SizeBits() int64 { return r.eng.SizeBits() }
