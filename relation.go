package dyncoll

import (
	"fmt"
	"iter"

	"dyncoll/internal/binrel"
)

// Pair is one (object, label) element of a Relation.
type Pair = binrel.Pair

// relationImpl is the slice of the binrel API the facade needs;
// binrel.Relation (either engine scheduling) satisfies it directly and
// shardedRelation satisfies it by fanning out over p of them.
type relationImpl interface {
	Add(object, label uint64) bool
	Delete(object, label uint64) bool
	Related(object, label uint64) bool
	LabelsOf(object uint64, fn func(label uint64) bool)
	ObjectsOf(label uint64, fn func(object uint64) bool)
	Labels(object uint64) []uint64
	Objects(label uint64) []uint64
	CountLabels(object uint64) int
	CountObjects(label uint64) int
	Pairs() []binrel.Pair
	PairsFunc(fn func(binrel.Pair) bool)
	Len() int
	Tau() int
	SizeBits() int64
	WaitIdle()
	Stats() binrel.Stats
}

var (
	_ relationImpl = (*binrel.Relation)(nil)
	_ relationImpl = (*shardedRelation)(nil)
)

// Relation is a dynamic compressed binary relation between uint64
// objects and uint64 labels (Theorem 2): membership, label-of-object and
// object-of-label reporting and counting, plus pair insertion and
// deletion. The bulk of the pairs lives in deletion-only compressed
// sub-collections; only an O(n/log²n)-pair C0 is kept uncompressed.
//
// An unsharded Relation (the default) is not safe for concurrent use. A
// Relation built with WithShards(p) partitions pairs by object hash and
// is safe for concurrent readers and writers; label-keyed queries
// (ObjectsOf, CountObjects, Objects) fan out across shards in parallel.
type Relation struct {
	rel    relationImpl
	cfg    config      // resolved construction config, recorded in snapshots
	mapped *mappedFile // v2 snapshot mapping, nil unless LoadMappedFile
}

// newRelationImpl builds one unsharded relation for cfg. Both update
// regimes come from the same generic engine, so the transformation is
// just an option on the one constructor.
func newRelationImpl(cfg config) *binrel.Relation {
	return binrel.New(binrel.Options{
		Tau:         cfg.tau,
		Epsilon:     cfg.epsilon,
		MinCapacity: cfg.minCapacity,
		WorstCase:   cfg.transformation == WorstCase,
		Inline:      cfg.syncRebuilds,
	})
}

// NewRelation creates an empty dynamic compressed binary relation. The
// default uses Transformation 1's amortized cascades;
// WithTransformation(WorstCase) selects bounded foreground work per
// update with background rebuilds, and WithShards(p) partitions the
// relation for concurrent access.
func NewRelation(opts ...Option) (*Relation, error) {
	cfg, err := newConfig(kindRelation, opts)
	if err != nil {
		return nil, err
	}
	return &Relation{rel: newRelAnyImpl(cfg), cfg: cfg}, nil
}

// newRelAnyImpl builds the sharded or unsharded implementation for cfg.
func newRelAnyImpl(cfg config) relationImpl {
	if cfg.shards > 0 {
		return newShardedRelation(cfg)
	}
	return newRelationImpl(cfg)
}

// config, front and fresh make the relation — and the graph that wraps
// one — a persistable structure (snapshot.go).
func (r *Relation) config() config { return r.cfg }
func (r *Relation) front() front   { return relFront(r.rel) }
func (r *Relation) fresh(cfg config) (front, func(), error) {
	impl := newRelAnyImpl(cfg)
	return relFront(impl), func() { r.rel, r.cfg = impl, cfg }, nil
}

// Add inserts the pair (object, label). It fails with ErrDuplicatePair
// if the pair is already related.
func (r *Relation) Add(object, label uint64) error {
	if r.rel.Add(object, label) {
		return nil
	}
	return fmt.Errorf("dyncoll: add (%d, %d): %w", object, label, ErrDuplicatePair)
}

// Delete removes the pair (object, label). It fails with ErrNotFound if
// the pair is not related.
func (r *Relation) Delete(object, label uint64) error {
	if r.rel.Delete(object, label) {
		return nil
	}
	return fmt.Errorf("dyncoll: delete (%d, %d): %w", object, label, ErrNotFound)
}

// Related reports whether object and label are related.
func (r *Relation) Related(object, label uint64) bool { return r.rel.Related(object, label) }

// LabelsIter returns a lazy iterator over the labels related to object;
// breaking out of the range loop stops the underlying enumeration.
// On an unsharded relation, the relation must not be touched from the
// loop body or another goroutine until iteration completes: under
// WorstCase scheduling the iterator holds the relation's internal lock
// while yielding, so even a read re-entering the same relation would
// self-deadlock. On a sharded relation other goroutines may freely read
// and write during iteration, but the loop body itself must not touch
// the relation at all — a loop-body read can deadlock with a writer
// queued on a shard whose read lock the iterator holds.
func (r *Relation) LabelsIter(object uint64) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		r.rel.LabelsOf(object, yield)
	}
}

// ObjectsIter returns a lazy iterator over the objects related to
// label. The same re-entrancy rule as LabelsIter applies.
func (r *Relation) ObjectsIter(label uint64) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		r.rel.ObjectsOf(label, yield)
	}
}

// PairsIter returns a lazy iterator over every live pair (unspecified
// order); breaking out of the range loop stops the underlying
// enumeration without materializing the pair set. The same re-entrancy
// rule as LabelsIter applies.
func (r *Relation) PairsIter() iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		r.rel.PairsFunc(yield)
	}
}

// LabelsOf streams the labels related to object; enumeration stops when
// fn returns false.
func (r *Relation) LabelsOf(object uint64, fn func(label uint64) bool) {
	r.rel.LabelsOf(object, fn)
}

// ObjectsOf streams the objects related to label; enumeration stops when
// fn returns false.
func (r *Relation) ObjectsOf(label uint64, fn func(object uint64) bool) {
	r.rel.ObjectsOf(label, fn)
}

// Labels returns the labels related to object, sorted.
func (r *Relation) Labels(object uint64) []uint64 { return r.rel.Labels(object) }

// Objects returns the objects related to label, sorted.
func (r *Relation) Objects(label uint64) []uint64 { return r.rel.Objects(label) }

// CountLabels counts the labels related to object.
func (r *Relation) CountLabels(object uint64) int { return r.rel.CountLabels(object) }

// CountObjects counts the objects related to label.
func (r *Relation) CountObjects(label uint64) int { return r.rel.CountObjects(label) }

// Pairs returns every live pair (unspecified order).
func (r *Relation) Pairs() []Pair { return r.rel.Pairs() }

// Len reports the number of live pairs.
func (r *Relation) Len() int { return r.rel.Len() }

// Tau reports the lazy-deletion parameter τ currently in effect.
func (r *Relation) Tau() int { return r.rel.Tau() }

// SizeBits estimates the total footprint.
func (r *Relation) SizeBits() int64 { return r.rel.SizeBits() }

// WaitIdle blocks until background rebuilds (WorstCase scheduling only)
// have completed — across every shard when the relation is sharded;
// otherwise it returns immediately.
func (r *Relation) WaitIdle() { r.rel.WaitIdle() }

// Stats reports the relation's engine-level ladder state and rebuild
// counters, in the same shape Collection.Stats uses (sizes are pair
// counts). On a sharded relation the counters are aggregated across
// shards.
func (r *Relation) Stats() IndexStats {
	st := indexStatsFrom(r.rel.Stats())
	st.Shards = r.cfg.shards
	st.fillResidency(r.mapped, r.SizeBits())
	return st
}
