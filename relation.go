package dyncoll

import (
	"fmt"
	"iter"
	"slices"

	"dyncoll/internal/binrel"
)

// Pair is one (object, label) element of a Relation.
type Pair = binrel.Pair

// relCore is one core of a Relation or Graph.
type relCore = *binrel.Relation

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
	union  union[relCore] // the cores, keyed by object; no locks when unsharded
	cfg    config         // resolved construction config, recorded in snapshots
	mapped *mappedFile    // v2 snapshot mapping, nil unless LoadMappedFile
}

// newRelCores builds the cores cfg describes. Both update regimes come
// from the same generic engine, so the transformation is just an option
// on the one constructor.
func newRelCores(cfg config) union[relCore] {
	return newUnion(cfg, func() relCore {
		return binrel.New(binrel.Options{
			Tau:         cfg.tau,
			Epsilon:     cfg.epsilon,
			MinCapacity: cfg.minCapacity,
			WorstCase:   cfg.transformation == WorstCase,
			Inline:      cfg.syncRebuilds,
		})
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
	return &Relation{union: newRelCores(cfg), cfg: cfg}, nil
}

// config, front and fresh make the relation — and the graph that wraps
// one — a persistable structure (snapshot.go).
func (r *Relation) config() config { return r.cfg }
func (r *Relation) front() front   { return relFront(r.union) }
func (r *Relation) fresh(cfg config) (front, func(), error) {
	u := newRelCores(cfg)
	return relFront(u), func() { r.union, r.cfg = u, cfg }, nil
}

// relFront is the persistence view of a relation's cores; see
// collFront.
func relFront(u union[relCore]) front {
	f := front{mus: u.mus}
	for _, x := range u.cores {
		f.cores = append(f.cores, x.Persister())
	}
	return f
}

// add and del update the core that owns object, reporting whether the
// pair was absent (add) or present (del). The facade's error wording
// differs between relations and graphs, so both wrap these.
func (r *Relation) add(object, label uint64) bool {
	x, h := r.union.owner(object, true)
	defer h.release()
	return x.Add(object, label)
}

func (r *Relation) del(object, label uint64) bool {
	x, h := r.union.owner(object, true)
	defer h.release()
	return x.Delete(object, label)
}

// Add inserts the pair (object, label). It fails with ErrDuplicatePair
// if the pair is already related.
func (r *Relation) Add(object, label uint64) error {
	if r.add(object, label) {
		return nil
	}
	return fmt.Errorf("dyncoll: add (%d, %d): %w", object, label, ErrDuplicatePair)
}

// Delete removes the pair (object, label). It fails with ErrNotFound if
// the pair is not related.
func (r *Relation) Delete(object, label uint64) error {
	if r.del(object, label) {
		return nil
	}
	return fmt.Errorf("dyncoll: delete (%d, %d): %w", object, label, ErrNotFound)
}

// Related reports whether object and label are related.
func (r *Relation) Related(object, label uint64) bool {
	x, h := r.union.owner(object, false)
	defer h.release()
	return x.Related(object, label)
}

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
		r.LabelsOf(object, yield)
	}
}

// ObjectsIter returns a lazy iterator over the objects related to
// label. The same re-entrancy rule as LabelsIter applies.
func (r *Relation) ObjectsIter(label uint64) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		r.ObjectsOf(label, yield)
	}
}

// PairsIter returns a lazy iterator over every live pair (unspecified
// order); breaking out of the range loop stops the underlying
// enumeration without materializing the pair set. The same re-entrancy
// rule as LabelsIter applies.
func (r *Relation) PairsIter() iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		stream(&r.union, struct{}{}, func(x relCore, _ struct{}, emit func(Pair) bool) {
			x.PairsFunc(emit)
		}, yield)
	}
}

// LabelsOf streams the labels related to object; enumeration stops when
// fn returns false.
func (r *Relation) LabelsOf(object uint64, fn func(label uint64) bool) {
	x, h := r.union.owner(object, false)
	defer h.release()
	x.LabelsOf(object, fn)
}

// ObjectsOf streams the objects related to label; enumeration stops when
// fn returns false.
func (r *Relation) ObjectsOf(label uint64, fn func(object uint64) bool) {
	stream(&r.union, label, relCore.ObjectsOf, fn)
}

// Labels returns the labels related to object, sorted.
func (r *Relation) Labels(object uint64) []uint64 {
	x, h := r.union.owner(object, false)
	defer h.release()
	return x.Labels(object)
}

// Objects returns the objects related to label, sorted.
func (r *Relation) Objects(label uint64) []uint64 {
	out := gather(&r.union, label, relCore.Objects)
	if len(r.union.cores) > 1 { // each core's list is sorted, their concatenation is not
		slices.Sort(out)
	}
	return out
}

// CountLabels counts the labels related to object.
func (r *Relation) CountLabels(object uint64) int {
	x, h := r.union.owner(object, false)
	defer h.release()
	return x.CountLabels(object)
}

// CountObjects counts the objects related to label.
func (r *Relation) CountObjects(label uint64) int { return sum(&r.union, label, relCore.CountObjects) }

// Pairs returns every live pair (unspecified order).
func (r *Relation) Pairs() []Pair { return gather(&r.union, relCore.Pairs, apply) }

// Len reports the number of live pairs.
func (r *Relation) Len() int { return sum(&r.union, relCore.Len, apply) }

// Tau reports the lazy-deletion parameter τ currently in effect.
func (r *Relation) Tau() int {
	// Every core shares the config, but the amortized relation retunes τ
	// during cascades, so core 0's is read under its lock.
	return one(&r.union, 0, relCore.Tau, apply)
}

// SizeBits estimates the total footprint.
func (r *Relation) SizeBits() int64 { return sum(&r.union, relCore.SizeBits, apply) }

// WaitIdle blocks until background rebuilds (WorstCase scheduling only)
// have completed — across every shard when the relation is sharded;
// otherwise it returns immediately.
func (r *Relation) WaitIdle() {
	for _, x := range r.union.cores {
		x.WaitIdle()
	}
}

// Stats reports the relation's engine-level ladder state and rebuild
// counters, in the same shape Collection.Stats uses (sizes are pair
// counts). On a sharded relation the counters are aggregated across
// shards.
func (r *Relation) Stats() IndexStats {
	st := indexStatsFrom(aggStats(perCore(&r.union, relCore.Stats, apply)))
	st.BuiltWeight.Sorted = st.BuiltWeight.Total()
	st.Shards = r.cfg.shards
	st.fillResidency(r.mapped, r.SizeBits())
	return st
}
