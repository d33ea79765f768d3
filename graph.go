package dyncoll

import (
	"fmt"
	"iter"
)

// Graph is a dynamic compressed directed graph (Theorem 3). A digraph is
// the binary relation between nodes in which an edge u→v relates object
// u to label v, so the representation — compressed sub-collections, lazy
// deletions, O(log^ε n) updates — is inherited from Relation.
//
// An unsharded Graph (the default) is not safe for concurrent use. A
// Graph built with WithShards(p) partitions edges by source hash and is
// safe for concurrent readers and writers; in-edge queries
// (Predecessors, ReverseNeighbors, InDegree) fan out across shards in
// parallel.
type Graph struct {
	// The implementation is inherited too: a Graph is a Relation under
	// edge names. The two differ only where they must not be confused —
	// the kind their snapshots and checkpoints record (r.cfg.kind is
	// kindGraph), their WAL op codes, and their typed errors.
	r Relation
}

// NewGraph creates an empty dynamic compressed directed graph. The
// default uses the amortized cascades; WithTransformation(WorstCase)
// selects bounded foreground work per update with background rebuilds,
// and WithShards(p) partitions the graph for concurrent access.
func NewGraph(opts ...Option) (*Graph, error) {
	cfg, err := newConfig(kindGraph, opts)
	if err != nil {
		return nil, err
	}
	return &Graph{r: Relation{union: newRelCores(cfg), cfg: cfg}}, nil
}

// AddEdge inserts the edge u→v. It fails with ErrDuplicateEdge if the
// edge already exists.
func (g *Graph) AddEdge(u, v uint64) error {
	if g.r.add(u, v) {
		return nil
	}
	return fmt.Errorf("dyncoll: add edge %d→%d: %w", u, v, ErrDuplicateEdge)
}

// DeleteEdge removes the edge u→v. It fails with ErrNotFound if the edge
// does not exist.
func (g *Graph) DeleteEdge(u, v uint64) error {
	if g.r.del(u, v) {
		return nil
	}
	return fmt.Errorf("dyncoll: delete edge %d→%d: %w", u, v, ErrNotFound)
}

// HasEdge reports whether the edge u→v exists.
func (g *Graph) HasEdge(u, v uint64) bool { return g.r.Related(u, v) }

// EdgeCount reports the number of edges.
func (g *Graph) EdgeCount() int { return g.r.Len() }

// Successors returns a lazy iterator over the out-neighbors of u;
// breaking out of the range loop stops the underlying enumeration.
// On an unsharded graph, the graph must not be touched from the loop
// body or another goroutine until iteration completes: under WorstCase
// scheduling the iterator holds the graph's internal lock while
// yielding, so even a read re-entering the same graph would
// self-deadlock. On a sharded graph other goroutines may freely read and
// write during iteration, but the loop body itself must not touch the
// graph at all — a loop-body read can deadlock with a writer queued on
// a shard whose read lock the iterator holds.
func (g *Graph) Successors(u uint64) iter.Seq[uint64] { return g.r.LabelsIter(u) }

// Predecessors returns a lazy iterator over the in-neighbors of v. The
// same re-entrancy rule as Successors applies.
func (g *Graph) Predecessors(v uint64) iter.Seq[uint64] { return g.r.ObjectsIter(v) }

// EdgesIter returns a lazy iterator over every edge as (object=u,
// label=v) pairs; breaking out of the range loop stops the underlying
// enumeration without materializing the edge set. The same re-entrancy
// rule as Successors applies.
func (g *Graph) EdgesIter() iter.Seq[Pair] { return g.r.PairsIter() }

// NeighborsFunc streams the out-neighbors of u; stops when fn returns
// false.
func (g *Graph) NeighborsFunc(u uint64, fn func(v uint64) bool) { g.r.LabelsOf(u, fn) }

// ReverseNeighborsFunc streams the in-neighbors of v.
func (g *Graph) ReverseNeighborsFunc(v uint64, fn func(u uint64) bool) { g.r.ObjectsOf(v, fn) }

// Neighbors returns the sorted out-neighbors of u.
func (g *Graph) Neighbors(u uint64) []uint64 { return g.r.Labels(u) }

// ReverseNeighbors returns the sorted in-neighbors of v.
func (g *Graph) ReverseNeighbors(v uint64) []uint64 { return g.r.Objects(v) }

// OutDegree counts the out-neighbors of u.
func (g *Graph) OutDegree(u uint64) int { return g.r.CountLabels(u) }

// InDegree counts the in-neighbors of v.
func (g *Graph) InDegree(v uint64) int { return g.r.CountObjects(v) }

// Edges returns every edge as (object=u, label=v) pairs.
func (g *Graph) Edges() []Pair { return g.r.Pairs() }

// WaitIdle blocks until background rebuilds (WorstCase scheduling only)
// have completed — across every shard when the graph is sharded;
// otherwise it returns immediately.
func (g *Graph) WaitIdle() { g.r.WaitIdle() }

// Stats reports the graph's engine-level ladder state and rebuild
// counters, in the same shape Collection.Stats uses (sizes are edge
// counts). On a sharded graph the counters are aggregated across
// shards.
func (g *Graph) Stats() IndexStats { return g.r.Stats() }

// SizeBits estimates the total footprint.
func (g *Graph) SizeBits() int64 { return g.r.SizeBits() }
