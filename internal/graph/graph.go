// Package graph implements Theorem 3 of the paper: a compressed dynamic
// directed graph. A digraph is the binary relation between nodes in which
// an edge u→v relates object u to label v, so the whole representation —
// the generic engine's sub-collection ladder, lazy deletions, O(log^ε n)
// updates, and (with Options.WorstCase) background builds, top-collection
// sweeps and WaitIdle — is inherited from package binrel, exactly as the
// paper derives Theorem 3 as a corollary of Theorem 2.
//
// The package is only the vocabulary — edges, neighbors, degrees — over
// one unsharded binrel.Relation, for the experiment drivers that measure
// a bare ladder. The public dyncoll.Graph is the same renaming applied
// to the relation facade, which is where sharding, snapshots and
// durability live.
package graph

import "dyncoll/internal/binrel"

// Graph is a compressed dynamic directed graph. Nodes are arbitrary
// uint64 identifiers; a node exists while it has at least one incident
// edge (the paper removes empty labels/objects from the alphabets the
// same way).
type Graph struct {
	rel *binrel.Relation
}

// Options configure a graph: the relation's, unchanged.
type Options = binrel.Options

// New creates an empty dynamic graph.
func New(opts Options) *Graph { return &Graph{rel: binrel.New(opts)} }

// AddEdge inserts the edge u→v; false if already present.
func (g *Graph) AddEdge(u, v uint64) bool { return g.rel.Add(u, v) }

// DeleteEdge removes the edge u→v; false if absent.
func (g *Graph) DeleteEdge(u, v uint64) bool { return g.rel.Delete(u, v) }

// HasEdge reports whether the edge u→v exists.
func (g *Graph) HasEdge(u, v uint64) bool { return g.rel.Related(u, v) }

// EdgeCount reports the number of edges.
func (g *Graph) EdgeCount() int { return g.rel.Len() }

// NeighborsFunc streams the out-neighbors of u; stops when fn returns
// false.
func (g *Graph) NeighborsFunc(u uint64, fn func(v uint64) bool) {
	g.rel.LabelsOf(u, fn)
}

// ReverseNeighborsFunc streams the in-neighbors of v.
func (g *Graph) ReverseNeighborsFunc(v uint64, fn func(u uint64) bool) {
	g.rel.ObjectsOf(v, fn)
}

// Neighbors returns the sorted out-neighbors of u.
func (g *Graph) Neighbors(u uint64) []uint64 { return g.rel.Labels(u) }

// ReverseNeighbors returns the sorted in-neighbors of v.
func (g *Graph) ReverseNeighbors(v uint64) []uint64 { return g.rel.Objects(v) }

// OutDegree counts the out-neighbors of u.
func (g *Graph) OutDegree(u uint64) int { return g.rel.CountLabels(u) }

// InDegree counts the in-neighbors of v.
func (g *Graph) InDegree(v uint64) int { return g.rel.CountObjects(v) }

// Edges returns every edge as (object=u, label=v) pairs.
func (g *Graph) Edges() []binrel.Pair { return g.rel.Pairs() }

// EdgesFunc streams every edge; enumeration stops when fn returns false.
func (g *Graph) EdgesFunc(fn func(binrel.Pair) bool) { g.rel.PairsFunc(fn) }

// WaitIdle blocks until background rebuilds (WorstCase scheduling only)
// have completed; otherwise it returns immediately.
func (g *Graph) WaitIdle() { g.rel.WaitIdle() }

// Stats returns the underlying engine's rebuild counters and ladder
// layout.
func (g *Graph) Stats() binrel.Stats { return g.rel.Stats() }

// Tau reports the τ currently in effect.
func (g *Graph) Tau() int { return g.rel.Tau() }

// SizeBits estimates the total footprint.
func (g *Graph) SizeBits() int64 { return g.rel.SizeBits() }
