package dyncoll

import (
	"iter"

	"dyncoll/internal/query"
)

// Searching: beyond exact pattern enumeration (Find and friends), a
// Collection answers regex queries and ranked top-k queries through one
// query-execution layer (internal/query). A SearchPlan describes the
// request; it compiles once into a plan that executes identically over
// a single ladder, a sharded collection, and — serialized through the
// dyndocd /v1/search endpoint — a fleet of networked backends, because
// each level is just a union of static sub-collections (see DESIGN.md).

// Match is one search result: for streaming plans one occurrence (like
// Occurrence, plus the match length, which regex matches need); for
// ranked plans one document, best score first, with Off/Len describing
// its earliest match.
type Match = query.Match

// SearchPlan describes one search request — the argument of Search and
// the JSON body of the dyndocd /v1/search endpoint. The zero value with
// only Pattern set is an exact streaming search; Regex, Ranked and K
// select the other variants.
type SearchPlan = query.Spec

// Search compiles plan and streams its results into fn; enumeration
// stops when fn returns false. It fails with ErrBadPattern if the plan
// does not compile (malformed regex, negative k). Ranked plans deliver
// documents best-first with deterministic order (score descending,
// document ID ascending on ties); streaming plans deliver occurrences
// in unspecified order. The FindIter re-entrancy rules apply while fn
// is executing.
func (c *Collection) Search(plan SearchPlan, fn func(Match) bool) error {
	p, err := query.Compile(plan)
	if err != nil {
		return err
	}
	c.execute(p, fn)
	return nil
}

// execute runs a compiled plan over the union of the cores, each core
// executing it under its read lock.
func (c *Collection) execute(p *query.Plan, fn func(Match) bool) {
	query.Union(p, len(c.union.cores), func(i int, emit func(Match) bool) {
		x, h := c.union.at(i, false)
		defer h.release()
		query.Over(x).Execute(p, emit)
	}, fn)
}

// FindLimit returns at most k occurrences of pattern — the prefix fast
// path for "just show me some matches": enumeration stops at the k-th
// match instead of materializing the full result set the way Find does.
// k ≤ 0 returns nil. Which k occurrences arrive is unspecified, as is
// their order (on a sharded collection shards race to fill the quota).
func (c *Collection) FindLimit(pattern []byte, k int) []Occurrence {
	if k <= 0 {
		return nil
	}
	out := make([]Occurrence, 0, min(k, 64))
	c.FindFunc(pattern, func(o Occurrence) bool {
		out = append(out, o)
		return len(out) < k
	})
	return out
}

// FindTopK returns a single-use iterator over the k highest-scoring
// documents containing pattern, best first (k ≤ 0: every matching
// document, ranked). Scores combine match count, earliest match
// position, and a short-document prior; order is deterministic. The
// FindIter re-entrancy rules apply during iteration.
func (c *Collection) FindTopK(pattern []byte, k int) iter.Seq[Match] {
	p, _ := query.Compile(query.Spec{PatternB: pattern, Ranked: true, K: max(k, 0)})
	return c.planIter(p)
}

// FindRegexp returns a single-use iterator over every match of the
// regular expression expr (Go regexp syntax, matched per document — ^
// and $ bind to document boundaries). It fails with ErrBadPattern if
// expr does not compile. Execution extracts required literals from the
// expression and verifies only documents the index says can match,
// falling back to scanning every document when no literal exists. The
// FindIter re-entrancy rules apply during iteration.
func (c *Collection) FindRegexp(expr string) (iter.Seq[Match], error) {
	p, err := query.Compile(query.Spec{Pattern: expr, Regex: true})
	if err != nil {
		return nil, err
	}
	return c.planIter(p), nil
}

// FindRegexpTopK returns a single-use iterator over the k
// highest-scoring documents matching the regular expression expr, best
// first (k ≤ 0: every matching document, ranked). It fails with
// ErrBadPattern if expr does not compile. The FindIter re-entrancy
// rules apply during iteration.
func (c *Collection) FindRegexpTopK(expr string, k int) (iter.Seq[Match], error) {
	p, err := query.Compile(query.Spec{Pattern: expr, Regex: true, Ranked: true, K: max(k, 0)})
	if err != nil {
		return nil, err
	}
	return c.planIter(p), nil
}

// planIter adapts a compiled plan to the iterator shape shared by the
// Find* family.
func (c *Collection) planIter(p *query.Plan) iter.Seq[Match] {
	return func(yield func(Match) bool) {
		c.execute(p, yield)
	}
}

// ObjectsLimit returns at most k objects related to label — the fan-out
// prefix fast path matching Collection.FindLimit. k ≤ 0 returns nil;
// which objects arrive is unspecified.
func (r *Relation) ObjectsLimit(label uint64, k int) []uint64 {
	if k <= 0 {
		return nil
	}
	out := make([]uint64, 0, min(k, 64))
	r.ObjectsOf(label, func(object uint64) bool {
		out = append(out, object)
		return len(out) < k
	})
	return out
}

// ReverseNeighborsLimit returns at most k sources with an edge into v —
// the fan-out prefix fast path matching Collection.FindLimit. k ≤ 0
// returns nil; which sources arrive is unspecified.
func (g *Graph) ReverseNeighborsLimit(v uint64, k int) []uint64 {
	return g.r.ObjectsLimit(v, k)
}
