// Package query is the module's unified query-execution layer: a Plan
// describes one search request (exact or regex, streaming or ranked
// top-k), compiled once per request; Single runs it over one
// sub-collection ladder, and Union over the union of several sources —
// the shards of a structure, or the collections a backend hosts.
//
// The same compiled plan executes identically at every level because
// each level is just a union of static sub-collections (the paper's
// transformation argument): a ladder answers a query as the union over
// its levels, a sharded structure as the union over its shards, and a
// backend fleet as the union over its backends. A plan therefore pushes
// down unchanged — a sharded collection hands it to a Single per shard,
// the frontend serializes it (Spec is the wire form) and each backend
// hands it to its own collections — and only the merge differs:
// streaming plans merge with propagated early break, ranked plans merge
// per-level top-k lists (ranking is document-local, so top-k commutes
// with union).
package query

import (
	"errors"
	"fmt"
	"regexp"
	"regexp/syntax"
)

// ErrBadPlan reports a plan that cannot be compiled: a malformed regex,
// a negative k, or an empty regex pattern. The facade re-exports it as
// dyncoll.ErrBadPattern.
var ErrBadPlan = errors.New("bad query plan")

// Spec is the serializable description of a search request — the form a
// caller constructs and the form that travels on the wire (the dyndocd
// /v1/search body), so a backend compiles and executes exactly the plan
// the frontend's client asked for.
type Spec struct {
	// Pattern is the exact byte pattern (Regex false) or the regular
	// expression source (Regex true), as a string. JSON strings must be
	// valid UTF-8; use PatternB for arbitrary exact bytes.
	Pattern string `json:"q,omitempty"`
	// PatternB carries arbitrary pattern bytes (base64 on the wire) and
	// takes precedence over Pattern when non-empty.
	PatternB []byte `json:"q64,omitempty"`
	// Regex selects regex search: Pattern is Go regexp syntax, matched
	// per document (anchors ^ and $ bind to document boundaries).
	Regex bool `json:"regex,omitempty"`
	// K bounds the result count: at most K occurrences for a streaming
	// plan, the K best documents for a ranked plan. 0 means unlimited.
	K int `json:"k,omitempty"`
	// Ranked selects the top-k pipeline: results are documents (not
	// occurrences), scored and emitted best-first.
	Ranked bool `json:"ranked,omitempty"`
}

// PatternBytes returns the pattern bytes the spec denotes.
func (s Spec) PatternBytes() []byte {
	if len(s.PatternB) > 0 {
		return s.PatternB
	}
	return []byte(s.Pattern)
}

// Plan is a compiled, immutable, concurrency-safe query plan. Compile
// it once per request; every executor level shares the same instance
// (or, across the wire, an instance recompiled from the same Spec).
type Plan struct {
	spec    Spec
	pattern []byte // exact pattern bytes (Regex false)

	// Regex plans.
	re     *regexp.Regexp
	groups [][][]byte // required-literal groups, see regex.go
	scan   bool       // no usable literal: verify every document
}

// Compile validates a spec and compiles it into an executable plan.
// Regex plans parse the expression twice — once through regexp for the
// verification engine, once through regexp/syntax for the required-
// literal analysis that drives index-assisted candidate filtering.
func Compile(s Spec) (*Plan, error) {
	if s.K < 0 {
		return nil, fmt.Errorf("query: %w: negative k %d", ErrBadPlan, s.K)
	}
	p := &Plan{spec: s, pattern: s.PatternBytes()}
	if !s.Regex {
		return p, nil
	}
	expr := string(p.pattern)
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("query: %w: %v", ErrBadPlan, err)
	}
	p.re = re
	// The syntax tree cannot fail to parse after regexp.Compile
	// succeeded; Simplify normalizes x{2,} style repetitions so the
	// literal analysis sees plain concatenations.
	tree, err := syntax.Parse(expr, syntax.Perl)
	if err != nil {
		return nil, fmt.Errorf("query: %w: %v", ErrBadPlan, err)
	}
	p.groups = literalGroups(tree.Simplify())
	p.scan = len(p.groups) == 0
	return p, nil
}

// Spec returns the serializable form the plan was compiled from.
func (p *Plan) Spec() Spec { return p.spec }

// Regex reports whether this is a regex plan.
func (p *Plan) Regex() bool { return p.spec.Regex }

// Ranked reports whether this is a ranked top-k plan.
func (p *Plan) Ranked() bool { return p.spec.Ranked }

// K returns the result bound (0 = unlimited).
func (p *Plan) K() int { return p.spec.K }

// ScanFallback reports whether the regex planner found no required
// literal, so execution verifies every document instead of filtering
// candidates through the index. Always false for exact plans.
func (p *Plan) ScanFallback() bool { return p.scan }

// LiteralGroups exposes the required-literal analysis: every regex
// match contains, for each group, at least one of that group's literals
// as a substring. Nil for exact plans and scan-fallback regex plans.
// The slices are the plan's own — callers must not mutate them.
func (p *Plan) LiteralGroups() [][][]byte { return p.groups }
