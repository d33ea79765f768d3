// Package core implements the paper's primary contribution: a general
// framework that converts static compressed indexes into dynamic indexes
// for a changing document collection.
//
// The framework is index-agnostic. Any type satisfying StaticIndex — a
// "(u(n), w(n))-constructible" index in the paper's terms, answering
// range-finding, locating, extraction and suffix-rank queries — can be
// dynamized:
//
//   - Amortized (Transformation 1): sub-collections C0 ⊂ C1 ⊂ … ⊂ Cr of
//     geometrically growing capacity; C0 is an uncompressed generalized
//     suffix tree, C1…Cr are semi-dynamic (deletion-only) static indexes
//     rebuilt on cascade. Updates cost O(u(n)·logᵋ n) amortized per
//     symbol.
//   - WorstCase (Transformation 2): additionally keeps locked copies of
//     sub-collections queryable while replacements are built in the
//     background — no store feeding two builds at once — plus top
//     collections purged largest-first (Dietz–Sleator), bounding the
//     per-operation work.
//   - Amortized with Ratio 2 (Transformation 3): O(log log n) levels for
//     cheaper insertions at an O(log log n) query-fan-out factor.
//
// Deletions everywhere are lazy (Section 2): a deletion bitmap B over the
// suffix array plus the Lemma 2 reporting structure V filter matches in
// O(1) per reported occurrence, and a structure is purged once a 1/τ
// fraction of it is dead.
//
// Since the engine refactor, this package holds only the document
// payload — the C0 suffix-tree adapter, the semi-dynamic wrapper, and
// the query fan-out — while the transformation machinery itself (the
// capacity ladder, cascades, background builds, top sweeps, rebalance)
// lives once, generically, in internal/engine and is shared with the
// binary-relation payload (internal/binrel).
package core

import (
	"errors"
	"fmt"

	"dyncoll/internal/doc"
)

// Typed errors returned by the update operations. The facade re-exports
// them; callers match with errors.Is.
var (
	// ErrDuplicateID reports an insert whose document ID is already live.
	ErrDuplicateID = errors.New("duplicate document ID")
	// ErrReservedByte reports a payload containing the reserved separator
	// byte 0x00.
	ErrReservedByte = errors.New("payload contains the reserved byte 0x00")
	// ErrNotFound reports an operation on an ID that is not live.
	ErrNotFound = errors.New("not found")
)

// StaticIndex is the contract a static compressed index must satisfy to
// be dynamized ("(u(n), w(n))-constructible" indexes queried by
// range-finding + locating, with computable suffix ranks; Section 2).
// Both fmindex.Index and fmindex.SAIndex satisfy it.
type StaticIndex interface {
	// SALen is the number of suffix-array rows (the universe of the
	// deletion bitmap).
	SALen() int
	// SymbolCount is the total number of document payload symbols.
	SymbolCount() int
	// DocCount is the number of documents the index was built over.
	DocCount() int
	// DocID returns the application ID of the i-th document.
	DocID(i int) uint64
	// DocLen returns the payload length of the i-th document.
	DocLen(i int) int
	// Range returns the half-open suffix-array interval of rows whose
	// suffixes start with pattern (trange).
	Range(pattern []byte) (lo, hi int)
	// Locate maps a suffix-array row to (document index, offset)
	// (tlocate).
	Locate(row int) (docIdx, off int)
	// SuffixRank returns the suffix-array row of the suffix starting at
	// (docIdx, off); off may equal DocLen(docIdx), addressing the
	// document's separator (tSA).
	SuffixRank(docIdx, off int) int
	// Extract returns length payload symbols of docIdx starting at off
	// (textract).
	Extract(docIdx, off, length int) []byte
	// SizeBits estimates the index footprint for space accounting.
	SizeBits() int64
}

// Builder constructs a StaticIndex over a document set. It corresponds to
// the paper's construction algorithm with cost O(n·u(n)) time and
// O(n·w(n)) workspace.
type Builder func(docs []doc.Doc) StaticIndex

// Occurrence is one pattern match.
type Occurrence struct {
	DocID uint64 // application ID of the matching document
	Off   int    // offset of the match within the document payload
}

// Part is one sub-collection of a ladder as queries see it: the C0
// suffix tree or a semi-dynamic static index. The generic engine hands
// sub-collections back as opaque stores; the adapter narrows them here
// to run document queries, and a query plan is evaluated part by part
// (collection.Parts) because every live document is in exactly one.
type Part interface {
	// FindFunc streams the part's occurrences of pattern in unspecified
	// order; FindGroupedFunc groups them by document, offsets ascending.
	// Both stop when fn returns false.
	FindFunc(pattern []byte, fn func(Occurrence) bool)
	FindGroupedFunc(pattern []byte, fn func(Occurrence) bool)
	Count(pattern []byte) int
	// Extract clamps the range to the payload.
	Extract(id uint64, off, length int) ([]byte, bool)
	DocLen(id uint64) (int, bool)
	// LiveKeys and LiveWeight are the part's live documents and their
	// symbol total (shared with engine.Store).
	LiveKeys() []uint64
	LiveWeight() int
}

// Options configure a dynamized collection.
type Options struct {
	// Builder constructs the static index for compressed sub-collections.
	// Required.
	Builder Builder

	// Tau is the space/overhead trade-off parameter τ: each semi-dynamic
	// structure is purged once a 1/τ fraction of its symbols is deleted.
	// Its deletion bitmap is Lemma 2's whatever τ is: about one bit per
	// suffix once the store has a deletion. 0 means automatic: τ = max(2, log n / log log n) recomputed at global
	// rebuilds.
	Tau int

	// Epsilon is the geometric growth exponent ε of sub-collection
	// capacities (max_i = 2·(n/log²n)·log^{εi} n). It trades insertion
	// cost O(u·logᵋ n) against the number of levels ⌈2/ε⌉.
	// Default 0.5.
	Epsilon float64

	// Ratio2 selects Transformation 3's level layout: capacities grow by
	// a factor of 2 per level (O(log log n) levels), making insertions
	// cheaper and queries fan out over more sub-collections.
	Ratio2 bool

	// Counting attaches Theorem 1's rank structure to each store's
	// deletion bitmap, so a store with deletions counts the live rows
	// of a pattern's range in O(log n) instead of popcounting the
	// bitmap's words, O(range/64). A store with no deletions answers
	// from the range alone either way. It costs half a bit per row,
	// from the store's first deletion, and O(log n) more per deleted
	// symbol.
	Counting bool

	// MinCapacity bounds max_0 from below so small collections behave
	// sensibly (the asymptotic formulas degenerate for tiny n).
	// Default 64.
	MinCapacity int

	// Inline forces background builds of the worst-case transformation
	// to complete synchronously; used by deterministic tests.
	Inline bool
}

func (o Options) withDefaults() Options {
	if o.Builder == nil {
		panic("core: Options.Builder is required")
	}
	if o.Epsilon <= 0 || o.Epsilon > 1 {
		o.Epsilon = 0.5
	}
	if o.MinCapacity <= 0 {
		o.MinCapacity = 64
	}
	if o.Tau < 0 {
		panic(fmt.Sprintf("core: negative Tau %d", o.Tau))
	}
	return o
}
