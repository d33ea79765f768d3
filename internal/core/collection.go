package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dyncoll/internal/doc"
	"dyncoll/internal/engine"
)

// Stats reports the engine's ladder state and rebuild counters; it is
// the generic engine's unified stats type, shared by both scheduling
// regimes.
type Stats = engine.Stats

// BuiltWeight is the per-cause build tally inside Stats.
type BuiltWeight = engine.BuiltWeight

// ladderConfig assembles the engine's payload contract for documents:
// keys are document IDs, weights are payload symbol counts, C0 is the
// uncompressed generalized suffix tree, static sub-collections are
// SemiDynamic wrappers over the configured index builder — or over
// indexes merged from their sources' (buildFrom) — and an update
// the worst-case engine cannot put into C0 is parked unbuilt (parked).
// Every build adds the weight it sorted to sorted.
func ladderConfig(opts Options, sorted *atomic.Int64) engine.Config[uint64, doc.Doc] {
	return engine.Config[uint64, doc.Doc]{
		Key:    func(d doc.Doc) uint64 { return d.ID },
		Weight: func(d doc.Doc) int { return len(d.Data) },
		NewC0:  func() engine.Mutable[uint64, doc.Doc] { return newC0() },
		Build: func(src []engine.Snapshot[doc.Doc]) engine.Store[uint64, doc.Doc] {
			idx, n := buildFrom(opts.Builder, src)
			sorted.Add(int64(n))
			return NewSemiDynamic(idx, opts.Counting)
		},
		Park: func(docs []doc.Doc) engine.Store[uint64, doc.Doc] {
			return newParked(docs)
		},
		Tau:         opts.Tau,
		Epsilon:     opts.Epsilon,
		Ratio2:      opts.Ratio2,
		MinCapacity: opts.MinCapacity,
		Inline:      opts.Inline,
	}
}

// NewLadder builds a bare generic engine over the document payload —
// amortized cascades or worst-case scheduling. The Amortized and
// WorstCase wrappers below add the document query API; the engine-level
// conformance suite drives the ladder directly.
func NewLadder(opts Options, worstCase bool) engine.Ladder[uint64, doc.Doc] {
	opts = opts.withDefaults()
	if worstCase {
		return engine.NewWorstCase(ladderConfig(opts, new(atomic.Int64)))
	}
	return engine.NewAmortized(ladderConfig(opts, new(atomic.Int64)))
}

// collection adapts a generic engine ladder to the document collection
// API: validation and typed errors on updates, pattern queries fanned
// out over the ladder's live stores.
type collection struct {
	eng    engine.Ladder[uint64, doc.Doc]
	opts   Options
	sorted *atomic.Int64 // the weight the ladder's builds sorted
}

// Amortized is Transformation 1 (and, with Options.Ratio2,
// Transformation 3): a fully-dynamic compressed document index with
// amortized update bounds. It is not safe for concurrent use.
type Amortized struct{ collection }

// NewAmortized creates an empty collection with amortized update bounds.
func NewAmortized(opts Options) *Amortized {
	opts = opts.withDefaults()
	sorted := new(atomic.Int64)
	return &Amortized{collection{eng: engine.NewAmortized(ladderConfig(opts, sorted)), opts: opts, sorted: sorted}}
}

// WorstCase is Transformation 2: a fully-dynamic compressed document
// index whose update operations perform a bounded amount of foreground
// work per call — rebuilds run on background goroutines while locked
// copies keep answering queries (see internal/engine for the machinery).
// Every operation serializes on the engine's internal mutex, so a
// WorstCase collection is safe for concurrent use.
type WorstCase struct{ collection }

// NewWorstCase creates an empty collection with worst-case update
// bounds.
func NewWorstCase(opts Options) *WorstCase {
	opts = opts.withDefaults()
	sorted := new(atomic.Int64)
	return &WorstCase{collection{eng: engine.NewWorstCase(ladderConfig(opts, sorted)), opts: opts, sorted: sorted}}
}

// wrapInsertErr translates the engine's duplicate-key error into the
// package's typed document error.
func wrapInsertErr(err error, id uint64) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, engine.ErrDuplicateKey) {
		return fmt.Errorf("core: insert id %d: %w", id, ErrDuplicateID)
	}
	return err
}

// Insert adds a document. It returns ErrDuplicateID or ErrReservedByte
// on invalid input.
func (c *collection) Insert(d doc.Doc) error {
	if !d.Valid() {
		return fmt.Errorf("core: insert id %d: %w", d.ID, ErrReservedByte)
	}
	return wrapInsertErr(c.eng.InsertBatch([]doc.Doc{d}), d.ID)
}

// InsertBatch adds many documents in one ingest. The whole batch is
// validated first — on any ErrDuplicateID / ErrReservedByte nothing is
// inserted — and then placed with at most one ladder rebuild cascade,
// instead of the cascade-per-document cost of looped Insert calls.
func (c *collection) InsertBatch(docs []doc.Doc) error {
	if len(docs) == 0 {
		return nil
	}
	for _, d := range docs {
		if !d.Valid() {
			return fmt.Errorf("core: insert id %d: %w", d.ID, ErrReservedByte)
		}
	}
	// Duplicate validation (live IDs and in-batch repeats) happens in the
	// engine, atomically under its own lock; its error names the
	// offending key.
	if err := c.eng.InsertBatch(docs); err != nil {
		if errors.Is(err, engine.ErrDuplicateKey) {
			return fmt.Errorf("core: insert batch: %w: %v", ErrDuplicateID, err)
		}
		return err
	}
	return nil
}

// Delete removes the document with the given ID, reporting whether it
// was present. Deletions are lazy; the engine purges or merges
// structures that cross their dead-fraction thresholds.
func (c *collection) Delete(id uint64) bool { return c.eng.DeleteBatch([]uint64{id}) == 1 }

// DeleteBatch removes every listed document that is live, returning the
// number actually removed. Purge checks and rebuild triggers run once
// after the whole batch instead of per deletion.
func (c *collection) DeleteBatch(ids []uint64) int { return c.eng.DeleteBatch(ids) }

// Has reports whether a live document with the given ID exists.
func (c *collection) Has(id uint64) bool { return c.eng.Has(id) }

// DocIDs returns the IDs of all live documents in unspecified order.
func (c *collection) DocIDs() []uint64 { return c.eng.Keys() }

// Len reports the number of live payload symbols.
func (c *collection) Len() int { return c.eng.Len() }

// DocCount reports the number of live documents.
func (c *collection) DocCount() int { return c.eng.Count() }

// Parts yields, under one engine view and in order, the ladder's
// sub-collections: C0, levels, parked temps, tops and the sources of
// in-flight builds, locked copies among them. Every live document is in
// exactly one part, so a query answered part by part and unioned is
// answered exactly. The worst-case engine holds its mutex throughout:
// the loop body must not re-enter the ladder.
func (c *collection) Parts(yield func(Part) bool) {
	c.eng.View(func(stores []engine.Store[uint64, doc.Doc]) {
		for _, st := range stores {
			if !yield(st.(Part)) {
				return
			}
		}
	})
}

// FindFunc calls fn for every occurrence of pattern across all live
// documents; enumeration stops early if fn returns false. An empty
// pattern matches at every live position.
func (c *collection) FindFunc(pattern []byte, fn func(Occurrence) bool) {
	more := true
	each := func(o Occurrence) bool {
		more = fn(o)
		return more
	}
	for pt := range c.Parts {
		pt.FindFunc(pattern, each)
		if !more {
			return
		}
	}
}

// Find returns every occurrence of pattern.
func (c *collection) Find(pattern []byte) []Occurrence {
	var out []Occurrence
	c.FindFunc(pattern, func(o Occurrence) bool {
		out = append(out, o)
		return true
	})
	return out
}

// countStore is the package-level Query callback for Count: taking the
// pattern as an argument (rather than capturing it) keeps the steady-
// state Count path free of closure allocations.
func countStore(s engine.Store[uint64, doc.Doc], pattern []byte) int {
	return s.(Part).Count(pattern)
}

// Count returns the number of occurrences of pattern: each store's
// suffix-array range, less its deleted rows, counted by rank when
// Options.Counting is set and by word popcounts otherwise.
func (c *collection) Count(pattern []byte) int {
	return c.eng.Query(pattern, countStore)
}

// Extract returns length payload bytes of document id starting at off.
// Both the owner map and the owning store must agree the document is
// live; a disagreement (an engine invariant violation) reports false
// rather than a phantom empty payload.
func (c *collection) Extract(id uint64, off, length int) ([]byte, bool) {
	var data []byte
	ok := false
	found := c.eng.ViewOwner(id, func(st engine.Store[uint64, doc.Doc]) {
		data, ok = st.(Part).Extract(id, off, length)
	})
	return data, found && ok
}

// DocLen returns the payload length of document id, with the same
// owner/store agreement rule as Extract.
func (c *collection) DocLen(id uint64) (int, bool) {
	var n int
	ok := false
	found := c.eng.ViewOwner(id, func(st engine.Store[uint64, doc.Doc]) {
		n, ok = st.(Part).DocLen(id)
	})
	return n, found && ok
}

// WaitIdle blocks until background builds (worst-case scheduling only)
// have completed and been installed; the amortized engine returns
// immediately.
func (c *collection) WaitIdle() { c.eng.WaitIdle() }

// SizeBits estimates the total footprint for space accounting.
func (c *collection) SizeBits() int64 { return c.eng.SizeBits() }

// Stats returns the engine's rebuild counters and current layout.
func (c *collection) Stats() Stats { return c.eng.Stats() }

// SortedWeight is the part of the weight the ladder's builds were handed
// (Stats().BuiltWeight) that they suffix-sorted; they merged or
// filtered the rest from their sources' indexes (buildFrom). A build
// in flight counts here before it counts there.
func (c *collection) SortedWeight() int64 { return c.sorted.Load() }

// Tau reports the τ currently in effect.
func (c *collection) Tau() int { return c.eng.Tau() }
