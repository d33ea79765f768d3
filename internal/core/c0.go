package core

import (
	"cmp"
	"slices"

	"dyncoll/internal/doc"
	"dyncoll/internal/suffixtree"
)

// c0store adapts the uncompressed generalized suffix tree (the paper's C0
// sub-collection, Section A.2) to the engine's Mutable store contract,
// with document weights measured in payload symbols.
type c0store struct {
	t *suffixtree.Tree
}

func newC0() *c0store { return &c0store{t: suffixtree.New()} }

// Insert adds a document (engine.Mutable).
func (c *c0store) Insert(d doc.Doc) { c.t.Insert(d) }

// Delete removes a document, reporting its symbol weight (engine.Store).
func (c *c0store) Delete(id uint64) (int, bool) {
	n, ok := c.t.DocLen(id)
	if !ok {
		return 0, false
	}
	c.t.Delete(id)
	return n, true
}

// LiveKeys lists the live document IDs (engine.Store).
func (c *c0store) LiveKeys() []uint64 { return c.t.LiveIDs() }

// LiveItems materializes the live documents (engine.Store).
func (c *c0store) LiveItems() []doc.Doc { return c.t.LiveDocs() }

// LiveWeight and DeadWeight report live/deleted payload symbols
// (engine.Store).
func (c *c0store) LiveWeight() int { return c.t.Len() }
func (c *c0store) DeadWeight() int { return c.t.DeletedSymbols() }

// SizeBits estimates the footprint (engine.Store).
func (c *c0store) SizeBits() int64 { return c.t.SizeBits() }

// FindFunc streams the tree's occurrences of pattern (Part).
func (c *c0store) FindFunc(pattern []byte, fn func(Occurrence) bool) {
	c.t.FindFunc(pattern, func(o suffixtree.Occurrence) bool {
		return fn(Occurrence{DocID: o.DocID, Off: o.Off})
	})
}

// FindGroupedFunc imposes the grouped order on a tree that can only
// stream: collect everything, sort by (document, offset), replay.
func (c *c0store) FindGroupedFunc(pattern []byte, fn func(Occurrence) bool) {
	var occs []Occurrence
	c.FindFunc(pattern, func(o Occurrence) bool {
		occs = append(occs, o)
		return true
	})
	slices.SortFunc(occs, func(a, b Occurrence) int {
		return cmp.Or(cmp.Compare(a.DocID, b.DocID), a.Off-b.Off)
	})
	for _, o := range occs {
		if !fn(o) {
			return
		}
	}
}

func (c *c0store) Count(pattern []byte) int { return c.t.Count(pattern) }

func (c *c0store) Extract(id uint64, off, length int) ([]byte, bool) {
	return c.t.Extract(id, off, length)
}

func (c *c0store) DocLen(id uint64) (int, bool) { return c.t.DocLen(id) }
