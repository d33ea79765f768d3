package fmindex

import (
	"bytes"
	"fmt"
	"sort"
)

// docTable is the document table every built-in index embeds: where
// each document starts in the concatenation d₁$d₂$…, its application
// ID, and the payload symbols of all documents, separators excluded.
// The concatenation is symbols + DocCount() long, so the last
// document's end needs no stored length.
type docTable struct {
	docStarts []int32 // global start offset of each document
	docIDs    []uint64
	symbols   int // total document symbols, excluding separators
}

// appendDocs appends every document and its separator to text,
// recording each in the table, and returns the extended text.
func (t *docTable) appendDocs(text []byte, docs []Doc) []byte {
	t.docStarts = make([]int32, 0, len(docs))
	t.docIDs = make([]uint64, 0, len(docs))
	for _, d := range docs {
		if j := bytes.IndexByte(d.Data, Sep); j >= 0 {
			panic(fmt.Sprintf("fmindex: document %d contains the reserved separator byte 0x00 at offset %d", d.ID, j))
		}
		t.docStarts = append(t.docStarts, int32(len(text)))
		t.docIDs = append(t.docIDs, d.ID)
		t.symbols += len(d.Data)
		text = append(text, d.Data...)
		text = append(text, Sep)
	}
	return text
}

// SymbolCount reports the total number of document symbols, excluding
// separators.
func (t *docTable) SymbolCount() int { return t.symbols }

// DocCount reports the number of documents.
func (t *docTable) DocCount() int { return len(t.docIDs) }

// DocID returns the application identifier of the i-th document.
func (t *docTable) DocID(i int) uint64 { return t.docIDs[i] }

// DocLen returns the payload length of the i-th document.
func (t *docTable) DocLen(i int) int {
	end := t.symbols + len(t.docIDs)
	if i+1 < len(t.docStarts) {
		end = int(t.docStarts[i+1])
	}
	return end - int(t.docStarts[i]) - 1
}

// posToDoc maps a position of the concatenation to its document and
// the offset within it.
func (t *docTable) posToDoc(pos int) (doc, off int) {
	doc = sort.Search(len(t.docStarts), func(i int) bool {
		return int(t.docStarts[i]) > pos
	}) - 1
	return doc, pos - int(t.docStarts[doc])
}

// sizeBits is the table's share of an index's SizeBits.
func (t *docTable) sizeBits() int64 {
	return int64(len(t.docStarts))*32 + int64(len(t.docIDs))*64
}

// check validates a decoded table against an index of n rows: starts
// strictly increasing from 0, one ID per start, and symbols consistent
// with one separator per document.
func (t *docTable) check(d failer, n int) {
	if len(t.docIDs) != len(t.docStarts) {
		d.Fail("doc table: %d ids for %d starts", len(t.docIDs), len(t.docStarts))
		return
	}
	for i, s := range t.docStarts {
		if int(s) < 0 || int(s) >= n || (i == 0 && s != 0) || (i > 0 && s <= t.docStarts[i-1]) {
			d.Fail("doc table: start %d at position %d out of order", s, i)
			return
		}
	}
	if t.symbols != n-len(t.docIDs) {
		d.Fail("doc table: %d symbols for %d rows and %d docs", t.symbols, n, len(t.docIDs))
	}
}
