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
//
// An fmm index places its documents in a padded layout instead: each
// starts at a multiple of pad, its payload and separator followed by
// positions no row covers up to the next multiple. Its table keeps
// where each document's separator ends in that layout, and a
// document's start is the end of the one before rounded up to pad.
type docTable struct {
	docStarts []int32 // global start offset of each document; none in a padded table
	ends      packed  // a padded table's: one past each document's separator
	pad       int     // the padded layout's stride; 0 for a concatenation
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
	if t.pad != 0 {
		return t.ends.get(i) - t.start(i) - 1
	}
	end := t.symbols + len(t.docIDs)
	if i+1 < len(t.docStarts) {
		end = int(t.docStarts[i+1])
	}
	return end - int(t.docStarts[i]) - 1
}

// start is the position of document i's first symbol.
func (t *docTable) start(i int) int {
	if t.pad == 0 {
		return int(t.docStarts[i])
	}
	if i == 0 {
		return 0
	}
	return roundUp(t.ends.get(i-1), t.pad)
}

// roundUp is the first multiple of s at or after v.
func roundUp(v, s int) int { return (v + s - 1) / s * s }

// posToDoc maps a position of the concatenation, or of the padded
// layout, to its document and the offset within it.
func (t *docTable) posToDoc(pos int) (doc, off int) {
	if t.pad != 0 {
		doc = sort.Search(len(t.docIDs), func(i int) bool { return t.ends.get(i) > pos })
		return doc, pos - t.start(doc)
	}
	doc = sort.Search(len(t.docStarts), func(i int) bool {
		return int(t.docStarts[i]) > pos
	}) - 1
	return doc, pos - int(t.docStarts[doc])
}

// padded returns the padded table of stride s over documents with
// the given IDs and payload lengths.
func padded(ids []uint64, lens []int32, s int) docTable {
	t := docTable{pad: s, docIDs: ids}
	v := 0
	for _, l := range lens {
		t.symbols += int(l)
		v = roundUp(v, s) + int(l) + 1
	}
	t.ends = newPacked(len(lens), roundUp(v, s)+1)
	v = 0
	for i, l := range lens {
		v = roundUp(v, s) + int(l) + 1
		t.ends.set(i, uint64(v))
	}
	return t
}

// span is the padded layout's length: the last document's end rounded
// up to the stride.
func (t *docTable) span() int {
	if len(t.docIDs) == 0 {
		return 0
	}
	return roundUp(t.ends.get(len(t.docIDs)-1), t.pad)
}

// sizeBits is the table's share of an index's SizeBits.
func (t *docTable) sizeBits() int64 {
	return int64(len(t.docStarts))*32 + t.ends.sizeBits() + int64(len(t.docIDs))*64
}

// check validates a decoded table against an index of n rows: starts
// strictly increasing from 0, one ID per start, and symbols consistent
// with one separator per document.
func (t *docTable) check(d failer, n int) {
	if t.pad != 0 {
		t.checkPadded(d, n)
		return
	}
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

// checkPadded validates a padded table against an index of n rows:
// every document at least its separator long and starting after the
// one before it, and the documents' lengths summing to n.
func (t *docTable) checkPadded(d failer, n int) {
	rows := 0
	for i := range t.docIDs {
		l := t.ends.get(i) - t.start(i)
		if l < 1 {
			d.Fail("doc table: document %d ends at %d, before its start", i, t.ends.get(i))
			return
		}
		rows += l
	}
	if rows != n || t.symbols != n-len(t.docIDs) {
		d.Fail("doc table: %d rows and %d symbols for %d rows and %d docs", rows, t.symbols, n, len(t.docIDs))
	}
}
