package fmindex

import (
	"bytes"
	"sort"

	"dyncoll/internal/doc"
	"dyncoll/internal/sa"
)

// SAIndex is a plain suffix-array index over a document collection: the
// concatenated text plus its explicit suffix array and inverse.
//
// It realizes the O(n log σ)-bit regime of Table 3 (Grossi–Vitter):
// range-finding by binary search with word-packed comparisons
// (bytes.Compare compares eight bytes per step, the |P|/log_σ n effect),
// tlocate = O(1), textract = O(ℓ/w) memcpy. We store the suffix array
// explicitly rather than as a compressed Ψ-function — the Grossi–Vitter
// CSA machinery is orthogonal to the dynamization the paper studies, and
// storing SA outright only relaxes the constant in front of n log n bits
// of redundancy (see DESIGN.md §2). The (doc, offset) interface matches
// *Index exactly, so SAIndex plugs into the same transformations.
type SAIndex struct {
	text []byte
	suff []int32
	inv  []int32
	docTable
}

// BuildSA constructs a SAIndex over the given documents.
func BuildSA(docs []Doc) *SAIndex {
	total := 0
	for _, d := range docs {
		total += len(d.Data) + 1
	}
	x := &SAIndex{}
	x.text = x.appendDocs(make([]byte, 0, total), docs)
	if len(x.text) > 0 {
		x.suff = sa.SuffixArray(x.text)
		x.inv = make([]int32, len(x.suff))
		for i, p := range x.suff {
			x.inv[p] = int32(i)
		}
	}
	return x
}

// SALen reports the number of suffix-array rows.
func (x *SAIndex) SALen() int { return len(x.text) }

// Range returns the half-open suffix-array interval of the pattern via
// two binary searches with word-packed comparisons.
func (x *SAIndex) Range(pattern []byte) (lo, hi int) {
	n := len(x.suff)
	if len(pattern) == 0 {
		return 0, n
	}
	lo = sort.Search(n, func(i int) bool {
		return bytes.Compare(x.suffixAt(i, len(pattern)), pattern) >= 0
	})
	hi = sort.Search(n, func(i int) bool {
		return bytes.Compare(x.suffixAt(i, len(pattern)), pattern) > 0
	})
	return lo, hi
}

func (x *SAIndex) suffixAt(row, maxLen int) []byte {
	p := int(x.suff[row])
	end := p + maxLen
	if end > len(x.text) {
		end = len(x.text)
	}
	return x.text[p:end]
}

// Locate maps a suffix-array row to (document, offset) in O(log ρ) time.
func (x *SAIndex) Locate(row int) (doc, off int) {
	return x.posToDoc(int(x.suff[row]))
}

// SuffixRank returns the suffix-array row of (doc, off) in O(1) time.
func (x *SAIndex) SuffixRank(doc, off int) int {
	return int(x.inv[int(x.docStarts[doc])+off])
}

// Extract copies length symbols of doc starting at off.
func (x *SAIndex) Extract(d, off, length int) []byte {
	off, length = doc.Clamp(off, length, x.DocLen(d))
	if length == 0 {
		return nil
	}
	start := int(x.docStarts[d]) + off
	out := make([]byte, length)
	copy(out, x.text[start:start+length])
	return out
}

// SizeBits estimates the index footprint in bits.
func (x *SAIndex) SizeBits() int64 {
	return int64(len(x.text))*8 +
		int64(len(x.suff)+len(x.inv))*32 + x.docTable.sizeBits()
}
