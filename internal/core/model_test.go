package core

import (
	"sort"

	"dyncoll/internal/doc"
	"dyncoll/internal/fmindex"
)

// sortOccs orders occurrences canonically for comparison.
func sortOccs(occs []Occurrence) {
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].DocID != occs[j].DocID {
			return occs[i].DocID < occs[j].DocID
		}
		return occs[i].Off < occs[j].Off
	})
}

func sameOccs(a, b []Occurrence) bool {
	if len(a) != len(b) {
		return false
	}
	sortOccs(a)
	sortOccs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dynamic is the interface shared by Amortized and WorstCase, letting the
// conformance suite run over every transformation.
type dynamic interface {
	Insert(doc.Doc) error
	InsertBatch([]doc.Doc) error
	DeleteBatch([]uint64) int
	Delete(id uint64) bool
	Has(id uint64) bool
	Find(pattern []byte) []Occurrence
	FindFunc(pattern []byte, fn func(Occurrence) bool)
	Count(pattern []byte) int
	Extract(id uint64, off, length int) ([]byte, bool)
	DocLen(id uint64) (int, bool)
	Len() int
	DocCount() int
	SizeBits() int64
}

var (
	_ dynamic = (*Amortized)(nil)
	_ dynamic = (*WorstCase)(nil)
)

// fmBuilder is the default static-index builder for tests: an FM-index
// with a small sample rate so locate paths are exercised aggressively.
func fmBuilder(docs []doc.Doc) StaticIndex {
	return fmindex.Build(docs, fmindex.Options{SampleRate: 4})
}

// saBuilder uses the plain suffix-array index (the O(n log σ)-bit
// Grossi–Vitter stand-in), checking builder-independence of the
// framework.
func saBuilder(docs []doc.Doc) StaticIndex {
	return fmindex.BuildSA(docs)
}

// csaBuilder uses the Ψ-based compressed suffix array (Sadakane
// flavour), a third index family with no LF support — exercising the
// SemiDynamic deletion fallback path.
func csaBuilder(docs []doc.Doc) StaticIndex {
	return fmindex.BuildCSA(docs, fmindex.Options{SampleRate: 4})
}
