package query

import (
	"math"
	"slices"
)

// Ranking: a document's score for a query combines a static prior with
// query-dependent evidence, every component normalized into [0, 1]:
//
//   - match count (weight 0.6): log-saturating at countCap occurrences,
//     so a document with 1000 hits does not drown one with 30;
//   - earliest position (weight 0.25): matches near the start of the
//     document rank higher (title/lead-paragraph prior);
//   - static score (weight 0.15): shorter documents rank higher — the
//     same evidence in less text is a denser signal.
//
// Scores are document-local: they depend only on the document's own
// matches and length, never on corpus statistics. That locality is what
// lets ranked top-k commute with the union over sub-collections — a
// shard's (or backend's) local top-k list is exact for its slice of the
// corpus, so merging per-level lists and keeping the best k is exactly
// the global top-k (see DESIGN.md).

// countCap is where the match-count component saturates.
const countCap = 32

// Score computes the relevance of a document with the given payload
// length, match count, and earliest match offset.
func Score(docLen, matches, firstOff int) float64 {
	if matches <= 0 {
		return 0
	}
	c := matches
	if c > countCap {
		c = countCap
	}
	count := math.Log2(1+float64(c)) / math.Log2(1+countCap)
	early := 1 / (1 + float64(firstOff)/64)
	static := 1 / (1 + math.Log2(1+float64(docLen)/1024))
	return 0.6*count + 0.25*early + 0.15*static
}

// Match is one search result. Streaming plans emit one Match per
// occurrence (Score zero); ranked plans emit one Match per document,
// best score first, with Off/Len describing the document's earliest
// match. The JSON form is the /v1/search NDJSON line.
type Match struct {
	Doc   uint64  `json:"doc"`
	Off   int     `json:"off"`
	Len   int     `json:"len,omitempty"`
	Score float64 `json:"score,omitempty"`
}

// less orders matches for ranked emission: higher score first, document
// ID ascending as the deterministic tiebreak.
func less(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// TopK accumulates the k best matches (k ≤ 0: unbounded — rank
// everything) in a bounded min-heap, so ranking the world costs
// O(docs·log k) comparisons and O(k) memory instead of materializing
// and sorting the world.
type TopK struct {
	k int
	h []Match // min-heap on less (worst survivor at the root)
}

// NewTopK returns an accumulator for the k best matches.
func NewTopK(k int) *TopK { return &TopK{k: k} }

// Add offers one match.
func (t *TopK) Add(m Match) {
	if t.k <= 0 {
		t.h = append(t.h, m)
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, m)
		t.up(len(t.h) - 1)
		return
	}
	if !less(m, t.h[0]) {
		return
	}
	t.h[0] = m
	t.down(0)
}

// Sorted drains the accumulator: matches in emission order (best
// first). The accumulator must not be reused afterwards.
func (t *TopK) Sorted() []Match {
	slices.SortFunc(t.h, func(a, b Match) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
	return t.h
}

func (t *TopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(t.h[p], t.h[i]) { // parent is no better than child: heap ok
			return
		}
		t.h[p], t.h[i] = t.h[i], t.h[p]
		i = p
	}
}

func (t *TopK) down(i int) {
	n := len(t.h)
	for {
		worst := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n && less(t.h[worst], t.h[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// MergeRanked merges per-level ranked result lists (each sorted best
// first, as a ranked plan emits them) and emits the k best overall (k ≤ 0:
// all), stopping early when emit returns false. Because scores are
// document-local and every document lives at exactly one level, the
// merge of exact per-level top-k lists is the exact global top-k.
func MergeRanked(lists [][]Match, k int, emit func(Match) bool) {
	heads := make([]int, len(lists))
	emitted := 0
	for k <= 0 || emitted < k {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || less(l[heads[i]], lists[best][heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		m := lists[best][heads[best]]
		heads[best]++
		if !emit(m) {
			return
		}
		emitted++
	}
}
