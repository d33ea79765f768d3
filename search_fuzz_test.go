package dyncoll

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"testing"

	"dyncoll/internal/query"
)

// newSearchPlanForTest exposes the compiled plan so the fuzzer can
// check the literal analysis directly.
func newSearchPlanForTest(expr string) (*query.Plan, error) {
	return query.Compile(query.Spec{Pattern: expr, Regex: true})
}

// FuzzRegexPlan is the planner's correctness property under fire:
// for a random regex and a random corpus, on every structure layout
// (all 3 transformations, sharded and unsharded),
//
//   - the verified results are exactly regexp.FindAllIndex over every
//     document — never a false negative, never a false positive;
//   - the required-literal analysis is sound: every matching document
//     contains at least one literal of every group (the candidate set
//     the index filters with is a superset of the true match set);
//   - compiling and executing never panics (malformed regexes reject
//     with ErrBadPattern);
//   - all of it holds on many-store ladders (one InsertBatch per few
//     documents), with background builds in flight.
//
// Run open-ended with `go test -fuzz=FuzzRegexPlan`.
func FuzzRegexPlan(f *testing.F) {
	f.Add("qu.ck", []byte("the quick brown fox quacks"), uint8(0))
	f.Add("a+b", []byte("aaab aab ab b caab"), uint8(3))
	f.Add("(foo|bar)x", []byte("foox barx bazx foox"), uint8(2))
	f.Add("^ab", []byte("abab\x01abab"), uint8(1))
	f.Add(".*", []byte("anything at all"), uint8(4))
	f.Add("[ab]{2}c", []byte("abc bac aac zzc"), uint8(5))
	f.Add("x{1,3}y", []byte("xy xxy xxxy xxxxy"), uint8(0))
	f.Add("needle.{0,2}hay", bytes.Repeat([]byte("straw needle hay straw hay needle.hay chaff "), 24), uint8(2))
	f.Fuzz(func(t *testing.T, expr string, corpus []byte, cfg uint8) {
		if len(expr) > 64 || len(corpus) > 4096 {
			return
		}
		re, err := regexp.Compile(expr)
		if err != nil {
			// Malformed regexes must reject cleanly, not panic.
			c := mustCollection(t)
			if _, ferr := c.FindRegexp(expr); !errors.Is(ferr, ErrBadPattern) {
				t.Fatalf("FindRegexp(%q) on invalid regex = %v, want ErrBadPattern", expr, ferr)
			}
			return
		}

		// Chunk the corpus into documents on a size derived from the
		// input; 0x00 is the reserved separator, so remap it.
		data := bytes.ReplaceAll(corpus, []byte{0}, []byte{1})
		chunk := int(cfg)%48 + 8
		docs := map[uint64][]byte{}
		for i, id := 0, uint64(1); i < len(data); i, id = i+chunk, id+1 {
			end := min(i+chunk, len(data))
			docs[id] = data[i:end]
		}
		if len(docs) == 0 {
			return
		}

		// Reference: the regexp engine over every document.
		var want []Match
		for _, id := range slices.Sorted(mapKeys(docs)) {
			for _, loc := range re.FindAllIndex(docs[id], -1) {
				want = append(want, Match{Doc: id, Off: loc[0], Len: loc[1] - loc[0]})
			}
		}

		// batch > 0 ingests that many documents per InsertBatch over a
		// small C0, so a worst-case ladder ends as one top per batch and an
		// amortized one as a full set of levels — the many-store shape
		// batched ingest leaves in production, where a plan is decided
		// sub-collection by sub-collection. The async layout is queried
		// with its background builds still in flight. Every layout runs
		// the default fmz index but the last, which runs fm.
		layouts := []struct {
			opts  []Option
			batch int
			async bool
		}{
			{opts: []Option{WithTransformation(Amortized)}},
			{opts: []Option{WithTransformation(WorstCase), WithSyncRebuilds()}},
			{opts: []Option{WithTransformation(AmortizedFastInsert)}},
			{opts: []Option{WithTransformation(Amortized), WithShards(2)}},
			{opts: []Option{WithTransformation(WorstCase), WithSyncRebuilds(), WithShards(3)}},
			{opts: []Option{WithTransformation(AmortizedFastInsert), WithShards(2)}},
			{opts: []Option{WithTransformation(WorstCase), WithSyncRebuilds(), WithMinCapacity(16)}, batch: 3},
			{opts: []Option{WithTransformation(Amortized), WithMinCapacity(16)}, batch: 3},
			{opts: []Option{WithTransformation(WorstCase), WithMinCapacity(16), WithShards(2)}, batch: 5, async: true},
			{opts: []Option{WithTransformation(WorstCase), WithSyncRebuilds(), WithMinCapacity(16), WithIndex(IndexFM)}, batch: 3},
		}
		for li, l := range layouts {
			c := mustCollection(t, l.opts...)
			var batch []Document
			for _, id := range slices.Sorted(mapKeys(docs)) {
				batch = append(batch, Document{ID: id, Data: docs[id]})
			}
			for b := range slices.Chunk(batch, cmp.Or(l.batch, len(batch))) {
				if err := c.InsertBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			if l.async {
				defer c.WaitIdle()
			} else {
				c.WaitIdle()
			}

			it, err := c.FindRegexp(expr)
			if err != nil {
				t.Fatalf("layout %d: FindRegexp(%q): %v", li, expr, err)
			}
			var got []Match
			for m := range it {
				got = append(got, m)
			}
			sortMatches(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("layout %d: FindRegexp(%q) = %v, want %v", li, expr, got, want)
			}

			// Ranked variant covers exactly the matching documents.
			matchDocs := map[uint64]bool{}
			for _, m := range want {
				matchDocs[m.Doc] = true
			}
			rit, err := c.FindRegexpTopK(expr, 0)
			if err != nil {
				t.Fatal(err)
			}
			ranked := 0
			for m := range rit {
				if !matchDocs[m.Doc] {
					t.Fatalf("layout %d: doc %d ranked but does not match %q", li, m.Doc, expr)
				}
				ranked++
			}
			if ranked != len(matchDocs) {
				t.Fatalf("layout %d: ranked %d docs, want %d", li, ranked, len(matchDocs))
			}
		}

		// Literal soundness: every matching document contains at least
		// one literal of every required group.
		plan, err := newSearchPlanForTest(expr)
		if err != nil {
			t.Fatal(err)
		}
		for id := range docs {
			if !re.Match(docs[id]) {
				continue
			}
			for _, g := range plan.LiteralGroups() {
				found := false
				for _, lit := range g {
					if bytes.Contains(docs[id], lit) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("doc %d matches %q but contains no literal of group %q — candidate filter would drop a true match", id, expr, g)
				}
			}
		}
	})
}

// mapKeys adapts a map's keys to the iterator slices.Sorted consumes.
func mapKeys[K comparable, V any](m map[K]V) func(yield func(K) bool) {
	return func(yield func(K) bool) {
		for k := range m {
			if !yield(k) {
				return
			}
		}
	}
}
