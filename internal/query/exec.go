package query

import (
	"math"
	"slices"

	"dyncoll/internal/core"
	"dyncoll/internal/fanout"
)

// Source is what the single-level executor queries: a ladder as its
// sub-collections, plus random-access extraction. The core
// transformations satisfy it directly.
type Source interface {
	// Parts runs fn with the sub-collections, part(0) … part(n−1), under
	// one consistent view. Every live document is in exactly one part,
	// which is what lets each plan be evaluated part by part — and the
	// parts be visited by a team (fanout.Reduce, fanout.Stream), so
	// part(i) may be called from helper goroutines while fn runs. fn must
	// not call back into the Source: the worst-case engine holds its lock
	// while it runs.
	Parts(fn func(n int, part func(i int) core.Part))
	// Extract clamps the range to the payload.
	Extract(id uint64, off, length int) ([]byte, bool)
}

// Single executes plans against one Source.
type Single struct{ src Source }

// Over returns the single-level executor for src.
func Over(src Source) Single { return Single{src: src} }

// Execute runs p against the source, emitting matches until the plan is
// exhausted or emit returns false: ranked plans emit documents
// best-first, streaming plans occurrences in unspecified order, and at
// most k of either. It never fails on a compiled plan.
func (e Single) Execute(p *Plan, emit func(Match) bool) error {
	switch {
	case !p.Regex() && !p.Ranked():
		e.exactStream(p, emit)
	case !p.Regex():
		e.exactRanked(p, emit)
	case !p.Ranked():
		e.regexStream(p, emit)
	default:
		e.regexRanked(p, emit)
	}
	return nil
}

// Union executes p over n disjoint sources — the shards of a
// collection, the collections a backend hosts — where run(i, emit)
// executes p over source i, so each source emits at most k matches.
// Streaming plans merge through fanout.FanOut with k enforced at the
// merge, so the early break reaches every source mid-enumeration.
// Ranked plans collect every source's exact local top-k in parallel and
// merge them with MergeRanked: scores are document-local and the
// sources disjoint, so the merge is the exact global top-k. A single
// source runs inline.
func Union(p *Plan, n int, run func(i int, emit func(Match) bool), emit func(Match) bool) {
	switch {
	case n == 1:
		run(0, emit)
	case p.Ranked():
		lists := make([][]Match, n)
		fanout.ForEach(n, func(i int) {
			run(i, func(m Match) bool {
				lists[i] = append(lists[i], m)
				return true
			})
		})
		MergeRanked(lists, p.K(), emit)
	default:
		fanout.FanOut(n, run, limited(p.K(), emit))
	}
}

// limited bounds a streaming emit at the plan's k (0 = unlimited); the
// early break propagates into the underlying enumeration.
func limited(k int, emit func(Match) bool) func(Match) bool {
	if k <= 0 {
		return emit
	}
	n := 0
	return func(m Match) bool {
		if !emit(m) {
			return false
		}
		n++
		return n < k
	}
}

// exactStream is the classic workload: every occurrence of the pattern,
// the parts' enumerations merged into emit on the caller's goroutine.
func (e Single) exactStream(p *Plan, emit func(Match) bool) {
	fn := limited(p.K(), emit)
	e.src.Parts(func(n int, part func(int) core.Part) {
		fanout.Stream(n, func(i int, emit func(core.Occurrence) bool) {
			part(i).FindFunc(p.pattern, emit)
		}, func(o core.Occurrence) bool {
			return fn(Match{Doc: o.DocID, Off: o.Off, Len: len(p.pattern)})
		})
	})
}

// exactRanked aggregates each part's grouped enumeration per document —
// match count and earliest offset are exactly what the scorer needs, and
// the grouped order delivers both in O(1) state per document. A document
// is scored as soon as its group ends: the part that enumerates it also
// knows its length, so nothing re-enters the ladder. Each worker of the
// team ranks into its own TopK; the workers' lists merge as shards' do.
func (e Single) exactRanked(p *Plan, emit func(Match) bool) {
	var lists [][]Match
	e.src.Parts(func(n int, part func(int) core.Part) {
		rankers := fanout.Reduce[[]*ranker](n, rankPass{p, part})
		for _, r := range rankers {
			lists = append(lists, r.top.Sorted())
		}
	})
	MergeRanked(lists, p.K(), emit)
}

// rankPass is what an exactRanked pass shares between its workers.
type rankPass struct {
	p    *Plan
	part func(int) core.Part
}

// Fold ranks part i into the worker's ranker, acc[0], made at the
// worker's first part.
func (s rankPass) Fold(acc []*ranker, i int) []*ranker {
	if acc == nil {
		r := &ranker{top: NewTopK(s.p.K()), plen: len(s.p.pattern)}
		r.each = r.occurrence
		acc = []*ranker{r}
	}
	r := acc[0]
	r.pt = s.part(i)
	r.pt.FindGroupedFunc(s.p.pattern, r.each)
	r.flush()
	return acc
}

func (rankPass) Merge(a, b []*ranker) []*ranker { return append(a, b...) }

// ranker is one worker's ranked aggregation.
type ranker struct {
	top   *TopK
	plen  int
	each  func(core.Occurrence) bool // occurrence, bound once per worker
	pt    core.Part                  // the part being read
	cur   Match                      // the document whose group is being read
	count int                        // its matches so far; 0 = no open group
}

func (r *ranker) occurrence(o core.Occurrence) bool {
	if r.count > 0 && r.cur.Doc == o.DocID {
		r.count++
		return true
	}
	r.flush()
	r.cur, r.count = Match{Doc: o.DocID, Off: o.Off, Len: r.plen}, 1
	return true
}

func (r *ranker) flush() {
	if r.count > 0 {
		n, _ := r.pt.DocLen(r.cur.Doc)
		r.cur.Score = Score(n, r.count, r.cur.Off)
		r.top.Add(r.cur)
		r.count = 0
	}
}

// regexStream verifies candidate documents (docs sorted ascending, for
// deterministic output) with the compiled regexp and emits every match.
func (e Single) regexStream(p *Plan, emit func(Match) bool) {
	fn := limited(p.K(), emit)
	for _, id := range e.candidateDocs(p) {
		text, ok := e.docText(id)
		if !ok {
			continue
		}
		for _, loc := range p.re.FindAllIndex(text, -1) {
			if !fn(Match{Doc: id, Off: loc[0], Len: loc[1] - loc[0]}) {
				return
			}
		}
	}
}

// regexRanked scores each verified candidate document as a whole.
func (e Single) regexRanked(p *Plan, emit func(Match) bool) {
	top := NewTopK(p.K())
	for _, id := range e.candidateDocs(p) {
		text, ok := e.docText(id)
		if !ok {
			continue
		}
		locs := p.re.FindAllIndex(text, -1)
		if len(locs) == 0 {
			continue
		}
		top.Add(Match{
			Doc:   id,
			Off:   locs[0][0],
			Len:   locs[0][1] - locs[0][0],
			Score: Score(len(text), len(locs), locs[0][0]),
		})
	}
	emitSorted(top, emit)
}

func emitSorted(top *TopK, emit func(Match) bool) {
	for _, m := range top.Sorted() {
		if !emit(m) {
			return
		}
	}
}

// docText extracts a document's full payload for verification, in one
// call: Extract clamps. A failed extract means the document vanished
// between enumeration and verification (possible only through a
// caller-level race; the shard layer holds its read lock across Execute)
// — skipping it is the same outcome as running a moment earlier.
func (e Single) docText(id uint64) ([]byte, bool) {
	return e.src.Extract(id, 0, math.MaxInt)
}

// candidateDocs returns the ascending list of documents a regex plan
// must verify: the union of each part's candidates, gathered by a team
// whose workers keep one list each. Only the index work runs inside the
// view; extraction and the regexp engine run after it, so a pathological
// expression never extends the engine's lock hold.
func (e Single) candidateDocs(p *Plan) []uint64 {
	var docs []uint64
	e.src.Parts(func(n int, part func(int) core.Part) {
		docs = fanout.Reduce[[]uint64](n, candidatePass{p, part})
	})
	slices.Sort(docs)
	return docs
}

// candidatePass is what a candidateDocs pass shares between its workers.
type candidatePass struct {
	p    *Plan
	part func(int) core.Part
}

func (s candidatePass) Fold(docs []uint64, i int) []uint64 {
	return s.p.partCandidates(s.part(i), docs)
}

func (candidatePass) Merge(a, b []uint64) []uint64 { return append(a, b...) }

// partCandidates appends to docs the documents of one part that a regex
// plan must verify. Every match contains at least one literal of each
// group, and a document's text lies in one part, so the conjunction is
// decided inside the part: a part that lacks any group holds no
// candidate at all. Without usable literals — or when the part's
// cheapest group is so common that enumerating it costs as much as
// scanning — it degrades to all of the part's live documents.
func (p *Plan) partCandidates(pt core.Part, docs []uint64) []uint64 {
	if p.scan {
		return append(docs, pt.LiveKeys()...)
	}
	// Count the groups, strongest first. The first one with no occurrence
	// here ends the visit, which is how most parts are left after a single
	// backward search; the totals order the rest by selectivity.
	var totals [maxGroups]int
	cheap := 0
	for i, g := range p.groups {
		for _, lit := range g {
			totals[i] += pt.Count(lit)
		}
		if totals[i] == 0 {
			return docs
		}
		if totals[i] < totals[cheap] {
			cheap = i
		}
	}
	if totals[cheap]*4 > pt.LiveWeight() {
		return append(docs, pt.LiveKeys()...)
	}

	base := len(docs)
	docs = appendGroupDocs(docs, pt, p.groups[cheap])
	for i, g := range p.groups {
		// Intersecting with a further group is worth an index walk only
		// while its occurrence list is comparable to the surviving
		// candidate set; skipping the intersection is always sound.
		if n := len(docs) - base; i == cheap || n == 0 || totals[i] > 4*n+256 {
			continue
		}
		other := appendGroupDocs(nil, pt, g)
		kept := docs[:base]
		for _, id := range docs[base:] {
			if _, ok := slices.BinarySearch(other, id); ok {
				kept = append(kept, id)
			}
		}
		docs = kept
	}
	return docs
}

// appendGroupDocs appends, ascending and distinct, the documents of pt
// that contain at least one of the group's literals.
func appendGroupDocs(dst []uint64, pt core.Part, group [][]byte) []uint64 {
	base := len(dst)
	each := func(o core.Occurrence) bool {
		dst = append(dst, o.DocID)
		return true
	}
	for _, lit := range group {
		pt.FindFunc(lit, each)
	}
	slices.Sort(dst[base:])
	return dst[:base+len(slices.Compact(dst[base:]))]
}
