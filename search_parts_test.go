package dyncoll

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dyncoll/internal/core"
	"dyncoll/internal/query"
)

// globalExec is the single-level executor as it stood before plans were
// evaluated sub-collection by sub-collection: the ladder (or the whole
// sharded collection) is one opaque source, every required literal is
// counted over all of it, the cheapest group is enumerated over all of
// it, and the scan fallback is one decision for the whole corpus. It is
// kept as the reference the per-part evaluation is compared against:
// the two may verify different candidate sets, but must emit the same
// matches in the same order with the same k-cut.
type globalExec struct{ c *Collection }

func (g globalExec) run(p *query.Plan) []Match {
	var out []Match
	emit := func(m Match) bool {
		out = append(out, m)
		return p.Ranked() || p.K() <= 0 || len(out) < p.K()
	}
	pattern := p.Spec().PatternBytes()
	switch {
	case !p.Regex() && !p.Ranked():
		g.c.FindFunc(pattern, func(o Occurrence) bool {
			return emit(Match{Doc: o.DocID, Off: o.Off, Len: len(pattern)})
		})
	case !p.Regex():
		type agg struct{ n, first int }
		aggs := map[uint64]*agg{}
		g.c.FindFunc(pattern, func(o Occurrence) bool {
			a := aggs[o.DocID]
			if a == nil {
				a = &agg{first: math.MaxInt}
				aggs[o.DocID] = a
			}
			a.n, a.first = a.n+1, min(a.first, o.Off)
			return true
		})
		top := query.NewTopK(p.K())
		for id, a := range aggs {
			n, _ := g.c.DocLen(id)
			top.Add(Match{Doc: id, Off: a.first, Len: len(pattern), Score: query.Score(n, a.n, a.first)})
		}
		out = top.Sorted()
	default:
		re := regexp.MustCompile(string(pattern))
		top := query.NewTopK(p.K())
	docs:
		for _, id := range g.candidateDocs(p) {
			n, ok := g.c.DocLen(id)
			if !ok {
				continue
			}
			text, _ := g.c.Extract(id, 0, n)
			locs := re.FindAllIndex(text, -1)
			if p.Ranked() {
				if len(locs) > 0 {
					top.Add(Match{Doc: id, Off: locs[0][0], Len: locs[0][1] - locs[0][0],
						Score: query.Score(len(text), len(locs), locs[0][0])})
				}
				continue
			}
			for _, loc := range locs {
				if !emit(Match{Doc: id, Off: loc[0], Len: loc[1] - loc[0]}) {
					break docs
				}
			}
		}
		if p.Ranked() {
			out = top.Sorted()
		}
	}
	return out
}

func (g globalExec) candidateDocs(p *query.Plan) []uint64 {
	if !p.ScanFallback() {
		if docs, ok := g.filterDocs(p.LiteralGroups()); ok {
			return docs
		}
	}
	docs := g.c.DocIDs()
	slices.Sort(docs)
	return docs
}

func (g globalExec) filterDocs(groups [][][]byte) ([]uint64, bool) {
	totals := make([]int, len(groups))
	order := make([]int, len(groups))
	for i, grp := range groups {
		for _, lit := range grp {
			totals[i] += g.c.Count(lit)
		}
		if totals[i] == 0 {
			return nil, true
		}
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return totals[a] - totals[b] })
	if cheap := totals[order[0]]; cheap*4 > g.c.Len() {
		return nil, false
	}
	cands := g.groupDocs(groups[order[0]])
	for _, gi := range order[1:] {
		if len(cands) == 0 || totals[gi] > 4*len(cands)+256 {
			break
		}
		other := g.groupDocs(groups[gi])
		for id := range cands {
			if _, ok := other[id]; !ok {
				delete(cands, id)
			}
		}
	}
	docs := make([]uint64, 0, len(cands))
	for id := range cands {
		docs = append(docs, id)
	}
	slices.Sort(docs)
	return docs, true
}

func (g globalExec) groupDocs(group [][]byte) map[uint64]struct{} {
	set := make(map[uint64]struct{})
	for _, lit := range group {
		g.c.FindFunc(lit, func(o Occurrence) bool {
			set[o.DocID] = struct{}{}
			return true
		})
	}
	return set
}

// partsSpecs are the plans the differential runs: every plan kind, the
// required-literal shapes the planner produces, and k-cuts.
func partsSpecs() []SearchPlan {
	exprs := []string{
		`NEEDLE.{0,4}HAYSTK`,      // two groups
		`HAYSTK`,                  // one group
		`NEEDLE|HAYSTK`,           // one alternation group
		`(NEEDLE|HAYSTK)[ab]*PIN`, // alternation group and a literal
		`a+b`,                     // both groups too common to filter on: per-part scan
		`[ab]c`,                   // class group
		`ONLYA.*ONLYB`,            // each literal occurs, never in one document
		`ZZTOP.*NEEDLE`,           // a group that occurs nowhere
		`^ab`,                     // anchored
		`(?s).*`,                  // no literal: scan
	}
	var specs []SearchPlan
	for _, e := range exprs {
		for _, k := range []int{0, 3} {
			specs = append(specs,
				SearchPlan{Pattern: e, Regex: true, K: k},
				SearchPlan{Pattern: e, Regex: true, Ranked: true, K: k})
		}
	}
	for _, pat := range []string{"NEEDLE", "ab", "ZZTOP"} {
		for _, k := range []int{0, 7} {
			specs = append(specs, SearchPlan{Pattern: pat, K: k}, SearchPlan{Pattern: pat, Ranked: true, K: k})
		}
	}
	return specs
}

// partsDoc draws one document: filler over a four-symbol alphabet (so
// single letters are common enough to trip the scan fallback) with the
// rare tokens of partsSpecs planted in some.
func partsDoc(rng *rand.Rand) []byte {
	data := make([]byte, 16+rng.Intn(32))
	for i := range data {
		data[i] = "abc "[rng.Intn(4)]
	}
	switch rng.Intn(12) {
	case 0:
		data = append(data, "NEEDLE"...)
	case 1:
		data = append(data, "HAYSTK ab PIN"...)
	case 2:
		data = append(data, "NEEDLE ab HAYSTK"...)
	case 3:
		data = append(data, "NEEDLEabbaPIN HAYSTK NEEDLE"...)
	}
	return data
}

// checkPlansAgainstGlobal runs every spec through the collection and
// through globalExec over the same implementation. With ordered set the
// two sequences must be equal; otherwise (shards race to the merge, or
// background builds may move documents between stores between the two
// runs) streaming plans are compared as sets, and a k-limited one by
// size and membership — which k arrive is unspecified there at the
// parent too.
func checkPlansAgainstGlobal(t *testing.T, c *Collection, ordered bool) {
	t.Helper()
	for _, spec := range partsSpecs() {
		p := mustCompile(t, spec)
		var got []Match
		if err := c.Search(spec, func(m Match) bool { got = append(got, m); return true }); err != nil {
			t.Fatal(err)
		}
		want := globalExec{c}.run(p)
		if !ordered && !spec.Ranked {
			if spec.K > 0 {
				all := globalExec{c}.run(mustCompile(t, SearchPlan{Pattern: spec.Pattern, Regex: spec.Regex}))
				if len(got) != len(want) {
					t.Errorf("%+v: %d matches, want %d", spec, len(got), len(want))
				}
				for _, m := range got {
					if !slices.Contains(all, m) {
						t.Errorf("%+v: emitted %v, not a match", spec, m)
					}
				}
				continue
			}
			sortMatches(got)
			sortMatches(want)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%+v:\n got %v\nwant %v", spec, got, want)
		}
	}
}

func mustCompile(t *testing.T, spec SearchPlan) *query.Plan {
	t.Helper()
	p, err := query.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSearchPartsMatchGlobal is the differential for per-part plan
// evaluation: many-store ladders made by batched ingest, documents
// still in C0, deleted documents that contain the literals, on both
// transformations, sharded and not.
func TestSearchPartsMatchGlobal(t *testing.T) {
	configs := []struct {
		name    string
		opts    []Option
		ordered bool
		tops    int // least number of top collections the ingest must leave
	}{
		{"T1", []Option{WithTransformation(Amortized)}, true, 0},
		{"T2", []Option{WithTransformation(WorstCase), WithSyncRebuilds()}, true, 32},
		{"T2-async", []Option{WithTransformation(WorstCase)}, false, 32},
		{"T1-shards=3", []Option{WithTransformation(Amortized), WithShards(3)}, false, 0},
		{"T2-shards=2", []Option{WithTransformation(WorstCase), WithSyncRebuilds(), WithShards(2)}, false, 64},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			c := mustCollection(t, append(cfg.opts, WithMinCapacity(64))...)
			defer c.WaitIdle()
			id := uint64(1)
			for b := 0; b < 40; b++ {
				batch := make([]Document, 12)
				for i := range batch {
					batch[i] = Document{ID: id, Data: partsDoc(rng)}
					id++
				}
				if b == 7 {
					batch[0].Data = append(batch[0].Data, "ONLYA"...)
				}
				if b == 31 {
					batch[0].Data = append(batch[0].Data, "ONLYB"...)
				}
				if err := c.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			if st := c.Stats(); st.Tops < cfg.tops {
				t.Fatalf("batched ingest left %d tops, want ≥ %d", st.Tops, cfg.tops)
			}
			checkPlansAgainstGlobal(t, c, cfg.ordered)

			// Documents that contain the literals, still in C0.
			mustInsert(t, c, Document{ID: id, Data: []byte("ab NEEDLE c HAYSTK PIN")})
			mustInsert(t, c, Document{ID: id + 1, Data: []byte("ONLYB")})
			// Deleted documents that contain them must never be candidates:
			// one from C0, and every tenth of the batched ones.
			mustInsert(t, c, Document{ID: id + 2, Data: []byte("NEEDLE HAYSTK PIN ONLYA ONLYB")})
			if err := c.Delete(id + 2); err != nil {
				t.Fatal(err)
			}
			for d := uint64(1); d < id; d += 10 {
				if err := c.Delete(d); err != nil {
					t.Fatal(err)
				}
			}
			checkPlansAgainstGlobal(t, c, cfg.ordered)
		})
	}
}

// buildGate holds every multi-document index build while closed, so a
// test can keep the worst-case engine's background builds in flight for
// as long as it likes. Single-document builds (the temps an update
// parks in the foreground) pass, or the update itself would block.
var buildGate struct {
	once sync.Once
	hold atomic.Pointer[chan struct{}]
}

const gatedIndex = "test-gated-fm"

func registerGatedIndex(t *testing.T) {
	t.Helper()
	buildGate.once.Do(func() {
		fm, err := lookupIndex(IndexFM)
		if err != nil {
			t.Fatal(err)
		}
		err = RegisterIndex(gatedIndex, func(docs []Document, cfg IndexConfig) StaticIndex {
			if ch := buildGate.hold.Load(); ch != nil && len(docs) > 1 {
				<-*ch
			}
			return fm(docs, cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSearchPartsDuringBackgroundBuilds holds the worst-case engine's
// background builds in flight — no Inline, no WaitIdle — while single
// inserts and deletes pile up locked levels, retiring build sources and
// parked temps. Every live document must still be in exactly one part,
// and every plan must still answer as the global reference does: a
// store visited twice would emit its matches twice.
func TestSearchPartsDuringBackgroundBuilds(t *testing.T) {
	registerGatedIndex(t)
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := []Option{WithIndex(gatedIndex), WithTransformation(WorstCase), WithMinCapacity(256)}
			if shards > 0 {
				opts = append(opts, WithShards(shards))
			}
			c := mustCollection(t, opts...)
			rng := rand.New(rand.NewSource(29))
			id := uint64(1)
			var live []uint64
			insert := func() {
				mustInsert(t, c, Document{ID: id, Data: partsDoc(rng)})
				live = append(live, id)
				id++
			}
			for i := 0; i < 200; i++ {
				insert()
			}
			c.WaitIdle()

			gate := make(chan struct{})
			buildGate.hold.Store(&gate)
			release := sync.OnceFunc(func() {
				buildGate.hold.Store(nil)
				close(gate)
			})
			defer release()
			for round := 0; round < 3; round++ {
				for i := 0; i < 80; i++ {
					insert()
					if i%3 == 0 {
						j := rng.Intn(len(live))
						if err := c.Delete(live[j]); err != nil {
							t.Fatal(err)
						}
						live = slices.Delete(live, j, j+1)
					}
				}
				checkPlansAgainstGlobal(t, c, false)
				checkPartsExclusive(t, c, live)
			}
			if st := aggStats(perCore(&c.union, docCore.Stats, apply)); st.PendingBuilds == 0 || st.TempParks == 0 {
				t.Fatalf("%d builds in flight and %d temps parked: the scenario tests nothing", st.PendingBuilds, st.TempParks)
			}
			release()
			c.WaitIdle()
			checkPlansAgainstGlobal(t, c, false)
			checkPartsExclusive(t, c, live)
		})
	}
}

// checkPartsExclusive asserts the exclusivity argument itself on every
// ladder of c: the parts' live documents are disjoint and together are
// exactly the live set, and their weights add up to the whole.
func checkPartsExclusive(t *testing.T, c *Collection, live []uint64) {
	t.Helper()
	seen := map[uint64]bool{}
	weight := 0
	for _, lad := range c.union.cores {
		lad.Parts(func(n int, part func(int) core.Part) {
			for i := range n {
				p := part(i)
				weight += p.LiveWeight()
				for _, id := range p.LiveKeys() {
					if seen[id] {
						t.Errorf("document %d is live in two parts", id)
					}
					seen[id] = true
				}
			}
		})
	}
	if len(seen) != len(live) || weight != c.Len() {
		t.Errorf("parts hold %d documents of weight %d, want %d of weight %d", len(seen), weight, len(live), c.Len())
	}
	for _, id := range live {
		if !seen[id] {
			t.Errorf("live document %d is in no part", id)
		}
	}
}
