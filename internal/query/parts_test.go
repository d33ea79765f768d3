package query

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/fanout"
	"dyncoll/internal/fmindex"
)

// countingIndex counts the index work a plan does in one static store:
// a Range is one backward search, a Locate one enumerated occurrence.
// Embedding the interface hides the FM-index's optional fast paths, so
// every enumeration goes through Locate.
type countingIndex struct {
	core.StaticIndex
	ranges, locates int
}

func (x *countingIndex) Range(pattern []byte) (int, int) {
	x.ranges++
	return x.StaticIndex.Range(pattern)
}

func (x *countingIndex) Locate(row int) (int, int) {
	x.locates++
	return x.StaticIndex.Locate(row)
}

// gateTops is the number of top collections of the work gate's ladder.
const gateTops = 32

// gateLadder builds a fixed ladder of tops tops, the way batched ingest
// leaves one: every InsertBatch larger than C0 becomes a top of its
// own. plant[b] is appended to the first document of batch b; the
// filler alphabet shares no byte with any planted text.
func gateLadder(t *testing.T, tops int, plant map[int]string) (*core.WorstCase, []*countingIndex) {
	t.Helper()
	var built []*countingIndex
	lad := core.NewWorstCase(core.Options{
		Inline: true,
		Builder: func(docs []doc.Doc) core.StaticIndex {
			x := &countingIndex{StaticIndex: fmindex.Build(docs, fmindex.Options{})}
			built = append(built, x)
			return x
		},
	})
	rng := rand.New(rand.NewSource(19))
	id := uint64(1)
	for b := 0; b < tops; b++ {
		batch := make([]doc.Doc, 6)
		for i := range batch {
			data := make([]byte, 40)
			for j := range data {
				data[j] = "abcd"[rng.Intn(4)]
			}
			if i == 0 {
				data = append(data, plant[b]...)
			}
			batch[i] = doc.Doc{ID: id, Data: data}
			id++
		}
		if err := lad.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if st := lad.Stats(); st.Tops != tops || len(built) != tops {
		t.Fatalf("ladder has %d tops from %d builds, want %d of each", st.Tops, len(built), tops)
	}
	return lad, built
}

// TestRegexWorkGate pins what a regex plan costs in index work, as
// counts that repeat exactly: a sub-collection is left at the first
// required group it lacks, having enumerated nothing, and one that has
// every group pays a count and an enumeration per group. Evaluating the
// filter over the ladder as a whole cost four backward searches per
// store whatever the store held; a pass creeping back in fails here.
// The second plan leads with a literal every store has: counted in
// expression order it would double the cost of every pruned part, so
// the bound also holds the planner to counting its longest literals
// first.
func TestRegexWorkGate(t *testing.T) {
	lad, built := gateLadder(t, gateTops, map[int]string{
		5:  "NEEDLE..HAYSTK", // both rare groups: a match
		20: "HAYSTK NEEDLE",  // both rare groups: a candidate that fails verification
		9:  "NEEDLE",         // the first only
		13: "HAYSTK",         // the second only
	})
	survivors := map[int]bool{5: true, 20: true}
	for _, c := range []struct {
		expr   string
		groups int
		want   []Match
	}{
		{`NEEDLE.{0,2}HAYSTK`, 2, []Match{{Doc: 5*6 + 1, Off: 40, Len: 14}}},
		{`ab[a-d]*NEEDLE.{0,2}HAYSTK`, 3, nil},
	} {
		p, err := Compile(Spec{Pattern: c.expr, Regex: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.LiteralGroups()); got != c.groups {
			t.Fatalf("%q: %d literal groups, want %d", c.expr, got, c.groups)
		}
		for _, x := range built {
			x.ranges, x.locates = 0, 0
		}
		got := collect(lad, p)
		if c.want != nil && fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("%q: matches = %v, want %v", c.expr, got, c.want)
		}
		total := 0
		for b, x := range built {
			total += x.ranges
			if survivors[b] {
				if x.ranges != 2*c.groups || x.locates == 0 {
					t.Errorf("%q: top %d holds every group: %d backward searches and %d locates, want %d and some",
						c.expr, b, x.ranges, x.locates, 2*c.groups)
				}
			} else if x.ranges > c.groups || x.locates != 0 {
				t.Errorf("%q: top %d lacks a group: %d backward searches and %d locates, want ≤ %d and 0",
					c.expr, b, x.ranges, x.locates, c.groups)
			}
		}
		if bound := len(built) + 2*c.groups*len(survivors); total > bound {
			t.Errorf("%q cost %d backward searches, want ≤ parts + 2·groups·survivors = %d", c.expr, total, bound)
		}
	}
}

// TestRegexWorkGateTeam: on a ladder of three times the gate's tops,
// where a plan's pass gets a team, every store does exactly the index
// work it does when the caller visits every part alone. The work is
// distributed, not added.
func TestRegexWorkGateTeam(t *testing.T) {
	lad, built := gateLadder(t, 3*gateTops, map[int]string{
		5: "NEEDLE..HAYSTK", 20: "HAYSTK NEEDLE", 9: "NEEDLE", 13: "HAYSTK",
		70: "NEEDLE..HAYSTK", 81: "NEEDLE",
	})
	p, err := Compile(Spec{Pattern: `NEEDLE.{0,2}HAYSTK`, Regex: true})
	if err != nil {
		t.Fatal(err)
	}
	work := func() ([]int, []Match) {
		for _, x := range built {
			x.ranges, x.locates = 0, 0
		}
		got := collect(lad, p)
		var w []int
		for _, x := range built {
			w = append(w, x.ranges, x.locates)
		}
		return w, got
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, want := work()
	runtime.GOMAXPROCS(4)
	// A helper that starts after the caller has claimed every part does
	// nothing; repeat until helpers did visit parts.
	before := fanout.ReadTeamCounts().HelperParts
	for r := 0; r < 200 && fanout.ReadTeamCounts().HelperParts == before; r++ {
		team, got := work()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("matches with a team %v, serial %v", got, want)
		}
		if fmt.Sprint(team) != fmt.Sprint(serial) {
			t.Fatalf("per-store (backward searches, locates) with a team:\n%v\nserial:\n%v", team, serial)
		}
	}
	if fanout.ReadTeamCounts().HelperParts == before {
		t.Fatal("no helper visited a part in 200 passes")
	}
}

// TestRegexCrossStoreTrap: a literal of each group occurs somewhere in
// the ladder, but never two in one sub-collection. Counted over the
// whole ladder both groups are present and one of them is enumerated;
// decided per part there is no candidate and nothing is enumerated.
func TestRegexCrossStoreTrap(t *testing.T) {
	lad, built := gateLadder(t, gateTops, map[int]string{3: "TRAPAA", 7: "TRAPBB"})
	for _, spec := range []Spec{
		{Pattern: `TRAPAA.*TRAPBB`, Regex: true},
		{Pattern: `TRAPBB.*TRAPAA`, Regex: true, Ranked: true, K: 3},
	} {
		p, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		if cands := Over(lad).candidateDocs(p); len(cands) != 0 {
			t.Errorf("%q: candidate documents %v, want none", spec.Pattern, cands)
		}
		if got := collect(lad, p); len(got) != 0 {
			t.Errorf("%q: matches %v, want none", spec.Pattern, got)
		}
	}
	for b, x := range built {
		if x.locates != 0 {
			t.Errorf("top %d enumerated %d occurrences, want 0", b, x.locates)
		}
	}
}

// TestRegexPrunedPartsAllocateNothing: a part left at its first group
// costs a backward search and no memory — no set, no list — so a plan's
// allocations do not grow with the number of sub-collections it prunes.
func TestRegexPrunedPartsAllocateNothing(t *testing.T) {
	lad, _ := gateLadder(t, gateTops, map[int]string{9: "NEEDLE"})
	p, err := Compile(Spec{Pattern: `HAYSTK.*NEEDLE`, Regex: true})
	if err != nil {
		t.Fatal(err)
	}
	emit := func(Match) bool { return true }
	allocs := testing.AllocsPerRun(20, func() { Over(lad).Execute(p, emit) })
	if allocs > 4 {
		t.Errorf("a plan that prunes all %d parts allocates %.0f times, want ≤ 4", gateTops+1, allocs)
	}
}
