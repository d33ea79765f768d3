package dyncoll

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dyncoll/internal/core"
	"dyncoll/internal/fanout"
)

// teamBatches is the number of over-C0 batches a team ladder is built
// from: each leaves one top per shard it reaches, so a ladder has more
// than 3·PartsPerWorker parts and a pass over it gets a team.
const teamBatches = 100

// teamLadder builds a collection of teamBatches tops per ladder (one
// per over-C0 InsertBatch, of 16 documents per shard) and returns it
// with its next free ID.
func teamLadder(t *testing.T, shards int, opts ...Option) (*Collection, uint64) {
	t.Helper()
	c := mustCollection(t, append(opts, WithMinCapacity(64))...)
	rng := rand.New(rand.NewSource(31))
	id := uint64(1)
	for b := 0; b < teamBatches; b++ {
		batch := make([]Document, 16*shards)
		for i := range batch {
			batch[i] = Document{ID: id, Data: partsDoc(rng)}
			id++
		}
		if err := c.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return c, id
}

// ladderParts lists how many parts each of c's ladders has.
func ladderParts(c *Collection) []int {
	var parts []int
	for _, lad := range c.union.cores {
		lad.Parts(func(n int, _ func(int) core.Part) { parts = append(parts, n) })
	}
	return parts
}

// teamAnswers is everything the oracle compares, as one run gives it.
type teamAnswers struct {
	counts   []int
	finds    [][]Occurrence // every occurrence, sorted
	limited  [][]Occurrence // FindFunc stopped at k, per (pattern, k)
	searches [][]Match      // per teamSpecs() plan
}

var (
	teamPatterns = []string{"NEEDLE", "HAYSTK", "ab", "a", "c a", "ZZTOP"}
	teamLimits   = []int{1, 7, 100}
)

// teamSpecs are partsSpecs without the two expressions whose literals
// are in nearly every document: they cost most of the time and take no
// path the others do not.
func teamSpecs() []SearchPlan {
	return slices.DeleteFunc(partsSpecs(), func(s SearchPlan) bool {
		return s.Pattern == `a+b` || s.Pattern == `[ab]c`
	})
}

func answer(t *testing.T, c *Collection) teamAnswers {
	t.Helper()
	var a teamAnswers
	for _, p := range teamPatterns {
		a.counts = append(a.counts, c.Count([]byte(p)))
		all := c.Find([]byte(p))
		slices.SortFunc(all, func(x, y Occurrence) int {
			return cmp.Or(cmp.Compare(x.DocID, y.DocID), cmp.Compare(x.Off, y.Off))
		})
		a.finds = append(a.finds, all)
		for _, k := range teamLimits {
			var got []Occurrence
			c.FindFunc([]byte(p), func(o Occurrence) bool {
				got = append(got, o)
				return len(got) < k
			})
			a.limited = append(a.limited, got)
		}
	}
	for _, spec := range teamSpecs() {
		var got []Match
		if err := c.Search(spec, func(m Match) bool { got = append(got, m); return true }); err != nil {
			t.Fatal(err)
		}
		a.searches = append(a.searches, got)
	}
	return a
}

// compareAnswers checks a team run against the serial one. Counts,
// ranked plans and — on one ladder, where candidates are verified in
// ascending document order — regex streams must be equal as sequences.
// An exact-string stream enumerates parts in whatever order the workers
// claim them, and a sharded stream merges shards as they come, so those
// are compared as sets, and one stopped at k by its size and
// membership.
func compareAnswers(t *testing.T, serial, team teamAnswers, sharded bool) {
	t.Helper()
	for i, p := range teamPatterns {
		if serial.counts[i] != team.counts[i] {
			t.Errorf("Count(%q) = %d with a team, %d serial", p, team.counts[i], serial.counts[i])
		}
		if !slices.Equal(serial.finds[i], team.finds[i]) {
			t.Errorf("Find(%q): %d occurrences with a team, %d serial, or other ones", p, len(team.finds[i]), len(serial.finds[i]))
		}
		for j, k := range teamLimits {
			got := team.limited[i*len(teamLimits)+j]
			if want := min(k, len(serial.finds[i])); len(got) != want {
				t.Errorf("FindFunc(%q) stopped at %d: %d occurrences with a team, want %d", p, k, len(got), want)
			}
			for _, o := range got {
				if _, ok := slices.BinarySearchFunc(serial.finds[i], o, func(x, y Occurrence) int {
					return cmp.Or(cmp.Compare(x.DocID, y.DocID), cmp.Compare(x.Off, y.Off))
				}); !ok {
					t.Errorf("FindFunc(%q) stopped at %d emitted %v, not an occurrence", p, k, o)
				}
			}
		}
	}
	for i, spec := range teamSpecs() {
		got, want := team.searches[i], serial.searches[i]
		if !spec.Ranked && (sharded || !spec.Regex) {
			if spec.K > 0 {
				all := team.searches[slices.IndexFunc(teamSpecs(), func(s SearchPlan) bool {
					return s.Pattern == spec.Pattern && s.Regex == spec.Regex && !s.Ranked && s.K == 0
				})]
				if len(got) != len(want) {
					t.Errorf("%+v: %d matches with a team, %d serial", spec, len(got), len(want))
				}
				for _, m := range got {
					if !slices.Contains(all, m) {
						t.Errorf("%+v: emitted %v, not a match", spec, m)
					}
				}
				continue
			}
			got, want = slices.Clone(got), slices.Clone(want)
			sortMatches(got)
			sortMatches(want)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%+v:\nteam   %v\nserial %v", spec, got, want)
		}
	}
}

// withProcs runs fn at GOMAXPROCS procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestPartTeamMatchesSerial is the oracle for team visits: over ladders
// of about a hundred parts, every query answers at GOMAXPROCS 4, where
// passes borrow helpers, as it does at GOMAXPROCS 1, where the caller
// visits every part alone — on both transformations, counting, sharded,
// reloaded from a v1 snapshot and mapped, and with background builds
// held in flight.
func TestPartTeamMatchesSerial(t *testing.T) {
	registerGatedIndex(t)
	reload := func(t *testing.T, c *Collection) *Collection {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		d := mustCollection(t, WithTransformation(WorstCase), WithSyncRebuilds(), WithMinCapacity(64))
		if err := d.Load(&buf); err != nil {
			t.Fatal(err)
		}
		return d
	}
	mapped := func(t *testing.T, c *Collection) *Collection {
		path := filepath.Join(t.TempDir(), "team.snap")
		if err := c.SaveMappedFile(path); err != nil {
			t.Fatal(err)
		}
		d, err := OpenMappedCollection(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	for _, cfg := range []struct {
		name string
		opts []Option
		// then turns the built ladder into the one queried.
		then func(t *testing.T, c *Collection) *Collection
		// solo: the ladder has too few parts for a team (T1's levels).
		solo   bool
		shards int
	}{
		{"T1", []Option{WithTransformation(Amortized)}, nil, true, 1},
		{"T2", []Option{WithTransformation(WorstCase), WithSyncRebuilds()}, nil, false, 1},
		{"T2-counting", []Option{WithTransformation(WorstCase), WithSyncRebuilds(), WithCounting()}, nil, false, 1},
		{"T2-shards=1", []Option{WithTransformation(WorstCase), WithSyncRebuilds(), WithShards(1)}, nil, false, 1},
		{"T2-shards=3", []Option{WithTransformation(WorstCase), WithSyncRebuilds(), WithShards(3)}, nil, false, 3},
		{"T2-v1-loaded", []Option{WithTransformation(WorstCase), WithSyncRebuilds()}, reload, false, 1},
		{"T2-mapped", []Option{WithTransformation(WorstCase), WithSyncRebuilds()}, mapped, false, 1},
		{"T2-builds-in-flight", []Option{WithTransformation(WorstCase), WithIndex(gatedIndex)}, nil, false, 1},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			c, id := teamLadder(t, cfg.shards, cfg.opts...)
			if cfg.then != nil {
				c = cfg.then(t, c)
			}
			if cfg.name == "T2-builds-in-flight" {
				gate := make(chan struct{})
				buildGate.hold.Store(&gate)
				release := sync.OnceFunc(func() {
					buildGate.hold.Store(nil)
					close(gate)
				})
				defer c.WaitIdle()
				defer release()
				rng := rand.New(rand.NewSource(37))
				for i := 0; i < 150; i++ {
					mustInsert(t, c, Document{ID: id, Data: partsDoc(rng)})
					if i%5 == 4 {
						if err := c.Delete(id - uint64(rng.Intn(4))); err != nil {
							t.Fatal(err)
						}
					}
					id++
				}
				if st := c.Stats(); st.PendingBuilds == 0 {
					t.Fatal("no build in flight: the scenario tests nothing")
				}
			}
			for _, n := range ladderParts(c) {
				if cfg.solo != (n < 3*fanout.PartsPerWorker) {
					t.Fatalf("ladder parts %v: want each %s %d", ladderParts(c), map[bool]string{true: "under", false: "at least"}[cfg.solo], 3*fanout.PartsPerWorker)
				}
			}
			var serial, team teamAnswers
			withProcs(1, func() { serial = answer(t, c) })
			before := fanout.ReadTeamCounts()
			withProcs(4, func() { team = answer(t, c) })
			after := fanout.ReadTeamCounts()
			compareAnswers(t, serial, team, cfg.shards > 1)
			if teams := after.Passes - before.Passes; cfg.solo != (teams == 0) {
				t.Errorf("%d passes borrowed helpers at GOMAXPROCS 4", teams)
			}
			t.Logf("parts %v; %d team passes, %d parts visited by helpers",
				ladderParts(c), after.Passes-before.Passes, after.HelperParts-before.HelperParts)
		})
	}
}
