package dyncoll

// Allocation-regression tests for the flattened query hot paths: a
// steady-state Count must not allocate at all (fused RankPair backward
// search + cached engine store lists + closure-free Query plumbing),
// and Find must allocate proportionally to its result set only. These
// pin the tentpole's zero-allocation claim so later refactors cannot
// quietly reintroduce per-query garbage.

import (
	"math"
	"runtime"
	"testing"

	"dyncoll/internal/fanout"
	"dyncoll/internal/fmindex"
	"dyncoll/internal/textgen"
)

// allocCollection builds a quiesced collection with ~64k symbols over
// the given options.
func allocCollection(t *testing.T, opts ...Option) (*Collection, [][]byte) {
	t.Helper()
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 16, Order: 1, Skew: 0.6, MinLen: 256, MaxLen: 1024, Seed: 77,
	})
	gen.GenerateTotal(1 << 16)
	c, err := NewCollection(append([]Option{WithSyncRebuilds()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertBatch(gen.Docs); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()
	ps := textgen.NewPatternSampler(gen.Docs, 78)
	return c, ps.PlantedSet(16, 6)
}

func TestCountZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"worstcase", nil},
		{"worstcase+counting", []Option{WithCounting()}},
		{"amortized", []Option{WithTransformation(Amortized)}},
		// One shard: the union of one core is read inline, with no
		// fan-out closure or goroutine.
		{"shards=1", []Option{WithShards(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, pats := allocCollection(t, tc.opts...)
			want := make([]int, len(pats))
			for i, p := range pats {
				want[i] = c.Count(p)
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				p := pats[i%len(pats)]
				if got := c.Count(p); got != want[i%len(pats)] {
					t.Fatalf("Count(%q) drifted: %d != %d", p, got, want[i%len(pats)])
				}
				i++
			})
			if avg != 0 {
				t.Fatalf("steady-state Count allocates %.1f objects/op, want 0", avg)
			}
		})
	}
	// A ladder of about a hundred parts, where a Count's pass borrows a
	// helper: the team is its one allocation, and a helper's goroutine
	// one more when the runtime has no dead goroutine to reuse.
	// testing.AllocsPerRun runs at GOMAXPROCS 1, where there is no
	// helper to borrow, so the mallocs are counted here at 2 or more.
	t.Run("manystore", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
		docs := benchDocs(1<<19, 16, 41)
		c := manyStoreCollection(t, docs)
		pats := textgen.NewPatternSampler(docs, 43).PlantedSet(16, 8)
		want := make([]int, len(pats))
		for i, p := range pats {
			want[i] = c.Count(p)
		}
		// Warm up: the runtime's free list of dead goroutines, from which
		// a helper's goroutine is taken, fills over the first few hundred.
		for i := 0; i < 500; i++ {
			c.Count(pats[i%len(pats)])
		}
		// The mallocs are the process's: a goroutine an earlier test left
		// behind can only add to them, so the least of three rounds counts.
		const runs = 500
		before := fanout.ReadTeamCounts()
		least := uint64(math.MaxUint64)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				if got := c.Count(pats[i%len(pats)]); got != want[i%len(pats)] {
					t.Fatalf("Count(%q) drifted: %d != %d", pats[i%len(pats)], got, want[i%len(pats)])
				}
			}
			runtime.ReadMemStats(&m1)
			least = min(least, m1.Mallocs-m0.Mallocs)
		}
		if avg := float64(least) / runs; avg > 2 {
			t.Fatalf("Count over a team allocates %.3f objects/op, want ≤ 2", avg)
		}
		// A helper ran: one that starts after the caller has claimed the
		// last part visits nothing, so count on until one has visited a part.
		for i := 0; fanout.ReadTeamCounts().HelperParts == before.HelperParts && i < 10000; i++ {
			c.Count(pats[i%len(pats)])
		}
		after := fanout.ReadTeamCounts()
		if after.Passes == before.Passes || after.HelperParts == before.HelperParts {
			t.Fatalf("%d team passes, %d parts visited by helpers: no helper ran",
				after.Passes-before.Passes, after.HelperParts-before.HelperParts)
		}
	})
}

// TestKeyedReadAllocs pins the routed reads of an unsharded collection:
// they reach the one core directly, so Has allocates nothing and
// Extract only what the core's owner lookup and the result need (4 when
// pinned).
func TestKeyedReadAllocs(t *testing.T) {
	c, _ := allocCollection(t)
	ids := c.DocIDs()
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		if !c.Has(ids[i%len(ids)]) {
			t.Fatalf("Has(%d) = false for a live document", ids[i%len(ids)])
		}
		i++
	}); avg != 0 {
		t.Errorf("Has allocates %.1f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := c.Extract(ids[i%len(ids)], 3, 16); !ok {
			t.Fatalf("Extract(%d) failed for a live document", ids[i%len(ids)])
		}
		i++
	}); avg > 4 {
		t.Errorf("Extract allocates %.1f objects/op, want ≤ 4", avg)
	}
}

// TestIndexBuildAllocs pins what one static-index build allocates. A
// build's allocations are the index's own arrays, a handful per wavelet
// level and alphabet-sized tables for the code book and node layout;
// all O(n) scratch comes from the pool. The count does not depend on
// timing, so a build that starts allocating per node, per level pass or
// per document fails here rather than in a noisy benchmark.
func TestIndexBuildAllocs(t *testing.T) {
	gen := textgen.NewCollection(textgen.CollectionOptions{Seed: 77})
	docs := gen.GenerateTotal(1 << 16)
	fmindex.Build(docs, fmindex.Options{}) // warm the scratch pool
	avg := testing.AllocsPerRun(10, func() { fmindex.Build(docs, fmindex.Options{}) })
	// 73 when committed (the build before it: 360, one per Huffman heap
	// push and pop). Four per bit vector — a dozen wavelet levels and
	// the mark bits — are half of it; 96 leaves room for a few more
	// tables but not for one allocation per level, node or symbol.
	const ceiling = 96
	if avg > ceiling {
		t.Fatalf("fmindex.Build of %d documents allocates %.0f objects, ceiling %d", len(docs), avg, ceiling)
	}
}

func TestFindAllocsBoundedByResult(t *testing.T) {
	c, pats := allocCollection(t)
	// FindFunc with a pre-allocated sink must stay O(1) allocations per
	// query (the iterator/closure plumbing), independent of the number
	// of occurrences reported.
	i := 0
	var sink Occurrence
	avg := testing.AllocsPerRun(100, func() {
		c.FindFunc(pats[i%len(pats)], func(o Occurrence) bool {
			sink = o
			return true
		})
		i++
	})
	_ = sink
	// The per-call constant covers the closure wiring, not per-result
	// work; 8 is a generous ceiling that still catches any per-match
	// allocation (queries here report hundreds of matches).
	if avg > 8 {
		t.Fatalf("FindFunc allocates %.1f objects/op — per-result allocation suspected", avg)
	}

	// Find materializes its result slice: allocations must scale with
	// result size, not corpus size. Compare a heavy pattern against the
	// same pattern on an equal corpus — the bound here is simply that
	// the amortized growth stays within a small multiple of the slice
	// doublings needed for the result.
	occ := len(c.Find(pats[0]))
	if occ == 0 {
		t.Skip("pattern not present")
	}
	avgFind := testing.AllocsPerRun(50, func() {
		c.Find(pats[0])
	})
	// log2(occ) slice doublings plus the constant plumbing.
	bound := float64(2*bitsLen(occ) + 8)
	if avgFind > bound {
		t.Fatalf("Find of %d occurrences allocates %.1f objects/op, want ≤ %.0f", occ, avgFind, bound)
	}
}

func bitsLen(v int) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}
