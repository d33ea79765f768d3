package engine_test

import (
	"math/rand"
	"testing"

	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/engine"
	"dyncoll/internal/fmindex"
	"dyncoll/internal/textgen"
)

// TestNoTransientDoubleCount is a regression test for a scheduling hole
// the pre-engine worst-case implementation shipped with: a background
// merge targeting level j keeps levels[j] (and ride-along temps at slot
// j) queryable in place while sourcing them, but its busy check only
// asked whether Cj was locked and whether a build targeted j+1 — so a
// later insert probing rung j could hit the synchronous-rebuild path
// and take the items of a store the in-flight build was still reading.
// They were then installed a second time while the old store kept
// answering queries as a build source: Len and every query over-counted
// a whole level until the build landed. mergeBusy now asks the feeding
// map, and launch panics if a store would feed a second build. The window only opens when builds are
// slow relative to foreground updates, so the churn here runs real
// background builds and checks Len and store-level key uniqueness
// after every operation (run under -race in CI, which widens the
// window enough to reproduce the original bug reliably).
func TestNoTransientDoubleCount(t *testing.T) {
	builder := func(docs []doc.Doc) core.StaticIndex {
		return fmindex.Build(docs, fmindex.Options{SampleRate: 4})
	}
	for trial := 0; trial < 8; trial++ {
		eng := core.NewLadder(core.Options{Builder: builder}, true)
		rng := rand.New(rand.NewSource(1234 + int64(trial)))
		gen := textgen.NewCollection(textgen.CollectionOptions{
			Sigma: 8, MinLen: 4, MaxLen: 200, Seed: 77 + int64(trial),
		})
		model := map[uint64]int{}
		weight := 0
		var live []uint64
		for step := 0; step < 400; step++ {
			if len(live) == 0 || rng.Float64() < 0.65 {
				d := gen.NextDoc()
				if err := eng.InsertBatch([]doc.Doc{d}); err != nil {
					t.Fatal(err)
				}
				model[d.ID] = len(d.Data)
				weight += len(d.Data)
				live = append(live, d.ID)
			} else {
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				eng.DeleteBatch([]uint64{id})
				weight -= model[id]
				delete(model, id)
			}
			if got := eng.Len(); got != weight {
				t.Fatalf("trial %d step %d: Len = %d, want %d (transient double count)",
					trial, step, got, weight)
			}
			if step%50 == 0 {
				eng.View(func(stores []engine.Store[uint64, doc.Doc]) {
					seen := map[uint64]bool{}
					for _, s := range stores {
						for _, k := range s.LiveKeys() {
							if seen[k] {
								t.Errorf("trial %d step %d: key %d live in two stores", trial, step, k)
							}
							seen[k] = true
						}
					}
				})
				if t.Failed() {
					t.FailNow()
				}
			}
		}
		eng.WaitIdle()
	}
}
