// Generic engine conformance + invariant suite.
//
// The tests in this file drive the engine purely through the Ladder
// interface and run the SAME checks against two payloads — the document
// collection (internal/core) and the binary relation (internal/binrel).
// That is the PODS'15 claim, executable: Transformations 1–3 are
// index-agnostic, so one machine (and one test suite) serves Theorem 1
// and Theorems 2–3 alike. Payload-specific query behaviour stays in the
// payloads' own packages.
package engine_test

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"dyncoll/internal/binrel"
	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/engine"
	"dyncoll/internal/fmindex"
)

// payload describes one instantiation of the engine under test.
type payload[K comparable, I any] struct {
	// mk builds a ladder; tau 0 means automatic.
	mk func(worstCase, inline bool, tau int) engine.Ladder[K, I]
	// item returns a deterministic, pairwise-distinct item for index i.
	item func(i int) I
	// key must agree with the config's Key on item(i).
	key func(i int) K
	// weight must agree with the config's Weight on item(i).
	weight func(it I) int
}

func docPayload() payload[uint64, doc.Doc] {
	builder := func(docs []doc.Doc) core.StaticIndex {
		return fmindex.Build(docs, fmindex.Options{SampleRate: 4})
	}
	return payload[uint64, doc.Doc]{
		mk: func(worstCase, inline bool, tau int) engine.Ladder[uint64, doc.Doc] {
			return core.NewLadder(core.Options{Builder: builder, Inline: inline, Tau: tau}, worstCase)
		},
		item: func(i int) doc.Doc {
			rng := rand.New(rand.NewSource(int64(i) + 7))
			data := make([]byte, 20+i%60)
			for j := range data {
				data[j] = byte(rng.Intn(4) + 1)
			}
			return doc.Doc{ID: uint64(i), Data: data}
		},
		key:    func(i int) uint64 { return uint64(i) },
		weight: func(d doc.Doc) int { return len(d.Data) },
	}
}

func relPayload() payload[binrel.Pair, binrel.Pair] {
	return payload[binrel.Pair, binrel.Pair]{
		mk: func(worstCase, inline bool, tau int) engine.Ladder[binrel.Pair, binrel.Pair] {
			return binrel.NewLadder(binrel.Options{WorstCase: worstCase, Inline: inline, Tau: tau})
		},
		item: func(i int) binrel.Pair {
			return binrel.Pair{Object: uint64(i) >> 4, Label: uint64(i) & 15}
		},
		key:    func(i int) binrel.Pair { return binrel.Pair{Object: uint64(i) >> 4, Label: uint64(i) & 15} },
		weight: func(binrel.Pair) int { return 1 },
	}
}

// regimes lists the scheduling variants every payload is checked under.
var regimes = []struct {
	name      string
	worstCase bool
	inline    bool
}{
	{"amortized", false, false},
	{"worstcase/inline", true, true},
	{"worstcase/background", true, false},
}

// runRandomOps churns the ladder against a model set and checks
// Len/Count/Has/Keys plus the structural invariants after every step.
func runRandomOps[K comparable, I any](t *testing.T, p payload[K, I], worstCase, inline bool) {
	t.Helper()
	eng := p.mk(worstCase, inline, 0)
	rng := rand.New(rand.NewSource(99))
	model := make(map[K]int) // key → weight
	modelWeight := 0
	var liveIdx []int
	next := 0
	for step := 0; step < 600; step++ {
		if len(liveIdx) == 0 || rng.Float64() < 0.65 {
			it := p.item(next)
			if err := eng.InsertBatch([]I{it}); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			model[p.key(next)] = p.weight(it)
			modelWeight += p.weight(it)
			liveIdx = append(liveIdx, next)
			next++
		} else {
			j := rng.Intn(len(liveIdx))
			i := liveIdx[j]
			liveIdx = append(liveIdx[:j], liveIdx[j+1:]...)
			if eng.DeleteBatch([]K{p.key(i)}) != 1 {
				t.Fatalf("step %d: delete of a live key removed nothing", step)
			}
			modelWeight -= model[p.key(i)]
			delete(model, p.key(i))
		}
		if eng.Len() != modelWeight {
			t.Fatalf("step %d: Len = %d, want %d", step, eng.Len(), modelWeight)
		}
		if eng.Count() != len(model) {
			t.Fatalf("step %d: Count = %d, want %d", step, eng.Count(), len(model))
		}
		checkInvariants(t, step, eng.Stats(), worstCase)
	}
	eng.WaitIdle()
	if st := eng.Stats(); st.PendingBuilds != 0 {
		t.Fatalf("PendingBuilds = %d after WaitIdle", st.PendingBuilds)
	}
	// Keys and the stores' own key sets must both match the model.
	keys := eng.Keys()
	if len(keys) != len(model) {
		t.Fatalf("Keys() = %d keys, want %d", len(keys), len(model))
	}
	for _, k := range keys {
		if _, ok := model[k]; !ok {
			t.Fatalf("Keys() reported dead key %v", k)
		}
	}
	eng.View(func(stores []engine.Store[K, I]) {
		seen := make(map[K]bool)
		total := 0
		for _, s := range stores {
			for _, k := range s.LiveKeys() {
				if seen[k] {
					t.Fatalf("key %v live in two stores", k)
				}
				seen[k] = true
			}
			total += s.LiveWeight()
		}
		if len(seen) != len(model) || total != modelWeight {
			t.Fatalf("stores hold %d keys / %d weight, want %d / %d",
				len(seen), total, len(model), modelWeight)
		}
	})
	// Every live key routes to a store that still knows it.
	for k := range model {
		found := false
		eng.ViewOwner(k, func(st engine.Store[K, I]) {
			for _, lk := range st.LiveKeys() {
				if lk == k {
					found = true
					return
				}
			}
		})
		if !found {
			t.Fatalf("ViewOwner lost key %v", k)
		}
	}
}

// checkInvariants verifies the ladder-shape invariants the paper's
// transformations maintain, via the engine's uniform Stats.
func checkInvariants(t *testing.T, step int, st engine.Stats, worstCase bool) {
	t.Helper()
	if len(st.LevelSizes) != len(st.LevelCaps) || len(st.LevelSizes) != len(st.LevelDead) {
		t.Fatalf("step %d: ragged stats: %d sizes, %d caps, %d dead",
			step, len(st.LevelSizes), len(st.LevelCaps), len(st.LevelDead))
	}
	for j, sz := range st.LevelSizes {
		cap := st.LevelCaps[j]
		if j == 0 && worstCase {
			// The worst-case C0 may soft-overflow to 2·max_0 while a
			// build is in flight.
			cap = 2 * cap
		}
		if !worstCase && sz > cap {
			t.Fatalf("step %d: level %d holds %d > cap %d", step, j, sz, cap)
		}
		if j == 0 && worstCase && sz > cap {
			t.Fatalf("step %d: C0 holds %d > soft cap %d", step, sz, cap)
		}
	}
	// Amortized purge rule: no level retains more than a 1/τ dead
	// fraction after the update completes.
	if !worstCase {
		for j := 1; j < len(st.LevelSizes); j++ {
			total := st.LevelSizes[j] + st.LevelDead[j]
			if total > 0 && st.LevelDead[j]*st.Tau > total {
				t.Fatalf("step %d: level %d dead fraction %d/%d exceeds 1/τ=1/%d",
					step, j, st.LevelDead[j], total, st.Tau)
			}
		}
	}
}

func TestGenericRandomOpsDocPayload(t *testing.T) {
	p := docPayload()
	for _, r := range regimes {
		t.Run(r.name, func(t *testing.T) { runRandomOps(t, p, r.worstCase, r.inline) })
	}
}

func TestGenericRandomOpsRelationPayload(t *testing.T) {
	p := relPayload()
	for _, r := range regimes {
		t.Run(r.name, func(t *testing.T) { runRandomOps(t, p, r.worstCase, r.inline) })
	}
}

// runDuplicateAndBatch checks the engine-level update contracts: typed
// duplicate errors, atomic batch validation, batch deletes skipping
// missing keys.
func runDuplicateAndBatch[K comparable, I any](t *testing.T, p payload[K, I], worstCase, inline bool) {
	t.Helper()
	eng := p.mk(worstCase, inline, 0)
	if err := eng.InsertBatch([]I{p.item(1)}); err != nil {
		t.Fatalf("first insert: %v", err)
	}
	if err := eng.InsertBatch([]I{p.item(1)}); !errors.Is(err, engine.ErrDuplicateKey) {
		t.Fatalf("duplicate insert: got %v, want ErrDuplicateKey", err)
	}
	// Batch with a live duplicate: nothing inserted.
	if err := eng.InsertBatch([]I{p.item(2), p.item(1)}); !errors.Is(err, engine.ErrDuplicateKey) {
		t.Fatalf("batch with live dup: got %v", err)
	}
	// Batch with an in-batch duplicate: nothing inserted.
	if err := eng.InsertBatch([]I{p.item(3), p.item(3)}); !errors.Is(err, engine.ErrDuplicateKey) {
		t.Fatalf("batch with in-batch dup: got %v", err)
	}
	if eng.Count() != 1 {
		t.Fatalf("failed batches leaked items: Count = %d", eng.Count())
	}
	// A valid batch lands atomically.
	batch := make([]I, 0, 40)
	for i := 10; i < 50; i++ {
		batch = append(batch, p.item(i))
	}
	if err := eng.InsertBatch(batch); err != nil {
		t.Fatalf("valid batch: %v", err)
	}
	eng.WaitIdle()
	if eng.Count() != 41 {
		t.Fatalf("Count = %d, want 41", eng.Count())
	}
	// DeleteBatch skips missing and repeated keys.
	got := eng.DeleteBatch([]K{p.key(10), p.key(11), p.key(999), p.key(10)})
	if got != 2 {
		t.Fatalf("DeleteBatch removed %d, want 2", got)
	}
	if eng.Has(p.key(10)) || !eng.Has(p.key(12)) {
		t.Fatal("DeleteBatch removed the wrong keys")
	}
}

func TestGenericBatchContracts(t *testing.T) {
	dp, rp := docPayload(), relPayload()
	for _, r := range regimes {
		t.Run("doc/"+r.name, func(t *testing.T) { runDuplicateAndBatch(t, dp, r.worstCase, r.inline) })
		t.Run("rel/"+r.name, func(t *testing.T) { runDuplicateAndBatch(t, rp, r.worstCase, r.inline) })
	}
}

// runNFDrift checks the Section A.3 invariant: nf tracks the live
// weight within a factor of 2 through growth and full drain.
func runNFDrift[K comparable, I any](t *testing.T, p payload[K, I], worstCase, inline bool) {
	t.Helper()
	const minCap = 64 // the default MinCapacity the schedule floors at
	eng := p.mk(worstCase, inline, 0)
	for i := 0; i < 400; i++ {
		if err := eng.InsertBatch([]I{p.item(i)}); err != nil {
			t.Fatal(err)
		}
		eng.WaitIdle() // rebalances may be in flight; quiesce before judging nf
		if n, nf := eng.Len(), eng.Stats().NF; n > 2*minCap && (nf > 2*n || n > 2*nf) {
			t.Fatalf("insert %d: nf=%d drifted beyond factor 2 of n=%d", i, nf, n)
		}
	}
	for i := 0; i < 400; i++ {
		eng.DeleteBatch([]K{p.key(i)})
		eng.WaitIdle()
		if n, nf := eng.Len(), eng.Stats().NF; n > 2*minCap && nf > 2*minCap &&
			(nf > 2*n+minCap || n > 2*nf) {
			t.Fatalf("delete %d: nf=%d drifted beyond factor 2 of n=%d", i, nf, n)
		}
	}
	if eng.Len() != 0 || eng.Count() != 0 {
		t.Fatalf("not empty after full drain: Len=%d Count=%d", eng.Len(), eng.Count())
	}
}

func TestGenericNFDrift(t *testing.T) {
	dp, rp := docPayload(), relPayload()
	for _, r := range regimes {
		if !r.inline && r.worstCase {
			continue // timing-dependent layout; the inline variant is exact
		}
		t.Run("doc/"+r.name, func(t *testing.T) { runNFDrift(t, dp, r.worstCase, r.inline) })
		t.Run("rel/"+r.name, func(t *testing.T) { runNFDrift(t, rp, r.worstCase, r.inline) })
	}
}

// TestGenericWorstCaseMachineryEngages confirms the relation payload
// actually exercises the Transformation 2 machinery it inherited:
// background builds and top collections appear under churn.
func TestGenericWorstCaseMachineryEngages(t *testing.T) {
	run := func(t *testing.T, check func(st engine.Stats)) {
		t.Helper()
		eng := relPayload().mk(true, true, 4)
		for i := 0; i < 4000; i++ {
			if err := eng.InsertBatch([]binrel.Pair{relPayload().item(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3000; i++ {
			eng.DeleteBatch([]binrel.Pair{relPayload().key(i)})
		}
		eng.WaitIdle()
		check(eng.Stats())
	}
	run(t, func(st engine.Stats) {
		if st.BackgroundBuilds == 0 {
			t.Fatal("relation payload never used background builds")
		}
		if st.MaxTops == 0 {
			t.Fatal("relation payload never formed top collections")
		}
		if st.TopPurges == 0 {
			t.Fatal("relation payload never swept tops (Dietz–Sleator)")
		}
		if st.Rebalances == 0 {
			t.Fatal("relation payload never rebalanced (Section A.3)")
		}
	})
}

// TestBuiltWeightCountsEveryBuild checks Stats.BuiltWeight against the
// builder's own tally: every symbol handed to Config.Build is counted
// under exactly one cause, in every regime, and churn that merges,
// purges and rebalances shows up under those causes.
func TestBuiltWeightCountsEveryBuild(t *testing.T) {
	dp := docPayload()
	for _, r := range regimes {
		t.Run(r.name, func(t *testing.T) {
			var handed atomic.Int64
			builder := func(docs []doc.Doc) core.StaticIndex {
				for _, d := range docs {
					handed.Add(int64(len(d.Data)))
				}
				return fmindex.Build(docs, fmindex.Options{SampleRate: 4})
			}
			eng := core.NewLadder(core.Options{Builder: builder, Inline: r.inline, Tau: 4}, r.worstCase)
			inserted := 0
			for i := 0; i < 1500; i++ {
				it := dp.item(i)
				inserted += len(it.Data)
				if err := eng.InsertBatch([]doc.Doc{it}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 1200; i++ {
				eng.DeleteBatch([]uint64{dp.key(i)})
			}
			batch := make([]doc.Doc, 0, 400)
			for i := 2000; i < 2400; i++ {
				batch = append(batch, dp.item(i))
				inserted += len(batch[len(batch)-1].Data)
			}
			if err := eng.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			eng.WaitIdle()
			bw := eng.Stats().BuiltWeight
			if got, want := bw.Total(), handed.Load(); got != want {
				t.Fatalf("BuiltWeight %+v totals %d, builder was handed %d", bw, got, want)
			}
			if bw.Total() < int64(inserted) {
				t.Fatalf("built %d symbols for %d inserted: write amplification below 1", bw.Total(), inserted)
			}
			// Which background build a deletion lands in depends on timing;
			// the exact regimes must show every cause.
			if exact := r.inline || !r.worstCase; exact && (bw.LevelMerge == 0 || bw.Purge == 0 || bw.Rebalance == 0) {
				t.Fatalf("churn left a cause at zero: %+v", bw)
			}
			// Only the worst-case engine builds top collections; the
			// over-C0 batch above parks and builds at least one.
			if r.worstCase == (bw.Top == 0) {
				t.Fatalf("Top = %d under %s", bw.Top, r.name)
			}
		})
	}
}
