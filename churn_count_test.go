package dyncoll

import (
	"math/rand"
	"testing"
)

// churnCounts runs a seeded churn shape — a 2-shard collection
// preloaded with size symbols in 256-document batches, then writes
// that alternately insert 8 documents and delete the 8 oldest — with
// synchronous rebuilds, and returns the weight its builds were handed
// during the writes, the part of it they sorted, and the rebuilds.
func churnCounts(t *testing.T, index string, size, writes int) (built, sorted int64, rebuilds int) {
	rng := rand.New(rand.NewSource(1))
	c := mustCollection(t, WithShards(2), WithIndex(index), WithSyncRebuilds())
	next := uint64(0)
	var ids []uint64
	batch := func(n int) []Document {
		docs := make([]Document, n)
		for i := range docs {
			data := make([]byte, min(64+int(rng.ExpFloat64()*400), 4096))
			for j := range data {
				data[j] = byte('a' + rng.Intn(20))
			}
			next++
			docs[i] = Document{ID: next, Data: data}
			ids = append(ids, next)
		}
		return docs
	}
	for c.Len() < size {
		must(t, c.InsertBatch(batch(256)))
	}
	before := c.Stats()
	for i := range writes {
		if i%2 == 0 {
			must(t, c.InsertBatch(batch(8)))
		} else {
			c.DeleteBatch(ids[:8])
			ids = ids[8:]
		}
	}
	after := c.Stats()
	return after.BuiltWeight.Total() - before.BuiltWeight.Total(),
		after.BuiltWeight.Sorted - before.BuiltWeight.Sorted,
		after.Rebuilds - before.Rebuilds
}

// TestChurnSortedShare holds what a churning collection sorts. Its
// builds are the same whatever the index. In fmp, which sorts every
// rebuild again, all the weight they are handed is sorted; in fmm, the
// default, only C0's documents and parked updates are, each once, and
// the rest is merged and purged from the stores' own indexes. So fmm's
// sorted share is about one over the write amplification: on 2 MiB
// and 3,000 writes, pinned here (fmp builds the same 65,303,728 in
// 1,272 rebuilds), under a tenth.
func TestChurnSortedShare(t *testing.T) {
	fmpBuilt, fmpSorted, fmpRebuilds := churnCounts(t, IndexFMP, 256<<10, 400)
	if fmpSorted != fmpBuilt {
		t.Errorf("fmp sorted %d of the %d it built", fmpSorted, fmpBuilt)
	}
	if built, sorted, rebuilds := churnCounts(t, IndexFMM, 256<<10, 400); built != fmpBuilt || rebuilds != fmpRebuilds || sorted >= built {
		t.Errorf("fmm sorted %d of %d built in %d rebuilds, fmp built %d in %d", sorted, built, rebuilds, fmpBuilt, fmpRebuilds)
	}
	built, sorted, rebuilds := churnCounts(t, IndexFMM, 2<<20, 3000)
	if built != 65303728 || rebuilds != 1272 || sorted != 5873480 {
		t.Errorf("fmm sorted %d of %d built in %d rebuilds, want 5873480 of 65303728 in 1272", sorted, built, rebuilds)
	}
	if sorted*10 > built {
		t.Errorf("fmm sorted %d of the %d it built, over a tenth", sorted, built)
	}
}
