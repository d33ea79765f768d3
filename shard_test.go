package dyncoll

// Tests for the sharded structures: equivalence with the unsharded
// facade, batch atomicity across shards, fan-out iterator early break,
// and the concurrency guarantees — all meaningful under `go test -race`.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dyncoll/internal/core"
)

func TestWithShardsValidation(t *testing.T) {
	for _, p := range []int{0, -1} {
		if _, err := NewCollection(WithShards(p)); !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("WithShards(%d) = %v, want ErrInvalidOption", p, err)
		}
	}
	for _, p := range []int{1, 7} {
		if _, err := NewCollection(WithShards(p)); err != nil {
			t.Fatalf("WithShards(%d): %v", p, err)
		}
	}
}

func TestShardOfDistribution(t *testing.T) {
	// Dense sequential IDs — the common case — must spread across
	// shards, not stripe into one.
	const p, n = 8, 8000
	counts := make([]int, p)
	for id := uint64(0); id < n; id++ {
		s := shardOf(id, p)
		if s < 0 || s >= p {
			t.Fatalf("shardOf(%d, %d) = %d out of range", id, p, s)
		}
		counts[s]++
	}
	for i, c := range counts {
		if c < n/p/2 || c > n/p*2 {
			t.Fatalf("shard %d holds %d of %d keys: %v", i, c, n, counts)
		}
	}
	if shardOf(42, 1) != 0 {
		t.Fatal("single shard must receive every key")
	}
}

// TestShardedBatchAtomicity checks that an invalid batch inserts nothing
// on any shard, even when the offending document lands on the last shard
// validated.
func TestShardedBatchAtomicity(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds(), WithShards(4))
	mustInsert(t, c, Document{ID: 7, Data: []byte("already here")})

	batch := []Document{
		{ID: 1, Data: []byte("one")},
		{ID: 2, Data: []byte("two")},
		{ID: 7, Data: []byte("collides with a live ID")},
	}
	if err := c.InsertBatch(batch); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("InsertBatch = %v, want ErrDuplicateID", err)
	}
	if c.Has(1) || c.Has(2) || c.DocCount() != 1 {
		t.Fatalf("failed batch left partial state: DocCount=%d", c.DocCount())
	}

	bad := []Document{
		{ID: 10, Data: []byte("fine")},
		{ID: 11, Data: []byte{'x', 0x00, 'y'}},
	}
	if err := c.InsertBatch(bad); !errors.Is(err, ErrReservedByte) {
		t.Fatalf("InsertBatch = %v, want ErrReservedByte", err)
	}
	if c.Has(10) || c.DocCount() != 1 {
		t.Fatal("reserved-byte batch left partial state")
	}

	dup := []Document{{ID: 20, Data: []byte("a")}, {ID: 20, Data: []byte("b")}}
	if err := c.InsertBatch(dup); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("in-batch duplicate = %v, want ErrDuplicateID", err)
	}
	if c.Has(20) {
		t.Fatal("in-batch duplicate partially inserted")
	}

	// A valid batch after the failures lands whole.
	if err := c.InsertBatch([]Document{{ID: 30, Data: []byte("ok")}, {ID: 31, Data: []byte("ok too")}}); err != nil {
		t.Fatal(err)
	}
	if !c.Has(30) || !c.Has(31) || c.DocCount() != 3 {
		t.Fatal("valid batch after failures did not land")
	}
}

// TestShardedFindIterBreak breaks out of the merged fan-out stream and
// checks that iteration terminates and the collection stays usable —
// i.e. every per-shard producer goroutine is told to stop.
func TestShardedFindIterBreak(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds(), WithShards(4))
	var batch []Document
	for i := uint64(1); i <= 64; i++ {
		batch = append(batch, Document{ID: i, Data: []byte("xyxyxyxyxy")})
	}
	if err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		n := 0
		for range c.FindIter([]byte("xy")) {
			n++
			if n == 3 {
				break
			}
		}
		if n != 3 {
			t.Fatalf("trial %d: early break visited %d", trial, n)
		}
	}
	// FindIter must not return while shard goroutines still read the
	// pattern: reusing the buffer right after a break is race-free.
	buf := []byte("xy")
	for range c.FindIter(buf) {
		break
	}
	buf[0], buf[1] = 'z', 'z'

	// After the breaks, writers must not be blocked on abandoned locks.
	if err := c.Insert(Document{ID: 1000, Data: []byte("post-break insert")}); err != nil {
		t.Fatal(err)
	}
	full := 0
	for range c.FindIter([]byte("xy")) {
		full++
	}
	if want := len(c.Find([]byte("xy"))); full != want {
		t.Fatalf("full iteration visited %d, Find returned %d", full, want)
	}
}

// TestShardedFindIterConsumerPanic panics out of a fan-out iteration
// with far more pending matches than the merge channel buffers; the
// producer goroutines must still be released (they hold shard read
// locks), or every later writer on those shards would block forever.
func TestShardedFindIterConsumerPanic(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds(), WithShards(4))
	var batch []Document
	for i := uint64(1); i <= 64; i++ {
		batch = append(batch, Document{ID: i, Data: bytes.Repeat([]byte("ab"), 50)})
	}
	if err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected the consumer panic to propagate")
			}
		}()
		for range c.FindIter([]byte("ab")) {
			panic("consumer dies mid-stream")
		}
	}()
	done := make(chan error, 1)
	go func() { done <- c.Insert(Document{ID: 999, Data: []byte("post-panic write")}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Insert blocked after consumer panic — leaked producer holds a shard lock")
	}
}

// TestShardedCollectionConcurrentReadersWriters exercises the headline
// contract under -race: any number of goroutines may read while others
// insert and delete.
func TestShardedCollectionConcurrentReadersWriters(t *testing.T) {
	c := mustCollection(t, WithShards(4))
	var seed []Document
	for i := uint64(1); i <= 40; i++ {
		seed = append(seed, Document{ID: i, Data: []byte("steady state corpus abra")})
	}
	if err := c.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}

	const writers, readers, perG = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(1000 * (w + 1))
			for i := uint64(0); i < perG; i++ {
				id := base + i
				if err := c.Insert(Document{ID: id, Data: []byte("churning doc abra")}); err != nil {
					t.Errorf("writer %d: Insert(%d): %v", w, id, err)
					return
				}
				if i%2 == 0 {
					if err := c.Delete(id); err != nil {
						t.Errorf("writer %d: Delete(%d): %v", w, id, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if got := c.Count([]byte("abra")); got < 40 {
					t.Errorf("reader %d: Count = %d, below steady-state floor 40", r, got)
					return
				}
				n := 0
				for range c.FindIter([]byte("abra")) {
					if n++; n == 5 {
						break // break mid-fan-out while writers churn
					}
				}
				if _, ok := c.Extract(uint64(i%40)+1, 0, 6); !ok {
					t.Errorf("reader %d: Extract of steady doc failed", r)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	c.WaitIdle()

	// Steady-state docs survived; half the churned docs remain.
	want := 40 + writers*perG/2
	if got := c.DocCount(); got != want {
		t.Fatalf("DocCount = %d, want %d", got, want)
	}
}

// TestShardedParallelBatchIngest fires concurrent InsertBatch and
// DeleteBatch calls whose shard sets overlap; per-shard write locks must
// serialize them without deadlock or lost updates.
func TestShardedParallelBatchIngest(t *testing.T) {
	c := mustCollection(t, WithShards(3))
	const batches, perBatch = 8, 25
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			var docs []Document
			base := uint64(b * perBatch)
			for i := uint64(0); i < perBatch; i++ {
				docs = append(docs, Document{ID: base + i + 1, Data: []byte("bulk load payload")})
			}
			if err := c.InsertBatch(docs); err != nil {
				t.Errorf("batch %d: %v", b, err)
			}
		}(b)
	}
	wg.Wait()
	c.WaitIdle()
	if got := c.DocCount(); got != batches*perBatch {
		t.Fatalf("DocCount = %d, want %d", got, batches*perBatch)
	}

	// Concurrent deletions, overlapping queries.
	var wg2 sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg2.Add(1)
		go func(b int) {
			defer wg2.Done()
			var ids []uint64
			base := uint64(b * perBatch)
			for i := uint64(0); i < perBatch; i += 2 {
				ids = append(ids, base+i+1)
			}
			if n := c.DeleteBatch(ids); n != len(ids) {
				t.Errorf("batch %d: DeleteBatch removed %d, want %d", b, n, len(ids))
			}
			_ = c.Count([]byte("bulk"))
		}(b)
	}
	wg2.Wait()
	c.WaitIdle()
	deletedPerBatch := (perBatch + 1) / 2 // even offsets 0,2,…,perBatch-1
	want := batches * (perBatch - deletedPerBatch)
	if got := c.DocCount(); got != want {
		t.Fatalf("after parallel DeleteBatch: DocCount = %d, want %d", got, want)
	}
}

// TestShardedRelationConcurrent exercises a sharded relation under
// concurrent mutation and fan-out queries.
func TestShardedRelationConcurrent(t *testing.T) {
	r, err := NewRelation(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for o := uint64(0); o < 32; o++ {
		if err := r.Add(o, o%5); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(100 * (g + 1))
			for i := uint64(0); i < 40; i++ {
				if err := r.Add(base+i, i%5); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				_ = r.Related(base+i, i%5)
				_ = r.CountObjects(i % 5) // fan-out under churn
				_ = r.Tau()               // shard-0 read racing its writers
				n := 0
				for range r.ObjectsIter(i % 5) {
					if n++; n == 3 {
						break
					}
				}
				if i%3 == 0 {
					if err := r.Delete(base+i, i%5); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	r.WaitIdle()

	// Objects keeps its sorted contract after the merge.
	objs := r.Objects(0)
	if !sort.SliceIsSorted(objs, func(i, j int) bool { return objs[i] < objs[j] }) {
		t.Fatalf("Objects(0) not sorted: %v", objs)
	}
	total := 0
	for range r.PairsIter() {
		total++
	}
	if total != r.Len() {
		t.Fatalf("PairsIter visited %d, Len = %d", total, r.Len())
	}
}

// TestShardedGraphConcurrent exercises a sharded graph: out-edge routed
// updates racing with fan-out in-edge queries.
func TestShardedGraphConcurrent(t *testing.T) {
	g, err := NewGraph(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for u := uint64(0); u < 16; u++ {
		if err := g.AddEdge(u, 999); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(100 * (w + 1))
			for i := uint64(0); i < 40; i++ {
				u := base + i
				if err := g.AddEdge(u, u+1); err != nil {
					t.Errorf("AddEdge: %v", err)
					return
				}
				_ = g.HasEdge(u, u+1)
				if got := g.InDegree(999); got < 16 {
					t.Errorf("InDegree(999) = %d under churn, want ≥ 16", got)
					return
				}
				n := 0
				for range g.Predecessors(999) {
					if n++; n == 4 {
						break
					}
				}
				if i%2 == 0 {
					if err := g.DeleteEdge(u, u+1); err != nil {
						t.Errorf("DeleteEdge: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	g.WaitIdle()

	pred := g.ReverseNeighbors(999)
	if len(pred) != 16 {
		t.Fatalf("ReverseNeighbors(999) = %d nodes, want 16", len(pred))
	}
	if !sort.SliceIsSorted(pred, func(i, j int) bool { return pred[i] < pred[j] }) {
		t.Fatalf("ReverseNeighbors not sorted: %v", pred)
	}
	want := 16 + 4*40/2
	if got := g.EdgeCount(); got != want {
		t.Fatalf("EdgeCount = %d, want %d", got, want)
	}
}

// TestShardedStats checks the aggregated Stats view.
func TestShardedStats(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds(), WithShards(4))
	var batch []Document
	totalSyms := 0
	for i := uint64(1); i <= 120; i++ {
		d := Document{ID: i, Data: []byte("stats corpus payload for sharded run")}
		totalSyms += len(d.Data)
		batch = append(batch, d)
	}
	if err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()
	st := c.Stats()
	if st.Shards != 4 {
		t.Fatalf("Stats.Shards = %d, want 4", st.Shards)
	}
	if st.Levels < 1 || len(st.LevelSizes) != len(st.LevelCaps) {
		t.Fatalf("malformed aggregated stats: %+v", st)
	}
	// LevelSizes counts live symbols; docs may also sit in C0 or top
	// collections, so the ladder holds at most the inserted total.
	var live int
	for _, n := range st.LevelSizes {
		live += n
	}
	if live > totalSyms {
		t.Fatalf("aggregated level sizes sum to %d symbols, above the %d inserted", live, totalSyms)
	}
	if un := mustCollection(t, WithSyncRebuilds()); un.Stats().Shards != 0 {
		t.Fatal("unsharded Stats.Shards must be 0")
	}
}

// TestAggStatsEveryField fills every field of two engine stats with
// distinct non-zero values and checks the merge field by field through
// reflection: counters sum, per-level slices sum element-wise, top lists
// concatenate, Levels is the larger and Tau the first. Every structure's
// Stats, sharded or not, goes through aggStats, so a field it forgot
// would vanish everywhere; here it fails instead.
func TestAggStatsEveryField(t *testing.T) {
	next := int64(1)
	var fill func(v reflect.Value, n int)
	fill = func(v reflect.Value, n int) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(next)
			next++
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(v.Index(i), n)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), n)
			}
		default:
			t.Fatalf("engine stats field of kind %v: teach this test how it aggregates", v.Kind())
		}
	}
	var a, b core.Stats
	fill(reflect.ValueOf(&a).Elem(), 2)
	fill(reflect.ValueOf(&b).Elem(), 3) // one level more than a

	var merge func(w, x, y reflect.Value, name string)
	merge = func(w, x, y reflect.Value, name string) {
		switch {
		case name == "Levels":
			w.SetInt(max(x.Int(), y.Int()))
		case name == "Tau":
			w.SetInt(x.Int())
		case w.Kind() == reflect.Struct:
			for i := 0; i < w.NumField(); i++ {
				merge(w.Field(i), x.Field(i), y.Field(i), w.Type().Field(i).Name)
			}
		case w.Kind() == reflect.Slice && strings.HasPrefix(name, "Top"):
			w.Set(reflect.AppendSlice(reflect.AppendSlice(w, x), y))
		case w.Kind() == reflect.Slice: // per level; b, y here, has more
			w.Set(reflect.MakeSlice(w.Type(), y.Len(), y.Len()))
			for i := 0; i < y.Len(); i++ {
				v := y.Index(i).Int()
				if i < x.Len() {
					v += x.Index(i).Int()
				}
				w.Index(i).SetInt(v)
			}
		default:
			w.SetInt(x.Int() + y.Int())
		}
	}
	var want core.Stats
	merge(reflect.ValueOf(&want).Elem(), reflect.ValueOf(a), reflect.ValueOf(b), "")
	if got := aggStats([]core.Stats{a, b}); !reflect.DeepEqual(got, want) {
		t.Errorf("aggStats:\n got %+v\nwant %+v", got, want)
	}

	// One core's stats come back unchanged, sharded or not.
	for _, opts := range [][]Option{nil, {WithShards(1)}} {
		c := mustCollection(t, append(opts, WithSyncRebuilds(), WithMinCapacity(64))...)
		for i := uint64(1); i <= 200; i++ {
			mustInsert(t, c, Document{ID: i, Data: []byte(fmt.Sprintf("stats payload %d", i))})
		}
		c.DeleteBatch([]uint64{3, 5, 7, 11, 13})
		x := c.union.cores[0]
		want := indexStatsFrom(x.Stats())
		want.Shards = c.cfg.shards
		want.fillResidency(nil, x.SizeBits())
		if got := c.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: Stats() = %+v, want the core's own %+v", c.cfg.shards, got, want)
		}
	}
}

// TestShardedWorstCaseBackground runs sharded collections with real
// background rebuilds (no WithSyncRebuilds) to cover the rebuild
// pipeline + facade locking interaction, then quiesces with WaitIdle.
func TestShardedWorstCaseBackground(t *testing.T) {
	c := mustCollection(t, WithShards(2))
	for i := uint64(1); i <= 80; i++ {
		mustInsert(t, c, Document{ID: i, Data: []byte("background rebuild fodder")})
	}
	c.WaitIdle()
	if got := c.Count([]byte("fodder")); got != 80 {
		t.Fatalf("Count = %d, want 80", got)
	}
}
