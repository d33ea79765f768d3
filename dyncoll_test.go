package dyncoll

import (
	"fmt"
	"testing"
)

func mustCollection(t *testing.T, opts ...Option) *Collection {
	t.Helper()
	c, err := NewCollection(opts...)
	if err != nil {
		t.Fatalf("NewCollection: %v", err)
	}
	return c
}

func mustInsert(t *testing.T, c *Collection, d Document) {
	t.Helper()
	if err := c.Insert(d); err != nil {
		t.Fatalf("Insert(%d): %v", d.ID, err)
	}
}

func TestCollectionBatchFacade(t *testing.T) {
	for _, tr := range []Transformation{Amortized, WorstCase, AmortizedFastInsert} {
		for _, shards := range []int{0, 4} {
			opts := []Option{WithTransformation(tr), WithSyncRebuilds()}
			if shards > 0 {
				opts = append(opts, WithShards(shards))
			}
			c := mustCollection(t, opts...)
			var batch []Document
			for i := uint64(1); i <= 50; i++ {
				batch = append(batch, Document{ID: i, Data: []byte("payload number x")})
			}
			if err := c.InsertBatch(batch); err != nil {
				t.Fatalf("transform %d: InsertBatch: %v", tr, err)
			}
			c.WaitIdle()
			if c.DocCount() != 50 {
				t.Fatalf("transform %d: DocCount = %d, want 50", tr, c.DocCount())
			}
			if got := c.Count([]byte("number")); got != 50 {
				t.Fatalf("transform %d: Count = %d, want 50", tr, got)
			}
			if n := c.DeleteBatch([]uint64{1, 2, 3, 777}); n != 3 {
				t.Fatalf("transform %d: DeleteBatch removed %d, want 3", tr, n)
			}
			c.WaitIdle()
			if got := c.Count([]byte("number")); got != 47 {
				t.Fatalf("transform %d: Count after DeleteBatch = %d, want 47", tr, got)
			}
		}
	}
}

func TestCollectionFindIter(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds())
	for i := 1; i <= 30; i++ {
		mustInsert(t, c, Document{ID: uint64(i), Data: []byte("xyxyxy")})
	}
	// Full enumeration agrees with Find.
	n := 0
	for range c.FindIter([]byte("xy")) {
		n++
	}
	if want := len(c.Find([]byte("xy"))); n != want {
		t.Fatalf("FindIter visited %d, Find returned %d", n, want)
	}
	// Breaking out stops the underlying search early.
	n = 0
	for range c.FindIter([]byte("xy")) {
		n++
		if n == 10 {
			break
		}
	}
	if n != 10 {
		t.Fatalf("early break visited %d", n)
	}
}

func TestCollectionFindFuncStream(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds())
	for i := 1; i <= 30; i++ {
		mustInsert(t, c, Document{ID: uint64(i), Data: []byte("xyxyxy")})
	}
	n := 0
	c.FindFunc([]byte("xy"), func(Occurrence) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestRelationFacade(t *testing.T) {
	for _, wc := range []bool{false, true} {
		opts := []Option{WithTransformation(Amortized)}
		if wc {
			opts = []Option{WithTransformation(WorstCase), WithSyncRebuilds()}
		}
		r, err := NewRelation(opts...)
		if err != nil {
			t.Fatalf("NewRelation: %v", err)
		}
		for _, p := range []Pair{{Object: 1, Label: 100}, {Object: 1, Label: 200}, {Object: 2, Label: 100}} {
			if err := r.Add(p.Object, p.Label); err != nil {
				t.Fatalf("Add(%v): %v", p, err)
			}
		}
		if !r.Related(1, 100) || r.Related(2, 200) {
			t.Fatal("Related wrong")
		}
		if r.CountObjects(100) != 2 || r.CountLabels(1) != 2 {
			t.Fatal("counts wrong")
		}
		// Iterator forms agree with the slice forms.
		var labels []uint64
		for l := range r.LabelsIter(1) {
			labels = append(labels, l)
		}
		if len(labels) != 2 {
			t.Fatalf("LabelsIter(1) = %v", labels)
		}
		var objects []uint64
		for o := range r.ObjectsIter(100) {
			objects = append(objects, o)
			break // early break must not hang or panic
		}
		if len(objects) != 1 {
			t.Fatalf("ObjectsIter early break = %v", objects)
		}
		np := 0
		for range r.PairsIter() {
			np++
		}
		if np != 3 {
			t.Fatalf("PairsIter visited %d, want 3", np)
		}
		if err := r.Delete(1, 100); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if r.Related(1, 100) || r.Len() != 2 {
			t.Fatal("delete wrong")
		}
		r.WaitIdle()
	}
}

func TestGraphFacade(t *testing.T) {
	g, err := NewGraph()
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	for _, e := range [][2]uint64{{1, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	if g.OutDegree(1) != 2 || g.InDegree(3) != 2 {
		t.Fatal("degrees wrong")
	}
	ns := g.Neighbors(1)
	if len(ns) != 2 || ns[0] != 2 || ns[1] != 3 {
		t.Fatalf("Neighbors = %v", ns)
	}
	// Successor/predecessor iterators.
	succ := map[uint64]bool{}
	for v := range g.Successors(1) {
		succ[v] = true
	}
	if !succ[2] || !succ[3] || len(succ) != 2 {
		t.Fatalf("Successors(1) = %v", succ)
	}
	pred := map[uint64]bool{}
	for u := range g.Predecessors(3) {
		pred[u] = true
	}
	if !pred[1] || !pred[2] || len(pred) != 2 {
		t.Fatalf("Predecessors(3) = %v", pred)
	}
	ne := 0
	for range g.EdgesIter() {
		ne++
	}
	if ne != g.EdgeCount() {
		t.Fatalf("EdgesIter visited %d, EdgeCount %d", ne, g.EdgeCount())
	}
	if err := g.DeleteEdge(1, 2); err != nil {
		t.Fatalf("DeleteEdge: %v", err)
	}
	if g.HasEdge(1, 2) || g.EdgeCount() != 2 {
		t.Fatal("DeleteEdge wrong")
	}
}

func ExampleCollection() {
	c, _ := NewCollection(WithSyncRebuilds())
	_ = c.Insert(Document{ID: 1, Data: []byte("the quick brown fox")})
	_ = c.Insert(Document{ID: 2, Data: []byte("the lazy dog")})
	fmt.Println(c.Count([]byte("the")))
	_ = c.Delete(2)
	fmt.Println(c.Count([]byte("the")))
	// Output:
	// 2
	// 1
}

func TestCollectionDocIDs(t *testing.T) {
	for _, tr := range []Transformation{Amortized, WorstCase, AmortizedFastInsert} {
		c := mustCollection(t, WithTransformation(tr), WithSyncRebuilds())
		want := map[uint64]bool{}
		for i := uint64(1); i <= 40; i++ {
			mustInsert(t, c, Document{ID: i, Data: []byte{byte(i%5 + 1), 2, 3}})
			want[i] = true
		}
		for i := uint64(1); i <= 40; i += 3 {
			if err := c.Delete(i); err != nil {
				t.Fatalf("Delete(%d): %v", i, err)
			}
			delete(want, i)
		}
		got := c.DocIDs()
		if len(got) != len(want) {
			t.Fatalf("transform %d: DocIDs len = %d, want %d", tr, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("transform %d: unexpected ID %d", tr, id)
			}
		}
	}
}

func TestCollectionStats(t *testing.T) {
	a := mustCollection(t, WithTransformation(Amortized))
	w := mustCollection(t, WithTransformation(WorstCase), WithSyncRebuilds())
	sh := mustCollection(t, WithTransformation(WorstCase), WithSyncRebuilds(), WithShards(3))
	for i := uint64(1); i <= 120; i++ {
		d := Document{ID: i, Data: []byte("some document payload for stats testing")}
		mustInsert(t, a, d)
		mustInsert(t, w, d)
		mustInsert(t, sh, d)
	}
	for _, c := range []*Collection{a, w, sh} {
		st := c.Stats()
		// Every symbol enters at least one static index once the ladder
		// has cascaded, and shards add up.
		if built := st.BuiltWeight.Total(); built < int64(c.Len()-st.LevelSizes[0]) {
			t.Fatalf("built %d symbols with %d outside C0: %+v", built, c.Len()-st.LevelSizes[0], st)
		}
		if st.Levels < 1 || len(st.LevelSizes) != len(st.LevelCaps) {
			t.Fatalf("malformed stats: %+v", st)
		}
		if st.Tau < 2 {
			t.Fatalf("Tau = %d", st.Tau)
		}
		if st.Rebuilds == 0 {
			t.Fatalf("no rebuilds recorded: %+v", st)
		}
	}
	if w.Stats().Tops == 0 && a.Stats().Tops != 0 {
		t.Fatal("Tops should only apply to worst-case") // sanity of zero-field contract
	}
}
