package dyncoll

import (
	"bytes"
	"errors"
	"sort"
	"sync"
	"testing"
)

// TestInsertErrorPaths checks the typed errors on every transformation:
// duplicate IDs and reserved bytes, for singles and batches.
func TestInsertErrorPaths(t *testing.T) {
	for _, tr := range []Transformation{Amortized, WorstCase, AmortizedFastInsert} {
		c := mustCollection(t, WithTransformation(tr), WithSyncRebuilds())
		mustInsert(t, c, Document{ID: 1, Data: []byte("abc")})

		if err := c.Insert(Document{ID: 1, Data: []byte("xyz")}); !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("transform %d: duplicate insert: got %v, want ErrDuplicateID", tr, err)
		}
		if err := c.Insert(Document{ID: 2, Data: []byte{1, 0, 2}}); !errors.Is(err, ErrReservedByte) {
			t.Fatalf("transform %d: zero byte: got %v, want ErrReservedByte", tr, err)
		}
		// Batch with an internal duplicate: atomic, nothing inserted.
		err := c.InsertBatch([]Document{
			{ID: 3, Data: []byte("d3")},
			{ID: 3, Data: []byte("d3 again")},
		})
		if !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("transform %d: batch duplicate: got %v", tr, err)
		}
		// Batch colliding with a live ID.
		err = c.InsertBatch([]Document{{ID: 4, Data: []byte("d4")}, {ID: 1, Data: []byte("dup")}})
		if !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("transform %d: batch live duplicate: got %v", tr, err)
		}
		// Batch with a reserved byte.
		err = c.InsertBatch([]Document{{ID: 5, Data: []byte{0}}})
		if !errors.Is(err, ErrReservedByte) {
			t.Fatalf("transform %d: batch zero byte: got %v", tr, err)
		}
		c.WaitIdle()
		if c.DocCount() != 1 {
			t.Fatalf("transform %d: failed operations leaked documents (%d live)", tr, c.DocCount())
		}
		// The collection still works after rejected updates.
		if got := c.Count([]byte("abc")); got != 1 {
			t.Fatalf("transform %d: Count = %d after rejected updates", tr, got)
		}
	}
}

func TestDeleteErrorPaths(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds())
	if err := c.Delete(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: got %v, want ErrNotFound", err)
	}
	mustInsert(t, c, Document{ID: 42, Data: []byte("x")})
	if err := c.Delete(42); err != nil {
		t.Fatalf("delete live: %v", err)
	}
	if err := c.Delete(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
}

func TestRelationGraphErrorPaths(t *testing.T) {
	r, err := NewRelation()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(1, 2); !errors.Is(err, ErrDuplicatePair) {
		t.Fatalf("duplicate pair: got %v, want ErrDuplicatePair", err)
	}
	if err := r.Delete(9, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing pair: got %v, want ErrNotFound", err)
	}

	g, err := NewGraph()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate edge: got %v, want ErrDuplicateEdge", err)
	}
	if err := g.DeleteEdge(9, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing edge: got %v, want ErrNotFound", err)
	}
}

func TestOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		mk   func() error
		want error
	}{
		{"unknown index", func() error { _, err := NewCollection(WithIndex("no-such-index")); return err }, ErrUnknownIndex},
		{"negative tau", func() error { _, err := NewCollection(WithTau(-1)); return err }, ErrInvalidOption},
		{"negative sample", func() error { _, err := NewCollection(WithSampleRate(-4)); return err }, ErrInvalidOption},
		{"bad epsilon", func() error { _, err := NewCollection(WithEpsilon(1.5)); return err }, ErrInvalidOption},
		{"bad transformation", func() error { _, err := NewCollection(WithTransformation(Transformation(99))); return err }, ErrInvalidOption},
		{"index on relation", func() error { _, err := NewRelation(WithIndex(IndexFM)); return err }, ErrInvalidOption},
		{"counting on graph", func() error { _, err := NewGraph(WithCounting()); return err }, ErrInvalidOption},
		{"fastinsert on relation", func() error { _, err := NewRelation(WithTransformation(AmortizedFastInsert)); return err }, ErrInvalidOption},
	}
	for _, tc := range cases {
		if err := tc.mk(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestRegisterIndexErrors(t *testing.T) {
	dummy := func(docs []Document, cfg IndexConfig) StaticIndex { return nil }
	if err := RegisterIndex("", dummy); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("empty name: got %v", err)
	}
	if err := RegisterIndex("x-nil", nil); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("nil builder: got %v", err)
	}
	if err := RegisterIndex(IndexFM, dummy); !errors.Is(err, ErrIndexExists) {
		t.Fatalf("re-register built-in: got %v", err)
	}
}

// testIndex is a minimal custom StaticIndex — a sorted table of all
// document suffixes — registered from outside internal/ to prove the
// framework's index-agnosticism end to end.
type testIndex struct {
	docs    []Document
	rows    [][2]int // (docIdx, off), off ≤ len(doc), sorted by suffix
	rank    map[[2]int]int
	symbols int
}

func (x *testIndex) suffix(r [2]int) []byte {
	return append(append([]byte(nil), x.docs[r[0]].Data[r[1]:]...), 0)
}

func buildTestIndex(docs []Document, _ IndexConfig) StaticIndex {
	x := &testIndex{docs: docs, rank: make(map[[2]int]int)}
	for d, dd := range docs {
		x.symbols += len(dd.Data)
		for off := 0; off <= len(dd.Data); off++ {
			x.rows = append(x.rows, [2]int{d, off})
		}
	}
	sort.Slice(x.rows, func(i, j int) bool {
		return bytes.Compare(x.suffix(x.rows[i]), x.suffix(x.rows[j])) < 0
	})
	for pos, r := range x.rows {
		x.rank[r] = pos
	}
	return x
}

func (x *testIndex) SALen() int                { return len(x.rows) }
func (x *testIndex) SymbolCount() int          { return x.symbols }
func (x *testIndex) DocCount() int             { return len(x.docs) }
func (x *testIndex) DocID(i int) uint64        { return x.docs[i].ID }
func (x *testIndex) DocLen(i int) int          { return len(x.docs[i].Data) }
func (x *testIndex) SuffixRank(d, off int) int { return x.rank[[2]int{d, off}] }
func (x *testIndex) Locate(row int) (int, int) { r := x.rows[row]; return r[0], r[1] }

func (x *testIndex) Range(pattern []byte) (lo, hi int) {
	lo = sort.Search(len(x.rows), func(i int) bool {
		return bytes.Compare(x.suffix(x.rows[i]), pattern) >= 0
	})
	hi = sort.Search(len(x.rows), func(i int) bool {
		s := x.suffix(x.rows[i])
		if len(s) > len(pattern) {
			s = s[:len(pattern)]
		}
		return bytes.Compare(s, pattern) > 0
	})
	return lo, hi
}

func (x *testIndex) Extract(d, off, length int) []byte {
	data := x.docs[d].Data
	if off < 0 || off >= len(data) || length <= 0 {
		return nil
	}
	if off+length > len(data) {
		length = len(data) - off
	}
	return append([]byte(nil), data[off:off+length]...)
}

func (x *testIndex) SizeBits() int64 {
	return int64(x.symbols)*8 + int64(len(x.rows))*3*64
}

// registerTestIndex registers testIndex under a fresh name once per
// process: the registry is global, so a second -count run must not
// register it again.
var registerTestIndex = sync.OnceValue(func() error {
	return RegisterIndex("test-suffix-table", buildTestIndex)
})

// TestCustomRegisteredIndex registers testIndex under a fresh name and
// drives it through NewCollection across transformations: Find, Count,
// Extract, and deletions must all be served by the custom index.
func TestCustomRegisteredIndex(t *testing.T) {
	if err := registerTestIndex(); err != nil {
		t.Fatalf("RegisterIndex: %v", err)
	}
	found := false
	for _, name := range RegisteredIndexes() {
		if name == "test-suffix-table" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered index missing from RegisteredIndexes")
	}

	for _, tr := range []Transformation{Amortized, WorstCase} {
		c := mustCollection(t,
			WithIndex("test-suffix-table"),
			WithTransformation(tr),
			WithSyncRebuilds(),
			WithMinCapacity(16), // small C0 so the custom index actually builds
		)
		payload := []byte("abracadabra")
		for i := uint64(1); i <= 40; i++ {
			mustInsert(t, c, Document{ID: i, Data: payload})
		}
		c.WaitIdle()
		if got := c.Count([]byte("abra")); got != 80 {
			t.Fatalf("transform %d: Count(abra) = %d, want 80", tr, got)
		}
		occs := c.Find([]byte("cad"))
		if len(occs) != 40 {
			t.Fatalf("transform %d: Find(cad) = %d occurrences, want 40", tr, len(occs))
		}
		for _, o := range occs {
			if o.Off != 4 {
				t.Fatalf("transform %d: occurrence at offset %d, want 4", tr, o.Off)
			}
		}
		if data, ok := c.Extract(7, 1, 4); !ok || !bytes.Equal(data, []byte("brac")) {
			t.Fatalf("transform %d: Extract = %q, %v", tr, data, ok)
		}
		if err := c.Delete(7); err != nil {
			t.Fatalf("transform %d: Delete: %v", tr, err)
		}
		c.WaitIdle()
		if got := c.Count([]byte("abra")); got != 78 {
			t.Fatalf("transform %d: Count after delete = %d, want 78", tr, got)
		}
	}
}
