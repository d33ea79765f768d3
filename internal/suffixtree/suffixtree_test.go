package suffixtree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dyncoll/internal/doc"
	"dyncoll/internal/oracle"
)

func sortOccs(o []Occurrence) {
	sort.Slice(o, func(i, j int) bool {
		if o[i].DocID != o[j].DocID {
			return o[i].DocID < o[j].DocID
		}
		return o[i].Off < o[j].Off
	})
}

func occsEqual(a, b []Occurrence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedFind(t *Tree, pattern []byte) []Occurrence {
	out := t.Find(pattern)
	sortOccs(out)
	return out
}

func randomData(rng *rand.Rand, n, sigma int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(1 + rng.Intn(sigma))
	}
	return d
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.DocCount() != 0 {
		t.Fatal("fresh tree not empty")
	}
	if got := tr.Find([]byte("x")); len(got) != 0 {
		t.Fatalf("empty tree matched: %v", got)
	}
	if tr.Delete(42) {
		t.Fatal("Delete on empty tree reported success")
	}
}

func TestSingleDocKnown(t *testing.T) {
	tr := New()
	tr.Insert(doc.Doc{ID: 1, Data: []byte("banana")})
	cases := []struct {
		pat  string
		want []Occurrence
	}{
		{"a", []Occurrence{{1, 1}, {1, 3}, {1, 5}}},
		{"ana", []Occurrence{{1, 1}, {1, 3}}},
		{"banana", []Occurrence{{1, 0}}},
		{"nan", []Occurrence{{1, 2}}},
		{"x", nil},
		{"bananax", nil},
		{"anana", []Occurrence{{1, 1}}},
	}
	for _, c := range cases {
		got := sortedFind(tr, []byte(c.pat))
		if !occsEqual(got, c.want) {
			t.Errorf("Find(%q) = %v, want %v", c.pat, got, c.want)
		}
		if n := tr.Count([]byte(c.pat)); n != len(c.want) {
			t.Errorf("Count(%q) = %d, want %d", c.pat, n, len(c.want))
		}
	}
}

func TestEmptyPattern(t *testing.T) {
	tr := New()
	tr.Insert(doc.Doc{ID: 1, Data: []byte("abc")})
	tr.Insert(doc.Doc{ID: 2, Data: []byte("de")})
	// Every position of every live doc: 3 + 2.
	if n := tr.Count(nil); n != 5 {
		t.Fatalf("Count(empty) = %d, want 5", n)
	}
}

func TestMultiDocAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sigma := range []int{1, 2, 4, 26} {
		tr := New()
		m := new(oracle.Model)
		for i := 0; i < 30; i++ {
			data := randomData(rng, 1+rng.Intn(120), sigma)
			id := uint64(i + 1)
			tr.Insert(doc.Doc{ID: id, Data: data})
			m.Insert(doc.Doc{ID: id, Data: data})
		}
		if tr.DocCount() != 30 {
			t.Fatalf("DocCount=%d", tr.DocCount())
		}
		for trial := 0; trial < 100; trial++ {
			var pattern []byte
			if trial%2 == 0 {
				// Planted.
				data := m.Docs()[rng.Intn(30)].Data
				off := rng.Intn(len(data))
				l := 1 + rng.Intn(minInt(8, len(data)-off))
				pattern = data[off : off+l]
			} else {
				pattern = randomData(rng, 1+rng.Intn(6), sigma)
			}
			if err := oracle.CheckDocs[Occurrence](m, tr, pattern); err != nil {
				t.Fatalf("σ=%d: %v", sigma, err)
			}
		}
	}
}

func TestDeleteHidesOccurrences(t *testing.T) {
	tr := New()
	tr.Insert(doc.Doc{ID: 1, Data: []byte("hello world")})
	tr.Insert(doc.Doc{ID: 2, Data: []byte("hello there")})
	if n := tr.Count([]byte("hello")); n != 2 {
		t.Fatalf("before delete: %d", n)
	}
	if !tr.Delete(1) {
		t.Fatal("Delete failed")
	}
	got := sortedFind(tr, []byte("hello"))
	if !occsEqual(got, []Occurrence{{2, 0}}) {
		t.Fatalf("after delete: %v", got)
	}
	if tr.Has(1) || !tr.Has(2) {
		t.Fatal("Has wrong after delete")
	}
	if tr.Delete(1) {
		t.Fatal("double delete reported success")
	}
}

func TestRebuildAfterManyDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := New()
	m := new(oracle.Model)
	for i := 0; i < 40; i++ {
		data := randomData(rng, 50, 4)
		id := uint64(i + 1)
		tr.Insert(doc.Doc{ID: id, Data: data})
		m.Insert(doc.Doc{ID: id, Data: data})
	}
	// Delete 30 of 40: forces at least one rebuild.
	for i := 0; i < 30; i++ {
		id := uint64(i + 1)
		tr.Delete(id)
		m.Delete(id)
	}
	if tr.DeletedSymbols() > tr.Len() {
		t.Fatalf("rebuild did not trigger: deleted=%d live=%d", tr.DeletedSymbols(), tr.Len())
	}
	for trial := 0; trial < 60; trial++ {
		pattern := randomData(rng, 1+rng.Intn(4), 4)
		if err := oracle.CheckDocs[Occurrence](m, tr, pattern); err != nil {
			t.Fatalf("post-rebuild: %v", err)
		}
	}
	// Live docs should round trip.
	live := tr.LiveDocs()
	if len(live) != 10 {
		t.Fatalf("LiveDocs returned %d docs", len(live))
	}
	for i, d := range live {
		if want := m.Docs()[i]; d.ID != want.ID || !bytes.Equal(d.Data, want.Data) {
			t.Fatalf("LiveDocs data mismatch for %d", d.ID)
		}
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	m := new(oracle.Model)
	nextID := uint64(1)
	var ids []uint64
	for op := 0; op < 400; op++ {
		switch {
		case len(ids) == 0 || rng.Intn(3) > 0:
			data := randomData(rng, 1+rng.Intn(60), 3)
			tr.Insert(doc.Doc{ID: nextID, Data: data})
			m.Insert(doc.Doc{ID: nextID, Data: data})
			ids = append(ids, nextID)
			nextID++
		default:
			i := rng.Intn(len(ids))
			id := ids[i]
			ids = append(ids[:i], ids[i+1:]...)
			tr.Delete(id)
			m.Delete(id)
		}
		if op%20 == 0 {
			pattern := randomData(rng, 1+rng.Intn(4), 3)
			if err := oracle.CheckDocs[Occurrence](m, tr, pattern); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
}

func TestDuplicateIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr := New()
	tr.Insert(doc.Doc{ID: 1, Data: []byte("a")})
	tr.Insert(doc.Doc{ID: 1, Data: []byte("b")})
}

func TestReservedBytePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Insert(doc.Doc{ID: 1, Data: []byte{1, 0}})
}

func TestPathologicalDocs(t *testing.T) {
	tr := New()
	m := new(oracle.Model)
	docs := [][]byte{
		bytes.Repeat([]byte{7}, 500),       // unary
		bytes.Repeat([]byte{1, 2}, 250),    // period 2
		bytes.Repeat([]byte{1, 1, 2}, 160), // period 3
		{42},                               // single symbol
	}
	for i, d := range docs {
		id := uint64(i + 1)
		tr.Insert(doc.Doc{ID: id, Data: d})
		m.Insert(doc.Doc{ID: id, Data: d})
	}
	pats := [][]byte{{7}, {7, 7, 7}, {1, 2, 1}, {2, 1, 1}, {42}, {42, 42}, {3}}
	if err := oracle.CheckDocs[Occurrence](m, tr, pats...); err != nil {
		t.Fatal(err)
	}
}

func TestFindFuncEarlyStop(t *testing.T) {
	tr := New()
	tr.Insert(doc.Doc{ID: 1, Data: bytes.Repeat([]byte{5}, 100)})
	n := 0
	tr.FindFunc([]byte{5}, func(Occurrence) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestQuickAgainstModel(t *testing.T) {
	f := func(seed int64, sigmaRaw uint8) bool {
		sigma := int(sigmaRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		m := new(oracle.Model)
		for i := 0; i < 12; i++ {
			data := randomData(rng, 1+rng.Intn(50), sigma)
			id := uint64(i + 1)
			tr.Insert(doc.Doc{ID: id, Data: data})
			m.Insert(doc.Doc{ID: id, Data: data})
		}
		// A few deletions.
		for i := 0; i < 4; i++ {
			id := uint64(1 + rng.Intn(12))
			if tr.Delete(id) {
				m.Delete(id)
			}
		}
		var pats [][]byte
		for trial := 0; trial < 8; trial++ {
			pats = append(pats, randomData(rng, 1+rng.Intn(5), sigma))
		}
		return oracle.CheckDocs[Occurrence](m, tr, pats...) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAllSuffixesPresent verifies the Ukkonen construction directly: every
// suffix of every live document is findable.
func TestAllSuffixesPresent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := New()
	var all [][]byte
	for i := 0; i < 10; i++ {
		data := randomData(rng, 1+rng.Intn(80), 3)
		tr.Insert(doc.Doc{ID: uint64(i + 1), Data: data})
		all = append(all, data)
	}
	for _, data := range all {
		for off := 0; off < len(data); off++ {
			if tr.Count(data[off:]) == 0 {
				t.Fatalf("suffix %q missing", data[off:])
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
