package dyncoll

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// registerSnapTestIndex registers the suffix-table test index (defined
// in errors_test.go) under a name the snapshot tests own, once.
var registerSnapTestIndex = sync.OnceFunc(func() {
	if err := RegisterIndex("snap-suffix-table", buildTestIndex); err != nil {
		panic(err)
	}
})

// snapCollectionCorpus fills c with documents across several ladder
// levels and deletes a few so lazy-deletion state must round-trip.
func snapCollectionCorpus(t *testing.T, c *Collection) {
	t.Helper()
	words := []string{"abracadabra", "alakazam", "avada kedavra", "hocus pocus", "sim sala bim"}
	var docs []Document
	for i := uint64(1); i <= 60; i++ {
		docs = append(docs, Document{ID: i, Data: []byte(fmt.Sprintf("%s %d", words[i%uint64(len(words))], i))})
	}
	if err := c.InsertBatch(docs[:40]); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for _, d := range docs[40:] {
		mustInsert(t, c, d)
	}
	for _, id := range []uint64{3, 17, 41, 58} {
		if err := c.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
	}
}

// collectionsEqual compares query answers between two collections.
func collectionsEqual(t *testing.T, label string, a, b *Collection) {
	t.Helper()
	a.WaitIdle()
	b.WaitIdle()
	if a.DocCount() != b.DocCount() || a.Len() != b.Len() {
		t.Fatalf("%s: %d docs/%d symbols, want %d/%d", label, b.DocCount(), b.Len(), a.DocCount(), a.Len())
	}
	idsA, idsB := a.DocIDs(), b.DocIDs()
	slices.Sort(idsA)
	slices.Sort(idsB)
	if !slices.Equal(idsA, idsB) {
		t.Fatalf("%s: DocIDs diverge", label)
	}
	for _, p := range []string{"abra", "kazam", "a", "pocus", "zzz", "13"} {
		if ca, cb := a.Count([]byte(p)), b.Count([]byte(p)); ca != cb {
			t.Fatalf("%s: Count(%q) = %d, want %d", label, p, cb, ca)
		}
		occA, occB := a.Find([]byte(p)), b.Find([]byte(p))
		sortOcc := func(o []Occurrence) {
			slices.SortFunc(o, func(x, y Occurrence) int {
				if x.DocID != y.DocID {
					if x.DocID < y.DocID {
						return -1
					}
					return 1
				}
				return x.Off - y.Off
			})
		}
		sortOcc(occA)
		sortOcc(occB)
		if !slices.Equal(occA, occB) {
			t.Fatalf("%s: Find(%q) diverges (%d vs %d occs)", label, p, len(occB), len(occA))
		}
	}
	for _, id := range idsA {
		la, oka := a.DocLen(id)
		lb, okb := b.DocLen(id)
		if la != lb || oka != okb {
			t.Fatalf("%s: DocLen(%d) = (%d,%v), want (%d,%v)", label, id, lb, okb, la, oka)
		}
		da, _ := a.Extract(id, 0, la)
		db, _ := b.Extract(id, 0, lb)
		if !bytes.Equal(da, db) {
			t.Fatalf("%s: Extract(%d) diverges", label, id)
		}
	}
	for _, id := range []uint64{3, 17, 41, 58, 9999} {
		if a.Has(id) != b.Has(id) {
			t.Fatalf("%s: Has(%d) diverges", label, id)
		}
	}
}

// TestCollectionSnapshotRoundTrip is the acceptance matrix: every
// transformation × sharding × index (four built-ins plus a custom
// registry index) must answer identical queries after Save → Load.
func TestCollectionSnapshotRoundTrip(t *testing.T) {
	registerSnapTestIndex()
	for _, tr := range []Transformation{Amortized, WorstCase} {
		for _, shards := range []int{0, 4} {
			for _, index := range []string{IndexFM4, IndexFM, IndexSA, IndexCSA, "snap-suffix-table"} {
				name := fmt.Sprintf("tr%d/shards%d/%s", tr, shards, index)
				t.Run(name, func(t *testing.T) {
					opts := []Option{
						WithTransformation(tr),
						WithIndex(index),
						WithSyncRebuilds(),
						WithMinCapacity(16),
					}
					if shards > 0 {
						opts = append(opts, WithShards(shards))
					}
					c := mustCollection(t, opts...)
					snapCollectionCorpus(t, c)
					c.WaitIdle()

					var buf bytes.Buffer
					if err := c.Save(&buf); err != nil {
						t.Fatalf("Save: %v", err)
					}
					loaded := mustCollection(t) // default config: Load must replace it
					if err := loaded.Load(bytes.NewReader(buf.Bytes())); err != nil {
						t.Fatalf("Load: %v", err)
					}
					collectionsEqual(t, name, c, loaded)
					if got := loaded.Stats().Shards; got != shards {
						t.Fatalf("loaded shards = %d, want %d", got, shards)
					}

					// The loaded collection stays fully mutable.
					if err := loaded.Insert(Document{ID: 1000, Data: []byte("post-load abra")}); err != nil {
						t.Fatalf("post-load Insert: %v", err)
					}
					loaded.WaitIdle()
					if got, want := loaded.Count([]byte("abra")), c.Count([]byte("abra"))+1; got != want {
						t.Fatalf("post-load Count = %d, want %d", got, want)
					}
				})
			}
		}
	}
}

func snapRelationCorpus(t *testing.T, add func(o, l uint64) error, del func(o, l uint64) error) {
	t.Helper()
	for o := uint64(1); o <= 40; o++ {
		for l := uint64(1); l <= 1+o%7; l++ {
			if err := add(o, o*100+l); err != nil {
				t.Fatalf("add(%d,%d): %v", o, o*100+l, err)
			}
			if err := add(o, l); err != nil {
				t.Fatalf("add(%d,%d): %v", o, l, err)
			}
		}
	}
	for o := uint64(2); o <= 40; o += 5 {
		if err := del(o, 1); err != nil {
			t.Fatalf("del(%d,1): %v", o, err)
		}
	}
}

// registerEphemeralIndex registers the index TestSnapshotUnknownIndex
// saves under, once per process.
var registerEphemeralIndex = sync.OnceValue(func() error {
	return RegisterIndex("snap-ephemeral", buildTestIndex)
})

// TestSnapshotUnknownIndex checks that loading a snapshot whose index
// name has no registered builder fails with ErrUnknownIndex and leaves
// the receiver untouched.
func TestSnapshotUnknownIndex(t *testing.T) {
	if err := registerEphemeralIndex(); err != nil {
		t.Fatal(err)
	}
	c := mustCollection(t, WithIndex("snap-ephemeral"), WithSyncRebuilds(), WithMinCapacity(16))
	snapCollectionCorpus(t, c)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Rewrite the header's index name to something unregistered. The
	// name is a length-prefixed string, so an equal-length replacement
	// keeps the rest of the file intact.
	data := bytes.Replace(buf.Bytes(), []byte("snap-ephemeral"), []byte("no-such-index!"), 1)

	loaded := mustCollection(t, WithSyncRebuilds())
	mustInsert(t, loaded, Document{ID: 7, Data: []byte("untouched")})
	if err := loaded.Load(bytes.NewReader(data)); !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("Load with unregistered index: got %v, want ErrUnknownIndex", err)
	}
	if loaded.Count([]byte("untouched")) != 1 {
		t.Fatal("failed Load modified the receiver")
	}
}

// TestSnapshotCorruptInput mutates and truncates snapshot bytes for all
// three structures: Load must fail with ErrBadSnapshot (or load an
// equivalent value for mutations of don't-care bytes) and never panic,
// and the receiver must stay usable.
func TestSnapshotCorruptInput(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds(), WithMinCapacity(16))
	snapCollectionCorpus(t, c)
	var cbuf bytes.Buffer
	if err := c.Save(&cbuf); err != nil {
		t.Fatal(err)
	}
	r, _ := NewRelation(WithMinCapacity(16))
	snapRelationCorpus(t, r.Add, r.Delete)
	var rbuf bytes.Buffer
	if err := r.Save(&rbuf); err != nil {
		t.Fatal(err)
	}
	g, _ := NewGraph(WithMinCapacity(16))
	snapRelationCorpus(t, g.AddEdge, g.DeleteEdge)
	var gbuf bytes.Buffer
	if err := g.Save(&gbuf); err != nil {
		t.Fatal(err)
	}

	load := map[string]func(data []byte) error{
		"collection": func(data []byte) error {
			fresh := mustCollection(t)
			return fresh.Load(bytes.NewReader(data))
		},
		"relation": func(data []byte) error {
			fresh, _ := NewRelation()
			return fresh.Load(bytes.NewReader(data))
		},
		"graph": func(data []byte) error {
			fresh, _ := NewGraph()
			return fresh.Load(bytes.NewReader(data))
		},
	}
	for name, data := range map[string][]byte{
		"collection": cbuf.Bytes(),
		"relation":   rbuf.Bytes(),
		"graph":      gbuf.Bytes(),
	} {
		// Truncations must always error.
		for cut := 0; cut < len(data); cut += 13 {
			if err := load[name](data[:cut]); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("%s truncated at %d: got %v, want ErrBadSnapshot", name, cut, err)
			}
		}
		// Byte flips must never panic (they may error or decode to some
		// equivalent structure when the flipped byte was don't-care).
		step := len(data)/197 + 1
		for pos := 0; pos < len(data); pos += step {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 0xa5
			_ = load[name](mut)
		}
		// Wrong kind: a relation snapshot into a collection and vice
		// versa.
		other := "relation"
		if name == "relation" {
			other = "graph"
		}
		if err := load[name](map[string][]byte{
			"collection": rbuf.Bytes(), "relation": gbuf.Bytes(), "graph": cbuf.Bytes(),
		}[name]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s loading a %s snapshot: got %v, want ErrBadSnapshot", name, other, err)
		}
	}
}

// TestSnapshotFiles exercises the atomic file wrappers, including
// overwrite of an existing snapshot.
func TestSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coll.snap")

	c := mustCollection(t, WithSyncRebuilds(), WithMinCapacity(16))
	snapCollectionCorpus(t, c)
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	// Overwrite with more data; the rename must replace the old bytes.
	mustInsert(t, c, Document{ID: 500, Data: []byte("second save")})
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile overwrite: %v", err)
	}
	loaded := mustCollection(t)
	if err := loaded.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	collectionsEqual(t, "file", c, loaded)
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files in snapshot dir: %v", entries)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	// Missing file surfaces the OS error, not a panic.
	if err := loaded.LoadFile(filepath.Join(dir, "absent.snap")); err == nil {
		t.Fatal("LoadFile of missing path succeeded")
	}
}

// TestSnapshotConcurrentReaders checks Save on a sharded collection
// coexists with concurrent readers (it holds read locks only).
func TestSnapshotConcurrentReaders(t *testing.T) {
	c := mustCollection(t, WithShards(4), WithSyncRebuilds(), WithMinCapacity(16))
	snapCollectionCorpus(t, c)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Count([]byte("abra"))
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Errorf("Save under readers: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSaveFileDurableRename covers the atomic-save path end to end: the
// snapshot must land under its final name (rename complete, containing
// directory synced so the entry is durable), leave no temp files
// behind, and overwrite an existing snapshot in place — and the file
// that survives must load back to identical query answers.
func TestSaveFileDurableRename(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "coll.snap")
	c := mustCollection(t, WithShards(2), WithSyncRebuilds(), WithMinCapacity(16))
	snapCollectionCorpus(t, c)
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	// Overwrite: the rename path must replace, not fail on, an existing
	// destination.
	mustInsert(t, c, Document{ID: 900, Data: []byte("post-first-save")})
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile over existing: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "coll.snap" {
			t.Errorf("unexpected file %q next to the snapshot (leaked temp file?)", e.Name())
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot missing or empty after rename: %v", err)
	}
	loaded := mustCollection(t)
	if err := loaded.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	collectionsEqual(t, "durable rename", c, loaded)
}

// TestSyncDir checks the directory-fsync helper both on a real
// directory and on a missing one.
func TestSyncDir(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a real directory: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("syncDir on a missing directory: expected error")
	}
}
