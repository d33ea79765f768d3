package dyncoll

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dyncoll/internal/oracle"
	"dyncoll/internal/wal"
)

// registerSnapTestIndex registers the suffix-table test index (defined
// in errors_test.go) under a name the snapshot tests own, once.
var registerSnapTestIndex = sync.OnceFunc(func() {
	if err := RegisterIndex("snap-suffix-table", buildTestIndex); err != nil {
		panic(err)
	}
})

// corpusDocs are the collection corpus's 60 documents; corpusDeletes the
// IDs it deletes after inserting them.
func corpusDocs() []Document {
	words := []string{"abracadabra", "alakazam", "avada kedavra", "hocus pocus", "sim sala bim"}
	var docs []Document
	for i := uint64(1); i <= 60; i++ {
		docs = append(docs, Document{ID: i, Data: []byte(fmt.Sprintf("%s %d", words[i%uint64(len(words))], i))})
	}
	return docs
}

var corpusDeletes = []uint64{3, 17, 41, 58}

// snapCollectionCorpus fills each writer with documents across several
// ladder levels and deletes a few so lazy-deletion state must
// round-trip.
func snapCollectionCorpus(t *testing.T, ws ...docWriter) {
	t.Helper()
	docs := corpusDocs()
	for _, w := range ws {
		must(t, w.InsertBatch(docs[:40]))
		for _, d := range docs[40:] {
			must(t, w.Insert(d))
		}
		for _, id := range corpusDeletes {
			must(t, w.Delete(id))
		}
	}
}

// modelWriter lets a corpus written for a collection fill the model.
type modelWriter struct{ *oracle.Model }

func (m modelWriter) Insert(d Document) error { m.Model.Insert(d); return nil }
func (m modelWriter) Delete(id uint64) error  { m.Model.Delete(id); return nil }
func (m modelWriter) InsertBatch(docs []Document) error {
	for _, d := range docs {
		m.Model.Insert(d)
	}
	return nil
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
	var m oracle.Model
	snapCollectionCorpus(t, c, modelWriter{&m})
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	// Overwrite with more data; the rename must replace the old bytes.
	for _, w := range []docWriter{c, modelWriter{&m}} {
		must(t, w.Insert(Document{ID: 500, Data: []byte("second save")}))
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile overwrite: %v", err)
	}
	loaded := mustCollection(t)
	if err := loaded.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	checkDocs(t, "file", &m, loaded)
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
	var m oracle.Model
	snapCollectionCorpus(t, c, modelWriter{&m})
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	// Overwrite: the rename path must replace, not fail on, an existing
	// destination.
	for _, w := range []docWriter{c, modelWriter{&m}} {
		must(t, w.Insert(Document{ID: 900, Data: []byte("post-first-save")}))
	}
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
	checkDocs(t, "durable rename", &m, loaded)
}

// TestSyncDir checks the directory fsync that follows a snapshot's
// rename both on a real directory and on a missing one.
func TestSyncDir(t *testing.T) {
	if err := wal.OS.SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := wal.OS.SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory: expected error")
	}
}
