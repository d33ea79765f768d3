package dyncoll

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dyncoll/internal/snap"
)

// saveMapped writes c's v2 snapshot into a fresh temp dir and returns
// the path.
func saveMapped(t *testing.T, save func(path string) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v2.snap")
	if err := save(path); err != nil {
		t.Fatalf("SaveMappedFile: %v", err)
	}
	return path
}

// TestMappedStatsResidency pins the Stats residency split: zero for
// never-mapped structures, positive MappedBytes after a mapped open,
// and back to zero (with the structure empty but usable) after Close.
func TestMappedStatsResidency(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds(), WithMinCapacity(16))
	snapCollectionCorpus(t, c)
	c.WaitIdle()
	if st := c.Stats(); st.MappedBytes != 0 {
		t.Fatalf("heap-built MappedBytes = %d, want 0", st.MappedBytes)
	}

	path := saveMapped(t, c.SaveMappedFile)
	m, err := OpenMappedCollection(path)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.MappedBytes <= 0 {
		t.Fatalf("mapped open MappedBytes = %d, want > 0", st.MappedBytes)
	}
	if st.HeapBytes < 0 {
		t.Fatalf("HeapBytes = %d, want ≥ 0", st.HeapBytes)
	}

	// Heap Load of the same structure reports no mapped residency.
	heap := mustCollection(t)
	v1 := filepath.Join(t.TempDir(), "v1.snap")
	if err := c.SaveFile(v1); err != nil {
		t.Fatal(err)
	}
	if err := heap.LoadFile(v1); err != nil {
		t.Fatal(err)
	}
	if st := heap.Stats(); st.MappedBytes != 0 {
		t.Fatalf("heap-loaded MappedBytes = %d, want 0", st.MappedBytes)
	}

	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := m.Stats(); st.MappedBytes != 0 {
		t.Fatalf("post-Close MappedBytes = %d, want 0", st.MappedBytes)
	}
	if m.DocCount() != 0 {
		t.Fatalf("post-Close DocCount = %d, want 0 (fresh empty impl)", m.DocCount())
	}
	if err := m.Insert(Document{ID: 1, Data: []byte("post close")}); err != nil {
		t.Fatalf("post-Close Insert: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMappedFormatsDistinct checks the two snapshot formats reject each
// other: v1 Load must not accept a v2 container and vice versa.
func TestMappedFormatsDistinct(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds(), WithMinCapacity(16))
	snapCollectionCorpus(t, c)
	c.WaitIdle()
	dir := t.TempDir()
	v1, v2 := filepath.Join(dir, "v1.snap"), filepath.Join(dir, "v2.snap")
	if err := c.SaveFile(v1); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveMappedFile(v2); err != nil {
		t.Fatal(err)
	}
	if err := mustCollection(t).LoadFile(v2); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("v1 Load of a v2 file: got %v, want ErrBadSnapshot", err)
	}
	if err := mustCollection(t).LoadMappedFile(v1); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("mapped open of a v1 file: got %v, want ErrBadSnapshot", err)
	}
}

// TestMappedUnknownIndex builds a v2 container whose header names an
// unregistered index: the open must fail with ErrUnknownIndex and leave
// the receiver untouched.
func TestMappedUnknownIndex(t *testing.T) {
	cfg := mustCollection(t).cfg
	cfg.index = "no-such-index!"
	he := &snap.Encoder{}
	encodeHeader(he, cfg)
	w := snap.NewV2Writer()
	w.Add(snap.SecHeader, 0, 0, he.Bytes())
	w.Add(snap.SecSpine, 0, 0, nil)
	path := filepath.Join(t.TempDir(), "unknown.v2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded := mustCollection(t, WithSyncRebuilds())
	mustInsert(t, loaded, Document{ID: 7, Data: []byte("untouched")})
	if err := loaded.LoadMappedFile(path); !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("mapped open with unregistered index: got %v, want ErrUnknownIndex", err)
	}
	if loaded.Count([]byte("untouched")) != 1 {
		t.Fatal("failed mapped open modified the receiver")
	}
}

// TestMappedCorruptInput truncates and bit-flips v2 containers for all
// three structures: the open must fail typed (never panic) on
// truncation, and with MappedVerify a flipped byte must either be
// caught or land in don't-care padding.
func TestMappedCorruptInput(t *testing.T) {
	c := mustCollection(t, WithSyncRebuilds(), WithMinCapacity(16))
	snapCollectionCorpus(t, c)
	c.WaitIdle()
	r, _ := NewRelation(WithMinCapacity(16))
	snapRelationCorpus(t, r.Add, r.Delete)
	g, _ := NewGraph(WithMinCapacity(16))
	snapRelationCorpus(t, g.AddEdge, g.DeleteEdge)

	read := func(save func(string) error) []byte {
		path := saveMapped(t, save)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bytesFor := map[string][]byte{
		"collection": read(c.SaveMappedFile),
		"relation":   read(r.SaveMappedFile),
		"graph":      read(g.SaveMappedFile),
	}
	load := map[string]func(data []byte, opts ...MappedOption) error{
		"collection": func(data []byte, opts ...MappedOption) error {
			fresh := mustCollection(t)
			return loadMapped(fresh, data, &mappedFile{}, opts)
		},
		"relation": func(data []byte, opts ...MappedOption) error {
			fresh, _ := NewRelation()
			return loadMapped(fresh, data, &mappedFile{}, opts)
		},
		"graph": func(data []byte, opts ...MappedOption) error {
			fresh, _ := NewGraph()
			return loadMapped(&fresh.r, data, &mappedFile{}, opts)
		},
	}
	for name, data := range bytesFor {
		// Truncations must always error, never panic.
		step := len(data)/61 + 1
		for cut := 0; cut < len(data); cut += step {
			if err := load[name](data[:cut]); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("%s truncated at %d: got %v, want ErrBadSnapshot", name, cut, err)
			}
		}
		// Byte flips under MappedVerify: caught by a section CRC, a
		// structural check, or flipped in alignment padding no section
		// references (a successful open of such a flip is correct).
		step = len(data)/197 + 1
		for pos := 0; pos < len(data); pos += step {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 0xa5
			err := load[name](mut, MappedVerify())
			if err != nil && !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrUnknownIndex) {
				t.Fatalf("%s flip at %d: untyped error %v", name, pos, err)
			}
		}
		// Wrong kind must fail typed.
		other := map[string]string{"collection": "relation", "relation": "graph", "graph": "collection"}[name]
		if err := load[name](bytesFor[other]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s loading a %s container: got %v, want ErrBadSnapshot", name, other, err)
		}
	}

	// The file-based path reports truncation the same way.
	trunc := filepath.Join(t.TempDir(), "trunc.v2")
	if err := os.WriteFile(trunc, bytesFor["collection"][:len(bytesFor["collection"])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mustCollection(t).LoadMappedFile(trunc); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("file truncation: got %v, want ErrBadSnapshot", err)
	}
}

// FuzzMappedOpen feeds arbitrary bytes to the v2 open path of all three
// structures: open must never panic and must fail with ErrBadSnapshot
// or ErrUnknownIndex when it fails.
func FuzzMappedOpen(f *testing.F) {
	c, err := NewCollection(WithSyncRebuilds(), WithMinCapacity(16))
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if err := c.Insert(Document{ID: i, Data: []byte(fmt.Sprintf("fuzz seed doc %d abra", i))}); err != nil {
			f.Fatal(err)
		}
	}
	_ = c.Delete(3)
	c.WaitIdle()
	r, _ := NewRelation(WithMinCapacity(8))
	for o := uint64(1); o <= 12; o++ {
		_ = r.Add(o, o%5)
	}
	dir := f.TempDir()
	for name, save := range map[string]func(string) error{
		"coll.v2": c.SaveMappedFile,
		"rel.v2":  r.SaveMappedFile,
	} {
		path := filepath.Join(dir, name)
		if err := save(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 0)
		f.Add(data, 101)
		f.Add(data[:len(data)/2], 0)
	}
	f.Add([]byte("dsn2 but far too short"), 7)

	f.Fuzz(func(t *testing.T, data []byte, flip int) {
		if flip != 0 && len(data) > 0 {
			mut := append([]byte(nil), data...)
			mut[(flip%len(mut)+len(mut))%len(mut)] ^= byte(flip)
			data = mut
		}
		check := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrUnknownIndex) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
		}
		fc, _ := NewCollection()
		check("collection", loadMapped(fc, data, &mappedFile{}, nil))
		fr, _ := NewRelation()
		check("relation", loadMapped(fr, data, &mappedFile{}, nil))
		fg, _ := NewGraph()
		check("graph", loadMapped(&fg.r, data, &mappedFile{}, nil))
	})
}
