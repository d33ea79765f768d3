package dyncoll

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dyncoll/internal/oracle"
)

// Compatibility fixtures. testdata/compat holds, for an unsharded
// relation, a 2-shard graph and a 2-shard collection, a v1 snapshot, a
// v2 mapped snapshot and a checkpointed durable directory with a
// two-record WAL tail — all written by commit f55a4a6, the parent of
// the change that put every structure behind one ladder walker and one
// shard front — plus four more collection sets: collection-fm4.*, in
// the 4-ary "fm4" index, written by 717e898; collection-fmz.*, in
// "fmz", written by 003a1a7, the parent of the change that made "fmp"
// the default; collection-fmp.*, in "fmp", written by 6cf3c6b, the
// parent of the change that made "fmm" the default; and
// collection-fmm.*, in "fmm", written by that change. They are never
// regenerated in place: a format revision writes a new set at *its*
// parent commit (DYNCOLL_WRITE_COMPAT=1 go test -run
// TestCompatFixtures/<leg> .) and keeps reading the old ones.

var (
	compatDir   = filepath.Join("testdata", "compat")
	compatWrite = os.Getenv("DYNCOLL_WRITE_COMPAT") != ""
	compatWAL   = WALOptions{CheckpointEvery: -1}
)

func compatOpts(shards int) []Option {
	opts := []Option{WithTransformation(WorstCase), WithSyncRebuilds(), WithMinCapacity(16), WithTau(4)}
	if shards > 0 {
		opts = append(opts, WithShards(shards))
	}
	return opts
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// compatPairs is the operation stream behind the relation and graph
// fixtures: the snapshot corpus and, for the durable form, a checkpoint
// followed by the two operations that make up the WAL tail.
func compatPairs(t *testing.T, add, del func(a, b uint64) error, checkpoint func() error) {
	t.Helper()
	snapRelationCorpus(t, add, del)
	if checkpoint != nil {
		must(t, checkpoint())
		must(t, add(1000, 1))
		must(t, del(1, 1))
	}
}

// compatDocTail is the collection fixture's WAL tail.
func compatDocTail(t *testing.T, insert func(Document) error, del func(uint64) error) {
	t.Helper()
	must(t, insert(Document{ID: 1000, Data: []byte("tail abracadabra")}))
	must(t, del(21))
}

// copyDir copies a committed durable directory somewhere writable:
// opening one truncates, rotates and garbage-collects files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	must(t, os.CopyFS(dst, os.DirFS(src)))
	return dst
}

// sameFile fails unless the file at got holds exactly want's bytes.
func sameFile(t *testing.T, what, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	must(t, err)
	w, err := os.ReadFile(want)
	must(t, err)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: %s (%d bytes) differs from the parent-written %s (%d bytes)", what, got, len(g), want, len(w))
	}
}

func checkTail(t *testing.T, rec RecoveryStats) {
	t.Helper()
	if !rec.CheckpointLoaded || rec.WALRecords != 2 {
		t.Fatalf("recovery = %+v, want a checkpoint and a 2-record tail", rec)
	}
}

func TestCompatFixtures(t *testing.T) {
	file := func(name string) string { return filepath.Join(compatDir, name) }

	t.Run("relation", func(t *testing.T) {
		opts := compatOpts(0)
		if compatWrite {
			twin, err := NewRelation(opts...)
			must(t, err)
			compatPairs(t, twin.Add, twin.Delete, nil)
			must(t, twin.SaveFile(file("relation.v1")))
			must(t, twin.SaveMappedFile(file("relation.v2")))
			dr, err := OpenDurableRelation(file("relation.dur"), compatWAL, opts...)
			must(t, err)
			compatPairs(t, dr.Add, dr.Delete, dr.Checkpoint)
			must(t, dr.Close())
			return
		}
		var m oracle.PairModel
		add, del := pairModelOps(&m)
		compatPairs(t, add, del, nil)
		v1, err := NewRelation()
		must(t, err)
		must(t, v1.LoadFile(file("relation.v1")))
		checkPairs(t, "v1", &m, v1)
		v2, err := OpenMappedRelation(file("relation.v2"), MappedVerify())
		must(t, err)
		defer v2.Close()
		checkPairs(t, "v2", &m, v2)
		dr, err := OpenDurableRelation(copyDir(t, file("relation.dur")), compatWAL)
		must(t, err)
		defer dr.Close()
		checkTail(t, dr.RecoveryStats())
		must(t, add(1000, 1))
		must(t, del(1, 1))
		checkPairs(t, "durable", &m, dr)
	})

	t.Run("graph", func(t *testing.T) {
		opts := compatOpts(2)
		if compatWrite {
			twin, err := NewGraph(opts...)
			must(t, err)
			compatPairs(t, twin.AddEdge, twin.DeleteEdge, nil)
			must(t, twin.SaveFile(file("graph.v1")))
			must(t, twin.SaveMappedFile(file("graph.v2")))
			dg, err := OpenDurableGraph(file("graph.dur"), compatWAL, opts...)
			must(t, err)
			compatPairs(t, dg.AddEdge, dg.DeleteEdge, dg.Checkpoint)
			must(t, dg.Close())
			return
		}
		var m oracle.PairModel
		add, del := pairModelOps(&m)
		compatPairs(t, add, del, nil)
		v1, err := NewGraph()
		must(t, err)
		must(t, v1.LoadFile(file("graph.v1")))
		checkPairs(t, "v1", &m, v1)
		if got := v1.Stats().Shards; got != 2 {
			t.Fatalf("v1 shards = %d, want 2", got)
		}
		v2, err := OpenMappedGraph(file("graph.v2"), MappedVerify())
		must(t, err)
		defer v2.Close()
		checkPairs(t, "v2", &m, v2)
		dg, err := OpenDurableGraph(copyDir(t, file("graph.dur")), compatWAL)
		must(t, err)
		defer dg.Close()
		checkTail(t, dg.RecoveryStats())
		must(t, add(1000, 1))
		must(t, del(1, 1))
		checkPairs(t, "durable", &m, dg)
	})

	// The first collection set predates the 4-ary tree: "fm" files. The
	// second holds "fm4" files, written by 717e898, the parent of the
	// change that made "fmz" the default; the third "fmz" files, written
	// by 003a1a7, the parent of the change that made "fmp" the default;
	// the fourth "fmp" files, written by 6cf3c6b, the parent of the
	// change that made "fmm" the default; the fifth "fmm" files, written
	// by that change.
	t.Run("collection", func(t *testing.T) { compatCollection(t, IndexFM, "collection") })
	t.Run("collection-fm4", func(t *testing.T) { compatCollection(t, IndexFM4, "collection-fm4") })
	t.Run("collection-fmz", func(t *testing.T) { compatCollection(t, IndexFMZ, "collection-fmz") })
	t.Run("collection-fmp", func(t *testing.T) { compatCollection(t, IndexFMP, "collection-fmp") })
	t.Run("collection-fmm", func(t *testing.T) { compatCollection(t, IndexFMM, "collection-fmm") })
}

// compatCollection checks the collection fixtures named name, written
// with index. Collection bytes are a pure function of the operation
// stream (index bytes are reproducible and C0 is dumped in ID order),
// so beyond answering alike, a fresh build and a re-save of what was
// read must both reproduce the committed files byte for byte.
func compatCollection(t *testing.T, index, name string) {
	file := func(form string) string { return filepath.Join(compatDir, name+form) }
	opts := append(compatOpts(2), WithIndex(index))
	twin := mustCollection(t, opts...)
	var m oracle.Model
	snapCollectionCorpus(t, twin, modelWriter{&m})
	durable := func(dir string) *oracle.Model {
		dc, err := OpenDurableCollection(dir, compatWAL, opts...)
		must(t, err)
		var dm oracle.Model
		durCorpus(t, dc, &dm)
		must(t, dc.Checkpoint())
		compatDocTail(t, dc.Insert, dc.Delete)
		compatDocTail(t, modelWriter{&dm}.Insert, modelWriter{&dm}.Delete)
		must(t, dc.Close())
		return &dm
	}
	if compatWrite {
		must(t, twin.SaveFile(file(".v1")))
		must(t, twin.SaveMappedFile(file(".v2")))
		durable(file(".dur"))
		return
	}
	tmp := t.TempDir()
	resave := func(c *Collection, form string) {
		t.Helper()
		v1, v2 := filepath.Join(tmp, form+".v1"), filepath.Join(tmp, form+".v2")
		must(t, c.SaveFile(v1))
		sameFile(t, form+" saved as v1", v1, file(".v1"))
		must(t, c.SaveMappedFile(v2))
		sameFile(t, form+" saved as v2", v2, file(".v2"))
	}
	resave(twin, "fresh build")
	v1 := mustCollection(t)
	must(t, v1.LoadFile(file(".v1")))
	checkDocs(t, "v1", &m, v1)
	resave(v1, "v1 load")
	v2, err := OpenMappedCollection(file(".v2"), MappedVerify())
	must(t, err)
	defer v2.Close()
	checkDocs(t, "v2", &m, v2)
	resave(v2, "v2 open")

	dc, err := OpenDurableCollection(copyDir(t, file(".dur")), compatWAL)
	must(t, err)
	defer dc.Close()
	checkTail(t, dc.RecoveryStats())
	fresh := filepath.Join(tmp, name+".dur")
	checkDocs(t, "durable", durable(fresh), dc.Collection)
	ents, err := os.ReadDir(file(".dur"))
	must(t, err)
	for _, e := range ents {
		sameFile(t, "durable directory", filepath.Join(fresh, e.Name()), filepath.Join(file(".dur"), e.Name()))
	}
}

// TestFM4Deterministic holds the fm4 index to the rule the fixtures
// above hold fm to: collection bytes are a pure function of the
// operation stream. Two fresh builds, a v1 load re-saved and a v2 open
// re-saved all write the same v1 and v2 files.
func TestFM4Deterministic(t *testing.T) { checkDeterministic(t, IndexFM4, WithIndex(IndexFM4)) }

// TestFMZDeterministic holds fmz, the default index before fmp, to the
// same rule.
func TestFMZDeterministic(t *testing.T) { checkDeterministic(t, IndexFMZ, WithIndex(IndexFMZ)) }

// TestFMPDeterministic holds fmp, the default index before fmm, to the
// same rule.
func TestFMPDeterministic(t *testing.T) { checkDeterministic(t, IndexFMP, WithIndex(IndexFMP)) }

// TestFMMDeterministic holds the default index, fmm, to the same rule.
func TestFMMDeterministic(t *testing.T) { checkDeterministic(t, IndexFMM) }

// checkDeterministic builds the snapshot corpus twice with opts, whose
// index must be index, and checks that both builds, a v1 load and a v2
// open all save the same bytes.
func checkDeterministic(t *testing.T, index string, opts ...Option) {
	opts = append(compatOpts(2), opts...)
	tmp := t.TempDir()
	save := func(c *Collection, form string) (v1, v2 string) {
		t.Helper()
		v1, v2 = filepath.Join(tmp, form+".v1"), filepath.Join(tmp, form+".v2")
		must(t, c.SaveFile(v1))
		must(t, c.SaveMappedFile(v2))
		return v1, v2
	}
	first := mustCollection(t, opts...)
	snapCollectionCorpus(t, first)
	if got := first.cfg.index; got != index {
		t.Fatalf("index %q, want %q", got, index)
	}
	v1, v2 := save(first, "first")
	second := mustCollection(t, opts...)
	snapCollectionCorpus(t, second)
	loaded := mustCollection(t)
	must(t, loaded.LoadFile(v1))
	mapped, err := OpenMappedCollection(v2, MappedVerify())
	must(t, err)
	defer mapped.Close()
	for form, c := range map[string]*Collection{"second build": second, "v1 load": loaded, "v2 open": mapped} {
		g1, g2 := save(c, form)
		sameFile(t, form+" saved as v1", g1, v1)
		sameFile(t, form+" saved as v2", g2, v2)
	}
}
