package dyncoll

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"dyncoll/internal/wal"
)

// durTestOpts is the structure configuration the durable tests use:
// deterministic rebuilds, small levels so a modest corpus spans
// several ladder slots.
func durTestOpts(tr Transformation, shards int) []Option {
	opts := []Option{WithTransformation(tr), WithSyncRebuilds(), WithMinCapacity(16)}
	if shards > 0 {
		opts = append(opts, WithShards(shards))
	}
	return opts
}

// mustOpenDurColl opens a durable collection and registers its Close.
func mustOpenDurColl(t *testing.T, fs wal.FS, dir string, wopts WALOptions, opts ...Option) *DurableCollection {
	t.Helper()
	wopts.FS = fs
	c, err := OpenDurableCollection(dir, wopts, opts...)
	if err != nil {
		t.Fatalf("OpenDurableCollection: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// durCorpus drives the same mutation stream into a durable collection
// and a plain in-memory model.
func durCorpus(t *testing.T, dc *DurableCollection, model *Collection) {
	t.Helper()
	words := []string{"abracadabra", "alakazam", "avada kedavra", "hocus pocus", "sim sala bim"}
	var docs []Document
	for i := uint64(1); i <= 60; i++ {
		docs = append(docs, Document{ID: i, Data: []byte(fmt.Sprintf("%s %d", words[i%uint64(len(words))], i))})
	}
	if err := dc.InsertBatch(docs[:40]); err != nil {
		t.Fatalf("durable InsertBatch: %v", err)
	}
	if err := model.InsertBatch(docs[:40]); err != nil {
		t.Fatalf("model InsertBatch: %v", err)
	}
	for _, d := range docs[40:] {
		if err := dc.Insert(d); err != nil {
			t.Fatalf("durable Insert(%d): %v", d.ID, err)
		}
		mustInsert(t, model, d)
	}
	ids := []uint64{3, 17, 41, 58}
	if n, err := dc.DeleteBatch(ids); err != nil || n != len(ids) {
		t.Fatalf("durable DeleteBatch = (%d, %v), want (%d, nil)", n, err, len(ids))
	}
	if n := model.DeleteBatch(ids); n != len(ids) {
		t.Fatalf("model DeleteBatch = %d", n)
	}
}

// TestDurableCollectionReopen: transformation × sharding, WAL-only
// (no checkpoint) — everything acknowledged must be there after
// close + reopen, answered identically to an in-memory model.
func TestDurableCollectionReopen(t *testing.T) {
	for _, tr := range []Transformation{Amortized, WorstCase} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("tr%d/shards%d", tr, shards), func(t *testing.T) {
				fs := wal.NewMemFS()
				opts := durTestOpts(tr, shards)
				dc := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: -1}, opts...)
				if dc.RecoveryStats().CheckpointLoaded || dc.RecoveryStats().WALRecords != 0 {
					t.Fatalf("fresh open stats = %+v", dc.RecoveryStats())
				}
				model := mustCollection(t, opts...)
				durCorpus(t, dc, model)
				if err := dc.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}

				// Reopen with contradictory options: the WAL-logged config
				// is not stored (no checkpoint), so options apply — but the
				// replay must still produce the same answers.
				re := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: -1}, opts...)
				rec := re.RecoveryStats()
				if rec.CheckpointLoaded || rec.WALRecords == 0 || rec.TornTailTruncated {
					t.Fatalf("reopen stats = %+v", rec)
				}
				collectionsEqual(t, "reopen", model, re.Collection)
			})
		}
	}
}

// TestDurableCheckpointRecovery: after a checkpoint, reopening loads
// the checkpoint and replays ONLY the WAL tail — and the stored
// configuration wins over the options passed to the reopen.
func TestDurableCheckpointRecovery(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			fs := wal.NewMemFS()
			opts := durTestOpts(Amortized, shards)
			dc := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: -1}, opts...)
			model := mustCollection(t, opts...)
			durCorpus(t, dc, model)
			if err := dc.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			// Post-checkpoint tail: a few more mutations.
			tail := []Document{
				{ID: 200, Data: []byte("post checkpoint abra")},
				{ID: 201, Data: []byte("post checkpoint kazam")},
			}
			for _, d := range tail {
				if err := dc.Insert(d); err != nil {
					t.Fatal(err)
				}
				mustInsert(t, model, d)
			}
			if err := dc.Delete(5); err != nil {
				t.Fatal(err)
			}
			if n := model.DeleteBatch([]uint64{5}); n != 1 {
				t.Fatal("model delete")
			}
			if err := dc.Close(); err != nil {
				t.Fatal(err)
			}

			// Contradictory reopen options must lose to the checkpoint's
			// stored config.
			re := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: -1}, WithShards(7))
			rec := re.RecoveryStats()
			if !rec.CheckpointLoaded {
				t.Fatalf("checkpoint not loaded: %+v", rec)
			}
			if want := len(tail) + 1; rec.WALRecords != want {
				t.Fatalf("replayed %d WAL records, want only the %d-record tail", rec.WALRecords, want)
			}
			collectionsEqual(t, "ckpt reopen", model, re.Collection)
			if got := re.Stats().Shards; got != shards {
				t.Fatalf("reopened shards = %d, want stored %d", got, shards)
			}
		})
	}
}

// TestDurableCheckpointIncremental proves the incremental part: a
// second checkpoint after a few small mutations re-references segment
// files written by the first one instead of rewriting everything.
func TestDurableCheckpointIncremental(t *testing.T) {
	fs := wal.NewMemFS()
	dc := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: -1}, durTestOpts(Amortized, 0)...)
	var docs []Document
	for i := uint64(1); i <= 100; i++ {
		docs = append(docs, Document{ID: i, Data: []byte(fmt.Sprintf("stable document %d", i))})
	}
	if err := dc.InsertBatch(docs); err != nil {
		t.Fatal(err)
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man1, ok, err := wal.ReadManifest(fs, "dur")
	if err != nil || !ok {
		t.Fatalf("manifest after first checkpoint: ok=%v err=%v", ok, err)
	}
	if len(man1.Segments) == 0 {
		t.Fatal("first checkpoint wrote no segments")
	}

	// A few small inserts only touch the low ladder levels; the deep
	// store holding the 100-document bulk is untouched.
	for i := uint64(500); i < 503; i++ {
		if err := dc.Insert(Document{ID: i, Data: []byte("small late insert")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man2, ok, err := wal.ReadManifest(fs, "dur")
	if err != nil || !ok {
		t.Fatalf("manifest after second checkpoint: ok=%v err=%v", ok, err)
	}
	reused := 0
	for _, s := range man2.Segments {
		if slices.Contains(man1.Segments, s) {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("second checkpoint reused no segments (first %v, second %v)", man1.Segments, man2.Segments)
	}

	// And a third checkpoint with NO intervening mutations must reuse
	// every segment.
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man3, _, err := wal.ReadManifest(fs, "dur")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range man3.Segments {
		if !slices.Contains(man2.Segments, s) {
			t.Fatalf("idle checkpoint rewrote segment %s", s)
		}
	}

	// The reopened structure must checkpoint incrementally too: the
	// generations restored from the checkpoint let it reuse the very
	// files it was loaded from.
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: -1})
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man4, _, err := wal.ReadManifest(fs, "dur")
	if err != nil {
		t.Fatal(err)
	}
	reused = 0
	for _, s := range man4.Segments {
		if slices.Contains(man3.Segments, s) {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("post-reopen checkpoint reused no segments (%v vs %v)", man3.Segments, man4.Segments)
	}
}

// TestDurableTornTail: garbage appended to the newest WAL file (the
// torn write of a crash) is truncated away on reopen; the durable
// prefix survives.
func TestDurableTornTail(t *testing.T) {
	fs := wal.NewMemFS()
	dc := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: -1}, durTestOpts(Amortized, 0)...)
	if err := dc.InsertBatch([]Document{
		{ID: 1, Data: []byte("durable one")},
		{ID: 2, Data: []byte("durable two")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: half a record of garbage.
	name := ""
	for p := range fs.Snapshot() {
		if filepath.Dir(p) == "dur" && len(filepath.Base(p)) == 20 && filepath.Base(p)[:4] == "wal-" {
			name = p
		}
	}
	if name == "" {
		t.Fatal("no WAL file found")
	}
	data, _ := fs.ReadFile(name)
	fs.SetFile(name, append(data, 0xde, 0xad, 0xbe, 0xef, 0x01))

	re := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: -1})
	rec := re.RecoveryStats()
	if !rec.TornTailTruncated {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	if !re.Has(1) || !re.Has(2) || re.DocCount() != 2 {
		t.Fatalf("durable prefix lost: DocCount=%d", re.DocCount())
	}
	// The truncated log accepts new appends and they survive.
	if err := re.Insert(Document{ID: 3, Data: []byte("after the tear")}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: -1})
	if re2.DocCount() != 3 || !re2.Has(3) {
		t.Fatalf("post-tear insert lost: DocCount=%d", re2.DocCount())
	}
}

// TestDurableAutoCheckpoint: with a tiny threshold, mutations trigger
// checkpoints on their own.
func TestDurableAutoCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	dc := mustOpenDurColl(t, fs, "dur", WALOptions{CheckpointEvery: 256}, durTestOpts(Amortized, 0)...)
	for i := uint64(1); i <= 30; i++ {
		if err := dc.Insert(Document{ID: i, Data: []byte(fmt.Sprintf("auto checkpoint fodder %d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	man, ok, err := wal.ReadManifest(fs, "dur")
	if err != nil || !ok {
		t.Fatalf("no manifest after auto-checkpointing: ok=%v err=%v", ok, err)
	}
	if man.Checkpoint == "" {
		t.Fatal("manifest has no checkpoint")
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpenDurColl(t, fs, "dur", WALOptions{})
	if !re.RecoveryStats().CheckpointLoaded {
		t.Fatalf("stats = %+v", re.RecoveryStats())
	}
	if re.DocCount() != 30 {
		t.Fatalf("DocCount = %d, want 30", re.DocCount())
	}
}

// TestDurableClosedErrors: mutations on a closed structure fail with
// ErrClosed; reads keep working.
func TestDurableClosedErrors(t *testing.T) {
	fs := wal.NewMemFS()
	dc := mustOpenDurColl(t, fs, "dur", WALOptions{}, durTestOpts(Amortized, 0)...)
	if err := dc.Insert(Document{ID: 1, Data: []byte("here to stay")}); err != nil {
		t.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dc.Insert(Document{ID: 2, Data: []byte("x")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close = %v, want ErrClosed", err)
	}
	if _, err := dc.DeleteBatch([]uint64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("DeleteBatch after Close = %v, want ErrClosed", err)
	}
	if err := dc.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}
	if !dc.Has(1) || dc.Count([]byte("stay")) != 1 {
		t.Error("reads broken after Close")
	}
}

// TestDurableFacadeErrors: the durable mutators keep the facade's
// error contract.
func TestDurableFacadeErrors(t *testing.T) {
	fs := wal.NewMemFS()
	dc := mustOpenDurColl(t, fs, "dur", WALOptions{}, durTestOpts(Amortized, 0)...)
	if err := dc.Insert(Document{ID: 1, Data: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	if err := dc.Insert(Document{ID: 1, Data: []byte("dup")}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate Insert = %v, want ErrDuplicateID", err)
	}
	if err := dc.Delete(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(absent) = %v, want ErrNotFound", err)
	}
	if n, err := dc.DeleteBatch([]uint64{99}); n != 0 || err != nil {
		t.Fatalf("DeleteBatch(absent) = (%d, %v), want (0, nil)", n, err)
	}
	// Failed and empty mutations must not log anything: a reopen sees
	// exactly one document.
	if err := dc.InsertBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpenDurColl(t, fs, "dur", WALOptions{})
	if re.RecoveryStats().WALRecords != 1 {
		t.Fatalf("replayed %d records, want 1 (failed ops must not be logged)", re.RecoveryStats().WALRecords)
	}
}

// TestDurableOnDisk exercises the real-filesystem path end to end once.
func TestDurableOnDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dur")
	dc, err := OpenDurableCollection(dir, WALOptions{}, durTestOpts(Amortized, 2)...)
	if err != nil {
		t.Fatalf("OpenDurableCollection: %v", err)
	}
	if err := dc.InsertBatch([]Document{
		{ID: 1, Data: []byte("on real disk")},
		{ID: 2, Data: []byte("also on disk")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := dc.Insert(Document{ID: 3, Data: []byte("in the tail")}); err != nil {
		t.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableCollection(dir, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.DocCount() != 3 || !re.RecoveryStats().CheckpointLoaded {
		t.Fatalf("DocCount=%d stats=%+v", re.DocCount(), re.RecoveryStats())
	}
	if re.Count([]byte("disk")) != 2 {
		t.Fatalf("Count(disk) = %d", re.Count([]byte("disk")))
	}
}

// BenchmarkRecovery measures OpenDurableCollection against a corpus
// persisted as checkpoint + short WAL tail vs. as a pure WAL.
func BenchmarkRecovery(b *testing.B) {
	build := func(b *testing.B, checkpoint bool) (*wal.MemFS, int64) {
		fs := wal.NewMemFS()
		dc, err := OpenDurableCollection("dur", WALOptions{FS: fs, CheckpointEvery: -1}, WithMinCapacity(64))
		if err != nil {
			b.Fatal(err)
		}
		var docs []Document
		for i := uint64(1); i <= 500; i++ {
			docs = append(docs, Document{ID: i, Data: []byte(fmt.Sprintf("benchmark corpus document number %d with some text", i))})
		}
		for off := 0; off < len(docs); off += 50 {
			if err := dc.InsertBatch(docs[off : off+50]); err != nil {
				b.Fatal(err)
			}
		}
		if checkpoint {
			if err := dc.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			if err := dc.Insert(Document{ID: 1000, Data: []byte("tail entry")}); err != nil {
				b.Fatal(err)
			}
		}
		if err := dc.Close(); err != nil {
			b.Fatal(err)
		}
		var bytes int64
		for _, data := range fs.Snapshot() {
			bytes += int64(len(data))
		}
		return fs, bytes
	}
	for _, mode := range []string{"wal-only", "checkpoint+tail"} {
		b.Run(mode, func(b *testing.B) {
			fs, size := build(b, mode == "checkpoint+tail")
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dc, err := OpenDurableCollection("dur", WALOptions{FS: fs, CheckpointEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				dc.Close()
				b.StartTimer()
			}
		})
	}
}
