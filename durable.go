package dyncoll

import (
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"time"

	"dyncoll/internal/fanout"
	"dyncoll/internal/snap"
	"dyncoll/internal/wal"
)

// Durable structures: the same Collection/Relation/Graph facades with
// a write-ahead log and incremental checkpoints underneath, so a
// process killed at any instant — kill -9, power loss — reopens to
// exactly the operations it acknowledged. Every mutation is applied
// in memory, appended to the WAL, and acknowledged only after an fsync
// covers its record; group commit batches the fsyncs of concurrent
// writers. Checkpoints bound recovery time: reopening replays the
// newest checkpoint plus only the WAL tail written after it.
//
// The concurrency contract matches the underlying structure: durable
// wrappers built WithShards(p) are safe for concurrent readers and
// writers (mutations additionally serialize on the WAL, which is what
// makes "log order = apply order" hold); unsharded wrappers allow
// concurrent mutators but reads must not race them, exactly as for the
// plain facades.

// ErrClosed reports an operation on a closed durable structure.
var ErrClosed = errors.New("dyncoll: durable structure closed")

// defaultCheckpointEvery is the WAL-tail size that triggers an
// automatic incremental checkpoint when WALOptions.CheckpointEvery is
// zero.
const defaultCheckpointEvery = 64 << 20

// WALOptions configures durability for the OpenDurable constructors.
// The zero value is ready to use: per-commit fsync, automatic
// checkpoints every 64 MiB of WAL, the real filesystem.
type WALOptions struct {
	// SyncWindow is the group-commit batching window: an acknowledgment
	// may be delayed up to this long so concurrent writers share one
	// fsync. Zero syncs as soon as possible — still batching whatever
	// accumulated while the previous fsync was in flight.
	SyncWindow time.Duration
	// CheckpointEvery is the WAL-tail byte size that triggers an
	// automatic incremental checkpoint after a mutation. Zero means the
	// 64 MiB default; a negative value disables automatic checkpoints
	// (call Checkpoint explicitly).
	CheckpointEvery int64
	// FS overrides the filesystem — the fault-injection and fuzzing
	// seam. Nil means the real filesystem.
	FS wal.FS
}

// RecoveryStats describes what the last OpenDurable call did.
type RecoveryStats struct {
	// CheckpointLoaded reports that a checkpoint was restored (false
	// means the structure was rebuilt from the WAL alone).
	CheckpointLoaded bool
	// WALFiles and WALRecords count the WAL tail replayed on top.
	WALFiles   int
	WALRecords int
	// WALBytes is the replayed tail's size.
	WALBytes int64
	// TornTailTruncated reports that the newest WAL file ended in a
	// partially-written record (the signature of a crash mid-append)
	// that was truncated away.
	TornTailTruncated bool
	// Duration is the total open time: checkpoint restore plus replay.
	Duration time.Duration
}

// durable is the kind-independent durability core shared by the three
// facades: the WAL, the current checkpoint's segment directory, and
// the mutation mutex that makes log order equal apply order.
type durable struct {
	fs      wal.FS
	dir     string
	log     *wal.Log
	ckEvery int64

	// mu serializes mutations (apply + append) and checkpoints. It is
	// NOT held while waiting for the fsync — that is what lets
	// concurrent writers group-commit.
	mu     sync.Mutex
	closed bool
	ckSeq  uint64
	segs   []map[uint64]segMeta // per shard: gen → current checkpoint segment
	rec    RecoveryStats

	s structure // what is being made durable: config, shard cores, replay
}

// recoveredCkpt is a checkpoint loaded and verified from disk.
type recoveredCkpt struct {
	cfg    config
	seq    uint64
	spines [][]byte
	secs   [][]snap.Section
	metas  [][]segMeta
}

// openRecoveryPoint reads the manifest and, if it names a checkpoint,
// loads and CRC-verifies the spine and every segment. A nil
// recoveredCkpt with nil error means "no checkpoint" (fresh directory
// or WAL-only); corruption anywhere fails with ErrBadSnapshot.
func openRecoveryPoint(fs wal.FS, dir string, kind structKind) (wal.Manifest, *recoveredCkpt, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return wal.Manifest{}, nil, err
	}
	man, ok, err := wal.ReadManifest(fs, dir)
	if err != nil || !ok || man.Checkpoint == "" {
		return man, nil, err
	}
	data, err := fs.ReadFile(filepath.Join(dir, man.Checkpoint))
	if err != nil {
		return man, nil, snap.Corruptf("checkpoint spine %s: %v", man.Checkpoint, err)
	}
	if crc32.Checksum(data, ckptCRC) != man.CheckpointCRC {
		return man, nil, snap.Corruptf("checkpoint spine %s: checksum mismatch", man.Checkpoint)
	}
	cfg, seq, spines, metas, err := decodeCkptSpine(data, kind)
	if err != nil {
		return man, nil, err
	}
	ck := &recoveredCkpt{cfg: cfg, seq: seq, spines: spines, metas: metas}
	ck.secs = make([][]snap.Section, len(metas))
	for i, ss := range metas {
		for _, m := range ss {
			b, err := readSegment(fs, dir, m)
			if err != nil {
				return man, nil, err
			}
			ck.secs[i] = append(ck.secs[i], snap.Section{Level: m.level, Gen: m.gen, Dead: m.dead, Bytes: b})
		}
	}
	return man, ck, nil
}

// openDurable makes the empty structure s durable in dir: the newest
// checkpoint is restored into it (or, with none, it is built from
// opts), the WAL tail replayed, and the WAL reopened for appending.
func openDurable(s structure, dir string, wopts WALOptions, opts []Option) (d *durable, err error) {
	defer guard(&err)
	start := time.Now()
	fsi := wopts.FS
	if fsi == nil {
		fsi = wal.OS
	}
	kind := s.config().kind
	man, ck, err := openRecoveryPoint(fsi, dir, kind)
	if err != nil {
		return nil, err
	}
	var cfg config
	if ck != nil {
		cfg = ck.cfg
	} else if cfg, err = newConfig(kind, opts); err != nil {
		return nil, err
	}
	f, commit, err := s.fresh(cfg)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		if err := restore(f, func(i int, c ladderCore) error {
			return c.RestoreSections(ck.spines[i], ck.secs[i])
		}); err != nil {
			return nil, err
		}
	}
	commit()
	st, err := wal.Replay(fsi, dir, man.WALStart, s.applyRecord)
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	log, err := wal.Open(dir, man.WALStart, wal.Options{SyncWindow: wopts.SyncWindow, FS: fsi})
	if err != nil {
		return nil, err
	}
	ckEvery := wopts.CheckpointEvery
	switch {
	case ckEvery == 0:
		ckEvery = defaultCheckpointEvery
	case ckEvery < 0:
		ckEvery = 0
	}
	d = &durable{fs: fsi, dir: dir, log: log, ckEvery: ckEvery, ckSeq: 1, s: s}
	if ck != nil {
		d.ckSeq = ck.seq + 1
		d.segs = segMaps(ck.metas)
	}
	d.rec = RecoveryStats{
		CheckpointLoaded:  ck != nil,
		WALFiles:          st.Files,
		WALRecords:        st.Records,
		WALBytes:          st.Bytes,
		TornTailTruncated: st.TornTail,
		Duration:          dur,
	}
	d.gcLocked(man)
	return d, nil
}

// mutate runs one mutation under the mutation mutex. apply performs it
// in memory and returns the WAL record that logs it — nil when there is
// nothing to log — or the error that refused it; only after mutate
// returns nil may the mutation be acknowledged.
func (d *durable) mutate(apply func() ([]byte, error)) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	rec, err := apply()
	if err != nil || rec == nil {
		d.mu.Unlock()
		return err
	}
	return d.commitUnlock(rec)
}

// commitUnlock appends the already-applied mutation's record, releases
// the mutation mutex, waits for durability and runs the
// auto-checkpoint check. The caller holds d.mu; only after this
// returns nil may the mutation be acknowledged.
func (d *durable) commitUnlock(payload []byte) error {
	lsn, err := d.log.Append(payload)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if err := d.log.Commit(lsn); err != nil {
		return err
	}
	return d.maybeCheckpoint()
}

// maybeCheckpoint runs an incremental checkpoint when the WAL tail has
// outgrown the configured threshold.
func (d *durable) maybeCheckpoint() error {
	if d.ckEvery <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.log.Size() < d.ckEvery {
		return nil
	}
	return d.checkpointLocked()
}

func (d *durable) checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

func (d *durable) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}

// segReuse is dumpAll's reuse predicate: a section is reusable when the current checkpoint already holds a
// segment for the same store (generation) at the same slot with the
// same dead weight.
func (d *durable) segReuse(shard, level int, gen uint64, dead int) bool {
	if gen == 0 || shard >= len(d.segs) || d.segs[shard] == nil {
		return false
	}
	m, ok := d.segs[shard][gen]
	return ok && m.level == level && m.dead == dead
}

// dumpAll captures every shard in sectioned form, skipping the stores
// segReuse says are already on disk. The shard read locks make it one
// consistent cut (mutations are already excluded by d.mu; the locks
// shut out misuse that bypasses the durable facade).
func (d *durable) dumpAll() ([][]byte, [][]snap.Section) {
	f := d.s.front()
	f.rlock()
	defer f.runlock()
	spines := make([][]byte, len(f.cores))
	secs := make([][]snap.Section, len(f.cores))
	fanout.ForEach(len(f.cores), func(i int) {
		spines[i], secs[i] = f.cores[i].DumpSections(func(level int, gen uint64, dead int) bool {
			return d.segReuse(i, level, gen, dead)
		})
	})
	return spines, secs
}

// --- DurableCollection ---

// DurableCollection is a Collection whose mutations survive kill -9.
// Reads and stats come from the embedded Collection; mutations go
// through the WAL. See the package section above for the concurrency
// contract.
type DurableCollection struct {
	*Collection
	d *durable
}

// OpenDurableCollection opens (or creates) the durable collection
// stored in dir: the newest checkpoint is restored, the WAL tail
// replayed — truncating a torn final record — and the WAL reopened for
// appending. On first open the options configure the new collection;
// on reopen the stored configuration wins, exactly like LoadFile.
// Corrupt files fail with ErrBadSnapshot and never panic.
func OpenDurableCollection(dir string, wopts WALOptions, opts ...Option) (dc *DurableCollection, err error) {
	dc = &DurableCollection{Collection: &Collection{cfg: config{kind: kindCollection}}}
	if dc.d, err = openDurable(dc.Collection, dir, wopts, opts); err != nil {
		return nil, err
	}
	return dc, nil
}

// Insert adds a document durably; it is acknowledged only after its
// WAL record is fsynced.
func (c *DurableCollection) Insert(d Document) error {
	return c.InsertBatch([]Document{d})
}

// InsertBatch adds many documents in one atomic, durable ingest: the
// batch travels as one WAL record, so after any crash it is either
// fully present or fully absent.
func (c *DurableCollection) InsertBatch(docs []Document) error {
	return c.d.mutate(func() ([]byte, error) {
		if err := c.Collection.InsertBatch(docs); err != nil || len(docs) == 0 {
			return nil, err
		}
		return encodeInsertBatch(docs), nil
	})
}

// Delete removes a document durably. It fails with ErrNotFound if no
// such document is live.
func (c *DurableCollection) Delete(id uint64) error {
	n, err := c.DeleteBatch([]uint64{id})
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("dyncoll: delete id %d: %w", id, ErrNotFound)
	}
	return nil
}

// DeleteBatch removes every listed live document durably and returns
// the number removed. Unlike the plain facade it can also fail: a
// non-nil error means durability was not established (though the
// in-memory deletion did happen and will be re-lost on reopen).
func (c *DurableCollection) DeleteBatch(ids []uint64) (int, error) {
	n := 0
	err := c.d.mutate(func() ([]byte, error) {
		if n = c.Collection.DeleteBatch(ids); n == 0 {
			return nil, nil
		}
		return encodeDeleteBatch(ids), nil
	})
	return n, err
}

// Checkpoint forces an incremental checkpoint: only levels rebuilt (or
// further deleted-from) since the previous checkpoint are written; the
// WAL is rotated so recovery replays just the tail from here on.
func (c *DurableCollection) Checkpoint() error { return c.d.checkpoint() }

// RecoveryStats reports what the OpenDurableCollection call that
// produced this collection did.
func (c *DurableCollection) RecoveryStats() RecoveryStats { return c.d.rec }

// Close flushes and closes the WAL. The collection remains readable;
// further mutations fail with ErrClosed.
func (c *DurableCollection) Close() error { return c.d.close() }

// --- DurableRelation ---

// DurableRelation is a Relation whose mutations survive kill -9; see
// DurableCollection.
type DurableRelation struct {
	*Relation
	d *durable
}

// OpenDurableRelation opens (or creates) the durable relation stored
// in dir; see OpenDurableCollection for semantics.
func OpenDurableRelation(dir string, wopts WALOptions, opts ...Option) (dr *DurableRelation, err error) {
	dr = &DurableRelation{Relation: &Relation{cfg: config{kind: kindRelation}}}
	if dr.d, err = openDurable(dr.Relation, dir, wopts, opts); err != nil {
		return nil, err
	}
	return dr, nil
}

// Add inserts the pair (object, label) durably. It fails with
// ErrDuplicatePair if the pair is already related.
func (r *DurableRelation) Add(object, label uint64) error {
	return r.d.mutate(func() ([]byte, error) {
		return encodePairOp(opRelAdd, object, label), r.Relation.Add(object, label)
	})
}

// Delete removes the pair (object, label) durably. It fails with
// ErrNotFound if the pair is not related.
func (r *DurableRelation) Delete(object, label uint64) error {
	return r.d.mutate(func() ([]byte, error) {
		return encodePairOp(opRelDelete, object, label), r.Relation.Delete(object, label)
	})
}

// Checkpoint forces an incremental checkpoint; see
// DurableCollection.Checkpoint.
func (r *DurableRelation) Checkpoint() error { return r.d.checkpoint() }

// RecoveryStats reports what the open that produced this relation did.
func (r *DurableRelation) RecoveryStats() RecoveryStats { return r.d.rec }

// Close flushes and closes the WAL; further mutations fail ErrClosed.
func (r *DurableRelation) Close() error { return r.d.close() }

// --- DurableGraph ---

// DurableGraph is a Graph whose mutations survive kill -9; see
// DurableCollection.
type DurableGraph struct {
	*Graph
	d *durable
}

// OpenDurableGraph opens (or creates) the durable graph stored in dir;
// see OpenDurableCollection for semantics.
func OpenDurableGraph(dir string, wopts WALOptions, opts ...Option) (dg *DurableGraph, err error) {
	dg = &DurableGraph{Graph: &Graph{r: Relation{cfg: config{kind: kindGraph}}}}
	if dg.d, err = openDurable(&dg.r, dir, wopts, opts); err != nil {
		return nil, err
	}
	return dg, nil
}

// AddEdge inserts the edge u→v durably. It fails with ErrDuplicateEdge
// if the edge already exists.
func (g *DurableGraph) AddEdge(u, v uint64) error {
	return g.d.mutate(func() ([]byte, error) {
		return encodePairOp(opGraphAdd, u, v), g.Graph.AddEdge(u, v)
	})
}

// DeleteEdge removes the edge u→v durably. It fails with ErrNotFound
// if the edge does not exist.
func (g *DurableGraph) DeleteEdge(u, v uint64) error {
	return g.d.mutate(func() ([]byte, error) {
		return encodePairOp(opGraphDelete, u, v), g.Graph.DeleteEdge(u, v)
	})
}

// Checkpoint forces an incremental checkpoint; see
// DurableCollection.Checkpoint.
func (g *DurableGraph) Checkpoint() error { return g.d.checkpoint() }

// RecoveryStats reports what the open that produced this graph did.
func (g *DurableGraph) RecoveryStats() RecoveryStats { return g.d.rec }

// Close flushes and closes the WAL; further mutations fail ErrClosed.
func (g *DurableGraph) Close() error { return g.d.close() }
