package dyncoll

import (
	"io"
	"math"
	"os"
	"path/filepath"

	"dyncoll/internal/fanout"
	"dyncoll/internal/mmap"
	"dyncoll/internal/snap"
	"dyncoll/internal/wal"
)

// Snapshot persistence: Save writes a structure's complete state —
// configuration header plus every shard's sub-collection ladder — as a
// versioned binary snapshot, and Load replaces an existing structure
// with a snapshot's contents. The paper's structures are rebuilt from
// raw text in O(n·u(n)) time; snapshots exist so a restarted process
// (or a replica seeded from object storage) skips that cost entirely.
//
// Layout (version 1):
//
//	magic "dsnp" | version | kind
//	transformation, τ, ε, min-capacity, sync-rebuilds, shard count
//	index name, sample rate, counting     (collections only)
//	one length-prefixed ladder blob per shard
//
// Each ladder blob holds the engine's schedule anchors, C0's raw items,
// and every static store tagged with its ladder slot. Collection levels
// whose index implements the AppendBinary contract and has a registered
// decoder (the built-in fmp, fmz, fm4, fm, sa and csa indexes do) are
// embedded in binary form with their lazy-deletion state, so Load skips
// the O(n·u(n)) rebuild; all other stores travel as raw items and are
// rebuilt through the registered IndexBuilder — which is how custom
// registry indexes round-trip by name.
//
// Load validates the header against the index registry before touching
// anything: an unregistered index name fails with ErrUnknownIndex, and
// corrupt or truncated bytes fail with ErrBadSnapshot — never a panic.
// On error the receiver is left exactly as it was.
//
// Sharded structures encode and decode their shards in parallel. Save
// on a sharded structure holds every shard's read lock for the duration
// of the encode, so the snapshot is one consistent cut — concurrent
// readers proceed, writers wait. Unsharded structures follow their
// usual rule: callers must not write concurrently with Save.

// maxSnapshotShards bounds the shard count accepted from a snapshot
// header, so corrupt input cannot demand a billion shard structures.
const maxSnapshotShards = 4096

// ladderCore is what persistence needs of one unsharded core: the
// engine's format walkers bound to the core's ladder and payload codec
// (engine.Persister, which both payloads instantiate).
type ladderCore interface {
	DumpStream() []byte
	RestoreStream(dec *snap.Decoder) error
	DumpSections(reuse func(level int, gen uint64, dead int) bool) ([]byte, []snap.Section)
	RestoreSections(spine []byte, secs []snap.Section) error
	DumpMapped() ([]byte, []snap.MappedStore)
	RestoreMapped(spine []byte, stores []snap.MappedStore, retain snap.RetainFunc) error
}

// front is a structure's persistence view: the union of its cores (see
// shard.go), each bound to its payload codec, under the structure's own
// locks. Every format is written and read once, over a front; nothing
// below this type knows which structure, or how many shards, it is
// handling.
type front = union[ladderCore]

// restore runs fn over every core of f in parallel and returns the
// first error, converting a panic in any of them into ErrBadSnapshot
// (see guard; a goroutine's panic cannot be recovered by its caller).
func restore(f front, fn func(i int, c ladderCore) error) error {
	errs := make([]error, len(f.cores))
	fanout.ForEach(len(f.cores), func(i int) {
		defer guard(&errs[i])
		errs[i] = fn(i, f.cores[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// structure is a facade as the persistence paths see it; Collection
// and Relation implement it, and a Graph persists as the Relation it
// wraps.
type structure interface {
	// config is the resolved construction config, recorded in headers;
	// its kind is the only kind the structure will read back.
	config() config
	// front is the persistence view of the current contents.
	front() front
	// fresh builds an empty implementation for cfg and returns its
	// front together with the commit that installs it in the receiver,
	// which stays exactly as it was until commit runs.
	fresh(cfg config) (f front, commit func(), err error)
	// applyRecord replays one WAL record (walop.go).
	applyRecord(payload []byte) error
}

// encodeHeader writes the config header for kind.
func encodeHeader(e *snap.Encoder, cfg config) {
	e.Raw(snap.Magic[:])
	e.Byte(snap.Version)
	switch cfg.kind {
	case kindRelation:
		e.Byte(snap.KindRelation)
	case kindGraph:
		e.Byte(snap.KindGraph)
	default:
		e.Byte(snap.KindCollection)
	}
	e.Byte(byte(cfg.transformation))
	e.Uvarint(uint64(cfg.tau))
	e.Uvarint(math.Float64bits(cfg.epsilon))
	e.Uvarint(uint64(cfg.minCapacity))
	e.Bool(cfg.syncRebuilds)
	e.Uvarint(uint64(cfg.shards))
	if cfg.kind == kindCollection {
		e.String(cfg.index)
		e.Uvarint(uint64(cfg.sampleRate))
		e.Bool(cfg.counting)
	}
}

// decodeHeader reads and validates the config header, requiring the
// given kind.
func decodeHeader(dec *snap.Decoder, kind structKind) (config, error) {
	var zero config
	magic := dec.Raw(4)
	if err := dec.Err(); err != nil {
		return zero, err
	}
	if string(magic) != string(snap.Magic[:]) {
		return zero, snap.Corruptf("magic %q", magic)
	}
	if v := dec.Byte(); v != snap.Version {
		return zero, snap.Corruptf("unsupported snapshot version %d", v)
	}
	wantKind := map[structKind]byte{
		kindCollection: snap.KindCollection,
		kindRelation:   snap.KindRelation,
		kindGraph:      snap.KindGraph,
	}[kind]
	if k := dec.Byte(); k != wantKind {
		return zero, snap.Corruptf("snapshot kind %d, want %d (%v)", k, wantKind, kind)
	}
	cfg := config{kind: kind}
	cfg.transformation = Transformation(dec.Byte())
	cfg.tau = dec.Int()
	cfg.epsilon = math.Float64frombits(dec.Uvarint())
	cfg.minCapacity = dec.Int()
	cfg.syncRebuilds = dec.Bool()
	cfg.shards = dec.Int()
	if kind == kindCollection {
		cfg.index = dec.String()
		cfg.sampleRate = dec.Int()
		cfg.counting = dec.Bool()
	}
	if err := dec.Err(); err != nil {
		return zero, err
	}
	switch cfg.transformation {
	case WorstCase, Amortized:
	case AmortizedFastInsert:
		if kind != kindCollection {
			return zero, snap.Corruptf("transformation %d on a %v", cfg.transformation, kind)
		}
	default:
		return zero, snap.Corruptf("unknown transformation %d", cfg.transformation)
	}
	if !(cfg.epsilon == 0 || (cfg.epsilon > 0 && cfg.epsilon <= 1)) {
		return zero, snap.Corruptf("epsilon %v outside (0,1]", cfg.epsilon)
	}
	if cfg.shards < 0 || cfg.shards > maxSnapshotShards {
		return zero, snap.Corruptf("shard count %d", cfg.shards)
	}
	return cfg, nil
}

// shardBlobs reads the per-shard ladder sections, requiring exactly
// want of them and no trailing bytes.
func shardBlobs(dec *snap.Decoder, want int) ([][]byte, error) {
	n := dec.Count(1)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if n != want {
		return nil, snap.Corruptf("%d shard sections for %d shards", n, want)
	}
	blobs := make([][]byte, n)
	for i := range blobs {
		blobs[i] = dec.Blob()
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if dec.Remaining() != 0 {
		return nil, snap.Corruptf("%d trailing bytes", dec.Remaining())
	}
	return blobs, nil
}

// guard converts a decode-path panic into ErrBadSnapshot. Load's
// decoders validate everything they read, but persistence is a trust
// boundary: a crafted input that slips past validation must surface as
// an error, not take the process down.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = snap.Corruptf("decode panic: %v", r)
	}
}

// atomicWriteFile writes data via a temp file in the target directory
// plus rename, so the destination path always holds either the old
// bytes or the complete new bytes. After the rename the containing
// directory is fsynced: the rename updates a directory entry, and
// without the directory sync a crash right after a "successful" save
// could lose the entry even though the file's own blocks were synced —
// the snapshot would simply not exist on reboot. A filesystem that cannot
// fsync a directory handle degrades to the pre-sync behaviour rather
// than failing the save (wal.OS.SyncDir).
func atomicWriteFile(path string, save func(w io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	// CreateTemp makes the file 0600 and rename preserves that, which
	// would surprise consumers of the documented ship-a-prebuilt-index
	// flow (backup agents, other users); give snapshots the same mode a
	// plain write would.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return wal.OS.SyncDir(dir)
}

func loadFile(path string, load func(r io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Loads consume the snapshot front to back in one pass; telling the
	// kernel so (POSIX_FADV_SEQUENTIAL, a no-op off Linux) doubles its
	// readahead window on the cold-cache path.
	mmap.ReadAhead(f)
	return load(f)
}

// saveSnapshot writes s as a v1 snapshot: the config header, then one
// length-prefixed ladder stream per shard, in one Write.
func saveSnapshot(s structure, w io.Writer) error {
	f := s.front()
	f.rlock()
	defer f.runlock()
	blobs := make([][]byte, len(f.cores))
	fanout.ForEach(len(blobs), func(i int) { blobs[i] = f.cores[i].DumpStream() })
	e := &snap.Encoder{}
	encodeHeader(e, s.config())
	e.Uvarint(uint64(len(blobs)))
	for _, b := range blobs {
		e.Blob(b)
	}
	_, err := w.Write(e.Bytes())
	return err
}

// loadSnapshot replaces s with the v1 snapshot read from r; s is left
// exactly as it was on any error.
func loadSnapshot(s structure, r io.Reader) (err error) {
	defer guard(&err)
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	dec := snap.NewDecoder(data)
	cfg, err := decodeHeader(dec, s.config().kind)
	if err != nil {
		return err
	}
	f, commit, err := s.fresh(cfg)
	if err != nil {
		return err
	}
	blobs, err := shardBlobs(dec, len(f.cores))
	if err != nil {
		return err
	}
	if err := restore(f, func(i int, c ladderCore) error {
		return c.RestoreStream(snap.NewDecoder(blobs[i]))
	}); err != nil {
		return err
	}
	commit()
	return nil
}

// --- Collection ---

// Save writes the collection as a versioned binary snapshot. Background
// rebuilds are quiesced first, so the snapshot is complete and
// self-contained. On a sharded collection every shard's read lock is
// held for the duration, making the snapshot one consistent cut; on an
// unsharded collection the caller must not write concurrently.
func (c *Collection) Save(w io.Writer) error { return saveSnapshot(c, w) }

// Load replaces the collection's configuration and contents with a
// snapshot written by Save. The header is validated against the index
// registry before anything is built: an unregistered index name fails
// with ErrUnknownIndex, corrupt bytes with ErrBadSnapshot, and on any
// error the receiver is unchanged. Load is not safe to call
// concurrently with other operations on the same receiver.
func (c *Collection) Load(r io.Reader) (err error) { return loadSnapshot(c, r) }

// SaveFile writes the collection snapshot to path atomically: the bytes
// land in a temp file in the same directory which is then renamed over
// path, so a crash mid-write never leaves a truncated snapshot behind.
func (c *Collection) SaveFile(path string) error {
	return atomicWriteFile(path, c.Save)
}

// LoadFile replaces the collection with the snapshot stored at path.
func (c *Collection) LoadFile(path string) error {
	return loadFile(path, c.Load)
}

// --- Relation ---

// Save writes the relation as a versioned binary snapshot; see
// Collection.Save for quiescing and locking behaviour.
func (r *Relation) Save(w io.Writer) error { return saveSnapshot(r, w) }

// Load replaces the relation's configuration and contents with a
// snapshot written by Save; see Collection.Load for the error contract.
func (r *Relation) Load(rd io.Reader) (err error) { return loadSnapshot(r, rd) }

// SaveFile writes the relation snapshot to path atomically (temp file +
// rename).
func (r *Relation) SaveFile(path string) error {
	return atomicWriteFile(path, r.Save)
}

// LoadFile replaces the relation with the snapshot stored at path.
func (r *Relation) LoadFile(path string) error {
	return loadFile(path, r.Load)
}

// --- Graph ---

// Save writes the graph as a versioned binary snapshot; see
// Collection.Save for quiescing and locking behaviour.
func (g *Graph) Save(w io.Writer) error { return g.r.Save(w) }

// Load replaces the graph's configuration and contents with a snapshot
// written by Save; see Collection.Load for the error contract.
func (g *Graph) Load(r io.Reader) (err error) { return g.r.Load(r) }

// SaveFile writes the graph snapshot to path atomically (temp file +
// rename).
func (g *Graph) SaveFile(path string) error { return g.r.SaveFile(path) }

// LoadFile replaces the graph with the snapshot stored at path.
func (g *Graph) LoadFile(path string) error { return g.r.LoadFile(path) }
