package dyncoll

// The v2 ("mapped") snapshot facade. A v1 snapshot is one varint
// stream that Load decodes element by element into freshly allocated
// heap, so opening costs O(corpus) time and O(corpus) resident memory
// before the first query. A v2 snapshot is a sectioned container
// (internal/snap.V2Writer): every static store's heavy payload —
// wavelet levels, rank/select directories, sample arrays, suffix
// tables — is a page-aligned section laid out in the fixed-width
// MapView format, and LoadMappedFile mmaps the file and serves queries
// directly from the mapping. Open work is the section directory, the
// spines, and O(σ + n/512) structural validation per store; the
// corpus-sized arrays are never touched until a query faults their
// pages in, so cold open is effectively corpus-size independent and a
// collection larger than RAM is servable.
//
// Mutations stay fully supported after a mapped open: C0 and every
// rebuild live in ordinary heap, and when a rebuild supersedes a
// mapped store the garbage collector's finalizer on that store tells
// the mapping to release its pages (madvise DONTNEED), so a mapped
// structure that is written to gradually migrates off the file.

import (
	"io"
	"os"
	"runtime"
	"sync"

	"dyncoll/internal/fanout"
	"dyncoll/internal/mmap"
	"dyncoll/internal/snap"
)

// MappedOption configures a mapped open.
type MappedOption func(*mappedOpenConfig)

type mappedOpenConfig struct {
	verify bool
}

// MappedVerify makes the open CRC-check every payload section before
// serving from it. The default open verifies only the directory and
// metadata sections (O(1) in the corpus) and trusts payload bytes
// after structural validation; with MappedVerify the open reads the
// whole file once — O(corpus) time, though still no decoded heap copy.
func MappedVerify() MappedOption {
	return func(c *mappedOpenConfig) { c.verify = true }
}

// mappedFile owns one mmapped snapshot and the residency accounting
// over it. Each store opened in place retains its payload range; a
// finalizer on the store releases the range when the engine drops the
// store (superseded by a rebuild, or the whole structure reloaded), at
// which point the pages are madvised away. live is the sum of retained
// payload bytes — what Stats reports as MappedBytes.
type mappedFile struct {
	mu     sync.Mutex
	m      *mmap.Mapping
	live   int64
	closed bool
}

// retain is the file's snap.RetainFunc. The finalizer closure
// deliberately captures only the payload slice and the file — capturing
// the store would keep it reachable forever.
func (f *mappedFile) retain(payload []byte, store any) {
	if len(payload) == 0 || store == nil {
		return
	}
	f.mu.Lock()
	f.live += int64(len(payload))
	f.mu.Unlock()
	runtime.SetFinalizer(store, func(any) { f.release(payload) })
}

func (f *mappedFile) release(p []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live -= int64(len(p))
	if !f.closed && f.m != nil {
		f.m.DontNeed(p)
	}
}

func (f *mappedFile) mappedBytes() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.live
}

func (f *mappedFile) close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	runtime.SetFinalizer(f, nil)
	if f.m == nil {
		return nil
	}
	return f.m.Close()
}

// openMappedFile maps path and hands ownership to load; the mapping is
// torn down on any load error. The descriptor itself can be closed
// immediately — a mapping outlives its file.
func openMappedFile(path string, load func(data []byte, mf *mappedFile) error) (*mappedFile, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := mmap.Open(file)
	file.Close()
	if err != nil {
		return nil, err
	}
	mf := &mappedFile{m: m}
	runtime.SetFinalizer(mf, func(f *mappedFile) { f.close() })
	if err := load(m.Data(), mf); err != nil {
		mf.close()
		return nil, err
	}
	return mf, nil
}

// mappedShardSecs is one shard's worth of v2 sections: the spine plus
// parallel meta/payload tables indexed by store ordinal (payloads has
// nil holes where a store was serialized as raw items).
type mappedShardSecs struct {
	spine    []byte
	metas    [][]byte
	payloads [][]byte
}

func (s *mappedShardSecs) check(shard int) error {
	if s.spine == nil {
		return snap.Corruptf("shard %d has no spine section", shard)
	}
	for k, m := range s.metas {
		if m == nil {
			return snap.Corruptf("shard %d missing store meta %d", shard, k)
		}
	}
	if len(s.payloads) > len(s.metas) {
		return snap.Corruptf("shard %d has payload sections beyond its %d stores", shard, len(s.metas))
	}
	return nil
}

func (s *mappedShardSecs) payloadAt(k int) []byte {
	if k < len(s.payloads) {
		return s.payloads[k]
	}
	return nil
}

func (s *mappedShardSecs) stores() []snap.MappedStore {
	out := make([]snap.MappedStore, len(s.metas))
	for k, m := range s.metas {
		out[k] = snap.MappedStore{Meta: m, Payload: s.payloadAt(k)}
	}
	return out
}

// setSection places b at index i of *dst, growing it with nil holes.
// limit (the total entry count) bounds indexes so a corrupt directory
// cannot force a huge allocation.
func setSection(dst *[][]byte, i int, b []byte, limit int, what string) error {
	if i >= limit {
		return snap.Corruptf("%s index %d out of range", what, i)
	}
	for len(*dst) <= i {
		*dst = append(*dst, nil)
	}
	if (*dst)[i] != nil {
		return snap.Corruptf("duplicate %s section %d", what, i)
	}
	(*dst)[i] = b
	return nil
}

// splitV2 walks the section directory into the header blob and the
// per-shard section groups. Shape errors (duplicates, out-of-range
// indexes, unknown kinds) fail here; per-shard completeness is checked
// by mappedShardSecs.check once the header says how many shards to
// expect.
func splitV2(f *snap.V2File) (header []byte, shards []mappedShardSecs, err error) {
	limit := len(f.Entries)
	grow := func(shard int) (*mappedShardSecs, error) {
		if shard >= limit {
			return nil, snap.Corruptf("section shard %d out of range", shard)
		}
		for len(shards) <= shard {
			shards = append(shards, mappedShardSecs{})
		}
		return &shards[shard], nil
	}
	for _, e := range f.Entries {
		body := f.Section(e)
		if body == nil { // zero-length sections still need a non-nil marker
			body = []byte{}
		}
		switch e.Kind {
		case snap.SecHeader:
			if e.Shard != 0 || e.Ordinal != 0 {
				return nil, nil, snap.Corruptf("header section at shard %d ordinal %d", e.Shard, e.Ordinal)
			}
			if header != nil {
				return nil, nil, snap.Corruptf("duplicate header section")
			}
			header = body
		case snap.SecSpine:
			s, err := grow(int(e.Shard))
			if err != nil {
				return nil, nil, err
			}
			if e.Ordinal != 0 {
				return nil, nil, snap.Corruptf("spine ordinal %d", e.Ordinal)
			}
			if s.spine != nil {
				return nil, nil, snap.Corruptf("duplicate spine for shard %d", e.Shard)
			}
			s.spine = body
		case snap.SecStoreMeta:
			s, err := grow(int(e.Shard))
			if err != nil {
				return nil, nil, err
			}
			if err := setSection(&s.metas, int(e.Ordinal), body, limit, "store meta"); err != nil {
				return nil, nil, err
			}
		case snap.SecStorePayload:
			s, err := grow(int(e.Shard))
			if err != nil {
				return nil, nil, err
			}
			if err := setSection(&s.payloads, int(e.Ordinal), body, limit, "store payload"); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, snap.Corruptf("unknown section kind %d", e.Kind)
		}
	}
	if header == nil {
		return nil, nil, snap.Corruptf("no header section")
	}
	return header, shards, nil
}

// openV2Snapshot is the shared front half of every mapped load: open
// the container, optionally CRC the payloads, decode and validate the
// header for kind, and group the sections per shard.
func openV2Snapshot(data []byte, kind structKind, oc mappedOpenConfig) (config, []mappedShardSecs, error) {
	var zero config
	v2, err := snap.OpenV2(data)
	if err != nil {
		return zero, nil, err
	}
	if oc.verify {
		if err := v2.VerifyPayloads(); err != nil {
			return zero, nil, err
		}
	}
	header, shards, err := splitV2(v2)
	if err != nil {
		return zero, nil, err
	}
	dec := snap.NewDecoder(header)
	cfg, err := decodeHeader(dec, kind)
	if err != nil {
		return zero, nil, err
	}
	if n := dec.Remaining(); n != 0 {
		return zero, nil, snap.Corruptf("%d trailing header bytes", n)
	}
	want := max(cfg.shards, 1)
	if len(shards) != want {
		return zero, nil, snap.Corruptf("%d shard section groups for %d shards", len(shards), want)
	}
	for i := range shards {
		if err := shards[i].check(i); err != nil {
			return zero, nil, err
		}
	}
	return cfg, shards, nil
}

// saveMappedFile lays s out as a v2 container — header, then per shard
// the spine and every store's meta and payload sections — and writes it
// to path atomically (temp file + rename, like SaveFile).
func saveMappedFile(s structure, path string) error {
	f := s.front()
	f.rlock()
	defer f.runlock()
	spines := make([][]byte, len(f.cores))
	stores := make([][]snap.MappedStore, len(f.cores))
	fanout.ForEach(len(f.cores), func(i int) { spines[i], stores[i] = f.cores[i].DumpMapped() })
	w := snap.NewV2Writer()
	he := &snap.Encoder{}
	encodeHeader(he, s.config())
	w.Add(snap.SecHeader, 0, 0, he.Bytes())
	for i, spine := range spines {
		w.Add(snap.SecSpine, uint32(i), 0, spine)
		for k, st := range stores[i] {
			w.Add(snap.SecStoreMeta, uint32(i), uint32(k), st.Meta)
			if len(st.Payload) > 0 {
				w.Add(snap.SecStorePayload, uint32(i), uint32(k), st.Payload)
			}
		}
	}
	return atomicWriteFile(path, func(out io.Writer) error {
		_, err := w.WriteTo(out)
		return err
	})
}

// loadMapped replaces s with the v2 snapshot in data — the mapping mf
// owns — serving static stores in place; s is left exactly as it was
// on any error.
func loadMapped(s structure, data []byte, mf *mappedFile, opts []MappedOption) (err error) {
	defer guard(&err)
	var oc mappedOpenConfig
	for _, o := range opts {
		o(&oc)
	}
	cfg, shards, err := openV2Snapshot(data, s.config().kind, oc)
	if err != nil {
		return err
	}
	f, commit, err := s.fresh(cfg)
	if err != nil {
		return err
	}
	if err := restore(f, func(i int, c ladderCore) error {
		return c.RestoreMapped(shards[i].spine, shards[i].stores(), mf.retain)
	}); err != nil {
		return err
	}
	commit()
	return nil
}

// loadMappedFile maps the file at path and loads it into s.
func loadMappedFile(s structure, path string, opts []MappedOption) (*mappedFile, error) {
	return openMappedFile(path, func(data []byte, mf *mappedFile) error {
		return loadMapped(s, data, mf, opts)
	})
}

// --- Collection ---

// SaveMappedFile writes the collection as a v2 mapped snapshot — the
// sectioned, page-aligned layout that LoadMappedFile and
// OpenMappedCollection serve in place via mmap. Quiescing and locking
// match Save. Stores whose index type has no mapped layout (custom
// registry indexes) are embedded as raw items and rebuilt at open, so
// the file is complete either way. v1 Save/Load and v2 files are
// distinct formats, each rejecting the other's magic.
func (c *Collection) SaveMappedFile(path string) error { return saveMappedFile(c, path) }

// LoadMappedFile replaces the collection with the v2 snapshot at path,
// serving static stores directly from a read-only mapping of the file.
// Open cost is independent of corpus size: the directory, spines and
// alphabet/directory-sized validation are read, the corpus-sized
// payload arrays are not (pass MappedVerify to CRC them up front). The
// error contract matches Load — ErrUnknownIndex for an unregistered
// index, ErrBadSnapshot for corrupt bytes, receiver unchanged on
// error. The collection stays fully mutable afterwards; pages of
// stores that rebuilds supersede are released back to the OS as the
// collector retires them. Not safe to call concurrently with other
// operations on the receiver.
func (c *Collection) LoadMappedFile(path string, opts ...MappedOption) error {
	mf, err := loadMappedFile(c, path, opts)
	if err != nil {
		return err
	}
	c.mapped = mf
	return nil
}

// OpenMappedCollection opens the v2 snapshot at path as a new
// collection; see Collection.LoadMappedFile.
func OpenMappedCollection(path string, opts ...MappedOption) (*Collection, error) {
	c, err := NewCollection()
	if err != nil {
		return nil, err
	}
	if err := c.LoadMappedFile(path, opts...); err != nil {
		return nil, err
	}
	return c, nil
}

// Close releases the snapshot mapping behind a mapped collection,
// first swapping in an empty in-heap structure so no reachable store
// aliases the mapping. A collection that was never mapped closes as a
// no-op. Close is not safe to call concurrently with queries — any
// still running against the old mapped stores would fault.
func (c *Collection) Close() error {
	mf := c.mapped
	c.mapped = nil
	if mf == nil {
		return nil
	}
	if u, err := newDocCores(c.cfg); err == nil {
		c.union = u
	}
	return mf.close()
}

// --- Relation ---

// SaveMappedFile writes the relation as a v2 mapped snapshot; see
// Collection.SaveMappedFile.
func (r *Relation) SaveMappedFile(path string) error { return saveMappedFile(r, path) }

// LoadMappedFile replaces the relation with the v2 snapshot at path,
// served in place from a read-only mapping; see
// Collection.LoadMappedFile for the open-cost and error contract.
func (r *Relation) LoadMappedFile(path string, opts ...MappedOption) error {
	mf, err := loadMappedFile(r, path, opts)
	if err != nil {
		return err
	}
	r.mapped = mf
	return nil
}

// OpenMappedRelation opens the v2 snapshot at path as a new relation;
// see Relation.LoadMappedFile.
func OpenMappedRelation(path string, opts ...MappedOption) (*Relation, error) {
	r, err := NewRelation()
	if err != nil {
		return nil, err
	}
	if err := r.LoadMappedFile(path, opts...); err != nil {
		return nil, err
	}
	return r, nil
}

// Close releases the snapshot mapping behind a mapped relation; see
// Collection.Close.
func (r *Relation) Close() error {
	mf := r.mapped
	r.mapped = nil
	if mf == nil {
		return nil
	}
	r.union = newRelCores(r.cfg)
	return mf.close()
}

// --- Graph ---

// SaveMappedFile writes the graph as a v2 mapped snapshot; see
// Collection.SaveMappedFile.
func (g *Graph) SaveMappedFile(path string) error { return g.r.SaveMappedFile(path) }

// LoadMappedFile replaces the graph with the v2 snapshot at path,
// served in place from a read-only mapping; see
// Collection.LoadMappedFile for the open-cost and error contract.
func (g *Graph) LoadMappedFile(path string, opts ...MappedOption) error {
	return g.r.LoadMappedFile(path, opts...)
}

// OpenMappedGraph opens the v2 snapshot at path as a new graph; see
// Graph.LoadMappedFile.
func OpenMappedGraph(path string, opts ...MappedOption) (*Graph, error) {
	gr, err := NewGraph()
	if err != nil {
		return nil, err
	}
	if err := gr.LoadMappedFile(path, opts...); err != nil {
		return nil, err
	}
	return gr, nil
}

// Close releases the snapshot mapping behind a mapped graph; see
// Collection.Close.
func (g *Graph) Close() error { return g.r.Close() }
