package dyncoll

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"dyncoll/internal/snap"
	"dyncoll/internal/wal"
)

// Incremental checkpoints. A checkpoint is a spine file — the config
// header, each shard's schedule anchors and C0, and a directory of the
// shard's static-store sections — plus one segment file per section.
// The ladder makes "what changed since last time" explicit: a static
// level is immutable between rebuilds (only its dead weight grows), so
// a section whose (level, build generation, dead weight) matches the
// previous checkpoint is byte-identical and its existing segment file
// is referenced again instead of re-encoded and re-written. C0 and the
// dead-ID state of changed levels are the only per-checkpoint cost.
//
// The recovery point is committed by the manifest rename (see
// internal/wal): segments and spine are ordinary new files that mean
// nothing until a manifest names them, and the previous checkpoint's
// files are deleted only after the new manifest is durable.

// ckptMagic guards the checkpoint spine file format (the standard
// snapshot header, with its own magic, nests inside).
var ckptMagic = [4]byte{'d', 'c', 'k', 'p'}

const ckptVersion = 1

// ckptCRC is the CRC32C table shared by spine and segment checksums.
var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// segMeta identifies one persisted checkpoint segment.
type segMeta struct {
	name  string // file name within the durable directory
	level int
	gen   uint64
	dead  int
	size  int64
	crc   uint32
}

// ckptNames formats the spine and segment file names of checkpoint ck.
func ckptName(ck uint64) string { return fmt.Sprintf("ckpt-%08d", ck) }
func segName(ck uint64, shard int, gen uint64) string {
	return fmt.Sprintf("seg-%08d-%04d-%d", ck, shard, gen)
}

// encodeCkptSpine serializes the spine: checkpoint magic and sequence,
// the standard config header, then per shard the ladder spine bytes
// and the section directory.
func encodeCkptSpine(cfg config, ck uint64, spines [][]byte, metas [][]segMeta) []byte {
	e := &snap.Encoder{}
	e.Raw(ckptMagic[:])
	e.Byte(ckptVersion)
	e.Uvarint(ck)
	encodeHeader(e, cfg)
	e.Uvarint(uint64(len(spines)))
	for i, spine := range spines {
		e.Blob(spine)
		e.Uvarint(uint64(len(metas[i])))
		for _, m := range metas[i] {
			e.Varint(int64(m.level))
			e.Uvarint(m.gen)
			e.Uvarint(uint64(m.dead))
			e.String(m.name)
			e.Uvarint(uint64(m.size))
			e.Uvarint(uint64(m.crc))
		}
	}
	return e.Bytes()
}

// decodeCkptSpine parses and validates a spine for the given kind,
// returning the recorded config, checkpoint sequence, per-shard spine
// bytes and per-shard section directories.
func decodeCkptSpine(data []byte, kind structKind) (config, uint64, [][]byte, [][]segMeta, error) {
	var zero config
	dec := snap.NewDecoder(data)
	magic := dec.Raw(4)
	if err := dec.Err(); err != nil {
		return zero, 0, nil, nil, err
	}
	if string(magic) != string(ckptMagic[:]) {
		return zero, 0, nil, nil, snap.Corruptf("checkpoint magic %q", magic)
	}
	if v := dec.Byte(); v != ckptVersion {
		return zero, 0, nil, nil, snap.Corruptf("unsupported checkpoint version %d", v)
	}
	ck := dec.Uvarint()
	cfg, err := decodeHeader(dec, kind)
	if err != nil {
		return zero, 0, nil, nil, err
	}
	n := dec.Count(1)
	if err := dec.Err(); err != nil {
		return zero, 0, nil, nil, err
	}
	if want := max(cfg.shards, 1); n != want {
		return zero, 0, nil, nil, snap.Corruptf("%d checkpoint shards for %d shards", n, want)
	}
	spines := make([][]byte, n)
	metas := make([][]segMeta, n)
	for i := 0; i < n; i++ {
		spines[i] = dec.Blob()
		ns := dec.Count(1)
		if err := dec.Err(); err != nil {
			return zero, 0, nil, nil, err
		}
		for j := 0; j < ns; j++ {
			m := segMeta{
				level: int(dec.Varint()),
				gen:   dec.Uvarint(),
				dead:  dec.Int(),
				name:  dec.String(),
				size:  int64(dec.Uvarint()),
				crc:   uint32(dec.Uvarint()),
			}
			if err := dec.Err(); err != nil {
				return zero, 0, nil, nil, err
			}
			if m.gen == 0 || m.size < 0 {
				return zero, 0, nil, nil, snap.Corruptf("checkpoint section %d/%d metadata", i, j)
			}
			if !strings.HasPrefix(m.name, "seg-") || m.name != filepath.Base(m.name) {
				return zero, 0, nil, nil, snap.Corruptf("checkpoint segment name %q", m.name)
			}
			metas[i] = append(metas[i], m)
		}
	}
	if err := dec.Err(); err != nil {
		return zero, 0, nil, nil, err
	}
	if dec.Remaining() != 0 {
		return zero, 0, nil, nil, snap.Corruptf("%d trailing checkpoint bytes", dec.Remaining())
	}
	return cfg, ck, spines, metas, nil
}

// writeDurFile creates a brand-new file with the given contents and
// fsyncs it. Callers make it *mean* something — and become unable to
// crash halfway into meaning it — via the subsequent manifest rename.
func writeDurFile(fs wal.FS, path string, data []byte) error {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSegment loads and verifies one segment file against its
// directory entry.
func readSegment(fs wal.FS, dir string, m segMeta) ([]byte, error) {
	data, err := fs.ReadFile(filepath.Join(dir, m.name))
	if err != nil {
		return nil, snap.Corruptf("checkpoint segment %s: %v", m.name, err)
	}
	if int64(len(data)) != m.size {
		return nil, snap.Corruptf("checkpoint segment %s: %d bytes, want %d", m.name, len(data), m.size)
	}
	if crc32.Checksum(data, ckptCRC) != m.crc {
		return nil, snap.Corruptf("checkpoint segment %s: checksum mismatch", m.name)
	}
	return data, nil
}

// checkpointLocked captures the current state as a new recovery point;
// the caller holds d.mu, so no mutation is in flight. Sequence: rotate
// the WAL (everything already applied is in files < newSeq), dump all
// shards with segment reuse, persist fresh segments and the spine,
// commit via manifest rename, then garbage-collect the files the old
// recovery point no longer pins.
func (d *durable) checkpointLocked() error {
	if d.closed {
		return ErrClosed
	}
	newSeq, err := d.log.Rotate()
	if err != nil {
		return err
	}
	spines, secs := d.dumpAll()
	ck := d.ckSeq
	d.ckSeq++
	metas := make([][]segMeta, len(secs))
	var segNames []string
	for i, ss := range secs {
		metas[i] = make([]segMeta, 0, len(ss))
		for _, s := range ss {
			var m segMeta
			if s.Bytes == nil {
				m = d.segs[i][s.Gen] // reused: the predicate above matched
			} else {
				m = segMeta{
					name:  segName(ck, i, s.Gen),
					level: s.Level,
					gen:   s.Gen,
					dead:  s.Dead,
					size:  int64(len(s.Bytes)),
					crc:   crc32.Checksum(s.Bytes, ckptCRC),
				}
				if err := writeDurFile(d.fs, filepath.Join(d.dir, m.name), s.Bytes); err != nil {
					return err
				}
			}
			metas[i] = append(metas[i], m)
			segNames = append(segNames, m.name)
		}
	}
	spineName := ckptName(ck)
	spineBytes := encodeCkptSpine(d.s.config(), ck, spines, metas)
	if err := writeDurFile(d.fs, filepath.Join(d.dir, spineName), spineBytes); err != nil {
		return err
	}
	// New files must be findable before the manifest that references
	// them is.
	if err := d.fs.SyncDir(d.dir); err != nil {
		return err
	}
	man := wal.Manifest{
		WALStart:      newSeq,
		Checkpoint:    spineName,
		CheckpointCRC: crc32.Checksum(spineBytes, ckptCRC),
		Segments:      segNames,
	}
	if err := wal.WriteManifest(d.fs, d.dir, man); err != nil {
		return err
	}
	d.segs = segMaps(metas)
	d.gcLocked(man)
	return nil
}

// segMaps indexes section directories by (shard, gen) for the reuse
// predicate.
func segMaps(metas [][]segMeta) []map[uint64]segMeta {
	out := make([]map[uint64]segMeta, len(metas))
	for i, ss := range metas {
		out[i] = make(map[uint64]segMeta, len(ss))
		for _, m := range ss {
			out[i][m.gen] = m
		}
	}
	return out
}

// gcLocked removes files the manifest no longer references: WAL files
// below the replay start, checkpoint spines and segments of older
// recovery points, and stranded temp files. Failures are ignored —
// garbage is harmless and the next checkpoint or open retries.
func (d *durable) gcLocked(man wal.Manifest) {
	_ = wal.RemoveBelow(d.fs, d.dir, man.WALStart)
	keep := make(map[string]bool, len(man.Segments)+2)
	keep[wal.ManifestName] = true
	if man.Checkpoint != "" {
		keep[man.Checkpoint] = true
	}
	for _, s := range man.Segments {
		keep[s] = true
	}
	ents, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if keep[name] {
			continue
		}
		if strings.HasPrefix(name, "ckpt-") || strings.HasPrefix(name, "seg-") ||
			strings.HasSuffix(name, ".tmp") {
			_ = d.fs.Remove(filepath.Join(d.dir, name))
		}
	}
}
