package engine

import "dyncoll/internal/snap"

// Persisting a ladder. Dump and Restore (snapshot.go) expose the shape
// of a quiesced ladder; this file is the only place that shape is
// written to and read from bytes, once per format and direction, for
// every payload. A payload contributes a Codec — how its items and its
// static stores look — and nothing else: slots, generations, the spine,
// section framing and the order of checks all live here.
//
// There are two store encodings. A v1 section is the slot followed by
// the codec's store body; checkpoint segments are v1 sections and the
// v1 snapshot stream IS the sectioned dump, concatenated: spine ‖
// section count ‖ section bytes. A v2 (mapped) store is a meta record —
// slot, generation, mode, then the store's dead list or its raw items —
// beside a payload section the loader serves in place.

// Codec is the payload half of persistence.
type Codec[K comparable, I any] interface {
	// EncodeItems and DecodeItems are a raw item list: C0 in the spine,
	// and any store that travels unbuilt.
	EncodeItems(e *snap.Encoder, items []I)
	DecodeItems(dec *snap.Decoder) []I
	// EncodeStore and DecodeStore are the body of a v1 store section.
	// DecodeStore returns a nil store for one that holds nothing.
	EncodeStore(e *snap.Encoder, st Store[K, I])
	DecodeStore(dec *snap.Decoder, level int) (Store[K, I], error)
	// BuildStore rebuilds a store from raw items (nil when empty).
	BuildStore(items []I, level int) (Store[K, I], error)
	// EncodeMapped returns the store's in-place layout, having written
	// its lazily-deleted keys to meta; a nil payload means the store has
	// no such layout and travels as raw items. OpenMapped is the
	// inverse over the mapped payload bytes.
	EncodeMapped(meta *snap.Encoder, st Store[K, I]) []byte
	OpenMapped(meta *snap.Decoder, payload []byte, level int) (Store[K, I], error)
}

// Persister binds a ladder to its payload codec. Every decode path
// shares one error contract: corrupt input — framing, invalid items,
// duplicate ownership — fails with an error wrapping
// snap.ErrBadSnapshot and never panics, and the ladder must be
// discarded on error.
type Persister[K comparable, I any] struct {
	Ladder Ladder[K, I]
	Codec  Codec[K, I]
}

// encodeSpine writes the schedule anchors and raw C0 items —
// everything except the static stores.
func (p Persister[K, I]) encodeSpine(d *Dump[K, I]) []byte {
	var e snap.Encoder
	e.Uvarint(uint64(d.NF))
	e.Uvarint(uint64(d.Tau))
	p.Codec.EncodeItems(&e, d.C0)
	return e.Bytes()
}

func (p Persister[K, I]) decodeSpine(dec *snap.Decoder) (Dump[K, I], error) {
	d := Dump[K, I]{NF: dec.Int(), Tau: dec.Int()}
	d.C0 = p.Codec.DecodeItems(dec)
	return d, dec.Err()
}

// openSpine decodes a spine that travels as a section of its own.
func (p Persister[K, I]) openSpine(spine []byte) (Dump[K, I], error) {
	dec := snap.NewDecoder(spine)
	d, err := p.decodeSpine(dec)
	if err == nil && dec.Remaining() != 0 {
		err = snap.Corruptf("%d trailing spine bytes", dec.Remaining())
	}
	return d, err
}

// DumpSections captures the quiesced ladder as a spine plus one v1
// Section per static store. reuse, when non-nil, is asked per store
// whether the checkpoint writer already holds an identical persisted
// section (same build generation, same dead weight); a reused store's
// Section carries nil Bytes and is never serialized — the incremental
// part of incremental checkpoints.
func (p Persister[K, I]) DumpSections(reuse func(level int, gen uint64, dead int) bool) ([]byte, []snap.Section) {
	d := p.Ladder.Dump()
	secs := make([]snap.Section, 0, len(d.Stores))
	for _, ds := range d.Stores {
		dead := ds.Store.DeadWeight()
		sec := snap.Section{Level: ds.Level, Gen: ds.Gen, Dead: dead}
		if reuse == nil || !reuse(ds.Level, ds.Gen, dead) {
			var e snap.Encoder
			e.Varint(int64(ds.Level))
			p.Codec.EncodeStore(&e, ds.Store)
			sec.Bytes = e.Bytes()
		}
		secs = append(secs, sec)
	}
	return p.encodeSpine(&d), secs
}

// DumpStream is the v1 snapshot stream: the sectioned dump,
// concatenated.
func (p Persister[K, I]) DumpStream() []byte {
	spine, secs := p.DumpSections(nil)
	var e snap.Encoder
	e.Raw(spine)
	e.Uvarint(uint64(len(secs)))
	for _, s := range secs {
		e.Raw(s.Bytes)
	}
	return e.Bytes()
}

// restoreV1 decodes n v1 store sections on top of an already decoded
// spine and installs the result into the (empty) ladder. section yields
// the decoder positioned at the i-th section and the build generation
// recorded for it; whole says the decoder holds that section alone, so
// anything left over is corruption.
func (p Persister[K, I]) restoreV1(d Dump[K, I], n int, section func(i int) (dec *snap.Decoder, gen uint64, whole bool)) error {
	for i := 0; i < n; i++ {
		dec, gen, whole := section(i)
		level := int(dec.Varint())
		st, err := p.Codec.DecodeStore(dec, level)
		if err != nil {
			return err
		}
		if whole && dec.Remaining() != 0 {
			return snap.Corruptf("%d trailing section bytes at level %d", dec.Remaining(), level)
		}
		if st != nil {
			d.Stores = append(d.Stores, StoreDump[K, I]{Level: level, Gen: gen, Store: st})
		}
	}
	return p.Ladder.Restore(d)
}

// RestoreStream reads a v1 snapshot stream from dec.
func (p Persister[K, I]) RestoreStream(dec *snap.Decoder) error {
	d, err := p.decodeSpine(dec)
	if err != nil {
		return err
	}
	n := dec.Count(2)
	if err := dec.Err(); err != nil {
		return err
	}
	return p.restoreV1(d, n, func(int) (*snap.Decoder, uint64, bool) { return dec, 0, false })
}

// RestoreSections is RestoreStream for the sectioned form, as produced
// by DumpSections (possibly reassembled from checkpoint segment files).
// Each section's Gen is installed into the engine so the next
// incremental checkpoint can reuse the very segments this ladder was
// loaded from.
func (p Persister[K, I]) RestoreSections(spine []byte, secs []snap.Section) error {
	d, err := p.openSpine(spine)
	if err != nil {
		return err
	}
	return p.restoreV1(d, len(secs), func(i int) (*snap.Decoder, uint64, bool) {
		return snap.NewDecoder(secs[i].Bytes), secs[i].Gen, true
	})
}

// DumpMapped captures the quiesced ladder in v2 form: spine bytes plus
// one MappedStore per static store. A store whose codec has no mapped
// layout for it falls back to raw items inside the meta record and is
// rebuilt at open.
func (p Persister[K, I]) DumpMapped() ([]byte, []snap.MappedStore) {
	d := p.Ladder.Dump()
	stores := make([]snap.MappedStore, 0, len(d.Stores))
	for _, ds := range d.Stores {
		var meta, dead snap.Encoder
		meta.Varint(int64(ds.Level))
		meta.Uvarint(ds.Gen)
		payload := p.Codec.EncodeMapped(&dead, ds.Store)
		if payload != nil {
			meta.Byte(snap.ModeMapped)
			meta.Raw(dead.Bytes())
		} else {
			meta.Byte(snap.ModeItems)
			p.Codec.EncodeItems(&meta, ds.Store.LiveItems())
		}
		stores = append(stores, snap.MappedStore{Meta: meta.Bytes(), Payload: payload})
	}
	return p.encodeSpine(&d), stores
}

// RestoreMapped installs a v2 dump into the (empty) ladder; retain,
// when non-nil, is invoked for every store served in place. Deletion
// bitmaps stay deferred: a mapped store with an empty dead list costs
// no corpus-sized heap, one with deletions replays them and
// materializes only its own bitmaps.
func (p Persister[K, I]) RestoreMapped(spine []byte, stores []snap.MappedStore, retain snap.RetainFunc) error {
	d, err := p.openSpine(spine)
	if err != nil {
		return err
	}
	for _, ms := range stores {
		mdec := snap.NewDecoder(ms.Meta)
		level := int(mdec.Varint())
		gen := mdec.Uvarint()
		mode := mdec.Byte()
		if err := mdec.Err(); err != nil {
			return err
		}
		var st Store[K, I]
		switch mode {
		case snap.ModeMapped:
			st, err = p.Codec.OpenMapped(mdec, ms.Payload, level)
			if err == nil && retain != nil {
				retain(ms.Payload, st)
			}
		case snap.ModeItems:
			items := p.Codec.DecodeItems(mdec)
			if err = mdec.Err(); err == nil {
				st, err = p.Codec.BuildStore(items, level)
			}
		default:
			err = snap.Corruptf("unknown mapped store mode %d", mode)
		}
		if err != nil {
			return err
		}
		if n := mdec.Remaining(); n != 0 {
			return snap.Corruptf("%d trailing meta bytes at level %d", n, level)
		}
		if st != nil {
			d.Stores = append(d.Stores, StoreDump[K, I]{Level: level, Gen: gen, Store: st})
		}
	}
	return p.Ladder.Restore(d)
}
