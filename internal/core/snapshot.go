package core

import (
	"dyncoll/internal/doc"
	"dyncoll/internal/engine"
	"dyncoll/internal/snap"
)

// The document payload's persistence codec (engine.Codec): how
// documents and SemiDynamic stores are written; the ladder walk around
// them is the engine's. C0 travels as raw documents and is re-ingested
// at load. A static store has three forms. The v1 fast path is the
// wrapped index's own binary form plus the IDs of its lazily-deleted
// documents, taken when the index implements binaryIndex AND the
// loader will have a registered decoder. The v2 mapped form is a pure
// MapEncoder payload the loader serves in place from a page-aligned
// mapped section. Everything else — custom registry indexes — falls
// back to raw live documents, rebuilt through the configured Builder
// at load: they round-trip by name with zero extra work, they just do
// not skip the O(n·u(n)) reconstruction.

// binaryIndex is the optional v1 fast-path contract a StaticIndex may
// implement (the built-in fm, sa and csa indexes all do).
type binaryIndex interface {
	AppendBinary(buf []byte) ([]byte, error)
}

// mappedIndex is the optional mapped fast-path contract (likewise).
type mappedIndex interface {
	EncodeMapped(e *snap.MapEncoder)
}

// IndexDecoder reconstructs a StaticIndex from the bytes its
// AppendBinary produced. The facade resolves one from the index
// registry by name; nil means no fast-path decoding is available.
type IndexDecoder func(data []byte) (StaticIndex, error)

// IndexOpener reconstructs a StaticIndex view over the payload bytes
// its EncodeMapped produced. nil means the index has no mapped open
// support.
type IndexOpener func(mv *snap.MapView) (StaticIndex, error)

// Persister is the engine's format walkers bound to a collection.
type Persister = engine.Persister[uint64, doc.Doc]

// Persister binds the collection's ladder to the document codec.
// decode and open are the index's registered binary decoder and mapped
// opener. A nil decode also turns the binary form off on the way out
// (the loader would not be able to read it), and binary or mapped
// stores in the input fail with ErrBadSnapshot when theirs is nil.
func (c *collection) Persister(decode IndexDecoder, open IndexOpener) Persister {
	return Persister{Ladder: c.eng, Codec: docCodec{c.opts, decode, open}}
}

type docCodec struct {
	opts   Options
	decode IndexDecoder
	open   IndexOpener
}

// EncodeItems appends a length-prefixed document list.
func (docCodec) EncodeItems(e *snap.Encoder, docs []doc.Doc) {
	e.Uvarint(uint64(len(docs)))
	for _, d := range docs {
		e.Uvarint(d.ID)
		e.Blob(d.Data)
	}
}

// DecodeItems reads a document list, copying payloads out of the input
// buffer and rejecting payloads with the reserved separator byte (the
// builders would panic on them).
func (docCodec) DecodeItems(dec *snap.Decoder) []doc.Doc {
	n := dec.Count(2)
	if dec.Err() != nil {
		return nil
	}
	docs := make([]doc.Doc, 0, n)
	for i := 0; i < n; i++ {
		id := dec.Uvarint()
		data := append([]byte(nil), dec.Blob()...)
		if dec.Err() != nil {
			return nil
		}
		d := doc.Doc{ID: id, Data: data}
		if !d.Valid() {
			dec.Fail("document %d contains the reserved byte 0x00", id)
			return nil
		}
		docs = append(docs, d)
	}
	return docs
}

// EncodeStore writes a mode byte and the mode's payload.
func (c docCodec) EncodeStore(e *snap.Encoder, st engine.Store[uint64, doc.Doc]) {
	if sd, ok := st.(*SemiDynamic); ok && c.decode != nil {
		if bi, ok := sd.idx.(binaryIndex); ok {
			if blob, err := bi.AppendBinary(nil); err == nil {
				e.Byte(snap.ModeBinary)
				e.Blob(blob)
				e.Uint64s(sd.deadIDs())
				return
			}
		}
	}
	e.Byte(snap.ModeItems)
	c.EncodeItems(e, st.LiveItems())
}

func (c docCodec) DecodeStore(dec *snap.Decoder, level int) (engine.Store[uint64, doc.Doc], error) {
	mode := dec.Byte()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	switch mode {
	case snap.ModeItems:
		docs := c.DecodeItems(dec)
		if err := dec.Err(); err != nil {
			return nil, err
		}
		return c.BuildStore(docs, level)
	case snap.ModeBinary:
		blob := dec.Blob()
		dead := dec.Uint64s()
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if c.decode == nil {
			return nil, snap.Corruptf("binary level %d but index has no registered decoder", level)
		}
		idx, err := c.decode(blob)
		if err != nil {
			return nil, snap.Corruptf("level %d index: %v", level, err)
		}
		return adopt(NewSemiDynamic(idx, c.opts.Counting), idx.DocCount(), dead, level)
	default:
		return nil, snap.Corruptf("unknown store mode %d", mode)
	}
}

// BuildStore rebuilds a store through the configured Builder.
func (c docCodec) BuildStore(docs []doc.Doc, level int) (engine.Store[uint64, doc.Doc], error) {
	return adopt(NewSemiDynamic(c.opts.Builder(docs), c.opts.Counting), len(docs), nil, level)
}

func (docCodec) EncodeMapped(meta *snap.Encoder, st engine.Store[uint64, doc.Doc]) []byte {
	sd, ok := st.(*SemiDynamic)
	if !ok {
		return nil
	}
	mi, ok := sd.idx.(mappedIndex)
	if !ok {
		return nil
	}
	meta.Uint64s(sd.deadIDs())
	var me snap.MapEncoder
	mi.EncodeMapped(&me)
	return me.Bytes()
}

func (c docCodec) OpenMapped(meta *snap.Decoder, payload []byte, level int) (engine.Store[uint64, doc.Doc], error) {
	dead := meta.Uint64s()
	if err := meta.Err(); err != nil {
		return nil, err
	}
	if c.open == nil {
		return nil, snap.Corruptf("mapped level %d but index has no mapped opener", level)
	}
	idx, err := c.open(snap.NewMapView(payload))
	if err != nil {
		return nil, snap.Corruptf("level %d mapped index: %v", level, err)
	}
	return adopt(NewSemiDynamic(idx, c.opts.Counting), idx.DocCount(), dead, level)
}

// adopt vets a freshly wrapped index that should hold docs documents
// and replays its recorded lazy deletions, which rebuilds the alive
// bitmaps exactly. A repeated doc ID collapses in the wrapper's byID
// map, so the engine's ownership check would never see the second copy
// — queries would double-report it instead.
func adopt(sd *SemiDynamic, docs int, dead []uint64, level int) (engine.Store[uint64, doc.Doc], error) {
	if len(sd.byID) != docs {
		return nil, snap.Corruptf("level %d repeats document IDs", level)
	}
	for _, id := range dead {
		if _, ok := sd.Delete(id); !ok {
			return nil, snap.Corruptf("level %d deletes unknown document %d", level, id)
		}
	}
	return sd, nil
}

// deadIDs lists the documents the wrapped index contains but that have
// been lazily deleted — the complement of byID.
func (s *SemiDynamic) deadIDs() []uint64 {
	var out []uint64
	for i := 0; i < s.idx.DocCount(); i++ {
		id := s.idx.DocID(i)
		if _, live := s.byID[id]; !live {
			out = append(out, id)
		}
	}
	return out
}
