package binrel

import (
	"cmp"
	"slices"

	"dyncoll/internal/engine"
	"dyncoll/internal/snap"
	"dyncoll/internal/wavelet"
)

// The pair payload's persistence codec (engine.Codec); the ladder walk
// around it is the engine's. Every pair weighs 1 and the compressed
// encoding (semiRel) is rebuilt from its live pairs in O(n log n), so
// in v1 a store is just its pair list. (The binary fast path exists for
// document collections, whose static indexes cost O(n·u(n)) to rebuild;
// see internal/core.) The v2 mapped form writes the already-built
// structure — object and label tables, the N boundaries, and the
// Huffman-shaped wavelet tree of S — so a mapped open is an aliasing
// pass plus O(σ) table validation. Deletion bitmaps wait for the first
// Delete, as in every store.

// Persister is the engine's format walkers bound to a relation.
type Persister = engine.Persister[Pair, Pair]

// Persister binds the relation's ladder to the pair codec.
func (r *Relation) Persister() Persister {
	return Persister{Ladder: r.eng, Codec: pairCodec{}}
}

type pairCodec struct{}

// EncodeItems appends a length-prefixed pair list, sorted in place by
// (object, label): a store lists its pairs in that order anyway, but
// C0's come out of a Go map, and a snapshot should be a function of
// the relation, not of map iteration order.
func (pairCodec) EncodeItems(e *snap.Encoder, pairs []Pair) {
	slices.SortFunc(pairs, func(a, b Pair) int {
		if a.Object != b.Object {
			return cmp.Compare(a.Object, b.Object)
		}
		return cmp.Compare(a.Label, b.Label)
	})
	e.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		e.Uvarint(p.Object)
		e.Uvarint(p.Label)
	}
}

// DecodeItems reads a pair list.
func (pairCodec) DecodeItems(dec *snap.Decoder) []Pair {
	n := dec.Count(2)
	if dec.Err() != nil {
		return nil
	}
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Object: dec.Uvarint(), Label: dec.Uvarint()}
	}
	if dec.Err() != nil {
		return nil
	}
	return pairs
}

func (c pairCodec) EncodeStore(e *snap.Encoder, st engine.Store[Pair, Pair]) {
	c.EncodeItems(e, st.LiveItems())
}

func (c pairCodec) DecodeStore(dec *snap.Decoder, level int) (engine.Store[Pair, Pair], error) {
	pairs := c.DecodeItems(dec)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return c.BuildStore(pairs, level)
}

// BuildStore rebuilds the compressed level from its pairs. An empty
// store contributes nothing (and the compressed encoding requires a
// non-empty alphabet).
func (pairCodec) BuildStore(pairs []Pair, _ int) (engine.Store[Pair, Pair], error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	return buildSemi(pairs), nil
}

func (c pairCodec) EncodeMapped(meta *snap.Encoder, st engine.Store[Pair, Pair]) []byte {
	sr, ok := st.(*semiRel)
	if !ok || sr.s.Len() == 0 {
		return nil
	}
	c.EncodeItems(meta, sr.deadPairs())
	var me snap.MapEncoder
	sr.encodeMapped(&me)
	return me.Bytes()
}

func (c pairCodec) OpenMapped(meta *snap.Decoder, payload []byte, level int) (engine.Store[Pair, Pair], error) {
	dead := c.DecodeItems(meta)
	if err := meta.Err(); err != nil {
		return nil, err
	}
	mv := snap.NewMapView(payload)
	sr := openMappedSemi(mv)
	if sr == nil {
		return nil, snap.Corruptf("level %d mapped relation: %v", level, mv.Err())
	}
	for _, p := range dead {
		if _, ok := sr.Delete(p); !ok {
			return nil, snap.Corruptf("level %d deletes unknown pair (%d,%d)", level, p.Object, p.Label)
		}
	}
	return sr, nil
}

// encodeMapped writes the static relation structure in mapped form.
func (r *semiRel) encodeMapped(e *snap.MapEncoder) {
	e.Words(r.objects)
	e.Words(r.labels)
	e.Int32s(r.starts)
	r.s.EncodeMapped(e)
}

// deadPairs lists the lazily-deleted pairs so their deletions can be
// replayed at open — the relation analog of SemiDynamic.deadIDs. Nil
// bitmaps mean no deletions.
func (r *semiRel) deadPairs() []Pair {
	if r.alive == nil || r.dead == 0 {
		return nil
	}
	out := make([]Pair, 0, r.dead)
	for pos := 0; pos < r.s.Len(); pos++ {
		if !r.alive.Get(pos) {
			out = append(out, Pair{Object: r.objectAt(pos), Label: r.labels[r.s.Access(pos)]})
		}
	}
	return out
}

// openMappedSemi reconstructs a semiRel over a mapped payload. The
// tables are validated structurally (sorted, consistent boundaries,
// alphabet size matching the wavelet tree) in O(σ + objects).
func openMappedSemi(mv *snap.MapView) *semiRel {
	objects := mv.Words()
	labels := mv.Words()
	starts := mv.Int32s()
	s := wavelet.ViewMapped(mv)
	if mv.Err() != nil {
		return nil
	}
	if mv.Remaining() != 0 {
		mv.Fail("relation: %d trailing bytes in mapped payload", mv.Remaining())
		return nil
	}
	n := s.Len()
	if n == 0 || len(objects) == 0 {
		mv.Fail("relation: mapped store is empty")
		return nil
	}
	if s.Sigma() != len(labels) {
		mv.Fail("relation: %d labels for alphabet of %d", len(labels), s.Sigma())
		return nil
	}
	if len(starts) != len(objects)+1 || starts[0] != 0 || int(starts[len(objects)]) != n {
		mv.Fail("relation: boundary table of %d for %d objects over %d pairs", len(starts), len(objects), n)
		return nil
	}
	for i := 0; i < len(objects); i++ {
		if starts[i] >= starts[i+1] {
			mv.Fail("relation: empty or unordered range for object %d", i)
			return nil
		}
		if i > 0 && objects[i] <= objects[i-1] {
			mv.Fail("relation: object table not sorted at %d", i)
			return nil
		}
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] <= labels[i-1] {
			mv.Fail("relation: label table not sorted at %d", i)
			return nil
		}
	}
	return &semiRel{
		objects: objects, labels: labels, starts: starts,
		s: s, live: n,
	}
}
