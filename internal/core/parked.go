package core

import (
	"bytes"

	"dyncoll/internal/doc"
	"dyncoll/internal/engine"
)

// parked is the document payload's unbuilt store (engine.Config.Park):
// an update's documents copied into one arena it owns and answered by
// scanning, so no insert waits for an index to be built. It answers
// every Part query as a built store over the same documents would, and
// it stands in the ladder only until the background build that replaces
// it lands.
type parked struct {
	arena []byte
	docs  []parkedDoc // in insertion order
	dead  []bool      // parallel to docs; only Delete writes it
	byID  map[uint64]int

	live, deleted int
}

// parkedDoc locates one document's payload in the arena.
type parkedDoc struct {
	id       uint64
	off, end int
}

// newParked copies docs into a fresh parked store: the caller may
// reuse its buffers once the update returns.
func newParked(docs []doc.Doc) *parked {
	n := 0
	for _, d := range docs {
		n += len(d.Data)
	}
	p := &parked{
		arena: make([]byte, 0, n),
		docs:  make([]parkedDoc, len(docs)),
		dead:  make([]bool, len(docs)),
		byID:  make(map[uint64]int, len(docs)),
		live:  n,
	}
	for i, d := range docs {
		p.docs[i] = parkedDoc{id: d.ID, off: len(p.arena), end: len(p.arena) + len(d.Data)}
		p.arena = append(p.arena, d.Data...)
		p.byID[d.ID] = i
	}
	return p
}

// data is document i's payload, capped so an append cannot reach the
// next document.
func (p *parked) data(i int) []byte {
	d := p.docs[i]
	return p.arena[d.off:d.end:d.end]
}

func (p *parked) doc(i int) doc.Doc { return doc.Doc{ID: p.docs[i].id, Data: p.data(i)} }

// Delete marks a document dead, reporting its symbol weight
// (engine.Store).
func (p *parked) Delete(id uint64) (int, bool) {
	i, ok := p.byID[id]
	if !ok {
		return 0, false
	}
	delete(p.byID, id)
	p.dead[i] = true
	n := p.docs[i].end - p.docs[i].off
	p.live -= n
	p.deleted += n
	return n, true
}

// LiveKeys lists the live document IDs (engine.Store).
func (p *parked) LiveKeys() []uint64 {
	out := make([]uint64, 0, len(p.byID))
	for id := range p.byID {
		out = append(out, id)
	}
	return out
}

// liveIdxs lists the live documents' indices in insertion order.
func (p *parked) liveIdxs() []int {
	idxs := make([]int, 0, len(p.byID))
	for i, dead := range p.dead {
		if !dead {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// LiveItems lists the live documents in insertion order
// (engine.Store).
func (p *parked) LiveItems() []doc.Doc {
	out := make([]doc.Doc, 0, len(p.byID))
	for _, i := range p.liveIdxs() {
		out = append(out, p.doc(i))
	}
	return out
}

// Snapshot captures the live documents for a build (engine.Snapshotter).
// Materialize reads only the arena and the document table, which no
// deletion writes, so it may run on the build goroutine.
func (p *parked) Snapshot() engine.Snapshot[doc.Doc] {
	idxs := p.liveIdxs()
	return engine.Snapshot[doc.Doc]{
		Count:  len(idxs),
		Weight: p.live,
		Materialize: func(dst []doc.Doc) []doc.Doc {
			for _, i := range idxs {
				dst = append(dst, p.doc(i))
			}
			return dst
		},
	}
}

func (p *parked) LiveWeight() int { return p.live }
func (p *parked) DeadWeight() int { return p.deleted }

// SizeBits counts the arena and the document table (engine.Store).
func (p *parked) SizeBits() int64 {
	return 8 * int64(cap(p.arena)+len(p.docs)*(24+1)+len(p.byID)*16)
}

// FindFunc reports every offset at which pattern starts in a live
// document, overlapping matches included, document by document with
// offsets ascending (Part). The empty pattern matches every position.
func (p *parked) FindFunc(pattern []byte, fn func(Occurrence) bool) {
	for i, dead := range p.dead {
		if dead {
			continue
		}
		id, text := p.docs[i].id, p.data(i)
		if len(pattern) == 0 {
			for off := range text {
				if !fn(Occurrence{DocID: id, Off: off}) {
					return
				}
			}
			continue
		}
		for base := 0; ; {
			k := bytes.Index(text[base:], pattern)
			if k < 0 {
				break
			}
			if !fn(Occurrence{DocID: id, Off: base + k}) {
				return
			}
			base += k + 1
		}
	}
}

// FindGroupedFunc is FindFunc: a scan already goes document by
// document with offsets ascending (Part).
func (p *parked) FindGroupedFunc(pattern []byte, fn func(Occurrence) bool) {
	p.FindFunc(pattern, fn)
}

// Count is the number of live occurrences of pattern (Part).
func (p *parked) Count(pattern []byte) int {
	if len(pattern) == 0 {
		return p.live
	}
	n := 0
	for i, dead := range p.dead {
		if dead {
			continue
		}
		for text := p.data(i); ; n++ {
			k := bytes.Index(text, pattern)
			if k < 0 {
				break
			}
			text = text[k+1:]
		}
	}
	return n
}

// Extract copies a clamped range of a live document (Part).
func (p *parked) Extract(id uint64, off, length int) ([]byte, bool) {
	i, ok := p.byID[id]
	if !ok {
		return nil, false
	}
	text := p.data(i)
	off, length = doc.Clamp(off, length, len(text))
	if length == 0 {
		return nil, true
	}
	return bytes.Clone(text[off : off+length]), true
}

// DocLen is the payload length of a live document (Part).
func (p *parked) DocLen(id uint64) (int, bool) {
	i, ok := p.byID[id]
	if !ok {
		return 0, false
	}
	return p.docs[i].end - p.docs[i].off, true
}
