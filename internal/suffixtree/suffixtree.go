// Package suffixtree implements a generalized suffix tree over a dynamic
// document collection — the uncompressed data structure the paper keeps
// for the sub-collection C0 (Section A.2).
//
// Documents are inserted with Ukkonen's online algorithm in O(|T|)
// amortized time; each document ends in a terminator unequal to every
// other symbol, so every suffix corresponds to exactly one leaf. Pattern
// queries descend from the root in O(|P|) and report occurrences in O(1)
// per occurrence by walking the locus subtree.
//
// Deletion follows the paper's lazy strategy for C0's small size budget:
// a deleted document is unlinked from the live set immediately (queries
// skip its leaves) and the tree is rebuilt from live documents once
// deleted symbols outnumber live ones, giving O(1) amortized work per
// deleted symbol. DESIGN.md §2 records this substitution for the
// McCreight leaf-surgery deletion sketched in the paper.
//
// Layout: the tree holds no pointers. Nodes are fixed-size records of
// int32 indices in a slab that grows by whole chunks and never moves;
// child lookup is one open-addressing table for the whole tree keyed by
// (node, symbol) — the hashing variant the paper itself prescribes for
// large alphabets (randomized update costs, Section A.2) — and the text
// of all documents is one byte arena. Terminators are never stored: the
// symbol at a document's payload length reads as the reserved byte 0x00,
// which compares unequal to everything, itself included. A rebuild
// compacts the arena and re-threads the same slab and table, so inserts
// into a warm tree allocate only when one of the three outgrows its
// capacity.
package suffixtree

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"

	"dyncoll/internal/doc"
)

const (
	// Nodes are allocated in chunks so that growth never copies a node
	// and a *node stays valid while others are created.
	chunkShift = 9
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// A table slot packs (parent, symbol, child) into one word:
	// parent<<36 | symbol<<28 | child. Child 0 would be the root, which is
	// nobody's child, so the zero word is the empty slot.
	childBits = 28
	childMask = 1<<childBits - 1
	maxNodes  = 1 << childBits

	minTable = 1 << 8
	hashMult = 0x9E3779B97F4A7C15

	// Sizes for SizeBits: a node, and a document's table entry together
	// with its ID-map entry.
	nodeBits = 32 * 8
	docBits  = (24 + 16) * 8
)

// Tree is a generalized suffix tree over a dynamic document collection.
// The zero state allocates nothing; slabs appear with the first Insert.
type Tree struct {
	chunks    []*[chunkSize]node
	nodeCount int      // nodes in use; node 0 is the root
	table     []uint64 // open addressing, linear probing, len a power of two
	shift     uint     // 64 - log2(len(table))
	edges     int      // occupied table slots

	text []byte     // payloads of docs, back to back
	docs []docEntry // indexed by sequence number
	byID map[uint64]int32

	liveSymbols    int // payload symbols of live documents
	deletedSymbols int // payload symbols of deleted documents
}

type docEntry struct {
	id      uint64
	off, n  int32 // payload is text[off : off+n]; symbol n is the terminator
	deleted bool
}

// node is one tree node. Index 0 means "none" in every link field except
// link itself, where it means the root.
type node struct {
	// Edge label: symbols [start, end) of docs[doc].
	doc, start, end int32
	link            int32 // suffix link (internal nodes)
	// Children form a doubly linked list in unspecified order, so that a
	// split can put the new internal node in its child's place in O(1).
	firstChild, nextSibling, prevSibling int32
	suffixStart                          int32 // leaves: offset of the suffix in its document; -1 for internal nodes
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len reports the number of live payload symbols.
func (t *Tree) Len() int { return t.liveSymbols }

// DeletedSymbols reports the number of payload symbols belonging to
// deleted documents still referenced by the tree.
func (t *Tree) DeletedSymbols() int { return t.deletedSymbols }

// DocCount reports the number of live documents.
func (t *Tree) DocCount() int { return len(t.byID) }

// Has reports whether a live document with the given ID is present.
func (t *Tree) Has(id uint64) bool {
	_, ok := t.byID[id]
	return ok
}

// Insert adds a document. It panics if the ID is already present or the
// payload contains the reserved byte 0x00.
func (t *Tree) Insert(d doc.Doc) {
	if _, dup := t.byID[d.ID]; dup {
		panic(fmt.Sprintf("suffixtree: duplicate document ID %d", d.ID))
	}
	if !d.Valid() {
		panic("suffixtree: document contains the reserved byte 0x00")
	}
	if len(t.text)+len(d.Data) >= math.MaxInt32 {
		panic("suffixtree: text exceeds 2^31 symbols")
	}
	if t.byID == nil {
		t.byID = make(map[uint64]int32)
	}
	seq := int32(len(t.docs))
	t.docs = append(t.docs, docEntry{id: d.ID, off: int32(len(t.text)), n: int32(len(d.Data))})
	t.text = append(t.text, d.Data...)
	t.byID[d.ID] = seq
	t.liveSymbols += len(d.Data)
	t.ukkonen(seq)
}

// Delete removes the document with the given ID, reporting whether it was
// present. The tree is rebuilt once deleted symbols outnumber live ones.
func (t *Tree) Delete(id uint64) bool {
	seq, ok := t.byID[id]
	if !ok {
		return false
	}
	e := &t.docs[seq]
	e.deleted = true
	delete(t.byID, id)
	t.liveSymbols -= int(e.n)
	t.deletedSymbols += int(e.n)
	if t.deletedSymbols > t.liveSymbols && t.deletedSymbols > 64 {
		t.rebuild()
	}
	return true
}

// rebuild reconstructs the tree from live documents only, in place:
// the arena and the document table are compacted, and the nodes and the
// table are re-threaded over the memory they already hold.
func (t *Tree) rebuild() {
	live, w := 0, int32(0)
	for _, e := range t.docs {
		if e.deleted {
			continue
		}
		copy(t.text[w:], t.text[e.off:e.off+e.n])
		e.off = w
		w += e.n
		t.docs[live] = e
		t.byID[e.id] = int32(live)
		live++
	}
	t.docs = t.docs[:live]
	t.text = t.text[:w]
	t.deletedSymbols = 0
	t.nodeCount = 0
	clear(t.table)
	t.edges = 0
	for seq := range t.docs {
		t.ukkonen(int32(seq))
	}
}

func (t *Tree) payload(e *docEntry) []byte { return t.text[e.off : e.off+e.n] }

// LiveDocs returns the live documents in insertion order. Payload slices
// are fresh copies.
func (t *Tree) LiveDocs() []doc.Doc {
	out := make([]doc.Doc, 0, len(t.byID))
	slab := make([]byte, 0, t.liveSymbols)
	for i := range t.docs {
		e := &t.docs[i]
		if e.deleted {
			continue
		}
		at := len(slab)
		slab = append(slab, t.payload(e)...)
		out = append(out, doc.Doc{ID: e.id, Data: slab[at:len(slab):len(slab)]})
	}
	return out
}

// LiveIDs returns the IDs of the live documents in unspecified order.
func (t *Tree) LiveIDs() []uint64 {
	out := make([]uint64, 0, len(t.byID))
	for id := range t.byID {
		out = append(out, id)
	}
	return out
}

// Extract returns length payload bytes of the live document id starting
// at offset off, clamped to the payload; ok is false if the document is
// not present.
func (t *Tree) Extract(id uint64, off, length int) (data []byte, ok bool) {
	seq, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	p := t.payload(&t.docs[seq])
	off, length = doc.Clamp(off, length, len(p))
	if length == 0 {
		return nil, true
	}
	return bytes.Clone(p[off : off+length]), true
}

// DocLen returns the payload length of the live document id; ok is false
// if the document is not present.
func (t *Tree) DocLen(id uint64) (n int, ok bool) {
	seq, ok := t.byID[id]
	if !ok {
		return 0, false
	}
	return int(t.docs[seq].n), true
}

// Occurrence is one pattern match: the document ID and the offset of the
// match within the document payload.
type Occurrence struct {
	DocID uint64
	Off   int
}

// Find reports every occurrence of pattern in every live document.
// An empty pattern matches at every position of every live document.
func (t *Tree) Find(pattern []byte) []Occurrence {
	var out []Occurrence
	t.FindFunc(pattern, func(o Occurrence) bool {
		out = append(out, o)
		return true
	})
	return out
}

// FindFunc calls fn for every occurrence of pattern; if fn returns false
// enumeration stops early.
func (t *Tree) FindFunc(pattern []byte, fn func(Occurrence) bool) {
	if locus := t.locus(pattern); locus >= 0 {
		t.collect(locus, len(pattern), fn)
	}
}

// Count returns the number of occurrences of pattern in live documents.
func (t *Tree) Count(pattern []byte) int {
	n := 0
	t.FindFunc(pattern, func(Occurrence) bool {
		n++
		return true
	})
	return n
}

// locus returns the highest node whose path covers pattern, or -1 if the
// pattern does not occur. A locus in the middle of an edge is represented
// by the edge's lower node.
func (t *Tree) locus(pattern []byte) int32 {
	if t.nodeCount == 0 {
		return -1
	}
	at := int32(0)
	for len(pattern) > 0 {
		child, _ := t.lookup(at, pattern[0])
		if child == 0 {
			return -1
		}
		nd := t.node(child)
		e := &t.docs[nd.doc]
		// The label's payload part. One that runs on into the terminator
		// belongs to a leaf, below which the next lookup finds nothing.
		label := t.text[e.off+nd.start : e.off+min(nd.end, e.n)]
		if len(pattern) <= len(label) {
			if !bytes.Equal(label[:len(pattern)], pattern) {
				return -1
			}
			return child
		}
		if !bytes.Equal(label, pattern[:len(label)]) {
			return -1
		}
		pattern = pattern[len(label):]
		at = child
	}
	return at
}

// collect walks the subtree of node i reporting live leaves whose suffix
// has at least patLen payload symbols before the terminator.
func (t *Tree) collect(i int32, patLen int, fn func(Occurrence) bool) bool {
	nd := t.node(i)
	if nd.suffixStart >= 0 {
		e := &t.docs[nd.doc]
		off := int(nd.suffixStart)
		// A match must start inside the payload and fit before the
		// terminator; the off < n guard excludes the terminator-only
		// suffix when the pattern is empty.
		if !e.deleted && off < int(e.n) && off+patLen <= int(e.n) {
			return fn(Occurrence{DocID: e.id, Off: off})
		}
		return true
	}
	for c := nd.firstChild; c != 0; c = t.node(c).nextSibling {
		if !t.collect(c, patLen, fn) {
			return false
		}
	}
	return true
}

func (t *Tree) node(i int32) *node { return &t.chunks[i>>chunkShift][i&chunkMask] }

// newNode stores nd in the next free slot, adding a chunk when the last
// one is full. Existing nodes do not move.
func (t *Tree) newNode(nd node) int32 {
	i := t.nodeCount
	if i>>chunkShift == len(t.chunks) {
		if i == maxNodes {
			panic("suffixtree: tree exceeds 2^28 nodes")
		}
		t.chunks = append(t.chunks, new([chunkSize]node))
	}
	t.chunks[i>>chunkShift][i&chunkMask] = nd
	t.nodeCount++
	return int32(i)
}

// addChild links child, whose edge starts with sym, at the head of
// parent's child list and enters it in the table.
func (t *Tree) addChild(parent int32, sym byte, child int32) {
	p, c := t.node(parent), t.node(child)
	c.nextSibling = p.firstChild
	if p.firstChild != 0 {
		t.node(p.firstChild).prevSibling = child
	}
	p.firstChild = child
	t.enter(parent, sym, child)
}

// enter records child under (parent, sym) in the table, unless sym is a
// terminator: nothing ever looks one up, since an insert searches only
// for its own document's symbols and a pattern has none.
func (t *Tree) enter(parent int32, sym byte, child int32) {
	if sym == 0 {
		return
	}
	if (t.edges+1)*4 > len(t.table)*3 {
		t.growTable()
	}
	t.place(slotKey(parent, sym)<<childBits | uint64(child))
	t.edges++
}

func slotKey(parent int32, sym byte) uint64 { return uint64(parent)<<8 | uint64(sym) }

// lookup returns the child of parent whose edge starts with sym, or 0,
// and the slot that holds it.
func (t *Tree) lookup(parent int32, sym byte) (child int32, slot int) {
	if len(t.table) == 0 {
		return 0, 0
	}
	key := slotKey(parent, sym)
	mask := len(t.table) - 1
	for i := int(key * hashMult >> t.shift); ; i = (i + 1) & mask {
		s := t.table[i]
		if s == 0 {
			return 0, i
		}
		if s>>childBits == key {
			return int32(s & childMask), i
		}
	}
}

// place stores an occupied slot word at the first free position of its
// probe sequence.
func (t *Tree) place(s uint64) {
	mask := len(t.table) - 1
	i := int((s >> childBits) * hashMult >> t.shift)
	for t.table[i] != 0 {
		i = (i + 1) & mask
	}
	t.table[i] = s
}

// growTable quadruples the table. Against doubling that is a third of
// the rehashing and shorter probe sequences, for about the same memory
// over the fill-once life C0 leads: the last table is larger, but the
// outgrown ones add up to a third of it instead of all of it.
func (t *Tree) growTable() {
	old := t.table
	t.table = make([]uint64, max(4*len(old), minTable))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.table))))
	for _, s := range old {
		if s != 0 {
			t.place(s)
		}
	}
}

// labelSym returns the k-th symbol of nd's edge label: a payload byte,
// or 0 for the owning document's terminator.
func (t *Tree) labelSym(nd *node, k int) byte {
	e := &t.docs[nd.doc]
	if i := nd.start + int32(k); i < e.n {
		return t.text[e.off+i]
	}
	return 0
}

// ukkonen inserts all suffixes of docs[seq] with Ukkonen's algorithm.
// The whole document is known up front, so a leaf's edge runs to the
// terminator from the moment it is created and needs no later fix-up.
func (t *Tree) ukkonen(seq int32) {
	if t.nodeCount == 0 {
		t.newNode(node{suffixStart: -1})
	}
	text := t.payload(&t.docs[seq])
	n := len(text)
	// symAt reads the document being inserted; position n is its
	// terminator.
	symAt := func(i int) byte {
		if i < n {
			return text[i]
		}
		return 0
	}
	active := int32(0)
	activeEdge, activeLength, remaining := 0, 0, 0

	for pos := 0; pos <= n; pos++ {
		c := symAt(pos)
		remaining++
		lastNew := int32(0)
		for remaining > 0 {
			if activeLength == 0 {
				activeEdge = pos
			}
			first := symAt(activeEdge)
			var next int32
			var slot int
			if first != 0 { // its own terminator is under no node yet
				next, slot = t.lookup(active, first)
			}
			if next == 0 {
				leaf := t.newNode(node{doc: seq, start: int32(activeEdge), end: int32(n + 1), suffixStart: int32(pos - remaining + 1)})
				t.addChild(active, first, leaf)
				if lastNew != 0 {
					t.node(lastNew).link = active
					lastNew = 0
				}
			} else {
				nd := t.node(next)
				if el := int(nd.end - nd.start); activeLength >= el {
					activeEdge += el
					activeLength -= el
					active = next
					continue
				}
				if b := t.labelSym(nd, activeLength); b != 0 && b == c {
					activeLength++
					if lastNew != 0 {
						t.node(lastNew).link = active
						lastNew = 0
					}
					break
				}
				// Split the edge: the new internal node takes next's
				// place under active, in the sibling list and in the
				// table, and next becomes its first child.
				split := t.newNode(node{
					doc: nd.doc, start: nd.start, end: nd.start + int32(activeLength),
					firstChild: next, nextSibling: nd.nextSibling, prevSibling: nd.prevSibling,
					suffixStart: -1,
				})
				if nd.prevSibling != 0 {
					t.node(nd.prevSibling).nextSibling = split
				} else {
					t.node(active).firstChild = split
				}
				if nd.nextSibling != 0 {
					t.node(nd.nextSibling).prevSibling = split
				}
				t.table[slot] = t.table[slot]&^childMask | uint64(split)
				nd.start += int32(activeLength)
				nd.nextSibling, nd.prevSibling = 0, 0
				t.enter(split, t.labelSym(nd, 0), next)
				leaf := t.newNode(node{doc: seq, start: int32(pos), end: int32(n + 1), suffixStart: int32(pos - remaining + 1)})
				t.addChild(split, c, leaf)
				if lastNew != 0 {
					t.node(lastNew).link = split
				}
				lastNew = split
			}
			remaining--
			if active == 0 && activeLength > 0 {
				activeLength--
				activeEdge = pos - remaining + 1
			} else if active != 0 {
				active = t.node(active).link
			}
		}
	}
}

// SizeBits estimates the memory footprint in bits from the lengths in
// use: nodes, the child table, the text arena and the document table.
func (t *Tree) SizeBits() int64 {
	return int64(t.nodeCount)*nodeBits + int64(len(t.table))*64 +
		int64(len(t.text))*8 + int64(len(t.docs))*docBits
}
