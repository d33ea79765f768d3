package wavelet

import "fmt"

// Decoder reads a tree's sequence front to back without touching a rank
// directory. Access pays one rank per level because it lands on an
// arbitrary position; a front-to-back reader never needs one, because
// the symbols routed to a node arrive in sequence order: the i-th
// symbol to reach a node reads the node's i-th bit. So every node keeps
// a cursor into its level's raw words, and decoding a symbol is one bit
// load per code bit. Bulk consumers (index rebuilds that decompress a
// whole store) read through it; point queries keep using Access.
//
// A Decoder holds O(nodes) state and aliases the tree's level words; it
// never writes to the tree, so any number may run beside queries.
type Decoder struct {
	cursors []cursor
	root    int32 // cursor index, or ^symbol for a single-symbol tree
	left    int   // symbols not yet read
}

// cursor is one internal node's read position.
type cursor struct {
	words []uint64 // the node's level vector
	pos   int      // absolute bit position of the node's next unread bit
	child [2]int32 // next hop by bit: a cursor index, or ^symbol at a leaf
}

// NewDecoder returns a decoder positioned at the start of the sequence.
func (t *Tree) NewDecoder() *Decoder {
	d := &Decoder{left: t.n}
	if t.n == 0 {
		return d
	}
	// hop names a child for the decode loop: internal nodes keep their
	// node index (cursors is indexed like t.nodes), leaves turn into
	// ^symbol. A side no symbol takes (-1) is never followed.
	hop := func(ni int32) int32 {
		if ni >= 0 && t.nodes[ni].leaf >= 0 {
			return ^t.nodes[ni].leaf
		}
		return ni
	}
	d.root = hop(0)
	d.cursors = make([]cursor, len(t.nodes))
	for i := range t.nodes {
		if nd := &t.nodes[i]; nd.leaf < 0 {
			d.cursors[i] = cursor{
				words: t.levels[nd.depth].Words(),
				pos:   int(nd.off),
				child: [2]int32{hop(nd.zero), hop(nd.one)},
			}
		}
	}
	return d
}

// ReadAll writes the whole sequence to dst[:Len()] through a Decoder,
// as Quad.ReadAll does for the 4-ary tree; the alphabet must fit a
// byte. It needs no scratch and returns scratch as it is.
func (t *Tree) ReadAll(dst, scratch []byte) []byte {
	t.NewDecoder().ReadBytes(dst[:t.n])
	return scratch
}

// Next returns the next symbol of the sequence.
func (d *Decoder) Next() uint32 {
	var one [1]uint32
	decode(d, one[:])
	return one[0]
}

// ReadBytes fills dst with the next len(dst) symbols of a tree whose
// alphabet fits a byte (the caller's invariant: sigma ≤ 256).
func (d *Decoder) ReadBytes(dst []byte) { decode(d, dst) }

// Skip discards the next k symbols.
func (d *Decoder) Skip(k int) {
	var buf [256]uint32
	for k > 0 {
		m := min(k, len(buf))
		decode(d, buf[:m])
		k -= m
	}
}

func decode[S byte | uint32](d *Decoder, dst []S) {
	if len(dst) > d.left {
		panic(fmt.Sprintf("wavelet: decoding %d symbols with %d left", len(dst), d.left))
	}
	d.left -= len(dst)
	cursors := d.cursors
	for i := range dst {
		ni := d.root
		for ni >= 0 {
			c := &cursors[ni]
			p := c.pos
			c.pos = p + 1
			ni = c.child[c.words[p>>6]>>(uint(p)&63)&1]
		}
		dst[i] = S(^ni)
	}
}
