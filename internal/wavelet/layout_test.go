package wavelet

// Tests pinning the flat level-order layout to the behaviour and wire
// format of the original pointer-node implementation.
//
// testdata/pointer_layout.bin was encoded by the pointer implementation
// (before the flat rewrite) over the deterministic sequences below; the
// flat tree must encode the same sequences byte-identically and decode
// the fixture into an equivalent tree. This is the marshal half of the
// layout-change contract: snapshots written before the rewrite keep
// loading, and snapshots written after it load in old builds.

import (
	"bytes"
	"os"
	"testing"

	"dyncoll/internal/snap"
)

// fixtureRNG is the deterministic generator the fixture was built with
// (splitmix64).
type fixtureRNG uint64

func (r *fixtureRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fixtureSequences regenerates the sequences the committed fixture
// encodes, in fixture order.
func fixtureSequences() ([][]uint32, []int, []func([]uint32) *Tree) {
	rng := fixtureRNG(42)
	bs := make([]uint32, 4096)
	for i := range bs {
		v := rng.next() % 256
		bs[i] = uint32(byte(v * v / 256)) // skew toward low symbols
	}
	syms := make([]uint32, 2000)
	for i := range syms {
		syms[i] = uint32(rng.next() % 37)
	}
	sparse := make([]uint32, 1500)
	for i := range sparse {
		sparse[i] = uint32(rng.next()%25) * 2
	}
	seqs := [][]uint32{bs, syms, sparse, nil, {3, 3, 3}}
	sigmas := []int{256, 37, 50, 256, 4}
	builders := []func([]uint32) *Tree{
		func(s []uint32) *Tree { return NewHuffmanBytes(symsToBytes(s), 256) },
		func(s []uint32) *Tree { return NewBalanced(s, 37) },
		func(s []uint32) *Tree { return NewHuffman(s, 50) },
		func(s []uint32) *Tree { return NewHuffmanBytes(symsToBytes(s), 256) },
		func(s []uint32) *Tree { return NewBalanced(s, 4) },
	}
	return seqs, sigmas, builders
}

func symsToBytes(s []uint32) []byte {
	out := make([]byte, len(s))
	for i, v := range s {
		out[i] = byte(v)
	}
	return out
}

func TestPointerLayoutFixtureByteIdentical(t *testing.T) {
	want, err := os.ReadFile("testdata/pointer_layout.bin")
	if err != nil {
		t.Fatal(err)
	}
	seqs, _, builders := fixtureSequences()
	e := snap.Encoder{}
	for i, seq := range seqs {
		builders[i](seq).EncodeTo(&e)
	}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("flat-layout encoding differs from pointer-era fixture: got %d bytes, fixture %d bytes", e.Len(), len(want))
	}
}

func TestPointerLayoutFixtureDecodes(t *testing.T) {
	raw, err := os.ReadFile("testdata/pointer_layout.bin")
	if err != nil {
		t.Fatal(err)
	}
	seqs, sigmas, _ := fixtureSequences()
	d := snap.NewDecoder(raw)
	for i, seq := range seqs {
		tr := DecodeFrom(d)
		if err := d.Err(); err != nil {
			t.Fatalf("fixture tree %d: %v", i, err)
		}
		if tr.Len() != len(seq) || tr.Sigma() != sigmas[i] {
			t.Fatalf("fixture tree %d: n=%d sigma=%d, want %d/%d", i, tr.Len(), tr.Sigma(), len(seq), sigmas[i])
		}
		checkAgainstSequence(t, tr, seq, sigmas[i])
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after fixture trees", d.Remaining())
	}
}

// checkAgainstSequence verifies every query against direct computation
// over the raw sequence.
func checkAgainstSequence(t *testing.T, tr *Tree, seq []uint32, sigma int) {
	t.Helper()
	counts := make([]int, sigma)
	for i, c := range seq {
		if got := tr.Access(i); got != c {
			t.Fatalf("Access(%d) = %d, want %d", i, got, c)
		}
		counts[c]++
	}
	rng := fixtureRNG(7)
	// The sequential decoder: front to back one symbol at a time, in
	// random skips, and in bulk through the byte path.
	dec, hop := tr.NewDecoder(), tr.NewDecoder()
	for i, at := 0, 0; i < len(seq); i++ {
		if got := dec.Next(); got != seq[i] {
			t.Fatalf("Decoder.Next at %d = %d, want %d", i, got, seq[i])
		}
		if i == at {
			if got := hop.Next(); got != seq[i] {
				t.Fatalf("Decoder.Next after Skip to %d = %d, want %d", i, got, seq[i])
			}
			k := int(rng.next() % 600)
			k = min(k, len(seq)-i-1)
			hop.Skip(k)
			at = i + 1 + k
		}
	}
	if sigma <= 256 {
		got := make([]byte, len(seq))
		bulk := tr.NewDecoder()
		bulk.ReadBytes(got[:len(seq)/3])
		bulk.ReadBytes(got[len(seq)/3:])
		if !bytes.Equal(got, symsToBytes(seq)) {
			t.Fatal("Decoder.ReadBytes differs from the sequence")
		}
	}
	for trial := 0; trial < 200; trial++ {
		c := uint32(rng.next() % uint64(sigma))
		i := int(rng.next() % uint64(len(seq)+1))
		j := i + int(rng.next()%uint64(len(seq)+1-i))
		wantI, wantJ := 0, 0
		for p := 0; p < j; p++ {
			if seq[p] == c {
				if p < i {
					wantI++
				}
				wantJ++
			}
		}
		if got := tr.Rank(c, i); got != wantI {
			t.Fatalf("Rank(%d, %d) = %d, want %d", c, i, got, wantI)
		}
		gi, gj := tr.RankPair(c, i, j)
		if gi != wantI || gj != wantJ {
			t.Fatalf("RankPair(%d, %d, %d) = (%d, %d), want (%d, %d)", c, i, j, gi, gj, wantI, wantJ)
		}
	}
	for c := 0; c < sigma; c++ {
		if got := tr.Count(uint32(c)); got != counts[c] {
			t.Fatalf("Count(%d) = %d, want %d", c, got, counts[c])
		}
		if counts[c] > 0 {
			k := counts[c]/2 + 1
			pos := tr.Select(uint32(c), k)
			seen := 0
			want := -1
			for p, s := range seq {
				if s == uint32(c) {
					seen++
					if seen == k {
						want = p
						break
					}
				}
			}
			if pos != want {
				t.Fatalf("Select(%d, %d) = %d, want %d", c, k, pos, want)
			}
		}
		if got := tr.Select(uint32(c), counts[c]+1); got != -1 {
			t.Fatalf("Select(%d, %d) = %d, want -1", c, counts[c]+1, got)
		}
	}
}

// TestFlatLayoutRandomized drives randomized Access/Rank/RankPair/
// Select against direct computation on freshly built trees of both
// shapes and assorted alphabets — the behavioural half of the layout
// equivalence contract.
func TestFlatLayoutRandomized(t *testing.T) {
	rng := fixtureRNG(99)
	for trial := 0; trial < 20; trial++ {
		sigma := 2 + int(rng.next()%300)
		n := int(rng.next() % 3000)
		seq := make([]uint32, n)
		for i := range seq {
			// Skewed so Huffman shapes are non-trivial.
			seq[i] = uint32(rng.next()%uint64(sigma)) * uint32(rng.next()%uint64(sigma)) / uint32(sigma)
		}
		var tr *Tree
		if trial%2 == 0 {
			tr = NewHuffman(seq, sigma)
		} else {
			tr = NewBalanced(seq, sigma)
		}
		checkAgainstSequence(t, tr, seq, sigma)

		// Marshal round-trip through the flat encoder/decoder.
		e := snap.Encoder{}
		tr.EncodeTo(&e)
		rt := DecodeFrom(snap.NewDecoder(e.Bytes()))
		if rt == nil {
			t.Fatal("round-trip decode failed")
		}
		checkAgainstSequence(t, rt, seq, sigma)

		// And through the mapped form, whose levels alias the payload.
		var me snap.MapEncoder
		tr.EncodeMapped(&me)
		mt := ViewMapped(snap.NewMapView(me.Bytes()))
		if mt == nil {
			t.Fatal("mapped view failed")
		}
		checkAgainstSequence(t, mt, seq, sigma)
	}
}
