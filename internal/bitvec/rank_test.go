package bitvec

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"dyncoll/internal/snap"
)

// The forward-scanning rank routines the nearer-entry kernel replaced,
// kept as the differential reference: count from superRank[s] over
// every whole word of the superblock before i.

func scalarRank1(v *Vector, i int) int {
	s := i / superBits
	r := int(v.superRank[s])
	w := s * superWords
	for end := i / wordBits; w < end; w++ {
		r += bits.OnesCount64(v.words[w])
	}
	if rem := uint(i % wordBits); rem != 0 {
		r += bits.OnesCount64(v.words[w] & (1<<rem - 1))
	}
	return r
}

func scalarGetRank1(v *Vector, i int) (bool, int) {
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1, scalarRank1(v, i)
}

// vectorForms returns the three ways a Vector comes to exist: sealed on
// the heap, decoded from the portable form, and viewed over the mapped
// form (whose words and directory alias the encoded bytes).
func vectorForms(t testing.TB, words []uint64, n int) map[string]*Vector {
	heap := FromWords(words, n)
	wire, err := heap.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Vector
	if err := decoded.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	var enc snap.MapEncoder
	heap.EncodeMapped(&enc)
	mv := snap.NewMapView(enc.Bytes())
	mapped := ViewMapped(mv)
	if err := mv.Err(); err != nil {
		t.Fatal(err)
	}
	return map[string]*Vector{"heap": heap, "decoded": &decoded, "mapped": mapped}
}

// randomWords returns the words of an n-bit vector with bits set with
// probability p; bits at positions ≥ n stay zero, as Seal requires.
func randomWords(rng *rand.Rand, n int, p float64) []uint64 {
	words := make([]uint64, (n+wordBits-1)/wordBits)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			words[i/wordBits] |= 1 << (uint(i) % wordBits)
		}
	}
	return words
}

// checkRankKernel compares every rank entry point with the scalar
// reference at every position of v.
func checkRankKernel(t testing.TB, v *Vector) {
	for i := 0; i <= v.Len(); i++ {
		want := scalarRank1(v, i)
		if got := v.Rank1(i); got != want {
			t.Fatalf("n=%d: Rank1(%d) = %d, want %d", v.Len(), i, got, want)
		}
		if i < v.Len() {
			wb, wr := scalarGetRank1(v, i)
			if gb, gr := v.GetRank1(i); gb != wb || gr != wr {
				t.Fatalf("n=%d: GetRank1(%d) = %v,%d, want %v,%d", v.Len(), i, gb, gr, wb, wr)
			}
		}
	}
	// Rank1Pair over pairs in one superblock, in neighbouring ones and
	// far apart.
	for i := 0; i <= v.Len(); i += 1 + i%7 {
		for _, d := range []int{0, 1, 63, 64, 200, 255, 256, 511, 512, 1000} {
			j := i + d
			if j > v.Len() {
				break
			}
			ri, rj := v.Rank1Pair(i, j)
			if wi, wj := scalarRank1(v, i), scalarRank1(v, j); ri != wi || rj != wj {
				t.Fatalf("n=%d: Rank1Pair(%d,%d) = %d,%d, want %d,%d", v.Len(), i, j, ri, rj, wi, wj)
			}
		}
	}
}

// TestRankMatchesScalar holds Rank1, GetRank1 and Rank1Pair to the
// forward scan at every position, across lengths that end inside, at
// and just past word, quarter and superblock boundaries — including a
// word count that is not a multiple of eight, whose last superblock is
// short — in all three forms of a vector.
func TestRankMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	lengths := []int{0, 1, 63, 64, 65, 255, 256, 257, 511, 512, 513, 767, 768, 769, 4095, 4096, 64 * 13, 64*21 + 5}
	for _, n := range lengths {
		for _, p := range []float64{0, 0.03, 0.5, 0.97, 1} {
			for form, v := range vectorForms(t, randomWords(rng, n, p), n) {
				t.Run(fmt.Sprintf("n=%d/p=%v/%s", n, p, form), func(t *testing.T) {
					checkRankKernel(t, v)
				})
			}
		}
	}
}

// FuzzRankKernel checks the kernel against the scalar reference on
// arbitrary words, lengths and positions.
func FuzzRankKernel(f *testing.F) {
	f.Add([]byte{0xff, 0x01, 0x80}, uint16(17), uint16(5))
	f.Add(make([]byte, 8*9), uint16(64*9-1), uint16(300))
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55}, uint16(64), uint16(64))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw, iRaw uint16) {
		words := make([]uint64, (len(raw)+7)/8)
		for k, b := range raw {
			words[k/8] |= uint64(b) << (8 * uint(k%8))
		}
		n := int(nRaw) % (len(words)*wordBits + 1)
		if rem := n % wordBits; rem != 0 {
			words[n/wordBits] &= lowMask(rem)
		}
		words = words[:(n+wordBits-1)/wordBits]
		for form, v := range vectorForms(t, words, n) {
			i := int(iRaw) % (n + 1)
			if got, want := v.Rank1(i), scalarRank1(v, i); got != want {
				t.Fatalf("%s n=%d: Rank1(%d) = %d, want %d", form, n, i, got, want)
			}
			if i < n {
				wb, wr := scalarGetRank1(v, i)
				if gb, gr := v.GetRank1(i); gb != wb || gr != wr {
					t.Fatalf("%s n=%d: GetRank1(%d) = %v,%d, want %v,%d", form, n, i, gb, gr, wb, wr)
				}
			}
			j := i + int(iRaw>>8)%(n-i+1)
			ri, rj := v.Rank1Pair(i, j)
			if ri != scalarRank1(v, i) || rj != scalarRank1(v, j) {
				t.Fatalf("%s n=%d: Rank1Pair(%d,%d) = %d,%d", form, n, i, j, ri, rj)
			}
		}
	})
}

// benchRank prices one rank routine over random positions of a 2²⁶-bit
// vector, beyond L2 as a large store's wavelet levels are. In the
// chained form each position depends on the previous result, as one
// wavelet walk's levels do; in the independent form successive calls
// may overlap, as lanes do.
func benchRank(b *testing.B, chained bool, rank func(v *Vector, i int) int) {
	rng := rand.New(rand.NewSource(4))
	v := FromWords(randomWords(rng, 1<<26, 0.5), 1<<26)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = rng.Intn(v.Len() - 1)
	}
	dep := 0
	if chained {
		dep = 1
	}
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += rank(v, idx[i&4095]+sink&dep)
	}
	rankSink = sink
}

var rankSink int

// BenchmarkRankKernel compares the nearer-entry kernel with the scalar
// reference.
func BenchmarkRankKernel(b *testing.B) {
	getRank := func(v *Vector, i int) int { _, r := v.GetRank1(i); return r }
	scalarGet := func(v *Vector, i int) int { _, r := scalarGetRank1(v, i); return r }
	for _, chained := range []bool{false, true} {
		b.Run(fmt.Sprintf("chained=%v/kernel", chained), func(b *testing.B) { benchRank(b, chained, getRank) })
		b.Run(fmt.Sprintf("chained=%v/scalar", chained), func(b *testing.B) { benchRank(b, chained, scalarGet) })
	}
}
