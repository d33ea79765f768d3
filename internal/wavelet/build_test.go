package wavelet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyncoll/internal/bitvec"
	"dyncoll/internal/huffman"
)

// buildPingPong is the breadth-first builder the scatter builder
// replaced, kept as the reference the differential tests compare
// against. Two ping-pong symbol buffers carry the per-node segments
// from one depth to the next: a stable partition of each internal
// node's segment writes its zeros then its ones, which is exactly the
// level-order segment layout of the children.
func buildPingPong[S byte | uint32](s []S, sigma int, codes []huffman.Code) *Tree {
	t := &Tree{sigma: sigma, n: len(s), codes: codes}
	if len(s) == 0 {
		return t
	}
	type segment struct {
		node       int32
		start, end int32
	}
	cur, next := make([]S, len(s)), make([]S, len(s))
	copy(cur, s)
	segs := []segment{{node: 0, start: 0, end: int32(len(s))}}
	var nextSegs []segment
	t.nodes = append(t.nodes, node{zero: -1, one: -1, leaf: -1})
	// bitAt[c] is symbol c's code bit at the current depth: one byte
	// load per symbol in the hot partition loops instead of a code
	// struct load plus shifts.
	bitAt := make([]uint8, sigma)
	for depth := int32(0); len(segs) > 0; depth++ {
		for c, code := range codes {
			if int32(code.Len) > depth {
				bitAt[c] = uint8(code.Bits >> uint(int32(code.Len)-depth-1) & 1)
			}
		}
		// A segment whose symbols have used up their code is one symbol:
		// a leaf. Every other segment writes one bit per symbol.
		isLeaf := func(sg segment) bool {
			l := int32(codes[cur[sg.start]].Len)
			return l == depth || l == 0
		}
		levelBits := 0
		for _, sg := range segs {
			if !isLeaf(sg) {
				levelBits += int(sg.end - sg.start)
			}
		}
		lv := bitvec.New(levelBits)
		levelOnes := int32(0)
		nextSegs = nextSegs[:0]
		nextPos := int32(0)
		for _, sg := range segs {
			// Work on a copy: appending child nodes below may reallocate
			// t.nodes, so writes go back by index at the end.
			nd := t.nodes[sg.node]
			nd.depth = depth
			nd.count = sg.end - sg.start
			if isLeaf(sg) {
				nd.leaf = int32(cur[sg.start])
				t.nodes[sg.node] = nd
				continue
			}
			nd.off = int32(lv.Len())
			nd.onesBefore = levelOnes
			// First pass: emit the code bits at this depth, 64 at a time.
			shift := uint(0)
			var reg uint64
			ones := int32(0)
			for _, c := range cur[sg.start:sg.end] {
				bit := bitAt[c]
				reg |= uint64(bit) << shift
				ones += int32(bit)
				if shift++; shift == 64 {
					lv.AppendWord(reg, 64)
					reg, shift = 0, 0
				}
			}
			if shift > 0 {
				lv.AppendWord(reg, int(shift))
			}
			levelOnes += ones
			// Second pass: stable-partition the segment into the next
			// buffer — zeros first, then ones.
			zw := nextPos
			ow := nextPos + (sg.end - sg.start - ones)
			zeroStart, oneStart := zw, ow
			for _, c := range cur[sg.start:sg.end] {
				if bitAt[c] == 1 {
					next[ow] = c
					ow++
				} else {
					next[zw] = c
					zw++
				}
			}
			nextPos = ow
			if zw > zeroStart {
				nd.zero = int32(len(t.nodes))
				t.nodes = append(t.nodes, node{zero: -1, one: -1, leaf: -1})
				nextSegs = append(nextSegs, segment{node: nd.zero, start: zeroStart, end: zw})
			}
			if ow > oneStart {
				nd.one = int32(len(t.nodes))
				t.nodes = append(t.nodes, node{zero: -1, one: -1, leaf: -1})
				nextSegs = append(nextSegs, segment{node: nd.one, start: oneStart, end: ow})
			}
			t.nodes[sg.node] = nd
		}
		if levelBits > 0 {
			lv.Seal()
			t.levels = append(t.levels, lv)
		}
		cur, next = next, cur
		segs, nextSegs = nextSegs, segs
	}
	return t
}

// sameBuild asserts the scatter builder and the ping-pong reference
// produced the same tree: node table and every level's bits and words.
func sameBuild(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.n != want.n || got.sigma != want.sigma {
		t.Fatalf("n/sigma = %d/%d, reference %d/%d", got.n, got.sigma, want.n, want.sigma)
	}
	if !slices.Equal(got.nodes, want.nodes) {
		t.Fatalf("node tables differ:\n got %v\nwant %v", got.nodes, want.nodes)
	}
	if len(got.levels) != len(want.levels) {
		t.Fatalf("%d levels, reference %d", len(got.levels), len(want.levels))
	}
	for d := range got.levels {
		g, w := got.levels[d], want.levels[d]
		if g.Len() != w.Len() || g.Ones() != w.Ones() || !slices.Equal(g.Words(), w.Words()) {
			t.Fatalf("level %d differs: %d bits/%d ones, reference %d/%d", d, g.Len(), g.Ones(), w.Len(), w.Ones())
		}
	}
}

// diffBuild builds s both ways under both shapes.
func diffBuild[S byte | uint32](t *testing.T, s []S, sigma int) {
	t.Helper()
	freq := make([]int64, sigma)
	for _, c := range s {
		freq[c]++
	}
	sameBuild(t, build(s, sigma), buildPingPong(s, sigma, huffman.Build(freq)))
	sameBuild(t, scatter(s, balancedCodes(sigma), freq), buildPingPong(s, sigma, balancedCodes(sigma)))
}

func TestScatterMatchesPingPong(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, sigma := range []int{1, 2, 3, 64, 256} {
		for _, n := range []int{1, 63, 64, 65, 1000, 5000} {
			s := make([]byte, n)
			for i := range s {
				s[i] = byte(rng.Intn(sigma))
			}
			diffBuild(t, s, sigma)
			// Absent symbols: under balanced codes whole subtrees go
			// missing and internal nodes keep a single child.
			for i := range s {
				s[i] = s[i] / 3 * 3
			}
			diffBuild(t, s, sigma)
			// One symbol only, not the smallest.
			for i := range s {
				s[i] = byte(sigma - 1)
			}
			diffBuild(t, s, sigma)
		}
	}
	diffBuild(t, []byte(nil), 256)
	diffBuild(t, []uint32(nil), 7)

	// Geometric skew: symbol c occurs 2^(23-c) times, so Huffman codes
	// run to 23 bits and the deepest levels hold a handful of bits.
	var skew []byte
	for c := 0; c < 24; c++ {
		for k := 0; k < 1<<(23-c); k++ {
			skew = append(skew, byte(c))
		}
	}
	rng.Shuffle(len(skew), func(i, j int) { skew[i], skew[j] = skew[j], skew[i] })
	tr := NewHuffmanBytes(skew, 24)
	if got := tr.codes[23].Len; got <= 16 {
		t.Fatalf("skewed corpus yields %d-bit codes, want > 16", got)
	}
	diffBuild(t, skew, 24)

	// A large, sparse integer alphabet: the binrel shape.
	const bigSigma = 100_000
	wide := make([]uint32, 60_000)
	for i := range wide {
		wide[i] = uint32(rng.Intn(bigSigma)) * uint32(rng.Intn(bigSigma)) / bigSigma
	}
	diffBuild(t, wide, bigSigma)
}

func TestHuffmanBytesCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := make([]byte, 3000)
	freq := make([]int64, 256)
	for i := range s {
		s[i] = byte(rng.Intn(40) * rng.Intn(6))
		freq[s[i]]++
	}
	sameBuild(t, NewHuffmanBytesCounted(s, freq), NewHuffmanBytes(s, 256))
}

// FuzzWaveletBuild checks Access and Rank of a freshly built tree of
// either shape against a scan of the sequence.
func FuzzWaveletBuild(f *testing.F) {
	f.Add([]byte("abracadabra"), uint8(0), true)
	f.Add([]byte{0, 0, 0, 0}, uint8(1), false)
	f.Add([]byte{255, 1, 255, 2, 255, 3, 7}, uint8(255), true)
	f.Add([]byte{}, uint8(9), false)
	f.Fuzz(func(t *testing.T, s []byte, slack uint8, huff bool) {
		sigma := 1 + int(slack)
		for _, c := range s {
			sigma = max(sigma, int(c)+1)
		}
		newTree := NewBalancedBytes
		if huff {
			newTree = NewHuffmanBytes
		}
		tr := newTree(s, sigma)
		seen := make([]int, sigma)
		for i, c := range s {
			if got := tr.Access(i); got != uint32(c) {
				t.Fatalf("Access(%d) = %d, want %d", i, got, c)
			}
			if got := tr.Rank(uint32(c), i); got != seen[c] {
				t.Fatalf("Rank(%d, %d) = %d, want %d", c, i, got, seen[c])
			}
			seen[c]++
		}
		for c, want := range seen {
			if got := tr.Rank(uint32(c), len(s)); got != want {
				t.Fatalf("Rank(%d, %d) = %d, want %d", c, len(s), got, want)
			}
		}
	})
}

// BenchmarkBuildHuffmanBytes times the scatter builder and the ping-pong
// reference at the store sizes the ladder builds.
func BenchmarkBuildHuffmanBytes(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{26 << 10, 108 << 10, 460 << 10, 2 << 20} {
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(32 + rng.Intn(8)*rng.Intn(8)) // σ ≈ 40, skewed like text
		}
		b.Run(fmt.Sprintf("scatter/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				NewHuffmanBytes(s, 256)
			}
		})
		b.Run(fmt.Sprintf("pingpong/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				buildPingPong(s, 256, huffman.Build(huffman.Freq(s, 256)))
			}
		})
	}
}
