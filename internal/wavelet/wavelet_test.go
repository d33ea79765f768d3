package wavelet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

type refSeq []uint32

func (r refSeq) rank(c uint32, i int) int {
	n := 0
	for _, x := range r[:i] {
		if x == c {
			n++
		}
	}
	return n
}

func (r refSeq) sel(c uint32, k int) int {
	for i, x := range r {
		if x == c {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func randomSeq(rng *rand.Rand, n, sigma int) refSeq {
	s := make(refSeq, n)
	for i := range s {
		s[i] = uint32(rng.Intn(sigma))
	}
	return s
}

// builders under test share the same behaviour contract.
var builders = map[string]func(s []uint32, sigma int) *Tree{
	"balanced": NewBalanced,
	"huffman":  NewHuffman,
}

// TestAccessRanksMatchScan holds the level-synchronous walk to a scan of
// the sequence: for batches of every size up to 17 positions (lanes that
// reach their leaves at different depths, repeats included), each
// position's symbol and that symbol's rank there, in both tree shapes,
// one- and many-symbol alphabets, skewed and uniform.
func TestAccessRanksMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for name, mk := range builders {
		for _, sigma := range []int{1, 2, 5, 64, 300} {
			s := randomSeq(rng, 2000, sigma)
			for i := range s[:1000] {
				s[i] %= 3 // skew: deep and shallow Huffman leaves
			}
			tr := mk(s, sigma)
			for batch := 0; batch <= 17; batch++ {
				pos := make([]int, batch)
				want := make([]int, batch)
				for k := range pos {
					pos[k] = rng.Intn(len(s))
					want[k] = pos[k]
				}
				sym := make([]uint32, batch)
				tr.AccessRanks(pos, sym)
				for k, i := range want {
					if sym[k] != s[i] || pos[k] != s.rank(s[i], i) {
						t.Fatalf("%s σ=%d batch %d: position %d gave (%d, %d), want (%d, %d)",
							name, sigma, batch, i, sym[k], pos[k], s[i], s.rank(s[i], i))
					}
				}
			}
		}
	}
}

func TestEmptySequence(t *testing.T) {
	for name, mk := range builders {
		tr := mk(nil, 5)
		if tr.Len() != 0 {
			t.Fatalf("%s: Len=%d", name, tr.Len())
		}
		if tr.Rank(3, 0) != 0 {
			t.Fatalf("%s: Rank on empty", name)
		}
		if tr.Select(3, 1) != -1 {
			t.Fatalf("%s: Select on empty", name)
		}
	}
}

func TestSingleSymbolAlphabet(t *testing.T) {
	s := make([]uint32, 100)
	for name, mk := range builders {
		tr := mk(s, 1)
		if tr.Access(50) != 0 {
			t.Fatalf("%s: Access wrong", name)
		}
		if tr.Rank(0, 100) != 100 {
			t.Fatalf("%s: Rank=%d", name, tr.Rank(0, 100))
		}
		if tr.Select(0, 42) != 41 {
			t.Fatalf("%s: Select=%d", name, tr.Select(0, 42))
		}
	}
}

func TestAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, mk := range builders {
		for _, sigma := range []int{2, 3, 4, 5, 17, 64, 256, 1000} {
			n := 2000
			ref := randomSeq(rng, n, sigma)
			tr := mk(ref, sigma)
			for i := 0; i < n; i += 1 + n/113 {
				if got := tr.Access(i); got != ref[i] {
					t.Fatalf("%s σ=%d: Access(%d)=%d, want %d", name, sigma, i, got, ref[i])
				}
			}
			for trial := 0; trial < 200; trial++ {
				c := uint32(rng.Intn(sigma))
				i := rng.Intn(n + 1)
				if got, want := tr.Rank(c, i), ref.rank(c, i); got != want {
					t.Fatalf("%s σ=%d: Rank(%d,%d)=%d, want %d", name, sigma, c, i, got, want)
				}
				total := ref.rank(c, n)
				if total > 0 {
					k := 1 + rng.Intn(total)
					if got, want := tr.Select(c, k), ref.sel(c, k); got != want {
						t.Fatalf("%s σ=%d: Select(%d,%d)=%d, want %d", name, sigma, c, k, got, want)
					}
				}
				if got := tr.Select(c, total+1); got != -1 {
					t.Fatalf("%s σ=%d: Select past end = %d, want -1", name, sigma, got)
				}
			}
		}
	}
}

func TestRankOfAbsentSymbol(t *testing.T) {
	s := refSeq{1, 1, 1, 1}
	for name, mk := range builders {
		tr := mk(s, 8)
		if tr.Rank(5, 4) != 0 {
			t.Fatalf("%s: Rank of absent symbol non-zero", name)
		}
		if tr.Select(5, 1) != -1 {
			t.Fatalf("%s: Select of absent symbol", name)
		}
		if tr.Rank(100, 4) != 0 {
			t.Fatalf("%s: Rank outside alphabet", name)
		}
	}
}

func TestSkewedDistribution(t *testing.T) {
	// 95% one symbol: Huffman shape should be much smaller than balanced.
	rng := rand.New(rand.NewSource(2))
	n, sigma := 50000, 200
	s := make([]uint32, n)
	for i := range s {
		if rng.Float64() < 0.95 {
			s[i] = 7
		} else {
			s[i] = uint32(rng.Intn(sigma))
		}
	}
	bal := NewBalanced(s, sigma)
	huf := NewHuffman(s, sigma)
	if huf.SizeBits() >= bal.SizeBits() {
		t.Fatalf("huffman %d bits not below balanced %d bits on skewed data",
			huf.SizeBits(), bal.SizeBits())
	}
	// Behaviour must match regardless of shape.
	for trial := 0; trial < 500; trial++ {
		c := uint32(rng.Intn(sigma))
		i := rng.Intn(n + 1)
		if bal.Rank(c, i) != huf.Rank(c, i) {
			t.Fatalf("shapes disagree on Rank(%d,%d)", c, i)
		}
	}
}

func TestBytesConstructors(t *testing.T) {
	s := []byte("abracadabra")
	tr := NewHuffmanBytes(s, 256)
	if tr.Rank('a', len(s)) != 5 {
		t.Fatalf("Rank(a)=%d, want 5", tr.Rank('a', len(s)))
	}
	if tr.Select('r', 2) != 9 {
		t.Fatalf("Select(r,2)=%d, want 9", tr.Select('r', 2))
	}
	tb := NewBalancedBytes(s, 256)
	if tb.Access(4) != 'c' {
		t.Fatalf("Access(4)=%c", tb.Access(4))
	}
}

func TestQuickRankSelectInverse(t *testing.T) {
	f := func(seed int64, nRaw uint16, sigmaRaw uint8, huffmanShape bool) bool {
		n := int(nRaw)%3000 + 1
		sigma := int(sigmaRaw)%300 + 2
		rng := rand.New(rand.NewSource(seed))
		s := randomSeq(rng, n, sigma)
		var tr *Tree
		if huffmanShape {
			tr = NewHuffman(s, sigma)
		} else {
			tr = NewBalanced(s, sigma)
		}
		c := uint32(rng.Intn(sigma))
		total := tr.Count(c)
		for k := 1; k <= total; k += 1 + total/17 {
			pos := tr.Select(c, k)
			if pos < 0 || tr.Access(pos) != c || tr.Rank(c, pos) != k-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCountSumsToLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSeq(rng, 5000, 37)
	for name, mk := range builders {
		tr := mk(s, 37)
		sum := 0
		for c := 0; c < 37; c++ {
			sum += tr.Count(uint32(c))
		}
		if sum != 5000 {
			t.Fatalf("%s: counts sum to %d", name, sum)
		}
	}
}

func BenchmarkRankBalanced(b *testing.B) {
	benchRank(b, NewBalanced)
}

func benchRank(b *testing.B, mk func([]uint32, int) *Tree) {
	rng := rand.New(rand.NewSource(4))
	s := randomSeq(rng, 1<<20, 256)
	tr := mk(s, 256)
	type q struct {
		c uint32
		i int
	}
	qs := make([]q, 1024)
	for i := range qs {
		qs[i] = q{uint32(rng.Intn(256)), rng.Intn(1 << 20)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Rank(qs[i&1023].c, qs[i&1023].i)
	}
}

func BenchmarkAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	s := randomSeq(rng, 1<<20, 256)
	tr := NewBalanced(s, 256)
	idx := make([]int, 1024)
	for i := range idx {
		idx[i] = rng.Intn(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Access(idx[i&1023])
	}
}

func TestAccessorsSigma(t *testing.T) {
	tr := NewBalanced([]uint32{0, 1, 2, 3}, 4)
	if tr.Sigma() != 4 || tr.Len() != 4 {
		t.Fatalf("Sigma=%d Len=%d", tr.Sigma(), tr.Len())
	}
	h := NewHuffman([]uint32{5, 5, 5, 2}, 6)
	if h.Sigma() != 6 || h.Count(5) != 3 || h.Count(2) != 1 || h.Count(0) != 0 {
		t.Fatal("huffman counts wrong")
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	// Degenerate alphabet: only one distinct symbol.
	tr := NewHuffman([]uint32{3, 3, 3, 3, 3}, 4)
	if tr.Count(3) != 5 {
		t.Fatalf("Count(3) = %d", tr.Count(3))
	}
	for i := 0; i < 5; i++ {
		if tr.Access(i) != 3 {
			t.Fatalf("Access(%d) = %d", i, tr.Access(i))
		}
	}
	if tr.Select(3, 5) != 4 || tr.Select(3, 6) != -1 {
		t.Fatal("Select on degenerate alphabet wrong")
	}
}
