package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is a reference implementation backed by a []bool.
type naive []bool

func (n naive) rank1(i int) int {
	c := 0
	for _, b := range n[:i] {
		if b {
			c++
		}
	}
	return c
}

func (n naive) select1(k int) int {
	for i, b := range n {
		if b {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func (n naive) select0(k int) int {
	for i, b := range n {
		if !b {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func randomBits(rng *rand.Rand, n int, p float64) naive {
	bs := make(naive, n)
	for i := range bs {
		bs[i] = rng.Float64() < p
	}
	return bs
}

func TestEmptyVector(t *testing.T) {
	v := New(0)
	v.Seal()
	if v.Len() != 0 || v.Ones() != 0 || v.Zeros() != 0 {
		t.Fatalf("empty vector: Len=%d Ones=%d Zeros=%d", v.Len(), v.Ones(), v.Zeros())
	}
	if got := v.Rank1(0); got != 0 {
		t.Fatalf("Rank1(0)=%d, want 0", got)
	}
}

func TestSingleBit(t *testing.T) {
	for _, b := range []bool{false, true} {
		v := New(1)
		v.AppendBit(b)
		v.Seal()
		if v.Get(0) != b {
			t.Fatalf("Get(0)=%v, want %v", v.Get(0), b)
		}
		wantOnes := 0
		if b {
			wantOnes = 1
		}
		if v.Ones() != wantOnes {
			t.Fatalf("Ones=%d, want %d", v.Ones(), wantOnes)
		}
		if b {
			if got := v.Select1(1); got != 0 {
				t.Fatalf("Select1(1)=%d, want 0", got)
			}
		} else {
			if got := v.Select0(1); got != 0 {
				t.Fatalf("Select0(1)=%d, want 0", got)
			}
		}
	}
}

func TestRankSelectAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 63, 64, 65, 511, 512, 513, 1000, 4096, 10000} {
		for _, p := range []float64{0, 0.01, 0.5, 0.99, 1} {
			ref := randomBits(rng, n, p)
			v := FromBools(ref)
			ones := ref.rank1(n)
			if v.Ones() != ones {
				t.Fatalf("n=%d p=%v: Ones=%d, want %d", n, p, v.Ones(), ones)
			}
			for i := 0; i <= n; i += 1 + n/97 {
				if got, want := v.Rank1(i), ref.rank1(i); got != want {
					t.Fatalf("n=%d p=%v: Rank1(%d)=%d, want %d", n, p, i, got, want)
				}
			}
			for k := 1; k <= ones; k += 1 + ones/53 {
				if got, want := v.Select1(k), ref.select1(k); got != want {
					t.Fatalf("n=%d p=%v: Select1(%d)=%d, want %d", n, p, k, got, want)
				}
			}
			zeros := n - ones
			for k := 1; k <= zeros; k += 1 + zeros/53 {
				if got, want := v.Select0(k), ref.select0(k); got != want {
					t.Fatalf("n=%d p=%v: Select0(%d)=%d, want %d", n, p, k, got, want)
				}
			}
		}
	}
}

func TestSelectRankInverse(t *testing.T) {
	// Property: Rank1(Select1(k)) == k-1 and Get(Select1(k)) == true.
	f := func(seed int64, nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		p := float64(pRaw) / 255
		rng := rand.New(rand.NewSource(seed))
		v := FromBools(randomBits(rng, n, p))
		for k := 1; k <= v.Ones(); k += 1 + v.Ones()/41 {
			pos := v.Select1(k)
			if v.Rank1(pos) != k-1 || !v.Get(pos) {
				return false
			}
		}
		for k := 1; k <= v.Zeros(); k += 1 + v.Zeros()/41 {
			pos := v.Select0(k)
			if v.Rank0(pos) != k-1 || v.Get(pos) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFromWords(t *testing.T) {
	words := []uint64{0xF0F0F0F0F0F0F0F0, 0x1}
	v := FromWords(words, 70)
	if v.Len() != 70 {
		t.Fatalf("Len=%d, want 70", v.Len())
	}
	if v.Ones() != 33 {
		t.Fatalf("Ones=%d, want 33", v.Ones())
	}
	if !v.Get(64) || v.Get(65) {
		t.Fatal("FromWords bit layout wrong")
	}
}

func TestAppendWord(t *testing.T) {
	v := New(10)
	v.AppendWord(0b1011, 4)
	v.Seal()
	want := []bool{true, true, false, true}
	for i, b := range want {
		if v.Get(i) != b {
			t.Fatalf("bit %d = %v, want %v", i, v.Get(i), b)
		}
	}
}

func TestAppendAfterSealPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v := New(1)
	v.Seal()
	v.AppendBit(true)
}

func TestRankOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v := FromBools(naive{true})
	v.Rank1(2)
}

func TestSelectOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v := FromBools(naive{true})
	v.Select1(2)
}

func TestAllOnesAllZeros(t *testing.T) {
	n := 2000
	ones := FromBools(randomBits(rand.New(rand.NewSource(2)), n, 1))
	for k := 1; k <= n; k += 37 {
		if ones.Select1(k) != k-1 {
			t.Fatalf("all-ones Select1(%d)=%d", k, ones.Select1(k))
		}
	}
	zeros := FromBools(make(naive, n))
	for k := 1; k <= n; k += 37 {
		if zeros.Select0(k) != k-1 {
			t.Fatalf("all-zeros Select0(%d)=%d", k, zeros.Select0(k))
		}
	}
}

func TestSizeBits(t *testing.T) {
	v := FromBools(randomBits(rand.New(rand.NewSource(3)), 10000, 0.5))
	// Directory overhead should be a small fraction of the raw bits.
	if v.SizeBits() > 3*10000 {
		t.Fatalf("SizeBits=%d too large for 10000-bit vector", v.SizeBits())
	}
	if v.SizeBits() < 10000 {
		t.Fatalf("SizeBits=%d smaller than payload", v.SizeBits())
	}
}
