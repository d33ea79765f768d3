package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
)

// selectModel is SelectInWord by walking the bits one at a time.
func selectModel(w uint64, r int) int {
	for i := range 64 {
		if w>>i&1 != 0 {
			if r == 0 {
				return i
			}
			r--
		}
	}
	return -1
}

// TestSelectInWord holds the broadword select to clearing the lowest
// ones one at a time, on sparse and dense random words.
func TestSelectInWord(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for range 100000 {
		w := rng.Uint64()
		if rng.Intn(2) == 0 {
			w &= rng.Uint64() & rng.Uint64()
		}
		if w == 0 {
			continue
		}
		r := rng.Intn(bits.OnesCount64(w))
		x := w
		for range r {
			x &= x - 1
		}
		if got, want := SelectInWord(w, r), bits.TrailingZeros64(x); got != want {
			t.Fatalf("SelectInWord(%#x, %d) = %d, want %d", w, r, got, want)
		}
	}
}

// FuzzSelectInWord holds the broadword select to the bit loop for every
// rank of a fuzzed word and of its complement.
func FuzzSelectInWord(f *testing.F) {
	for _, w := range []uint64{1, 1 << 63, 0x8000000000000001, 0xff00ff00ff00ff00, ^uint64(0), 0x0123456789abcdef} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w uint64) {
		for _, x := range [2]uint64{w, ^w} {
			for r := range bits.OnesCount64(x) {
				if got, want := SelectInWord(x, r), selectModel(x, r); got != want {
					t.Fatalf("SelectInWord(%#x, %d) = %d, want %d", x, r, got, want)
				}
			}
		}
	})
}

// TestSelect0WithoutHints holds Select0 on a vector without its
// select-0 hints to the hinted vector's answers.
func TestSelect0WithoutHints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 63, 512, 5000, 70000} {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = rng.Intn(16) == 0
		}
		v := FromBools(bs)
		bare := v.WithoutSelect0()
		if bare.SizeBits() >= v.SizeBits() && v.Zeros() >= selectSample0 {
			t.Fatalf("n=%d: dropping the hints saved nothing", n)
		}
		for k := 1; k <= v.Zeros(); k += 1 + rng.Intn(7) {
			if got, want := bare.Select0(k), v.Select0(k); got != want {
				t.Fatalf("n=%d: Select0(%d) = %d, want %d", n, k, got, want)
			}
		}
		for k := 1; k <= v.Ones(); k++ {
			if got, want := bare.Select1(k), v.Select1(k); got != want {
				t.Fatalf("n=%d: Select1(%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}
