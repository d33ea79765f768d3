package huffman

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCodeLengthsBasic(t *testing.T) {
	// Classic example: weights 1,1,2,4 → lengths 3,3,2,1.
	lens := CodeLengths([]int64{1, 1, 2, 4})
	want := []int{3, 3, 2, 1}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("lens=%v, want %v", lens, want)
		}
	}
}

func TestCodeLengthsDegenerate(t *testing.T) {
	if lens := CodeLengths(nil); len(lens) != 0 {
		t.Fatal("nil freq should give empty lengths")
	}
	lens := CodeLengths([]int64{0, 7, 0})
	if lens[0] != 0 || lens[1] != 1 || lens[2] != 0 {
		t.Fatalf("single-symbol lens=%v", lens)
	}
	lens = CodeLengths([]int64{0, 0})
	if lens[0] != 0 || lens[1] != 0 {
		t.Fatalf("all-zero lens=%v", lens)
	}
}

func TestKraftEquality(t *testing.T) {
	// Huffman codes are complete: Σ 2^-len == 1 (when ≥2 symbols occur).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		sigma := 2 + rng.Intn(60)
		freq := make([]int64, sigma)
		occur := 0
		for i := range freq {
			if rng.Intn(3) > 0 {
				freq[i] = int64(rng.Intn(1000) + 1)
				occur++
			}
		}
		if occur < 2 {
			continue
		}
		lens := CodeLengths(freq)
		var kraft float64
		for _, l := range lens {
			if l > 0 {
				kraft += math.Pow(2, -float64(l))
			}
		}
		if math.Abs(kraft-1) > 1e-9 {
			t.Fatalf("kraft sum = %v for freq %v", kraft, freq)
		}
	}
}

func TestCanonicalPrefixFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		sigma := 2 + rng.Intn(40)
		freq := make([]int64, sigma)
		for i := range freq {
			freq[i] = int64(rng.Intn(100) + 1)
		}
		codes := Build(freq)
		// No code is a prefix of another.
		for i := range codes {
			for j := range codes {
				if i == j || codes[i].Len == 0 || codes[j].Len == 0 {
					continue
				}
				if codes[i].Len <= codes[j].Len {
					shift := uint(codes[j].Len - codes[i].Len)
					if codes[j].Bits>>shift == codes[i].Bits {
						t.Fatalf("code %d (%b/%d) is a prefix of %d (%b/%d)",
							i, codes[i].Bits, codes[i].Len, j, codes[j].Bits, codes[j].Len)
					}
				}
			}
		}
	}
}

func TestHuffmanNearEntropy(t *testing.T) {
	// Average code length is within [H0, H0+1).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		sigma := 2 + rng.Intn(100)
		freq := make([]int64, sigma)
		for i := range freq {
			freq[i] = int64(rng.Intn(10000) + 1)
		}
		codes := Build(freq)
		h0 := H0(freq)
		avg := AverageLen(codes, freq)
		if avg < h0-1e-9 || avg >= h0+1 {
			t.Fatalf("avg len %v outside [H0=%v, H0+1)", avg, h0)
		}
	}
}

func TestH0KnownValues(t *testing.T) {
	// Uniform over 4 symbols → 2 bits.
	if h := H0([]int64{5, 5, 5, 5}); math.Abs(h-2) > 1e-12 {
		t.Fatalf("H0 uniform-4 = %v, want 2", h)
	}
	// Single symbol → 0 bits.
	if h := H0([]int64{42}); h != 0 {
		t.Fatalf("H0 single = %v, want 0", h)
	}
	if h := H0(nil); h != 0 {
		t.Fatalf("H0 empty = %v, want 0", h)
	}
}

func TestHkDecreasesWithOrder(t *testing.T) {
	// For text with strong context dependence, Hk < H0.
	// "abababab..." has H0 = 1 but H1 = 0.
	s := make([]byte, 1000)
	for i := range s {
		s[i] = byte('a' + i%2)
	}
	h0, h1 := Hk(s, 0), Hk(s, 1)
	if math.Abs(h0-1) > 1e-9 {
		t.Fatalf("H0 = %v, want 1", h0)
	}
	if h1 > 1e-9 {
		t.Fatalf("H1 = %v, want 0", h1)
	}
}

func TestHkDegenerate(t *testing.T) {
	if Hk([]byte("ab"), 5) != 0 {
		t.Fatal("Hk of text shorter than k should be 0")
	}
	if Hk(nil, 0) != 0 {
		t.Fatal("Hk of empty text should be 0")
	}
}

func TestFreqPanicsOutsideAlphabet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Freq([]byte{200}, 100)
}

func TestQuickHkMonotoneUnderRepetition(t *testing.T) {
	// Property: average Huffman length over a random string stays within
	// one bit of its H0 regardless of distribution skew.
	f := func(seed int64, sigmaRaw uint8) bool {
		sigma := int(sigmaRaw)%30 + 2
		rng := rand.New(rand.NewSource(seed))
		s := make([]byte, 2000)
		for i := range s {
			// Skewed: symbol 0 with probability 1/2.
			if rng.Intn(2) == 0 {
				s[i] = 0
			} else {
				s[i] = byte(rng.Intn(sigma))
			}
		}
		freq := Freq(s, sigma)
		avg := AverageLen(Build(freq), freq)
		h := H0(freq)
		return avg >= h-1e-9 && avg < h+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeLengths4(t *testing.T) {
	// Seven leaves need no dummy: two merges, the four lightest first.
	lens := CodeLengths4([]int64{1, 1, 1, 1, 5, 6, 7})
	want := []int{2, 2, 2, 2, 1, 1, 1}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("lens=%v, want %v", lens, want)
		}
	}
	// Five leaves take two zero-weight dummies beside the two lightest.
	lens = CodeLengths4([]int64{1, 2, 9, 9, 9})
	want = []int{2, 2, 1, 1, 1}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("lens=%v, want %v", lens, want)
		}
	}
	if lens := CodeLengths4([]int64{0, 7, 0}); lens[0] != 0 || lens[1] != 1 || lens[2] != 0 {
		t.Fatalf("single-symbol lens=%v", lens)
	}
}

// TestCanonical4PrefixFree checks, over random frequencies, that the
// 4-ary codes are prefix-free, satisfy Kraft's inequality, and cost at
// most half the binary code's bits plus one digit per symbol.
func TestCanonical4PrefixFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		freq := make([]int64, 1+rng.Intn(256))
		for i := range freq {
			if rng.Intn(4) > 0 {
				freq[i] = int64(rng.Intn(1 << uint(rng.Intn(20))))
			}
		}
		lens := CodeLengths4(freq)
		if !Kraft4(lens) {
			t.Fatalf("lengths %v break Kraft", lens)
		}
		codes := Canonical4(lens)
		for a := range codes {
			for b := range codes {
				ca, cb := codes[a], codes[b]
				if a == b || ca.Len == 0 || cb.Len == 0 || ca.Len > cb.Len {
					continue
				}
				if cb.Bits>>(2*uint(cb.Len-ca.Len)) == ca.Bits {
					t.Fatalf("code of %d prefixes code of %d", a, b)
				}
			}
		}
		if digits, bits := AverageLen(codes, freq), AverageLen(Build(freq), freq); digits > bits/2+1 {
			t.Fatalf("%.3f digits against %.3f bits", digits, bits)
		}
	}
}

// TestKraft4 pins the inequality at its edges, including sums of short
// codes that would wrap a uint64 were they added up unchecked: sixteen
// length-1 terms make 4^MaxDigits·4 = 2^64.
func TestKraft4(t *testing.T) {
	ones := func(k int, more ...int) []int {
		lens := slices.Repeat([]int{1}, k)
		return append(lens, more...)
	}
	for _, c := range []struct {
		lens []int
		want bool
	}{
		{nil, true},
		{ones(4), true},
		{ones(3, 2, 2, 2, 2), true},
		{ones(3, 2, 2, 2, 2, 2), false},
		{ones(5), false},
		{ones(16), false},
		{ones(17), false},
		{ones(16, 2), false},
		{ones(256), false},
		{slices.Repeat([]int{MaxDigits}, 256), true},
		{[]int{MaxDigits + 1}, false},
		{[]int{-1}, false},
	} {
		if got := Kraft4(c.lens); got != c.want {
			t.Fatalf("Kraft4(%v) = %v, want %v", c.lens, got, c.want)
		}
	}
}

// TestCodeLengths4Fallback builds a chain deeper than MaxDigits — each
// merge joins the chain with three leaves of half its weight — and
// expects the fixed-width fallback.
func TestCodeLengths4Fallback(t *testing.T) {
	freq := []int64{2, 2, 2, 2}
	chain := int64(8)
	for range 35 {
		freq = append(freq, chain/2, chain/2, chain/2)
		chain += 3 * (chain / 2)
	}
	if lens := codeLengths(freq, 4); slices.Max(lens) <= MaxDigits {
		t.Fatalf("chain only %d digits deep", slices.Max(lens))
	}
	lens := CodeLengths4(freq)
	for s, l := range lens {
		if l != 4 { // 109 symbols: ⌈log₄ 109⌉
			t.Fatalf("symbol %d gets %d digits, want 4", s, l)
		}
	}
	if !Kraft4(lens) {
		t.Fatal("fallback lengths break Kraft")
	}
}
