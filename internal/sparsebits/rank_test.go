package sparsebits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// These tests hold Dense's rank structure to what counting needs of it:
// rank1(i) is Count1(0, i−1), so prefix counts, range counts and their
// inverse relation with Report are checked against a model.

// rank1 counts r's ones in [0, i).
func (r refVec) rank1(i int) int {
	c := 0
	for _, b := range r[:i] {
		if b {
			c++
		}
	}
	return c
}

func TestRankedInitialStates(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		d := NewDense(n, true)
		if d.Len() != n || d.Zeros() != 0 {
			t.Fatalf("n=%d: Len=%d Zeros=%d", n, d.Len(), d.Zeros())
		}
		for _, i := range []int{0, 1, n / 2, n - 1, n} {
			if i < 0 || i > n {
				continue
			}
			if got := d.Count1(0, i-1); got != i {
				t.Fatalf("n=%d: rank1(%d)=%d, want %d", n, i, got, i)
			}
		}
		if n > 0 && !d.Get(n-1) {
			t.Fatalf("n=%d: last bit not set", n)
		}
		// One int32 per word plus the unused slot 0.
		words := int64((n + 63) / 64)
		if got, want := d.SizeBits()-NewDense(n, false).SizeBits(), (words+1)*32; got != want {
			t.Fatalf("n=%d: rank structure takes %d bits, want %d", n, got, want)
		}
	}
}

func TestRankedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 64, 65, 500, 3000} {
		d := NewDense(n, true)
		m := newRef(n)
		for op := 0; op < 3000; op++ {
			switch rng.Intn(3) {
			case 0:
				i := rng.Intn(n)
				d.Zero(i)
				m[i] = false
			case 1:
				i := rng.Intn(n + 1)
				if got, want := d.Count1(0, i-1), m.rank1(i); got != want {
					t.Fatalf("n=%d: rank1(%d)=%d, want %d", n, i, got, want)
				}
			case 2:
				s, e := rng.Intn(n), rng.Intn(n)
				if s > e {
					s, e = e, s
				}
				want := m.rank1(e+1) - m.rank1(s)
				if got := d.Count1(s, e); got != want {
					t.Fatalf("n=%d: Count1(%d,%d)=%d, want %d", n, s, e, got, want)
				}
			}
		}
	}
}

func TestRankedAccessors(t *testing.T) {
	d := NewDense(100, true)
	d.Zero(10)
	d.Zero(20)
	if !d.Get(0) || d.Get(10) || d.Get(20) {
		t.Fatal("Get wrong after Zero")
	}
	// rank0(i) = i − rank1(i).
	if got := 21 - d.Count1(0, 20); got != 2 {
		t.Fatalf("rank0(21) = %d, want 2", got)
	}
	if got := 10 - d.Count1(0, 9); got != 0 {
		t.Fatalf("rank0(10) = %d, want 0", got)
	}
	// A lone surviving bit at a word's top edge.
	e := NewDense(128, true)
	for i := 0; i < 128; i++ {
		if i != 63 {
			e.Zero(i)
		}
	}
	if e.Count1(0, 127) != 1 || e.Count1(0, 62) != 0 || e.Count1(64, 127) != 0 {
		t.Fatal("boundary bit mishandled")
	}
	if got := positions(e, 0, 127); len(got) != 1 || got[0] != 63 {
		t.Fatalf("Report = %v, want [63]", got)
	}
}

func TestRankedCountClamping(t *testing.T) {
	d := NewDense(10, true)
	if d.Count1(-5, 100) != 10 {
		t.Fatal("clamped count wrong")
	}
	if d.Count1(7, 3) != 0 {
		t.Fatal("inverted range should count 0")
	}
	// Past both ends of a span that walks the Fenwick tree.
	w := NewDense(300, true)
	w.Zero(0)
	w.Zero(299)
	w.Zero(150)
	if got := w.Count1(-64, 400); got != 297 {
		t.Fatalf("clamped multi-word count = %d, want 297", got)
	}
}

// TestQuickRankReportInverse: the k-th position Report yields (select1
// of k) has exactly k−1 ones before it.
func TestQuickRankReportInverse(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%5000 + 1
		rng := rand.New(rand.NewSource(seed))
		d := NewDense(n, true)
		for i := 0; i < n/2; i++ {
			d.Zero(rng.Intn(n))
		}
		ones := positions(d, 0, n-1)
		if len(ones) != d.Count1(0, n-1) {
			return false
		}
		for k := 0; k < len(ones); k += 1 + len(ones)/31 {
			if pos := ones[k]; !d.Get(pos) || d.Count1(0, pos-1) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
