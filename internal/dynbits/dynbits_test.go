package dynbits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

type model []bool

func (m model) rank1(i int) int {
	c := 0
	for _, b := range m[:i] {
		if b {
			c++
		}
	}
	return c
}

func (m model) select1(k int) int {
	for i, b := range m {
		if b {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func TestNewInitialStates(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		v0 := New(n, false)
		if v0.Ones() != 0 || v0.Len() != n {
			t.Fatalf("n=%d: zero-init wrong (Ones=%d)", n, v0.Ones())
		}
		v1 := New(n, true)
		if v1.Ones() != n {
			t.Fatalf("n=%d: one-init Ones=%d", n, v1.Ones())
		}
		if n > 0 {
			if !v1.Get(n-1) || v0.Get(n-1) {
				t.Fatalf("n=%d: initial bits wrong", n)
			}
			if v1.Rank1(n) != n || v0.Rank1(n) != 0 {
				t.Fatalf("n=%d: full rank wrong", n)
			}
		}
	}
}

func TestAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 64, 65, 500, 3000} {
		v := New(n, true)
		m := make(model, n)
		for i := range m {
			m[i] = true
		}
		for op := 0; op < 3000; op++ {
			switch rng.Intn(4) {
			case 0:
				i := rng.Intn(n)
				b := rng.Intn(2) == 0
				v.Set(i, b)
				m[i] = b
			case 1:
				i := rng.Intn(n + 1)
				if got, want := v.Rank1(i), m.rank1(i); got != want {
					t.Fatalf("n=%d: Rank1(%d)=%d, want %d", n, i, got, want)
				}
			case 2:
				if v.Ones() == 0 {
					continue
				}
				k := 1 + rng.Intn(v.Ones())
				if got, want := v.Select1(k), m.select1(k); got != want {
					t.Fatalf("n=%d: Select1(%d)=%d, want %d", n, k, got, want)
				}
			case 3:
				s, e := rng.Intn(n), rng.Intn(n)
				if s > e {
					s, e = e, s
				}
				want := m.rank1(e+1) - m.rank1(s)
				if got := v.Count1(s, e); got != want {
					t.Fatalf("n=%d: Count1(%d,%d)=%d, want %d", n, s, e, got, want)
				}
			}
		}
	}
}

func TestSelectOutOfRange(t *testing.T) {
	v := New(100, false)
	v.Set(10, true)
	if v.Select1(0) != -1 || v.Select1(2) != -1 {
		t.Fatal("out-of-range select should return -1")
	}
	if v.Select1(1) != 10 {
		t.Fatalf("Select1(1)=%d, want 10", v.Select1(1))
	}
}

func TestSetIdempotent(t *testing.T) {
	v := New(64, true)
	v.Set(3, false)
	v.Set(3, false)
	if v.Ones() != 63 {
		t.Fatalf("Ones=%d after double clear, want 63", v.Ones())
	}
	v.Set(3, true)
	v.Set(3, true)
	if v.Ones() != 64 {
		t.Fatalf("Ones=%d after double set, want 64", v.Ones())
	}
}

func TestCountClamping(t *testing.T) {
	v := New(10, true)
	if v.Count1(-5, 100) != 10 {
		t.Fatal("clamped count wrong")
	}
	if v.Count1(7, 3) != 0 {
		t.Fatal("inverted range should count 0")
	}
}

func TestQuickRankSelectInverse(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%5000 + 1
		rng := rand.New(rand.NewSource(seed))
		v := New(n, false)
		for i := 0; i < n/2; i++ {
			v.Set(rng.Intn(n), rng.Intn(2) == 0)
		}
		for k := 1; k <= v.Ones(); k += 1 + v.Ones()/31 {
			pos := v.Select1(k)
			if pos < 0 || !v.Get(pos) || v.Rank1(pos) != k-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
