package sparsebits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reporter is the common interface of Dense and Compressed, used to share
// test drivers.
type reporter interface {
	Len() int
	Zeros() int
	Get(i int) bool
	Zero(i int)
	AppendRange(dst []int, s, e int) []int
	Count1(s, e int) int
}

// refVec is the reference model.
type refVec []bool

func newRef(n int) refVec {
	r := make(refVec, n)
	for i := range r {
		r[i] = true
	}
	return r
}

func (r refVec) report(s, e int) []int {
	var out []int
	if s < 0 {
		s = 0
	}
	if e >= len(r) {
		e = len(r) - 1
	}
	for i := s; i <= e; i++ {
		if r[i] {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func driveAgainstModel(t *testing.T, name string, mk func(n int) reporter) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 63, 64, 65, 100, 1000, 5000} {
		v := mk(n)
		ref := newRef(n)
		zeroed := 0
		for op := 0; op < 2000; op++ {
			switch rng.Intn(3) {
			case 0:
				i := rng.Intn(n)
				v.Zero(i)
				if ref[i] {
					zeroed++
				}
				ref[i] = false
				if v.Zeros() != zeroed {
					t.Fatalf("%s n=%d: Zeros=%d, want %d", name, n, v.Zeros(), zeroed)
				}
			case 1:
				i := rng.Intn(n)
				if v.Get(i) != ref[i] {
					t.Fatalf("%s n=%d: Get(%d)=%v, want %v", name, n, i, v.Get(i), ref[i])
				}
			case 2:
				s, e := rng.Intn(n), rng.Intn(n)
				if s > e {
					s, e = e, s
				}
				got := v.AppendRange(nil, s, e)
				want := ref.report(s, e)
				if !equalInts(got, want) {
					t.Fatalf("%s n=%d: Report(%d,%d)=%v, want %v", name, n, s, e, got, want)
				}
				// Count1 clamps like Report, so widen the span past
				// both ends now and then.
				if op%5 == 0 {
					s, e = s-3, e+70
					want = ref.report(s, e)
				}
				if c := v.Count1(s, e); c != len(want) {
					t.Fatalf("%s n=%d: Count1(%d,%d)=%d, want %d", name, n, s, e, c, len(want))
				}
			}
		}
	}
}

func TestDenseAgainstModel(t *testing.T) {
	driveAgainstModel(t, "Dense", func(n int) reporter { return NewDense(n) })
}

func TestCompressedAgainstModel(t *testing.T) {
	for _, tau := range []int{1, 2, 7, 16, 64, 256} {
		tau := tau
		driveAgainstModel(t, "Compressed", func(n int) reporter { return NewCompressed(n, tau) })
	}
}

func TestDenseAllOnesInitially(t *testing.T) {
	d := NewDense(130)
	got := d.AppendRange(nil, 0, 129)
	if len(got) != 130 {
		t.Fatalf("fresh Dense reported %d positions, want 130", len(got))
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("position %d: got %d", i, p)
		}
	}
}

func TestDenseZeroEverything(t *testing.T) {
	d := NewDense(200)
	for i := 0; i < 200; i++ {
		d.Zero(i)
	}
	if d.Zeros() != 200 {
		t.Fatalf("Zeros=%d, want 200", d.Zeros())
	}
	if got := d.AppendRange(nil, 0, 199); len(got) != 0 {
		t.Fatalf("fully-zeroed Dense reported %v", got)
	}
	// Idempotent re-zeroing.
	d.Zero(5)
	if d.Zeros() != 200 {
		t.Fatal("re-zero changed count")
	}
}

func TestCompressedZeroEverything(t *testing.T) {
	c := NewCompressed(200, 16)
	for i := 199; i >= 0; i-- { // reverse order stresses sorted insertion
		c.Zero(i)
	}
	if c.Zeros() != 200 {
		t.Fatalf("Zeros=%d, want 200", c.Zeros())
	}
	if got := c.AppendRange(nil, 0, 199); len(got) != 0 {
		t.Fatalf("fully-zeroed Compressed reported %v", got)
	}
}

func TestReportEarlyStop(t *testing.T) {
	d := NewDense(100)
	var seen []int
	d.Report(0, 99, func(pos int) bool {
		seen = append(seen, pos)
		return len(seen) < 5
	})
	if len(seen) != 5 || seen[4] != 4 {
		t.Fatalf("early stop collected %v", seen)
	}
	c := NewCompressed(100, 8)
	seen = nil
	c.Report(10, 99, func(pos int) bool {
		seen = append(seen, pos)
		return len(seen) < 5
	})
	if len(seen) != 5 || seen[0] != 10 || seen[4] != 14 {
		t.Fatalf("compressed early stop collected %v", seen)
	}
}

func TestReportRangeClamping(t *testing.T) {
	d := NewDense(10)
	if got := d.AppendRange(nil, -5, 100); len(got) != 10 {
		t.Fatalf("clamped report got %v", got)
	}
	if got := d.AppendRange(nil, 7, 3); len(got) != 0 {
		t.Fatalf("inverted range reported %v", got)
	}
	c := NewCompressed(10, 4)
	if got := c.AppendRange(nil, -5, 100); len(got) != 10 {
		t.Fatalf("clamped compressed report got %v", got)
	}
}

func TestCompressedSpaceShrinksWithTau(t *testing.T) {
	// With few zeros, a larger τ must yield a smaller footprint: this is
	// the O(n log τ/τ) claim of Lemma 3 made measurable.
	n := 1 << 16
	rng := rand.New(rand.NewSource(3))
	sizeAt := func(tau int) int64 {
		c := NewCompressed(n, tau)
		for i := 0; i < n/64; i++ {
			c.Zero(rng.Intn(n))
		}
		return c.SizeBits()
	}
	s16, s256, s4096 := sizeAt(16), sizeAt(256), sizeAt(4096)
	if !(s16 > s256 && s256 > s4096) {
		t.Fatalf("space not decreasing with tau: %d, %d, %d", s16, s256, s4096)
	}
	d := NewDense(n)
	if s4096 >= d.SizeBits() {
		t.Fatalf("compressed (tau=4096) %d bits not below dense %d bits", s4096, d.SizeBits())
	}
}

func TestQuickDenseVsCompressed(t *testing.T) {
	// Property: Dense and Compressed must agree on every query after the
	// same sequence of Zero operations.
	f := func(seed int64, nRaw uint16, tauRaw uint8) bool {
		n := int(nRaw)%4000 + 1
		tau := int(tauRaw)%255 + 2
		rng := rand.New(rand.NewSource(seed))
		d := NewDense(n)
		c := NewCompressed(n, tau)
		for i := 0; i < n/2; i++ {
			x := rng.Intn(n)
			d.Zero(x)
			c.Zero(x)
		}
		s, e := rng.Intn(n), rng.Intn(n)
		if s > e {
			s, e = e, s
		}
		return equalInts(d.AppendRange(nil, s, e), c.AppendRange(nil, s, e))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
