package sparsebits

import (
	"math/rand"
	"testing"
)

// positions lists b's set positions in [s, e] through Report.
func positions(b *Dense, s, e int) []int {
	var out []int
	b.Report(s, e, func(pos int) bool {
		out = append(out, pos)
		return true
	})
	return out
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

func driveAgainstModel(t *testing.T, name string, mk func(n int) *Dense) {
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
				got := positions(v, s, e)
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

// TestDenseAgainstModel drives the dense form without and with its
// rank structure; with it, every Count1 of a span over two words goes
// through the Fenwick tree.
func TestDenseAgainstModel(t *testing.T) {
	driveAgainstModel(t, "Dense", func(n int) *Dense { return NewDense(n, false) })
	driveAgainstModel(t, "Dense+rank", func(n int) *Dense { return NewDense(n, true) })
}

func TestDenseAllOnesInitially(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
		for _, rank := range []bool{false, true} {
			d := NewDense(n, rank)
			got := positions(d, 0, n-1)
			if len(got) != n || d.Count1(0, n-1) != n {
				t.Fatalf("fresh Dense(%d, rank %v) reported %d positions and counted %d", n, rank, len(got), d.Count1(0, n-1))
			}
			for i, p := range got {
				if p != i {
					t.Fatalf("position %d: got %d", i, p)
				}
			}
		}
	}
}

func TestDenseZeroEverything(t *testing.T) {
	d := NewDense(200, true)
	for i := 0; i < 200; i++ {
		d.Zero(i)
	}
	if d.Zeros() != 200 {
		t.Fatalf("Zeros=%d, want 200", d.Zeros())
	}
	if got := positions(d, 0, 199); len(got) != 0 || d.Count1(0, 199) != 0 {
		t.Fatalf("fully-zeroed Dense reported %v and counted %d", got, d.Count1(0, 199))
	}
	// Idempotent re-zeroing.
	d.Zero(5)
	if d.Zeros() != 200 {
		t.Fatal("re-zero changed count")
	}
}

func TestReportEarlyStop(t *testing.T) {
	d := NewDense(100, false)
	var seen []int
	d.Report(0, 99, func(pos int) bool {
		seen = append(seen, pos)
		return len(seen) < 5
	})
	if len(seen) != 5 || seen[4] != 4 {
		t.Fatalf("early stop collected %v", seen)
	}
	seen = nil
	d.Report(10, 99, func(pos int) bool {
		seen = append(seen, pos)
		return len(seen) < 5
	})
	if len(seen) != 5 || seen[0] != 10 || seen[4] != 14 {
		t.Fatalf("early stop from 10 collected %v", seen)
	}
}

func TestReportRangeClamping(t *testing.T) {
	d := NewDense(10, true)
	if got := positions(d, -5, 100); len(got) != 10 || d.Count1(-5, 100) != 10 {
		t.Fatalf("clamped report got %v, count %d", got, d.Count1(-5, 100))
	}
	if got := positions(d, 7, 3); len(got) != 0 || d.Count1(7, 3) != 0 {
		t.Fatalf("inverted range reported %v, count %d", got, d.Count1(7, 3))
	}
}

// FuzzDeletionBitmap holds Dense, with and without its rank structure,
// to a []bool model under a random stream of Zero, Get, Count1 and
// Report calls.
func FuzzDeletionBitmap(f *testing.F) {
	f.Add(uint16(1), false, uint16(4), []byte{0, 1, 2, 3})
	f.Add(uint16(130), true, uint16(7), []byte{9, 200, 17, 3, 64, 1})
	f.Add(uint16(4097), false, uint16(300), []byte("zero get count report"))
	f.Fuzz(func(t *testing.T, nRaw uint16, rank bool, seed uint16, ops []byte) {
		n := int(nRaw)%5000 + 1
		b := NewDense(n, rank)
		ref := newRef(n)
		rng := rand.New(rand.NewSource(int64(nRaw)<<16 | int64(seed)))
		for _, op := range ops {
			i, j := rng.Intn(n), rng.Intn(n)
			switch op % 4 {
			case 0:
				b.Zero(i)
				ref[i] = false
			case 1:
				if b.Get(i) != ref[i] {
					t.Fatalf("rank %v n=%d: Get(%d) = %v", rank, n, i, !ref[i])
				}
			case 2:
				// Spans run past both ends now and then, to check clamping.
				s, e := min(i, j)-int(op>>6), max(i, j)+int(op>>6)
				if got, want := b.Count1(s, e), len(ref.report(s, e)); got != want {
					t.Fatalf("rank %v n=%d: Count1(%d, %d) = %d, want %d", rank, n, s, e, got, want)
				}
			case 3:
				s, e := min(i, j), max(i, j)
				got := positions(b, s, e)
				if want := ref.report(s, e); !equalInts(got, want) {
					t.Fatalf("rank %v n=%d: Report(%d, %d) = %v, want %v", rank, n, s, e, got, want)
				}
			}
		}
		if got, want := b.Count1(0, n-1), len(ref.report(0, n-1)); got != want {
			t.Fatalf("rank %v n=%d: Count1 over everything = %d, want %d", rank, n, got, want)
		}
	})
}
