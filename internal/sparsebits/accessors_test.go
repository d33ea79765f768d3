package sparsebits

import "testing"

func TestDenseAccessors(t *testing.T) {
	d := NewDense(130, true)
	if d.Len() != 130 || d.Zeros() != 0 {
		t.Fatalf("Len=%d Zeros=%d", d.Len(), d.Zeros())
	}
	d.Zero(0)
	d.Zero(129)
	d.Zero(64)
	if d.Get(0) || d.Get(64) || d.Get(129) || !d.Get(1) {
		t.Fatal("Get wrong after Zero")
	}
	if d.Zeros() != 3 {
		t.Fatalf("Zeros = %d", d.Zeros())
	}
	// Zero is idempotent.
	d.Zero(64)
	if d.Zeros() != 3 {
		t.Fatalf("Zeros after repeat = %d", d.Zeros())
	}
	if got := d.Count1(1, 128); got != 127 {
		t.Fatalf("Count1(1, 128) = %d, want 127", got)
	}
	// The rank structure is one int32 per word, plus the unused slot 0.
	if got, want := d.SizeBits()-NewDense(130, false).SizeBits(), int64(4*32); got != want {
		t.Fatalf("rank structure takes %d bits, want %d", got, want)
	}
}

func TestCompressedAccessors(t *testing.T) {
	c := NewCompressed(500, 8)
	if c.Len() != 500 || c.Tau() != 8 || c.Zeros() != 0 {
		t.Fatalf("accessors wrong: %d %d %d", c.Len(), c.Tau(), c.Zeros())
	}
	for _, i := range []int{0, 7, 8, 255, 499} {
		c.Zero(i)
		if c.Get(i) {
			t.Fatalf("Get(%d) still true", i)
		}
	}
	if c.Zeros() != 5 {
		t.Fatalf("Zeros = %d", c.Zeros())
	}
	c.Zero(7) // idempotent
	if c.Zeros() != 5 {
		t.Fatalf("Zeros after repeat = %d", c.Zeros())
	}
	// Reporting the whole vector skips zeros.
	got := positions(c, 0, 499)
	if len(got) != 495 {
		t.Fatalf("Report gave %d positions", len(got))
	}
}

func TestCompressedZeroLength(t *testing.T) {
	c := NewCompressed(0, 4)
	if c.Len() != 0 {
		t.Fatal("Len != 0")
	}
	c.Report(0, -1, func(int) bool {
		t.Fatal("Report on empty vector visited something")
		return false
	})
}

func TestDenseSingleBit(t *testing.T) {
	d := NewDense(1, false)
	seen := 0
	d.Report(0, 0, func(pos int) bool {
		if pos != 0 {
			t.Fatalf("pos = %d", pos)
		}
		seen++
		return true
	})
	if seen != 1 {
		t.Fatal("single live bit not reported")
	}
	d.Zero(0)
	d.Report(0, 0, func(int) bool {
		t.Fatal("dead bit reported")
		return false
	})
}
