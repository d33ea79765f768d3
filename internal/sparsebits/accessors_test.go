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
