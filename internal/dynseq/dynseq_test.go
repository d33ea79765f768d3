package dynseq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refBits is the naive reference for BitVector.
type refBits struct{ bits []bool }

func (r *refBits) insert(i int, b bool) {
	r.bits = append(r.bits, false)
	copy(r.bits[i+1:], r.bits[i:])
	r.bits[i] = b
}

func (r *refBits) delete(i int) bool {
	b := r.bits[i]
	r.bits = append(r.bits[:i], r.bits[i+1:]...)
	return b
}

func (r *refBits) rank1(i int) int {
	n := 0
	for _, b := range r.bits[:i] {
		if b {
			n++
		}
	}
	return n
}

func (r *refBits) select1(k int) int {
	for i, b := range r.bits {
		if b {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

func (r *refBits) select0(k int) int {
	for i, b := range r.bits {
		if !b {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

func TestBitVectorRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewBitVector()
	ref := &refBits{}
	for step := 0; step < 30_000; step++ {
		n := v.Len()
		switch {
		case n == 0 || rng.Float64() < 0.6:
			i := rng.Intn(n + 1)
			b := rng.Intn(2) == 1
			v.Insert(i, b)
			ref.insert(i, b)
		default:
			i := rng.Intn(n)
			got := v.Delete(i)
			want := ref.delete(i)
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, i, got, want)
			}
		}
		if v.Len() != len(ref.bits) {
			t.Fatalf("step %d: Len %d != %d", step, v.Len(), len(ref.bits))
		}
		if step%101 == 0 {
			checkBitsAgree(t, v, ref)
		}
	}
	checkBitsAgree(t, v, ref)
}

func checkBitsAgree(t *testing.T, v *BitVector, ref *refBits) {
	t.Helper()
	n := len(ref.bits)
	ones := 0
	for i, b := range ref.bits {
		if v.Get(i) != b {
			t.Fatalf("Get(%d) mismatch", i)
		}
		if b {
			ones++
		}
	}
	if v.Ones() != ones {
		t.Fatalf("Ones = %d, want %d", v.Ones(), ones)
	}
	for _, i := range []int{0, 1, n / 3, n / 2, n} {
		if i > n {
			continue
		}
		if got, want := v.Rank1(i), ref.rank1(i); got != want {
			t.Fatalf("Rank1(%d) = %d, want %d", i, got, want)
		}
		if got, want := v.Rank0(i), i-ref.rank1(i); got != want {
			t.Fatalf("Rank0(%d) = %d, want %d", i, got, want)
		}
	}
	for _, k := range []int{0, 1, ones / 2, ones - 1, ones} {
		if got, want := v.Select1(k), ref.select1(k); got != want {
			t.Fatalf("Select1(%d) = %d, want %d", k, got, want)
		}
	}
	zeros := n - ones
	for _, k := range []int{0, zeros / 2, zeros - 1, zeros} {
		if got, want := v.Select0(k), ref.select0(k); got != want {
			t.Fatalf("Select0(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestBitVectorAppendHeavy(t *testing.T) {
	// Pure append builds deep right spines; rank/select must stay exact.
	v := NewBitVector()
	for i := 0; i < 20_000; i++ {
		v.Insert(i, i%3 == 0)
	}
	if v.Len() != 20_000 {
		t.Fatalf("Len = %d", v.Len())
	}
	want := (20_000 + 2) / 3
	if v.Ones() != want {
		t.Fatalf("Ones = %d, want %d", v.Ones(), want)
	}
	for _, i := range []int{0, 1, 2, 3, 63, 64, 65, 4095, 4096, 4097, 19_999} {
		if got := v.Get(i); got != (i%3 == 0) {
			t.Fatalf("Get(%d) = %v", i, got)
		}
	}
	if got := v.Rank1(20_000); got != want {
		t.Fatalf("Rank1(end) = %d, want %d", got, want)
	}
	for k := 0; k < want; k += 997 {
		if got := v.Select1(k); got != 3*k {
			t.Fatalf("Select1(%d) = %d, want %d", k, got, 3*k)
		}
	}
}

func TestBitVectorPrependHeavy(t *testing.T) {
	v := NewBitVector()
	for i := 0; i < 10_000; i++ {
		v.Insert(0, i%2 == 0)
	}
	if v.Len() != 10_000 || v.Ones() != 5000 {
		t.Fatalf("Len=%d Ones=%d", v.Len(), v.Ones())
	}
	// Prepending reverses order: positions 0.. alternate starting with the
	// last inserted bit (i=9999, odd → false).
	if v.Get(0) != false || v.Get(1) != true {
		t.Fatal("prepend order wrong")
	}
}

func TestBitVectorDeleteAll(t *testing.T) {
	v := NewBitVector()
	for i := 0; i < 9000; i++ {
		v.Insert(i, i%5 == 0)
	}
	for v.Len() > 0 {
		v.Delete(v.Len() / 2)
	}
	if v.Len() != 0 || v.Ones() != 0 {
		t.Fatalf("Len=%d Ones=%d after deleting all", v.Len(), v.Ones())
	}
	// The vector must be reusable afterwards.
	v.Insert(0, true)
	if v.Len() != 1 || !v.Get(0) {
		t.Fatal("vector unusable after full drain")
	}
}

func TestBitVectorEdgePanics(t *testing.T) {
	v := NewBitVector()
	for _, f := range []func(){
		func() { v.Get(0) },
		func() { v.Delete(0) },
		func() { v.Insert(1, true) },
		func() { v.Insert(-1, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBitVectorSelectOutOfRange(t *testing.T) {
	v := NewBitVector()
	v.Insert(0, true)
	v.Insert(1, false)
	if v.Select1(1) != -1 || v.Select1(-1) != -1 {
		t.Fatal("Select1 out of range should return -1")
	}
	if v.Select0(1) != -1 {
		t.Fatal("Select0 out of range should return -1")
	}
}

// refSeq is the naive reference for Wavelet.
type refSeq struct{ s []byte }

func (r *refSeq) insert(i int, c byte) {
	r.s = append(r.s, 0)
	copy(r.s[i+1:], r.s[i:])
	r.s[i] = c
}

func (r *refSeq) delete(i int) byte {
	c := r.s[i]
	r.s = append(r.s[:i], r.s[i+1:]...)
	return c
}

func (r *refSeq) rank(c byte, i int) int {
	n := 0
	for _, x := range r.s[:i] {
		if x == c {
			n++
		}
	}
	return n
}

func (r *refSeq) sel(c byte, k int) int {
	for i, x := range r.s {
		if x == c {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

func TestWaveletRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWavelet()
	ref := &refSeq{}
	alphabet := []byte{0, 1, 2, 3, 7, 64, 128, 255}
	for step := 0; step < 20_000; step++ {
		n := w.Len()
		switch {
		case n == 0 || rng.Float64() < 0.6:
			i := rng.Intn(n + 1)
			c := alphabet[rng.Intn(len(alphabet))]
			w.Insert(i, c)
			ref.insert(i, c)
		default:
			i := rng.Intn(n)
			got := w.Delete(i)
			want := ref.delete(i)
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %d, want %d", step, i, got, want)
			}
		}
		if step%127 == 0 {
			checkSeqAgree(t, w, ref, alphabet)
		}
	}
	checkSeqAgree(t, w, ref, alphabet)
}

func checkSeqAgree(t *testing.T, w *Wavelet, ref *refSeq, alphabet []byte) {
	t.Helper()
	if w.Len() != len(ref.s) {
		t.Fatalf("Len %d != %d", w.Len(), len(ref.s))
	}
	n := len(ref.s)
	for _, i := range []int{0, n / 2, n - 1} {
		if i < 0 || i >= n {
			continue
		}
		if got := w.Access(i); got != ref.s[i] {
			t.Fatalf("Access(%d) = %d, want %d", i, got, ref.s[i])
		}
	}
	for _, c := range alphabet {
		for _, i := range []int{0, n / 3, n} {
			if got, want := w.Rank(c, i), ref.rank(c, i); got != want {
				t.Fatalf("Rank(%d, %d) = %d, want %d", c, i, got, want)
			}
		}
		total := ref.rank(c, n)
		for _, k := range []int{0, total / 2, total - 1, total} {
			if k < 0 {
				continue
			}
			if got, want := w.Select(c, k), ref.sel(c, k); got != want {
				t.Fatalf("Select(%d, %d) = %d, want %d", c, k, got, want)
			}
		}
	}
}

func TestWaveletAbsentSymbol(t *testing.T) {
	w := NewWavelet()
	for i := 0; i < 100; i++ {
		w.Insert(i, 5)
	}
	if w.Rank(6, 100) != 0 {
		t.Fatal("Rank of absent symbol should be 0")
	}
	if w.Select(6, 0) != -1 {
		t.Fatal("Select of absent symbol should be -1")
	}
	if w.Rank(5, 100) != 100 {
		t.Fatal("Rank of present symbol wrong")
	}
}

func TestWaveletEmpty(t *testing.T) {
	w := NewWavelet()
	if w.Rank(0, 10) != 0 || w.Select(0, 0) != -1 || w.Len() != 0 {
		t.Fatal("empty wavelet misbehaves")
	}
}

func TestWaveletQuick(t *testing.T) {
	f := func(ops []byte) bool {
		w := NewWavelet()
		ref := &refSeq{}
		for _, op := range ops {
			n := w.Len()
			if op < 170 || n == 0 {
				i := int(op) % (n + 1)
				c := op * 31
				w.Insert(i, c)
				ref.insert(i, c)
			} else {
				i := int(op) % n
				if w.Delete(i) != ref.delete(i) {
					return false
				}
			}
		}
		if w.Len() != len(ref.s) {
			return false
		}
		for i, c := range ref.s {
			if w.Access(i) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64ArrayRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewUint64Array()
	var ref []uint64
	for step := 0; step < 30_000; step++ {
		n := a.Len()
		switch {
		case n == 0 || rng.Float64() < 0.55:
			i := rng.Intn(n + 1)
			v := rng.Uint64()
			a.Insert(i, v)
			ref = append(ref, 0)
			copy(ref[i+1:], ref[i:])
			ref[i] = v
		case rng.Float64() < 0.5:
			i := rng.Intn(n)
			got := a.Delete(i)
			want := ref[i]
			ref = append(ref[:i], ref[i+1:]...)
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %d, want %d", step, i, got, want)
			}
		default:
			i := rng.Intn(n)
			v := rng.Uint64()
			a.Set(i, v)
			ref[i] = v
		}
		if a.Len() != len(ref) {
			t.Fatalf("Len %d != %d", a.Len(), len(ref))
		}
		if step%211 == 0 && len(ref) > 0 {
			for _, i := range []int{0, len(ref) / 2, len(ref) - 1} {
				if a.Get(i) != ref[i] {
					t.Fatalf("Get(%d) mismatch", i)
				}
			}
		}
	}
	for i, v := range ref {
		if a.Get(i) != v {
			t.Fatalf("final Get(%d) mismatch", i)
		}
	}
}

func TestUint64ArrayPanics(t *testing.T) {
	a := NewUint64Array()
	for _, f := range []func(){
		func() { a.Get(0) },
		func() { a.Delete(0) },
		func() { a.Set(0, 1) },
		func() { a.Insert(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSizeBitsGrow(t *testing.T) {
	v := NewBitVector()
	small := v.SizeBits()
	for i := 0; i < 10_000; i++ {
		v.Insert(i, true)
	}
	if v.SizeBits() <= small {
		t.Fatal("SizeBits did not grow")
	}
	w := NewWavelet()
	for i := 0; i < 1000; i++ {
		w.Insert(i, byte(i))
	}
	if w.SizeBits() <= 0 {
		t.Fatal("wavelet SizeBits not positive")
	}
	a := NewUint64Array()
	for i := 0; i < 1000; i++ {
		a.Insert(i, uint64(i))
	}
	if a.SizeBits() <= 0 {
		t.Fatal("array SizeBits not positive")
	}
}
