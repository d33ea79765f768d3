package bitsucc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// model is a reference implementation using a map.
type model map[int]bool

func (m model) next(x, u int) int {
	for i := x; i < u; i++ {
		if m[i] {
			return i
		}
	}
	return -1
}

func (m model) prev(x int) int {
	for i := x; i >= 0; i-- {
		if m[i] {
			return i
		}
	}
	return -1
}

func TestEmptySet(t *testing.T) {
	s := New(100)
	if s.Len() != 0 || s.Min() != -1 || s.Max() != -1 {
		t.Fatalf("empty set: Len=%d Min=%d Max=%d", s.Len(), s.Min(), s.Max())
	}
	if s.Next(0) != -1 || s.Prev(99) != -1 {
		t.Fatal("empty set should have no next/prev")
	}
	got := s.AppendRange(nil, 0, 99)
	if len(got) != 0 {
		t.Fatalf("empty set reported %v", got)
	}
}

func TestZeroUniverse(t *testing.T) {
	s := New(0)
	if s.Next(0) != -1 || s.Prev(0) != -1 || s.Contains(0) {
		t.Fatal("zero universe should be empty")
	}
}

func TestSingleElement(t *testing.T) {
	for _, u := range []int{1, 64, 65, 4096, 4097} {
		x := u - 1
		s := New(u)
		if !s.Add(x) {
			t.Fatalf("u=%d: Add(%d) reported not-new", u, x)
		}
		if s.Add(x) {
			t.Fatalf("u=%d: second Add(%d) reported new", u, x)
		}
		if !s.Contains(x) || s.Len() != 1 {
			t.Fatalf("u=%d: missing element", u)
		}
		if s.Min() != x || s.Max() != x {
			t.Fatalf("u=%d: Min=%d Max=%d want %d", u, s.Min(), s.Max(), x)
		}
		if s.Next(0) != x || s.Prev(u-1) != x {
			t.Fatalf("u=%d: Next/Prev wrong", u)
		}
		if !s.Remove(x) || s.Remove(x) || s.Len() != 0 {
			t.Fatalf("u=%d: Remove misbehaved", u)
		}
		if s.Next(0) != -1 {
			t.Fatalf("u=%d: ghost element after Remove", u)
		}
	}
}

func TestAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, u := range []int{1, 7, 64, 100, 4096, 100000} {
		s := New(u)
		m := model{}
		for op := 0; op < 3000; op++ {
			x := rng.Intn(u)
			switch rng.Intn(3) {
			case 0:
				got := s.Add(x)
				want := !m[x]
				m[x] = true
				if got != want {
					t.Fatalf("u=%d: Add(%d)=%v, want %v", u, x, got, want)
				}
			case 1:
				got := s.Remove(x)
				want := m[x]
				delete(m, x)
				if got != want {
					t.Fatalf("u=%d: Remove(%d)=%v, want %v", u, x, got, want)
				}
			case 2:
				if got, want := s.Next(x), m.next(x, u); got != want {
					t.Fatalf("u=%d: Next(%d)=%d, want %d", u, x, got, want)
				}
				if got, want := s.Prev(x), m.prev(x); got != want {
					t.Fatalf("u=%d: Prev(%d)=%d, want %d", u, x, got, want)
				}
			}
		}
		if s.Len() != len(m) {
			t.Fatalf("u=%d: Len=%d, want %d", u, s.Len(), len(m))
		}
	}
}

func TestReportRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := 10000
	s := New(u)
	var want []int
	for i := 0; i < 300; i++ {
		x := rng.Intn(u)
		if s.Add(x) {
			want = append(want, x)
		}
	}
	sort.Ints(want)
	got := s.AppendRange(nil, 0, u-1)
	if len(got) != len(want) {
		t.Fatalf("full report: got %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("full report mismatch at %d: got %d want %d", i, got[i], want[i])
		}
	}
	// Sub-ranges.
	for trial := 0; trial < 50; trial++ {
		lo, hi := rng.Intn(u), rng.Intn(u)
		if lo > hi {
			lo, hi = hi, lo
		}
		var wantSub []int
		for _, x := range want {
			if x >= lo && x <= hi {
				wantSub = append(wantSub, x)
			}
		}
		gotSub := s.AppendRange(nil, lo, hi)
		if len(gotSub) != len(wantSub) {
			t.Fatalf("range [%d,%d]: got %d elements, want %d", lo, hi, len(gotSub), len(wantSub))
		}
		for i := range gotSub {
			if gotSub[i] != wantSub[i] {
				t.Fatalf("range [%d,%d] mismatch at %d", lo, hi, i)
			}
		}
	}
}

func TestReportEarlyStop(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i += 10 {
		s.Add(i)
	}
	var seen []int
	s.Report(0, 99, func(x int) bool {
		seen = append(seen, x)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[2] != 20 {
		t.Fatalf("early stop collected %v", seen)
	}
}

func TestNextPrevBoundaryClamping(t *testing.T) {
	s := New(128)
	s.Add(64)
	if s.Next(-5) != 64 {
		t.Fatal("Next should clamp negative x")
	}
	if s.Next(500) != -1 {
		t.Fatal("Next beyond universe should return -1")
	}
	if s.Prev(500) != 64 {
		t.Fatal("Prev should clamp x beyond universe")
	}
	if s.Prev(-1) != -1 {
		t.Fatal("Prev of negative should return -1")
	}
}

func TestQuickAddRemoveNext(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		u := int(sizeRaw)%20000 + 1
		rng := rand.New(rand.NewSource(seed))
		s := New(u)
		m := model{}
		for op := 0; op < 500; op++ {
			x := rng.Intn(u)
			if rng.Intn(2) == 0 {
				s.Add(x)
				m[x] = true
			} else {
				s.Remove(x)
				delete(m, x)
			}
		}
		probe := rng.Intn(u)
		return s.Next(probe) == m.next(probe, u) && s.Prev(probe) == m.prev(probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeUniverseDepth(t *testing.T) {
	// 2^26 bits of universe — exercises 4+ levels.
	u := 1 << 26
	s := New(u)
	points := []int{0, 1, 63, 64, 4095, 4096, 1 << 20, u - 2, u - 1}
	for _, p := range points {
		s.Add(p)
	}
	got := s.AppendRange(nil, 0, u-1)
	if len(got) != len(points) {
		t.Fatalf("got %v", got)
	}
	for i, p := range points {
		if got[i] != p {
			t.Fatalf("point %d: got %d want %d", i, got[i], p)
		}
	}
	if s.Next(65) != 4095 {
		t.Fatalf("Next(65)=%d, want 4095", s.Next(65))
	}
	if s.Prev(1<<20-1) != 4096 {
		t.Fatalf("Prev=%d, want 4096", s.Prev(1<<20-1))
	}
}

func TestAccessorsUniverse(t *testing.T) {
	s := New(1000)
	if s.Universe() != 1000 || s.Len() != 0 {
		t.Fatalf("Universe=%d Len=%d", s.Universe(), s.Len())
	}
	s.Add(999)
	s.Add(0)
	if s.SizeBits() <= 0 {
		t.Fatal("SizeBits not positive")
	}
	if s.Min() != 0 || s.Max() != 999 {
		t.Fatalf("Min=%d Max=%d", s.Min(), s.Max())
	}
}

// TestNewFullMatchesAdds checks the bulk all-members constructor against
// adding every member one at a time, level word by level word, at
// universes on either side of each level's word boundary.
func TestNewFullMatchesAdds(t *testing.T) {
	for _, u := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 64*4096 + 1} {
		want := New(u)
		for x := 0; x < u; x++ {
			want.Add(x)
		}
		got := NewFull(u)
		if got.Len() != want.Len() {
			t.Fatalf("u=%d: Len %d, want %d", u, got.Len(), want.Len())
		}
		for l := range want.levels {
			if !slices.Equal(got.levels[l], want.levels[l]) {
				t.Fatalf("u=%d: level %d differs", u, l)
			}
		}
		if u > 0 && (got.Min() != 0 || got.Max() != u-1) {
			t.Fatalf("u=%d: Min %d Max %d", u, got.Min(), got.Max())
		}
	}
}
