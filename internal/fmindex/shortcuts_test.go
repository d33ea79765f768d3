package fmindex

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"dyncoll/internal/bitvec"
	"dyncoll/internal/snap"
)

// FuzzISAShortcuts holds the shortcuts to an inverse-array model: for a
// random permutation π of 0–4096 elements and a random marks vector
// with one mark per element — spread evenly, or bunched so that some
// select samples are too far apart to count from — every π⁻¹(k) and
// every mark's row must be the model's, and every back pointer must
// span exactly shortcutStep steps of its cycle.
func FuzzISAShortcuts(f *testing.F) {
	f.Add(uint16(0), int64(1), false)
	f.Add(uint16(1), int64(2), false)
	f.Add(uint16(5), int64(3), true)
	f.Add(uint16(700), int64(4), false)
	f.Add(uint16(4096), int64(5), true)
	f.Fuzz(func(t *testing.T, size uint16, seed int64, bunched bool) {
		rng := rand.New(rand.NewSource(seed))
		m := int(size) % 4097
		perm := rng.Perm(m)
		if rng.Intn(2) == 0 { // few long cycles instead of a random cycle structure
			perm = make([]int, m)
			order := rng.Perm(m)
			for i, e := range order {
				perm[e] = order[(i+1)%m]
			}
		}
		pi := newPacked(m, m)
		for e, v := range perm {
			pi.set(e, uint64(v))
		}
		n := m*16 + rng.Intn(64)
		var rows []int
		if bunched {
			// Half the marks in the first rows, the rest in the last.
			for i := range m {
				if i < m/2 {
					rows = append(rows, i)
				} else {
					rows = append(rows, n-(m-i))
				}
			}
		} else {
			rows = rng.Perm(n)[:m]
			slices.Sort(rows)
		}
		words := make([]uint64, (n+63)/64)
		for _, r := range rows {
			words[r>>6] |= 1 << (r & 63)
		}
		// At rate 1 every position is a multiple of s, so the row of
		// position k is that of mark π⁻¹(k).
		x := &Index{n: n, s: 1, saSamp: pi, marked: bitvec.FromWords(words, n)}
		var ok bool
		if x.isa, ok = newShortcuts(pi, x.marked); !ok {
			t.Fatal("a permutation refused")
		}
		for e, k := range perm {
			if got := x.sampleRow(k, x.lastRow); got != rows[e] {
				t.Fatalf("row of position %d = %d, want %d, mark π⁻¹(%d) = %d's", k, got, rows[e], k, e)
			}
		}
		for i, want := range rows {
			if got := x.markRowFrom(i, x.isa.sel.get(i/markSample)); got != want {
				t.Fatalf("row of mark %d = %d, want %d", i, got, want)
			}
		}
		r := 0
		for e := range m {
			if !x.isa.has.Get(e) {
				continue
			}
			b := x.isa.back.get(r)
			r++
			for range shortcutStep {
				b = perm[b]
			}
			if b != e {
				t.Fatalf("back pointer of %d spans to %d", e, b)
			}
		}
	})
}

// TestShortcutsRefuseNonPermutations: SA samples that repeat a value or
// hold one out of range derive no shortcuts.
func TestShortcutsRefuseNonPermutations(t *testing.T) {
	for _, vs := range [][]int{{0, 0}, {1, 1, 0}, {1, 2, 3, 3}, {2, 0}, {1, 2, 0, 4}} {
		pi := newPacked(len(vs), 8)
		for i, v := range vs {
			pi.set(i, uint64(v))
		}
		if _, ok := newShortcuts(pi, bitvec.FromWords(make([]uint64, 1), 64)); ok {
			t.Errorf("π = %v: derived shortcuts", vs)
		}
	}
}

// hostileCase is one corrupt FM index: mut changes y, a copy of x whose
// sample arrays it may write.
type hostileCase struct {
	name string
	mut  func(x, y *Index)
}

// ownSamples gives y its own copies of every sample array, so a
// mutation leaves x alone.
func ownSamples(y *Index) {
	y.saSamp.words = slices.Clone(y.saSamp.words)
	y.isaSamp.words = slices.Clone(y.isaSamp.words)
	if y.isa.has != nil {
		y.isa.has = bitvec.FromWords(slices.Clone(y.isa.has.Words()), y.isa.has.Len())
		y.isa.back.words = slices.Clone(y.isa.back.words)
		y.isa.sel.words = slices.Clone(y.isa.sel.words)
	}
}

// setHas rewrites which elements of y carry a back pointer.
func setHas(y *Index, e int, on bool) {
	words := slices.Clone(y.isa.has.Words())
	if on {
		words[e>>6] |= 1 << (e & 63)
	} else {
		words[e>>6] &^= 1 << (e & 63)
	}
	y.isa.has = bitvec.FromWords(words, y.isa.has.Len())
}

// longCycle returns the elements of the first cycle of π longer than
// shortcutStep, in cycle order.
func longCycle(t *testing.T, x *Index) []int {
	seen := make([]bool, x.saSamp.n)
	for lead := range seen {
		var cyc []int
		for e := lead; !seen[e]; e = x.saSamp.get(e) {
			seen[e] = true
			cyc = append(cyc, e)
		}
		if len(cyc) > shortcutStep {
			return cyc
		}
	}
	t.Fatal("π has no cycle longer than shortcutStep")
	return nil
}

// checkHostile runs each case through both codecs of layout l: the v1
// decoder must refuse it with ErrBadSnapshot; a mapped open either
// refuses it alike or yields an index whose Extract and delete walks
// finish, every row they visit below n. v2 lists the cases the mapped
// open must refuse.
func checkHostile(t *testing.T, x *Index, l Layout, cases []hostileCase, v2 map[string]bool) {
	t.Helper()
	for _, c := range cases {
		y := *x
		ownSamples(&y)
		c.mut(x, &y)
		data, _ := y.AppendBinary(nil)
		if _, err := Decode(data, l); !errors.Is(err, snap.ErrBadSnapshot) {
			t.Errorf("%s, v1: err = %v, want ErrBadSnapshot", c.name, err)
		}
		var e snap.MapEncoder
		y.EncodeMapped(&e)
		z, err := OpenMapped(snap.NewMapView(e.Bytes()), l)
		if v2[c.name] {
			if !errors.Is(err, snap.ErrBadSnapshot) {
				t.Errorf("%s, v2: err = %v, want ErrBadSnapshot", c.name, err)
			}
			continue
		}
		if err != nil {
			if !errors.Is(err, snap.ErrBadSnapshot) {
				t.Errorf("%s, v2: err = %v, want ErrBadSnapshot", c.name, err)
			}
			continue
		}
		for d := range z.DocCount() {
			z.Extract(d, 0, z.DocLen(d))
			z.ForDocRows(d, func(row int) {
				if row < 0 || row >= z.n {
					t.Fatalf("%s, v2: document %d visits row %d of %d", c.name, d, row, z.n)
				}
			})
		}
	}
}

// TestFMPHostileSamples: an fmp payload whose SA samples are not a
// permutation, whose back pointers are malformed, out of range or do
// not span shortcutStep steps, whose pointer count disagrees with its
// marker bits, or which leaves a long cycle without a pointer, fails
// the v1 decoder with ErrBadSnapshot; so does a row of n-1 out of range,
// and an fm, fm4 or fmz payload whose ISA array is not the rows its SA
// samples give. A mapped open of the same bytes checks only shapes and
// may answer wrongly, but its walks neither panic nor hang.
func TestFMPHostileSamples(t *testing.T) {
	docs := testDocs(40, rand.New(rand.NewSource(47)))
	x := Build(docs, Options{SampleRate: 4})
	m := x.saSamp.n
	if m >= 1<<x.saSamp.width || m >= 1<<x.isa.back.width {
		t.Fatalf("M = %d fills its width: no room for a value out of range", m)
	}
	cyc := longCycle(t, x)
	for _, l := range []Layout{FMP, FMZ, FM4, FM} {
		y := Build(docs, Options{SampleRate: 4, Layout: l})
		data, _ := y.AppendBinary(nil)
		var e snap.MapEncoder
		y.EncodeMapped(&e)
		if _, err := Decode(data, l); err != nil {
			t.Fatalf("layout %d, unmodified, v1: %v", l, err)
		}
		if _, err := OpenMapped(snap.NewMapView(e.Bytes()), l); err != nil {
			t.Fatalf("layout %d, unmodified, v2: %v", l, err)
		}
	}
	cases := []hostileCase{
		{"back pointer width one more", func(_, y *Index) { y.isa.back.width++ }},
		{"back pointer width 0", func(_, y *Index) { y.isa.back.width = 0 }},
		{"one back pointer word more", func(_, y *Index) { y.isa.back.words = append(y.isa.back.words, 0) }},
		{"no back pointer words", func(_, y *Index) { y.isa.back.words = nil }},
		{"SA sample repeated", func(_, y *Index) { y.saSamp.set(0, uint64(y.saSamp.get(1))) }},
		{"SA sample out of range", func(_, y *Index) { y.saSamp.set(0, uint64(m)) }},
		{"back pointer out of range", func(_, y *Index) { y.isa.back.set(0, uint64(m)) }},
		{"back pointer one step short", func(_, y *Index) {
			for r := range y.isa.back.n {
				y.isa.back.set(r, uint64(y.saSamp.get(y.isa.back.get(r))))
			}
		}},
		{"marker without pointer", func(_, y *Index) { setHas(y, cyc[1], true) }},
		{"pointer without marker", func(x, y *Index) {
			for e := range m {
				if x.isa.has.Get(e) {
					setHas(y, e, false)
					return
				}
			}
		}},
		{"long cycle without pointers", func(x, y *Index) {
			// Drop every marker of the cycle and its pointer, so the
			// count still agrees.
			var vals []uint64
			for e := range m {
				if x.isa.has.Get(e) && !slices.Contains(cyc, e) {
					vals = append(vals, uint64(y.isa.back.get(x.isa.has.Rank1(e))))
				}
			}
			for _, e := range cyc {
				if x.isa.has.Get(e) {
					setHas(y, e, false)
				}
			}
			keep := newPacked(len(vals), m)
			for i, v := range vals {
				keep.set(i, v)
			}
			y.isa.back = keep
		}},
		{"row of n-1 out of range", func(x, y *Index) { y.lastRow = x.n }},
	}
	checkHostile(t, x, FMP, cases, map[string]bool{
		"back pointer width one more": true, "back pointer width 0": true,
		"one back pointer word more": true, "no back pointer words": true,
		"row of n-1 out of range": true,
	})
	// The mapped form also holds the select samples; one past n leaves
	// a select to the marks' own.
	checkHostile(t, x, FMP, []hostileCase{{"select sample past n", func(x, y *Index) {
		y.isa.sel.set(0, uint64(min(x.n+7, 1<<y.isa.sel.width-1)))
		y.saSamp.set(0, uint64(y.saSamp.get(1))) // and one the v1 decoder refuses
	}}}, nil)

	for _, l := range []Layout{FMZ, FM4, FM} {
		x := Build(docs, Options{SampleRate: 4, Layout: l})
		x.isaSamp = x.isaRows()
		if x.n >= 1<<x.isaSamp.width {
			t.Fatalf("n = %d fills its width", x.n)
		}
		checkHostile(t, x, l, []hostileCase{
			{"ISA rows swapped", func(_, y *Index) {
				a, b := y.isaSamp.get(0), y.isaSamp.get(1)
				y.isaSamp.set(0, uint64(b))
				y.isaSamp.set(1, uint64(a))
			}},
			{"ISA row out of range", func(x, y *Index) { y.isaSamp.set(1, uint64(x.n)) }},
		}, nil)
	}
}
